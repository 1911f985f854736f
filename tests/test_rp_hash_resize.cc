// Resize behaviour of the RP hash map: expansion (unzip), shrinking
// (concatenation), instrumentation, and correctness across size sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "src/core/rp_hash_map.h"
#include "src/rcu/epoch.h"
#include "src/rcu/qsbr.h"

namespace rp::core {
namespace {

using IntMap = RpHashMap<std::uint64_t, std::uint64_t>;

void FillMap(IntMap& map, std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(map.Insert(i, i * 7 + 1));
  }
}

void ExpectAllPresent(const IntMap& map, std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) {
    auto v = map.Get(i);
    ASSERT_TRUE(v.has_value()) << "missing key " << i;
    EXPECT_EQ(*v, i * 7 + 1);
  }
}

TEST(RpHashMapResize, ExpandPreservesContents) {
  IntMap map(16);
  FillMap(map, 1000);
  map.Resize(256);
  EXPECT_EQ(map.BucketCount(), 256u);
  EXPECT_EQ(map.Size(), 1000u);
  ExpectAllPresent(map, 1000);
  EXPECT_TRUE(map.BucketsArePrecise());
}

TEST(RpHashMapResize, ShrinkPreservesContents) {
  IntMap map(256);
  FillMap(map, 1000);
  map.Resize(16);
  EXPECT_EQ(map.BucketCount(), 16u);
  EXPECT_EQ(map.Size(), 1000u);
  ExpectAllPresent(map, 1000);
  EXPECT_TRUE(map.BucketsArePrecise());
}

TEST(RpHashMapResize, ExpandOnEmptyMap) {
  IntMap map(16);
  map.Resize(64);
  EXPECT_EQ(map.BucketCount(), 64u);
  map.Insert(1, 2);
  EXPECT_EQ(*map.Get(1), 2u);
}

TEST(RpHashMapResize, ShrinkToMinimumBuckets) {
  IntMap map(64);
  FillMap(map, 100);
  map.Resize(1);  // every key in one chain
  EXPECT_EQ(map.BucketCount(), 1u);
  ExpectAllPresent(map, 100);
}

TEST(RpHashMapResize, RepeatedExpandShrinkCycles) {
  IntMap map(16);
  FillMap(map, 500);
  for (int round = 0; round < 10; ++round) {
    map.Resize(512);
    ExpectAllPresent(map, 500);
    EXPECT_TRUE(map.BucketsArePrecise());
    map.Resize(16);
    ExpectAllPresent(map, 500);
    EXPECT_TRUE(map.BucketsArePrecise());
  }
  EXPECT_EQ(map.Size(), 500u);
}

TEST(RpHashMapResize, ExpandAndShrinkAreInverses) {
  IntMap map(32);
  FillMap(map, 333);
  map.Resize(map.BucketCount() * 2);
  EXPECT_EQ(map.BucketCount(), 64u);
  map.Resize(map.BucketCount() / 2);
  EXPECT_EQ(map.BucketCount(), 32u);
  ExpectAllPresent(map, 333);
}

TEST(RpHashMapResize, MultiStepResizeJumpsFactors) {
  IntMap map(8);
  FillMap(map, 200);
  map.Resize(1024);  // 7 doublings in one call
  EXPECT_EQ(map.BucketCount(), 1024u);
  ExpectAllPresent(map, 200);
  map.Resize(8);  // 7 halvings
  EXPECT_EQ(map.BucketCount(), 8u);
  ExpectAllPresent(map, 200);
}

TEST(RpHashMapResize, NoOpResizeIsCheap) {
  IntMap map(64);
  FillMap(map, 10);
  const auto before = map.ResizeCount();
  map.Resize(64);
  EXPECT_EQ(map.BucketCount(), 64u);
  EXPECT_EQ(map.ResizeCount(), before + 1);
  const ResizeStats stats = map.LastResizeStats();
  EXPECT_EQ(stats.grace_periods, 0u);
  EXPECT_EQ(stats.pointer_swings, 0u);
}

TEST(RpHashMapResize, ShrinkUsesExactlyOneGracePeriodPerHalving) {
  IntMap map(256);
  FillMap(map, 2000);
  map.Resize(128);
  EXPECT_EQ(map.LastResizeStats().grace_periods, 1u);
  map.Resize(32);  // two halvings
  EXPECT_EQ(map.LastResizeStats().grace_periods, 2u);
}

TEST(RpHashMapResize, ExpandGracePeriodsScaleWithRunsNotElements) {
  // With thousands of elements, unzip grace periods must stay tiny
  // (≈ max interleave-run count per chain), far below element count.
  IntMap map(256);
  FillMap(map, 4096);  // load factor 16 pre-expansion
  map.Resize(512);
  const ResizeStats stats = map.LastResizeStats();
  EXPECT_GE(stats.grace_periods, 1u);
  EXPECT_LT(stats.grace_periods, 64u)
      << "unzip must batch one swing per chain per pass";
  ExpectAllPresent(map, 4096);
}

TEST(RpHashMapResize, StatsReportShape) {
  IntMap map(16);
  FillMap(map, 128);
  map.Resize(32);
  const ResizeStats stats = map.LastResizeStats();
  EXPECT_EQ(stats.from_buckets, 16u);
  EXPECT_EQ(stats.to_buckets, 32u);
  EXPECT_GT(stats.duration_ns, 0u);
  EXPECT_GT(stats.pointer_swings, 0u);
}

TEST(RpHashMapResize, InsertAfterResizeLandsInCorrectBucket) {
  IntMap map(16);
  FillMap(map, 100);
  map.Resize(64);
  for (std::uint64_t i = 1000; i < 1100; ++i) {
    ASSERT_TRUE(map.Insert(i, i * 7 + 1));
  }
  for (std::uint64_t i = 1000; i < 1100; ++i) {
    EXPECT_TRUE(map.Contains(i));
  }
  EXPECT_TRUE(map.BucketsArePrecise());
}

TEST(RpHashMapResize, EraseAfterResizeWorks) {
  IntMap map(16);
  FillMap(map, 200);
  map.Resize(128);
  for (std::uint64_t i = 0; i < 200; i += 2) {
    EXPECT_TRUE(map.Erase(i));
  }
  for (std::uint64_t i = 0; i < 200; ++i) {
    EXPECT_EQ(map.Contains(i), i % 2 == 1);
  }
}

TEST(RpHashMapResize, ExpandWithOneBucketHashStillCorrect) {
  // All keys in one chain: worst case for unzipping (maximum run count in
  // one chain, zero in the others).
  struct OneBucketHash {
    std::size_t operator()(const std::uint64_t&) const { return 3; }
  };
  RpHashMap<std::uint64_t, std::uint64_t, OneBucketHash> map(4);
  for (std::uint64_t i = 0; i < 64; ++i) {
    map.Insert(i, i);
  }
  map.Resize(8);
  for (std::uint64_t i = 0; i < 64; ++i) {
    EXPECT_TRUE(map.Contains(i)) << i;
  }
}

// Identity hash: a key's low bits are its bucket, so a test lays out its
// chains exactly.
struct IdentityHash {
  std::size_t operator()(const std::uint64_t& k) const { return k; }
};
using IdentityMap = RpHashMap<std::uint64_t, std::uint64_t, IdentityHash>;

TEST(RpHashMapResize, AlternatingHashMaximizesUnzipPasses) {
  // Elements in one old bucket alternate strictly between the two new
  // buckets: 32 runs of one node, the worst-case pass count.
  IdentityMap map(2);
  // Keys 0,2,4,...: old bucket 0 of 2; new buckets alternate 0/2 mod 4.
  for (std::uint64_t i = 0; i < 32; ++i) {
    map.Insert(i * 2, i);
  }
  map.Resize(4);
  const ResizeStats stats = map.LastResizeStats();
  for (std::uint64_t i = 0; i < 32; ++i) {
    EXPECT_TRUE(map.Contains(i * 2));
  }
  // r runs cost r - 2 passes, r - 1 swings and r - 1 grace periods (the
  // first before any swing, then one between consecutive passes).
  EXPECT_EQ(stats.unzip_passes, 30u);
  EXPECT_EQ(stats.pointer_swings, 31u);
  EXPECT_EQ(stats.grace_periods, 31u);
  EXPECT_TRUE(map.BucketsArePrecise());
}

// Keys of old chain `chain` (0 or 1 of 2 buckets), head first, laid out as
// runs of the given lengths that alternate between new buckets `chain`
// and `chain + 2` of 4. Chain 0 starts in its low bucket, chain 1 in its
// high one.
std::vector<std::uint64_t> ChainOfRuns(std::uint64_t chain,
                                       const std::vector<std::size_t>& runs) {
  std::vector<std::uint64_t> keys;
  std::uint64_t m = 0;
  for (std::size_t j = 0; j < runs.size(); ++j) {
    const std::uint64_t high = (j + chain) % 2;
    for (std::size_t n = 0; n < runs[j]; ++n) {
      keys.push_back(4 * m++ + chain + 2 * high);
    }
  }
  return keys;
}

// Expands a 2-bucket table whose two chains hold the given runs, and checks
// the unzip against the run counts: r runs cost r - 2 passes, r - 1 swings
// and r - 1 grace periods, passes run in parallel across chains, and each
// new bucket keeps its keys in the old chain's order.
void ExpectUnzipOf(const std::vector<std::size_t>& runs0,
                   const std::vector<std::size_t>& runs1) {
  const std::vector<std::uint64_t> chains[2] = {ChainOfRuns(0, runs0),
                                                ChainOfRuns(1, runs1)};
  IdentityMap map(2);
  for (const auto& chain : chains) {
    // Inserts go to the head: insert in reverse to read the chain in order.
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      ASSERT_TRUE(map.Insert(*it, *it));
    }
  }
  map.Resize(4);
  const ResizeStats stats = map.LastResizeStats();
  const std::size_t r = std::max(runs0.size(), runs1.size());
  const auto swings = [](const std::vector<std::size_t>& runs) {
    return runs.empty() ? 0 : runs.size() - 1;
  };
  EXPECT_EQ(stats.unzip_passes, r > 2 ? r - 2 : 0);
  EXPECT_EQ(stats.pointer_swings, swings(runs0) + swings(runs1));
  EXPECT_EQ(stats.grace_periods, r > 2 ? r - 1 : 1);
  EXPECT_TRUE(map.BucketsArePrecise());

  // ForEach walks buckets 0..3 in order, each chain head first.
  std::vector<std::uint64_t> expected;
  for (std::uint64_t bucket = 0; bucket < 4; ++bucket) {
    for (std::uint64_t key : chains[bucket % 2]) {
      if ((key & 3) == bucket) {
        expected.push_back(key);
      }
    }
  }
  std::vector<std::uint64_t> seen;
  map.ForEach(
      [&](const std::uint64_t& k, const std::uint64_t&) { seen.push_back(k); });
  EXPECT_EQ(seen, expected);
}

TEST(RpHashMapResize, UnzipOfOneRun) {
  ExpectUnzipOf({3}, {});
  ExpectUnzipOf({1}, {2});
}

TEST(RpHashMapResize, UnzipOfTwoRuns) {
  ExpectUnzipOf({2, 3}, {1});
  ExpectUnzipOf({1, 1}, {4, 2});
}

TEST(RpHashMapResize, UnzipOfThreeRuns) {
  ExpectUnzipOf({1, 2, 1}, {2, 2});
  ExpectUnzipOf({3}, {2, 1, 3});
}

TEST(RpHashMapResize, UnzipOfFourRuns) {
  ExpectUnzipOf({3, 1, 1, 2}, {});
  ExpectUnzipOf({1, 1, 1, 1}, {2, 3, 1, 2});
}

TEST(RpHashMapResize, UnzipOfSevenRuns) {
  ExpectUnzipOf({1, 2, 3, 1, 2, 1, 2}, {2, 1, 1});
  ExpectUnzipOf({4}, {1, 1, 2, 1, 3, 1, 1});
}

TEST(RpHashMapResize, QsbrDomainResizes) {
  rcu::Qsbr::RegisterThread();
  RpHashMap<std::uint64_t, std::uint64_t, MixedHash<std::uint64_t>,
            std::equal_to<std::uint64_t>, rcu::Qsbr>
      map(16);
  for (std::uint64_t i = 0; i < 500; ++i) {
    map.Insert(i, i);
  }
  map.Resize(128);
  for (std::uint64_t i = 0; i < 500; ++i) {
    EXPECT_TRUE(map.Contains(i));
  }
  map.Resize(16);
  for (std::uint64_t i = 0; i < 500; ++i) {
    EXPECT_TRUE(map.Contains(i));
  }
  rcu::Qsbr::Offline();
}

}  // namespace
}  // namespace rp::core
