// Property-based parameterized sweeps (TEST_P / INSTANTIATE_TEST_SUITE_P)
// over table sizes, load factors, resize factors and thread counts.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include "src/core/hash.h"
#include "src/core/resize_worker.h"
#include "src/core/rp_hash_map.h"
#include "src/util/rng.h"
#include "src/util/zipf.h"
#include "tests/worker_race.h"

namespace rp::core {
namespace {

using IntMap = RpHashMap<std::uint64_t, std::uint64_t>;

// ---------------------------------------------------------------------------
// Property: for any (initial buckets, element count, target buckets),
// resizing preserves exactly the inserted key set and ends precise.
// ---------------------------------------------------------------------------
class ResizeProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t, std::size_t>> {};

TEST_P(ResizeProperty, ContentsExactAcrossResize) {
  const auto [initial_buckets, num_elements, target_buckets] = GetParam();
  IntMap map(initial_buckets);
  Xoshiro256 rng(initial_buckets * 31 + num_elements);
  std::set<std::uint64_t> model;
  while (model.size() < num_elements) {
    const std::uint64_t key = rng.Next();
    if (model.insert(key).second) {
      ASSERT_TRUE(map.Insert(key, key + 1));
    }
  }
  map.Resize(target_buckets);
  EXPECT_EQ(map.BucketCount(), CeilPowerOfTwo(target_buckets));
  EXPECT_EQ(map.Size(), model.size());
  for (std::uint64_t key : model) {
    auto v = map.Get(key);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, key + 1);
  }
  std::size_t visited = 0;
  map.ForEach([&](const std::uint64_t& k, const std::uint64_t&) {
    EXPECT_TRUE(model.count(k));
    ++visited;
  });
  EXPECT_EQ(visited, model.size());  // no duplicates after quiescence
  EXPECT_TRUE(map.BucketsArePrecise());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ResizeProperty,
    ::testing::Combine(::testing::Values(4, 16, 128),
                       ::testing::Values(0, 1, 100, 3000),
                       ::testing::Values(4, 64, 1024)));

// ---------------------------------------------------------------------------
// Property: unzip grace periods stay logarithmic-ish in chain length
// (bounded by max run count), across load factors.
// ---------------------------------------------------------------------------
class UnzipCostProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UnzipCostProperty, GracePeriodsBoundedByChainRuns) {
  const std::uint64_t load_factor = GetParam();
  constexpr std::size_t kBuckets = 128;
  IntMap map(kBuckets);
  for (std::uint64_t i = 0; i < load_factor * kBuckets; ++i) {
    map.Insert(i, i);
  }
  map.Resize(kBuckets * 2);
  const ResizeStats stats = map.LastResizeStats();
  // Publication GP + at most (max chain length) unzip GPs; expected far
  // fewer. Chain length ~ load_factor, runs ~ load_factor/2 on average but
  // the bound is max over 128 chains, estimate generously.
  EXPECT_LE(stats.grace_periods, 1 + load_factor * 4 + 8);
  EXPECT_TRUE(map.BucketsArePrecise());
}

INSTANTIATE_TEST_SUITE_P(LoadFactors, UnzipCostProperty,
                         ::testing::Values(1, 2, 4, 8, 16, 32));

// ---------------------------------------------------------------------------
// Property: shrink is always exactly one grace period per halving,
// independent of size and occupancy.
// ---------------------------------------------------------------------------
class ShrinkCostProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {};

TEST_P(ShrinkCostProperty, OneGracePeriodPerHalving) {
  const auto [buckets, elements] = GetParam();
  IntMap map(buckets);
  for (std::uint64_t i = 0; i < elements; ++i) {
    map.Insert(i, i);
  }
  map.Resize(buckets / 2);
  EXPECT_EQ(map.LastResizeStats().grace_periods, 1u);
  for (std::uint64_t i = 0; i < elements; ++i) {
    ASSERT_TRUE(map.Contains(i));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ShrinkCostProperty,
    ::testing::Combine(::testing::Values(16, 256, 4096),
                       ::testing::Values(0, 64, 2048)));

// ---------------------------------------------------------------------------
// Property: under reader/writer/resizer concurrency, stable keys are always
// found — across thread counts.
// ---------------------------------------------------------------------------
class ConcurrencyProperty : public ::testing::TestWithParam<int> {};

TEST_P(ConcurrencyProperty, StableKeysAlwaysVisible) {
  const int num_readers = GetParam();
  constexpr std::uint64_t kStable = 1024;
  IntMap map(64);
  for (std::uint64_t i = 0; i < kStable; ++i) {
    map.Insert(i, i);
  }
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> misses{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < num_readers; ++t) {
    readers.emplace_back([&, t] {
      Xoshiro256 rng(t);
      while (!stop.load(std::memory_order_relaxed)) {
        if (!map.Contains(rng.NextBounded(kStable))) {
          misses.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::thread churn([&] {
    Xoshiro256 rng(777);
    for (int i = 0; i < 4000; ++i) {
      const std::uint64_t key = kStable + rng.NextBounded(256);
      if (rng.NextDouble() < 0.5) {
        map.InsertOrAssign(key, key);
      } else {
        map.Erase(key);
      }
    }
  });
  for (int round = 0; round < 8; ++round) {
    map.Resize(1024);
    map.Resize(64);
  }
  churn.join();
  stop.store(true);
  for (auto& r : readers) {
    r.join();
  }
  EXPECT_EQ(misses.load(), 0u);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ConcurrencyProperty,
                         ::testing::Values(1, 2, 4, 8));

// ---------------------------------------------------------------------------
// Property: hash mixing spreads any input pattern across buckets.
// ---------------------------------------------------------------------------
class HashSpreadProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HashSpreadProperty, StridedKeysSpreadEvenly) {
  const std::uint64_t stride = GetParam();
  constexpr std::size_t kBuckets = 64;
  constexpr std::size_t kKeys = 6400;
  std::vector<std::size_t> counts(kBuckets, 0);
  MixedHash<std::uint64_t> hasher;
  for (std::size_t i = 0; i < kKeys; ++i) {
    ++counts[hasher(i * stride) & (kBuckets - 1)];
  }
  const std::size_t expected = kKeys / kBuckets;
  for (std::size_t c : counts) {
    EXPECT_GT(c, expected / 3);
    EXPECT_LT(c, expected * 3);
  }
}

INSTANTIATE_TEST_SUITE_P(Strides, HashSpreadProperty,
                         ::testing::Values(1, 2, 64, 4096, 1000003));

// ---------------------------------------------------------------------------
// Property: Mix64 is a bijection-ish avalanche — flipping one input bit
// flips ~half the output bits.
// ---------------------------------------------------------------------------
class AvalancheProperty : public ::testing::TestWithParam<int> {};

TEST_P(AvalancheProperty, SingleBitFlipAvalanches) {
  const int bit = GetParam();
  Xoshiro256 rng(123);
  double total_flips = 0;
  constexpr int kTrials = 2000;
  for (int t = 0; t < kTrials; ++t) {
    const std::uint64_t x = rng.Next();
    const std::uint64_t delta = Mix64(x) ^ Mix64(x ^ (1ULL << bit));
    total_flips += __builtin_popcountll(delta);
  }
  const double mean_flips = total_flips / kTrials;
  EXPECT_GT(mean_flips, 24.0);
  EXPECT_LT(mean_flips, 40.0);
}

INSTANTIATE_TEST_SUITE_P(Bits, AvalancheProperty,
                         ::testing::Values(0, 7, 21, 42, 63));

// ---------------------------------------------------------------------------
// Property: a resize worker racing the writer brings the load factor back
// within its bounds across workload sizes, and shrinks a drained table to
// its floor.
// ---------------------------------------------------------------------------
class ResizeWorkerProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ResizeWorkerProperty, LoadFactorStaysBounded) {
  const std::uint64_t n = GetParam();
  IntMap map(4);
  ResizeWorkerOptions options = FastWorker();
  options.shrink_at = 0.125;
  options.min_buckets = 4;
  ResizeWorker<IntMap> worker(map, options);
  for (std::uint64_t i = 0; i < n; ++i) {
    map.Insert(i, i);
    worker.Nudge();
  }
  WriteUntilResized(worker, [&] {
    for (std::uint64_t i = 0; i < n; ++i) {
      map.InsertOrAssign(i, i);
    }
  });
  EXPECT_GT(worker.ResizesPerformed(), 0u);
  WaitUntil([&] { return map.LoadFactor() <= options.grow_at; });  // 2.0
  for (std::uint64_t i = 0; i < n; ++i) {
    map.Erase(i);
    worker.Nudge();
  }
  EXPECT_EQ(map.Size(), 0u);
  WaitUntil([&] { return map.BucketCount() == options.min_buckets; });
}

INSTANTIATE_TEST_SUITE_P(Sizes, ResizeWorkerProperty,
                         ::testing::Values(10, 100, 1000, 10000, 50000));

}  // namespace
}  // namespace rp::core
