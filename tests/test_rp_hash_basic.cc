// Basic (single-threaded) behaviour of the resizable RP hash map.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/core/rp_hash_map.h"
#include "src/rcu/epoch.h"

namespace rp::core {
namespace {

using IntMap = RpHashMap<std::uint64_t, std::uint64_t>;
using StrMap = RpHashMap<std::string, std::string>;

TEST(RpHashMapBasic, StartsEmpty) {
  IntMap map;
  EXPECT_TRUE(map.Empty());
  EXPECT_EQ(map.Size(), 0u);
  EXPECT_FALSE(map.Contains(1));
  EXPECT_FALSE(map.Get(1).has_value());
}

TEST(RpHashMapBasic, InsertThenGet) {
  IntMap map;
  EXPECT_TRUE(map.Insert(1, 100));
  EXPECT_TRUE(map.Contains(1));
  auto v = map.Get(1);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 100u);
  EXPECT_EQ(map.Size(), 1u);
}

TEST(RpHashMapBasic, DuplicateInsertFails) {
  IntMap map;
  EXPECT_TRUE(map.Insert(1, 100));
  EXPECT_FALSE(map.Insert(1, 200));
  EXPECT_EQ(*map.Get(1), 100u);
  EXPECT_EQ(map.Size(), 1u);
}

TEST(RpHashMapBasic, InsertOrAssignReplaces) {
  IntMap map;
  EXPECT_TRUE(map.InsertOrAssign(1, 100));
  EXPECT_FALSE(map.InsertOrAssign(1, 200));
  EXPECT_EQ(*map.Get(1), 200u);
  EXPECT_EQ(map.Size(), 1u);
}

TEST(RpHashMapBasic, InsertOrAssignReportsReplacedValue) {
  IntMap map;
  std::uint64_t observed = 0;
  int calls = 0;
  const auto observe = [&](const std::uint64_t& old) {
    observed = old;
    ++calls;
  };
  EXPECT_TRUE(map.InsertOrAssign(1, 100, observe));
  EXPECT_EQ(calls, 0);  // fresh insert: nothing replaced
  EXPECT_FALSE(map.InsertOrAssign(1, 200, observe));
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(observed, 100u);  // saw the value being swapped out
  EXPECT_EQ(*map.Get(1), 200u);
}

TEST(RpHashMapBasic, EraseRemoves) {
  IntMap map;
  map.Insert(1, 100);
  map.Insert(2, 200);
  EXPECT_TRUE(map.Erase(1));
  EXPECT_FALSE(map.Contains(1));
  EXPECT_TRUE(map.Contains(2));
  EXPECT_EQ(map.Size(), 1u);
  EXPECT_FALSE(map.Erase(1));
}

TEST(RpHashMapBasic, UpdateAppliesInPlaceSemantics) {
  IntMap map;
  map.Insert(7, 1);
  EXPECT_TRUE(map.Update(7, [](std::uint64_t& v) { v += 41; }));
  EXPECT_EQ(*map.Get(7), 42u);
  EXPECT_FALSE(map.Update(8, [](std::uint64_t& v) { v = 0; }));
}

TEST(RpHashMapBasic, WithVisitsValue) {
  StrMap map;
  map.Insert("k", "v");
  bool visited = false;
  EXPECT_TRUE(map.With("k", [&](const std::string& v) {
    visited = true;
    EXPECT_EQ(v, "v");
  }));
  EXPECT_TRUE(visited);
  EXPECT_FALSE(map.With("missing", [](const std::string&) { FAIL(); }));
}

TEST(RpHashMapBasic, MoveRenamesKey) {
  IntMap map;
  map.Insert(1, 100);
  EXPECT_TRUE(map.Move(1, 2));
  EXPECT_FALSE(map.Contains(1));
  EXPECT_EQ(*map.Get(2), 100u);
  EXPECT_EQ(map.Size(), 1u);
}

TEST(RpHashMapBasic, MoveFailsOnMissingSource) {
  IntMap map;
  EXPECT_FALSE(map.Move(1, 2));
}

TEST(RpHashMapBasic, MoveFailsOnExistingDestination) {
  IntMap map;
  map.Insert(1, 100);
  map.Insert(2, 200);
  EXPECT_FALSE(map.Move(1, 2));
  EXPECT_EQ(*map.Get(1), 100u);
  EXPECT_EQ(*map.Get(2), 200u);
}

TEST(RpHashMapBasic, ClearEmptiesMap) {
  IntMap map;
  for (std::uint64_t i = 0; i < 100; ++i) {
    map.Insert(i, i);
  }
  map.Clear();
  EXPECT_TRUE(map.Empty());
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_FALSE(map.Contains(i));
  }
}

TEST(RpHashMapBasic, ManyKeysAllRetrievable) {
  IntMap map(16);
  constexpr std::uint64_t kN = 10000;
  for (std::uint64_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(map.Insert(i, i * 3));
  }
  EXPECT_EQ(map.Size(), kN);
  for (std::uint64_t i = 0; i < kN; ++i) {
    auto v = map.Get(i);
    ASSERT_TRUE(v.has_value()) << i;
    EXPECT_EQ(*v, i * 3);
  }
  // Long chains (load factor 625): still precise buckets.
  EXPECT_TRUE(map.BucketsArePrecise());
}

TEST(RpHashMapBasic, ForEachVisitsAll) {
  IntMap map;
  std::set<std::uint64_t> expected;
  for (std::uint64_t i = 0; i < 500; ++i) {
    map.Insert(i, i);
    expected.insert(i);
  }
  std::set<std::uint64_t> seen;
  map.ForEach([&](const std::uint64_t& k, const std::uint64_t& v) {
    EXPECT_EQ(k, v);
    seen.insert(k);
  });
  EXPECT_EQ(seen, expected);
}

TEST(RpHashMapBasic, StringKeys) {
  StrMap map;
  map.Insert("alpha", "a");
  map.Insert("beta", "b");
  map.Insert("gamma", "c");
  EXPECT_EQ(*map.Get("beta"), "b");
  EXPECT_TRUE(map.Erase("beta"));
  EXPECT_FALSE(map.Contains("beta"));
  EXPECT_EQ(map.Size(), 2u);
}

TEST(RpHashMapBasic, BucketCountRoundsToPowerOfTwo) {
  IntMap map(100);
  EXPECT_EQ(map.BucketCount(), 128u);
}

TEST(RpHashMapBasic, LoadFactorReflectsContents) {
  IntMap map(128);
  for (std::uint64_t i = 0; i < 256; ++i) {
    map.Insert(i, i);
  }
  EXPECT_DOUBLE_EQ(map.LoadFactor(), 2.0);
}

TEST(RpHashMapBasic, CollidingKeysCoexist) {
  // Force every key into one bucket with a degenerate hash.
  struct OneBucketHash {
    std::size_t operator()(const std::uint64_t&) const { return 42; }
  };
  RpHashMap<std::uint64_t, std::uint64_t, OneBucketHash> map(16);
  for (std::uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(map.Insert(i, i + 1));
  }
  for (std::uint64_t i = 0; i < 100; ++i) {
    ASSERT_EQ(*map.Get(i), i + 1);
  }
  EXPECT_TRUE(map.Erase(50));
  EXPECT_FALSE(map.Contains(50));
  EXPECT_EQ(map.Size(), 99u);
}

TEST(RpHashMapBasic, UpdateIfPublishesOnlyWhenAccepted) {
  IntMap map(16);
  map.Insert(1, 10);
  // Accepted: the mutation lands.
  EXPECT_TRUE(map.UpdateIf(1, [](std::uint64_t& v) {
    v = 11;
    return true;
  }));
  EXPECT_EQ(*map.Get(1), 11u);
  // Aborted: the clone's mutation is discarded.
  EXPECT_FALSE(map.UpdateIf(1, [](std::uint64_t& v) {
    v = 99;
    return false;
  }));
  EXPECT_EQ(*map.Get(1), 11u);
  // Absent key: not invoked, returns false.
  EXPECT_FALSE(map.UpdateIf(2, [](std::uint64_t&) { return true; }));
}

TEST(RpHashMapBasic, TwoPhaseUpdateIfClonesOnlyOnAcceptedCheck) {
  IntMap map(16);
  map.Insert(1, 10);
  // Rejected check: mutate phase must not run.
  bool mutated = false;
  EXPECT_FALSE(map.UpdateIf(
      1, [](const std::uint64_t& v) { return v > 100; },
      [&](std::uint64_t& v) {
        mutated = true;
        v = 0;
      }));
  EXPECT_FALSE(mutated);
  EXPECT_EQ(*map.Get(1), 10u);
  // Accepted check: mutation lands.
  EXPECT_TRUE(map.UpdateIf(
      1, [](const std::uint64_t& v) { return v == 10; },
      [](std::uint64_t& v) { v = 11; }));
  EXPECT_EQ(*map.Get(1), 11u);
}

TEST(RpHashMapBasic, EraseIfRespectsPredicate) {
  IntMap map(16);
  map.Insert(1, 10);
  map.Insert(2, 20);
  EXPECT_FALSE(map.EraseIf(1, [](const std::uint64_t& v) { return v > 15; }));
  EXPECT_TRUE(map.Contains(1));
  EXPECT_TRUE(map.EraseIf(2, [](const std::uint64_t& v) { return v > 15; }));
  EXPECT_FALSE(map.Contains(2));
  EXPECT_FALSE(map.EraseIf(3, [](const std::uint64_t&) { return true; }));
  EXPECT_EQ(map.Size(), 1u);
}

}  // namespace
}  // namespace rp::core
