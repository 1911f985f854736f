// Engine contract tests, run against BOTH engines (locked and RP) via a
// parameterized factory, plus engine-specific concurrency checks.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "src/memcache/locked_engine.h"
#include "src/memcache/rp_engine.h"
#include "src/util/rng.h"

namespace rp::memcache {
namespace {

using EngineFactory = std::function<std::unique_ptr<CacheEngine>(EngineConfig)>;

class EngineTest : public ::testing::TestWithParam<EngineFactory> {
 protected:
  std::unique_ptr<CacheEngine> Make(EngineConfig config = {}) {
    return GetParam()(config);
  }
};

TEST_P(EngineTest, GetMissOnEmpty) {
  auto engine = Make();
  StoredValue out;
  EXPECT_FALSE(engine->Get("nope", &out));
}

TEST_P(EngineTest, SetThenGet) {
  auto engine = Make();
  EXPECT_EQ(engine->Set("k", "v", 3, 0), StoreResult::kStored);
  StoredValue out;
  ASSERT_TRUE(engine->Get("k", &out));
  EXPECT_EQ(out.data, "v");
  EXPECT_EQ(out.flags, 3u);
  EXPECT_GT(out.cas, 0u);
}

TEST_P(EngineTest, SetOverwrites) {
  auto engine = Make();
  engine->Set("k", "v1", 0, 0);
  engine->Set("k", "v2", 0, 0);
  StoredValue out;
  ASSERT_TRUE(engine->Get("k", &out));
  EXPECT_EQ(out.data, "v2");
  EXPECT_EQ(engine->ItemCount(), 1u);
}

TEST_P(EngineTest, CasChangesOnEveryStore) {
  auto engine = Make();
  engine->Set("k", "a", 0, 0);
  StoredValue first;
  engine->Get("k", &first);
  engine->Set("k", "b", 0, 0);
  StoredValue second;
  engine->Get("k", &second);
  EXPECT_NE(first.cas, second.cas);
}

TEST_P(EngineTest, AddOnlyWhenAbsent) {
  auto engine = Make();
  EXPECT_EQ(engine->Add("k", "v", 0, 0), StoreResult::kStored);
  EXPECT_EQ(engine->Add("k", "w", 0, 0), StoreResult::kNotStored);
  StoredValue out;
  engine->Get("k", &out);
  EXPECT_EQ(out.data, "v");
}

TEST_P(EngineTest, ReplaceOnlyWhenPresent) {
  auto engine = Make();
  EXPECT_EQ(engine->Replace("k", "v", 0, 0), StoreResult::kNotStored);
  engine->Set("k", "v", 0, 0);
  EXPECT_EQ(engine->Replace("k", "w", 0, 0), StoreResult::kStored);
  StoredValue out;
  engine->Get("k", &out);
  EXPECT_EQ(out.data, "w");
}

TEST_P(EngineTest, AppendPrepend) {
  auto engine = Make();
  EXPECT_EQ(engine->Append("k", "x"), StoreResult::kNotStored);
  engine->Set("k", "mid", 0, 0);
  EXPECT_EQ(engine->Append("k", "-end"), StoreResult::kStored);
  EXPECT_EQ(engine->Prepend("k", "start-"), StoreResult::kStored);
  StoredValue out;
  engine->Get("k", &out);
  EXPECT_EQ(out.data, "start-mid-end");
}

TEST_P(EngineTest, CheckAndSetProtocol) {
  auto engine = Make();
  EXPECT_EQ(engine->CheckAndSet("k", "v", 0, 0, 1), StoreResult::kNotFound);
  engine->Set("k", "v", 0, 0);
  StoredValue out;
  engine->Get("k", &out);
  EXPECT_EQ(engine->CheckAndSet("k", "w", 0, 0, out.cas + 1), StoreResult::kExists);
  EXPECT_EQ(engine->CheckAndSet("k", "w", 0, 0, out.cas), StoreResult::kStored);
  engine->Get("k", &out);
  EXPECT_EQ(out.data, "w");
}

TEST_P(EngineTest, DeleteRemoves) {
  auto engine = Make();
  engine->Set("k", "v", 0, 0);
  EXPECT_TRUE(engine->Delete("k"));
  StoredValue out;
  EXPECT_FALSE(engine->Get("k", &out));
  EXPECT_FALSE(engine->Delete("k"));
}

TEST_P(EngineTest, IncrDecrArithmetic) {
  auto engine = Make();
  engine->Set("n", "10", 0, 0);
  ArithResult r = engine->Incr("n", 5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value, 15u);
  r = engine->Decr("n", 3);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value, 12u);
  r = engine->Decr("n", 100);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value, 0u);  // clamps at zero
  StoredValue out;
  engine->Get("n", &out);
  EXPECT_EQ(out.data, "0");
}

TEST_P(EngineTest, IncrDistinguishesMissingFromNonNumeric) {
  auto engine = Make();
  // Missing (and expired) keys are NOT_FOUND on the wire...
  EXPECT_EQ(engine->Incr("missing", 1).status, ArithStatus::kNotFound);
  engine->Set("gone", "1", 0, -1);  // instantly expired
  EXPECT_EQ(engine->Incr("gone", 1).status, ArithStatus::kNotFound);
  // ...but a live non-numeric value is a CLIENT_ERROR, like real
  // memcached; the engine must not collapse the two.
  engine->Set("s", "abc", 0, 0);
  EXPECT_EQ(engine->Incr("s", 1).status, ArithStatus::kNonNumeric);
  EXPECT_EQ(engine->Decr("s", 1).status, ArithStatus::kNonNumeric);
  // The failed arithmetic must not have clobbered the value.
  StoredValue out;
  ASSERT_TRUE(engine->Get("s", &out));
  EXPECT_EQ(out.data, "abc");
}

TEST_P(EngineTest, ExpiredItemIsAMiss) {
  auto engine = Make();
  engine->Set("k", "v", 0, -1);  // negative exptime: instantly expired
  StoredValue out;
  EXPECT_FALSE(engine->Get("k", &out));
}

TEST_P(EngineTest, TouchExtendsAndExpires) {
  auto engine = Make();
  engine->Set("k", "v", 0, 0);
  EXPECT_TRUE(engine->Touch("k", -1));  // expire it now
  StoredValue out;
  EXPECT_FALSE(engine->Get("k", &out));
  EXPECT_FALSE(engine->Touch("missing", 100));
}

TEST_P(EngineTest, FlushAllEmptiesCache) {
  auto engine = Make();
  for (int i = 0; i < 100; ++i) {
    engine->Set("k" + std::to_string(i), "v", 0, 0);
  }
  engine->FlushAll();
  EXPECT_EQ(engine->ItemCount(), 0u);
  EXPECT_EQ(engine->Stats().bytes, 0u);
  StoredValue out;
  EXPECT_FALSE(engine->Get("k5", &out));
}

TEST_P(EngineTest, FlushAllWithFutureDelayKeepsItemsLive) {
  auto engine = Make();
  engine->Set("k", "v", 0, 0);
  // An absurd wire-supplied delay must saturate, not overflow now+delay.
  engine->FlushAll(std::numeric_limits<std::int64_t>::max());
  StoredValue out;
  EXPECT_TRUE(engine->Get("k", &out));
  engine->FlushAll(30);  // deadline far in the future
  EXPECT_TRUE(engine->Get("k", &out));
  // An immediate flush overrides the armed deadline and clears now.
  engine->FlushAll(0);
  EXPECT_FALSE(engine->Get("k", &out));
  // Items stored after the (cancelled) deadline behave normally.
  engine->Set("k2", "w", 0, 0);
  EXPECT_TRUE(engine->Get("k2", &out));
}

TEST_P(EngineTest, FlushAllDelayExpiresOnceDeadlinePasses) {
  auto engine = Make();
  engine->Set("before", "v", 0, 0);
  engine->FlushAll(1);
  // Stored after the command but before the deadline: dies too (the
  // memcached oldest_live rule — only items stored at/after the deadline
  // survive).
  engine->Set("pre-deadline", "v", 0, 0);
  StoredValue out;
  EXPECT_TRUE(engine->Get("before", &out));  // deadline not reached yet
  std::this_thread::sleep_for(std::chrono::milliseconds(2100));
  EXPECT_FALSE(engine->Get("before", &out));
  EXPECT_FALSE(engine->Get("pre-deadline", &out));
  // A flushed item cannot be revived through partial mutations...
  EXPECT_EQ(engine->Append("before", "x"), StoreResult::kNotStored);
  EXPECT_EQ(engine->Incr("before", 1).status, ArithStatus::kNotFound);
  EXPECT_FALSE(engine->Touch("before", 100));
  // ...but a full store after the deadline survives.
  engine->Set("after", "w", 0, 0);
  EXPECT_TRUE(engine->Get("after", &out));
  EXPECT_EQ(engine->Add("before", "fresh", 0, 0), StoreResult::kStored);
  EXPECT_TRUE(engine->Get("before", &out));
  EXPECT_EQ(out.data, "fresh");
}

TEST_P(EngineTest, BytesTrackStoresUpdatesAndDeletes) {
  auto engine = Make();
  // Exact accounting: the gauge charges the key, the fixed overhead, and
  // the actual slab-chunk footprint of the payload — predicted here from
  // the same (default) slab policy the engine derives from its config.
  const auto charge = [](const std::string& key, const std::string& data) {
    return static_cast<std::uint64_t>(
        ModelChargedBytes(EngineConfig{}, key.size(), data.size()));
  };
  engine->Set("alpha", "12345", 0, 0);
  EXPECT_EQ(engine->Stats().bytes, charge("alpha", "12345"));
  // Overwrite re-charges the new size, not old + new.
  engine->Set("alpha", "123456789", 0, 0);
  EXPECT_EQ(engine->Stats().bytes, charge("alpha", "123456789"));
  engine->Append("alpha", "xx");
  EXPECT_EQ(engine->Stats().bytes, charge("alpha", "123456789xx"));
  engine->Set("beta", "1", 0, 0);
  EXPECT_EQ(engine->Stats().bytes,
            charge("alpha", "123456789xx") + charge("beta", "1"));
  engine->Incr("beta", 99);  // "1" -> "100": one byte wider twice over
  EXPECT_EQ(engine->Stats().bytes,
            charge("alpha", "123456789xx") + charge("beta", "100"));
  EXPECT_TRUE(engine->Delete("alpha"));
  EXPECT_EQ(engine->Stats().bytes, charge("beta", "100"));
  EXPECT_TRUE(engine->Delete("beta"));
  EXPECT_EQ(engine->Stats().bytes, 0u);
}

TEST_P(EngineTest, ByteCapIsNeverExceeded) {
  EngineConfig config;
  config.max_bytes = 64 * 1024;
  auto engine = Make(config);
  EXPECT_EQ(engine->Stats().limit_maxbytes, config.max_bytes);
  Xoshiro256 rng(7);
  const std::string blob(900, 'b');
  for (int i = 0; i < 600; ++i) {
    const std::string key = "k" + std::to_string(rng.NextBounded(256));
    switch (rng.NextBounded(4)) {
      case 0:
        engine->Append(key, "-tail");
        break;
      case 1:
        engine->Replace(key, blob + blob, 0, 0);
        break;
      default:
        engine->Set(key, blob, 0, 0);
        break;
    }
    ASSERT_LE(engine->Stats().bytes, config.max_bytes) << "op " << i;
  }
  EXPECT_GT(engine->Stats().evictions, 0u);
}

TEST_P(EngineTest, StatsReportTotalItems) {
  auto engine = Make();
  engine->Set("a", "1", 0, 0);
  engine->Set("a", "2", 0, 0);  // overwrite: not a new item
  engine->Set("b", "1", 0, 0);
  EXPECT_EQ(engine->Stats().total_items, 2u);
  engine->Delete("a");
  engine->Set("a", "3", 0, 0);  // re-linked after delete: counts again
  EXPECT_EQ(engine->Stats().total_items, 3u);
  // add over an expired entry is a reclaim plus a fresh link — both
  // engines must agree on the count for identical traffic.
  engine->Set("dead", "x", 0, -1);
  EXPECT_EQ(engine->Add("dead", "y", 0, 0), StoreResult::kStored);
  EXPECT_EQ(engine->Stats().total_items, 5u);
}

TEST_P(EngineTest, EvictionRespectsItemCap) {
  EngineConfig config;
  config.max_items = 100;
  auto engine = Make(config);
  for (int i = 0; i < 500; ++i) {
    engine->Set("k" + std::to_string(i), "v", 0, 0);
  }
  EXPECT_LE(engine->ItemCount(), 110u);  // cap plus small slack
  EXPECT_GT(engine->Stats().evictions, 0u);
}

TEST_P(EngineTest, StatsCountHitsAndMisses) {
  auto engine = Make();
  engine->Set("k", "v", 0, 0);
  StoredValue out;
  engine->Get("k", &out);
  engine->Get("gone", &out);
  const EngineStats stats = engine->Stats();
  EXPECT_EQ(stats.get_hits, 1u);
  EXPECT_EQ(stats.get_misses, 1u);
  EXPECT_GE(stats.sets, 1u);
  EXPECT_EQ(stats.items, 1u);
}

TEST_P(EngineTest, ConcurrentGetSetStress) {
  auto engine = Make();
  constexpr int kKeys = 256;
  for (int i = 0; i < kKeys; ++i) {
    engine->Set("k" + std::to_string(i), "v0", 0, 0);
  }
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> misses{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Xoshiro256 rng(t);
      StoredValue out;
      while (!stop.load(std::memory_order_relaxed)) {
        const int k = static_cast<int>(rng.NextBounded(kKeys));
        if (!engine->Get("k" + std::to_string(k), &out)) {
          misses.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&, t] {
      Xoshiro256 rng(100 + t);
      for (int i = 0; i < 5000; ++i) {
        const int k = static_cast<int>(rng.NextBounded(kKeys));
        engine->Set("k" + std::to_string(k), "v" + std::to_string(i), 0, 0);
      }
    });
  }
  for (auto& w : writers) {
    w.join();
  }
  stop.store(true);
  for (auto& r : readers) {
    r.join();
  }
  // SETs always overwrite, never remove: no GET may ever miss.
  EXPECT_EQ(misses.load(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, EngineTest,
    ::testing::Values(
        EngineFactory([](EngineConfig c) -> std::unique_ptr<CacheEngine> {
          return std::make_unique<LockedEngine>(c);
        }),
        EngineFactory([](EngineConfig c) -> std::unique_ptr<CacheEngine> {
          return std::make_unique<RpEngine>(c);
        })),
    [](const ::testing::TestParamInfo<EngineFactory>& param) {
      return param.index == 0 ? "Locked" : "Rp";
    });

// --- RP-engine specifics ---------------------------------------------------------

// Regression: with no item or byte cap, the eviction queue must not be fed
// at all — it used to accumulate one entry per insert (and never drain,
// because the sweep early-returns when unlimited), growing memory without
// bound under set/delete churn.
TEST(RpEngineSpecific, UnlimitedCacheKeepsEvictionQueueEmpty) {
  RpEngine engine;  // max_items == 0 && max_bytes == 0: unlimited
  for (int i = 0; i < 20000; ++i) {
    const std::string key = "churn-" + std::to_string(i);
    engine.Set(key, "v", 0, 0);
    engine.Delete(key);
  }
  EXPECT_EQ(engine.EvictionQueueDepth(), 0u);
  EXPECT_EQ(engine.ItemCount(), 0u);
  EXPECT_EQ(engine.Stats().bytes, 0u);
}

// Contrast: a capped cache does track, but the sweep keeps the queue near
// the live-item population instead of the insert count.
TEST(RpEngineSpecific, CappedCacheBoundsEvictionQueue) {
  EngineConfig config;
  config.max_items = 64;
  RpEngine engine(config);
  for (int i = 0; i < 20000; ++i) {
    engine.Set("churn-" + std::to_string(i), "v", 0, 0);
  }
  // Per-shard cap is ceil(64/8) = 8; stale entries are dropped by the
  // sweep, so the queue can never hold more than the caps plus slack.
  EXPECT_LE(engine.EvictionQueueDepth(), 128u);
}

TEST(RpEngineSpecific, TableResizesWithPopulation) {
  EngineConfig config;
  config.initial_buckets = 16;
  RpEngine engine(config);
  const std::size_t before = engine.BucketCount();
  for (int i = 0; i < 20000; ++i) {
    engine.Set("key-" + std::to_string(i), "v", 0, 0);
  }
  EXPECT_GT(engine.BucketCount(), before);
}

TEST(RpEngineSpecific, GetsScaleWhileSettersRun) {
  // Smoke-check the architecture claim: GETs proceed while a SET storm
  // holds the slow-path lock (would deadlock/starve if GET took the lock).
  RpEngine engine;
  engine.Set("hot", "value", 0, 0);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> gets{0};
  std::thread reader([&] {
    StoredValue out;
    while (!stop.load(std::memory_order_relaxed)) {
      const bool hit = engine.Get("hot", &out);
      gets.fetch_add(1, std::memory_order_relaxed);
      ASSERT_TRUE(hit);
    }
  });
  // Start the storm only once the reader runs: on a loaded machine the
  // SETs below can otherwise finish before the reader is scheduled at all.
  while (gets.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  for (int i = 0; i < 20000; ++i) {
    engine.Set("churn-" + std::to_string(i % 64), "x", 0, 0);
  }
  stop.store(true);
  reader.join();
  EXPECT_GT(gets.load(), 1000u);
}

TEST(LockedEngineSpecific, LruEvictsOldestUntouched) {
  EngineConfig config;
  config.max_items = 3;
  LockedEngine engine(config);
  engine.Set("a", "1", 0, 0);
  engine.Set("b", "2", 0, 0);
  engine.Set("c", "3", 0, 0);
  StoredValue out;
  ASSERT_TRUE(engine.Get("a", &out));  // a becomes MRU
  engine.Set("d", "4", 0, 0);          // evicts b (LRU)
  EXPECT_TRUE(engine.Get("a", &out));
  EXPECT_FALSE(engine.Get("b", &out));
  EXPECT_TRUE(engine.Get("c", &out));
  EXPECT_TRUE(engine.Get("d", &out));
}

}  // namespace
}  // namespace rp::memcache
