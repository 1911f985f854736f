// Maintenance-plane tests: SET op combining, slab automove, the
// expired-item crawler, and a TSan-targeted torture of GETs on one hot key
// racing every kind of mutation, background resizes and maintenance ticks.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/memcache/engine.h"
#include "src/memcache/item.h"
#include "src/memcache/rp_engine.h"
#include "src/memcache/slab.h"
#include "src/rcu/epoch.h"

namespace {

using namespace rp::memcache;

// -- SET op combining -----------------------------------------------------

TEST(OpCombining, RepeatedSetsOfOneKeyCoalesce) {
  RpEngine rp{EngineConfig{}};
  const std::string key = "hammered";
  std::vector<std::string> values;
  std::vector<StoreOp> ops(8);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    values.push_back("v" + std::to_string(i));
  }
  for (std::size_t i = 0; i < ops.size(); ++i) {
    ops[i].kind = StoreKind::kSet;
    ops[i].key = key;
    ops[i].data = values[i];
  }
  std::vector<StoreResult> results(ops.size());
  rp.StoreMany(ops.data(), ops.size(), results.data());
  for (const StoreResult result : results) {
    EXPECT_EQ(result, StoreResult::kStored);  // wire semantics unchanged
  }
  StoredValue out;
  ASSERT_TRUE(rp.Get(key, &out));
  EXPECT_EQ(out.data, "v7");  // the survivor's value
  const EngineStats stats = rp.Stats();
  EXPECT_EQ(stats.set_combines, 7u);  // all but the last coalesced
  EXPECT_EQ(stats.sets, 8u);          // still counted per op
  EXPECT_EQ(stats.total_items, 1u);   // one real insert, like per-op
}

TEST(OpCombining, InterveningOpDisqualifiesTheEarlierSet) {
  // set k AA / append k B / set k CC: the first SET must really execute —
  // the append's result depends on it.
  RpEngine rp{EngineConfig{}};
  StoreOp ops[3];
  ops[0].kind = StoreKind::kSet;
  ops[0].key = "k";
  ops[0].data = "AA";
  ops[1].kind = StoreKind::kAppend;
  ops[1].key = "k";
  ops[1].data = "B";
  ops[2].kind = StoreKind::kSet;
  ops[2].key = "k";
  ops[2].data = "CC";
  StoreResult results[3];
  rp.StoreMany(ops, 3, results);
  EXPECT_EQ(results[0], StoreResult::kStored);
  EXPECT_EQ(results[1], StoreResult::kStored);
  EXPECT_EQ(results[2], StoreResult::kStored);
  StoredValue out;
  ASSERT_TRUE(rp.Get("k", &out));
  EXPECT_EQ(out.data, "CC");
  EXPECT_EQ(rp.Stats().set_combines, 0u);
}

// -- Slab automove (engine level; allocator-level tests live in
//    test_memcache_slab.cc) ----------------------------------------------

TEST(Automove, CalcifiedArenaRecoversThroughTheTick) {
  // One shard with a ONE-PAGE value arena (arena_bytes = max_bytes = 4 KiB
  // clamps page_bytes to the whole arena): the first mid-size store carves
  // the only page for its class; after those items die the arena is
  // calcified — a larger class is dry while the old class hoards a fully
  // free page.
  EngineConfig config;
  config.shards = 1;
  config.max_bytes = 4096;
  config.initial_buckets = 64;
  RpEngine rp(config);

  const std::string mid(600, 'm');  // > kEmbedMaxData: uses the value slab
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(rp.Set("mid-" + std::to_string(i), mid, 0, 0),
              StoreResult::kStored);
  }
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(rp.Delete("mid-" + std::to_string(i)));
  }
  // Deferred frees must actually land before the page can be whole again.
  rp::rcu::Epoch::Barrier();

  // A larger-class store now finds its class dry against the carved-out
  // arena and falls back to the heap (charged, counted).
  const std::string big(1024, 'b');
  ASSERT_EQ(rp.Set("big-0", big, 0, 0), StoreResult::kStored);
  const EngineStats before = rp.Stats();
  EXPECT_GT(before.slab_fallbacks, 0u);

  // The automover sees the large class's exhaustion spike and the mid
  // class's fully-free page, and moves it across. (The shard's resize
  // worker may already have ticked in the background — the explicit tick
  // just makes the move deterministic.)
  rp.RunMaintenanceTick(0);
  const EngineStats moved = rp.Stats();
  EXPECT_GE(moved.slab_pages_moved, 1u);

  // Recovery: the next large store is pooled — fallbacks stop growing.
  ASSERT_EQ(rp.Set("big-1", big, 0, 0), StoreResult::kStored);
  EXPECT_EQ(rp.Stats().slab_fallbacks, moved.slab_fallbacks);
}

// -- Expired-item crawler -------------------------------------------------

TEST(Crawler, ReclaimsExpiredItemsWithoutAnyRequestTouchingThem) {
  EngineConfig config;
  config.shards = 1;
  config.initial_buckets = 64;
  RpEngine rp(config);
  // Stored live, so the shard's own background tick cannot reclaim any of
  // them before the count below; they die once their two-second TTL lapses.
  const std::int64_t stored_at = NowSeconds();
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(rp.Set("dead-" + std::to_string(i), "v", 0, 2),
              StoreResult::kStored);
  }
  ASSERT_EQ(rp.ItemCount(), 50u);
  while (NowSeconds() < stored_at + 3) {  // the last second's stores too
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  // Each tick crawls a few buckets; enough ticks cover the table. No GET
  // ever touches these keys — the crawl alone must reclaim them.
  for (int tick = 0; tick < 64 && rp.ItemCount() != 0; ++tick) {
    rp.RunMaintenanceTick(0);
  }
  EXPECT_EQ(rp.ItemCount(), 0u);
  const EngineStats stats = rp.Stats();
  EXPECT_EQ(stats.crawler_reclaims, 50u);
  EXPECT_GE(stats.expired_reclaims, 50u);  // crawls count as reclaims too
}

// -- Torture: GETs on a hot key racing every mutation --------------------

// TSan target (runs in the normal suite too): readers hammer one hot key
// while a writer rewrites it, a chaos thread deletes/flushes it, churn
// forces background resizes, and a ticker runs the key's maintenance tick
// continuously. Readers assert every observed value is one a SET actually
// published — uniform 16-byte runs of 'a'..'h' — so a torn or stale read
// cannot hide.
TEST(MaintenanceTorture, HotKeyGetsRaceSetsDeletesFlushesAndResizes) {
  EngineConfig config;
  config.shards = 2;
  config.initial_buckets = 16;  // background resizes under churn
  RpEngine rp(config);
  const std::string hot = "celebrity";
  ASSERT_EQ(rp.Set(hot, std::string(16, 'a'), 0, 0), StoreResult::kStored);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};

  std::vector<std::thread> threads;
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      StoredValue out;
      while (!stop.load(std::memory_order_relaxed)) {
        if (rp.Get(hot, &out)) {
          ASSERT_EQ(out.data.size(), 16u);
          const char c = out.data[0];
          ASSERT_GE(c, 'a');
          ASSERT_LE(c, 'h');
          ASSERT_EQ(out.data, std::string(16, c));
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  threads.emplace_back([&] {  // writer
    for (int i = 0; i < 20000; ++i) {
      rp.Set(hot, std::string(16, static_cast<char>('a' + i % 8)), 0, 0);
    }
    stop.store(true, std::memory_order_relaxed);
  });
  threads.emplace_back([&] {  // chaos: delete and flush the hot key
    int i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      rp.Delete(hot);
      if (++i % 16 == 0) {
        rp.FlushAll(0);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  threads.emplace_back([&] {  // churn: force background resizes
    int i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string key = "churn-" + std::to_string(i % 4096);
      rp.Set(key, "x", 0, 0);
      if (i % 3 == 0) {
        rp.Delete(key);
      }
      ++i;
    }
  });
  threads.emplace_back([&] {  // ticker: run the maintenance tick
    while (!stop.load(std::memory_order_relaxed)) {
      rp.RunMaintenanceTick(rp.ShardIndex(hot));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_GT(reads.load(), 0u);
}

}  // namespace
