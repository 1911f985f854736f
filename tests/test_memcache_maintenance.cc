// Maintenance-plane tests: hot-key front cache coherence (ARCHITECTURE.md
// invariant #8 — "the front cache never serves a value the table would
// not"), the promoted/unpromoted conformance matrix, SET op combining,
// slab automove, the expired-item crawler, and a TSan-targeted torture of
// GETs on a promoted key racing every kind of mutation plus background
// resizes.
//
// Promotion is driven deterministically: hammer a key (the detector
// samples every 64th op per stripe), then RunMaintenanceTick() the key's
// shard — exactly what the shard's resize worker runs on its poll, minus
// the waiting.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/memcache/connection.h"
#include "src/memcache/engine.h"
#include "src/memcache/item.h"
#include "src/memcache/locked_engine.h"
#include "src/memcache/protocol.h"
#include "src/memcache/rp_engine.h"
#include "src/memcache/slab.h"
#include "src/memcache/workload.h"
#include "src/rcu/epoch.h"

namespace {

using namespace rp::memcache;

// Hammers `key` with GETs until the detector must have sampled it several
// times (the per-stripe counter samples every 64th op), then runs the
// shard's maintenance tick synchronously.
void PromoteKey(RpEngine& rp, const std::string& key) {
  StoredValue out;
  for (int i = 0; i < 512; ++i) {
    rp.Get(key, &out);
  }
  rp.RunMaintenanceTick(rp.ShardIndex(key));
}

std::string Execute(CacheEngine& engine, const Request& request) {
  std::string response;
  bool quit = false;
  ExecuteRequest(engine, request, &response, &quit);
  return response;
}

std::string WireGet(CacheEngine& engine, const std::string& key) {
  Request request;
  request.op = Op::kGet;
  request.keys = {key};
  return Execute(engine, request);
}

// -- Front-cache basics ---------------------------------------------------

TEST(FrontCache, HotKeyGetsPromotedAndServedFromSnapshot) {
  RpEngine rp{EngineConfig{}};
  ASSERT_EQ(rp.Set("celebrity", "payload", 7, 0), StoreResult::kStored);
  PromoteKey(rp, "celebrity");
  EXPECT_GE(rp.Stats().hot_key_promotions, 1u);

  const std::uint64_t hits_before = rp.Stats().front_cache_hits;
  StoredValue out;
  ASSERT_TRUE(rp.Get("celebrity", &out));
  EXPECT_EQ(out.data, "payload");
  EXPECT_EQ(out.flags, 7u);
  EXPECT_GT(rp.Stats().front_cache_hits, hits_before);
}

TEST(FrontCache, DisabledConfigNeverPromotes) {
  EngineConfig config;
  config.hot_key_cache = false;
  RpEngine rp(config);
  ASSERT_EQ(rp.Set("celebrity", "payload", 0, 0), StoreResult::kStored);
  PromoteKey(rp, "celebrity");
  StoredValue out;
  ASSERT_TRUE(rp.Get("celebrity", &out));
  const EngineStats stats = rp.Stats();
  EXPECT_EQ(stats.hot_key_promotions, 0u);
  EXPECT_EQ(stats.front_cache_hits, 0u);
}

TEST(FrontCache, LargeValuesAreNeverPromoted) {
  RpEngine rp{EngineConfig{}};
  // 300 bytes exceeds the snapshot's inline value region (kEmbedMaxData).
  const std::string big(300, 'x');
  ASSERT_EQ(rp.Set("celebrity", big, 0, 0), StoreResult::kStored);
  PromoteKey(rp, "celebrity");
  StoredValue out;
  ASSERT_TRUE(rp.Get("celebrity", &out));
  EXPECT_EQ(out.data, big);
  EXPECT_EQ(rp.Stats().front_cache_hits, 0u);
}

// Invariant #8's enforcing test: after ANY mutation of a promoted key, the
// very next GET observes the mutation — the front cache can never serve
// what the table would not.
TEST(FrontCache, EveryMutationInvalidatesThePromotedSnapshot) {
  RpEngine rp{EngineConfig{}};
  StoredValue out;

  // Overwrite.
  ASSERT_EQ(rp.Set("k", "v1", 0, 0), StoreResult::kStored);
  PromoteKey(rp, "k");
  ASSERT_TRUE(rp.Get("k", &out));
  ASSERT_EQ(out.data, "v1");
  ASSERT_EQ(rp.Set("k", "v2", 0, 0), StoreResult::kStored);
  ASSERT_TRUE(rp.Get("k", &out));
  EXPECT_EQ(out.data, "v2");

  // Append / prepend through the promoted state.
  PromoteKey(rp, "k");
  ASSERT_EQ(rp.Append("k", "+tail"), StoreResult::kStored);
  ASSERT_TRUE(rp.Get("k", &out));
  EXPECT_EQ(out.data, "v2+tail");

  // CAS through the promoted state (the snapshot's cas token must be the
  // live one, and the store must be visible immediately).
  PromoteKey(rp, "k");
  ASSERT_TRUE(rp.Get("k", &out));
  ASSERT_EQ(rp.CheckAndSet("k", "v3", 0, 0, out.cas), StoreResult::kStored);
  ASSERT_TRUE(rp.Get("k", &out));
  EXPECT_EQ(out.data, "v3");

  // Delete.
  PromoteKey(rp, "k");
  ASSERT_TRUE(rp.Delete("k"));
  EXPECT_FALSE(rp.Get("k", &out));

  // Incr through the promoted state.
  ASSERT_EQ(rp.Set("k", "41", 0, 0), StoreResult::kStored);
  PromoteKey(rp, "k");
  EXPECT_EQ(rp.Incr("k", 1).value, 42u);
  ASSERT_TRUE(rp.Get("k", &out));
  EXPECT_EQ(out.data, "42");

  // Immediate flush_all.
  PromoteKey(rp, "k");
  rp.FlushAll(0);
  EXPECT_FALSE(rp.Get("k", &out));
}

TEST(FrontCache, PromotedSnapshotHonorsExpiryWithoutInvalidation) {
  // Time-based death needs NO mutation: the snapshot carries expire_at and
  // the GET fast path applies the same IsExpired rule as a table walk.
  RpEngine rp{EngineConfig{}};
  ASSERT_EQ(rp.Set("k", "v", 0, 1), StoreResult::kStored);
  PromoteKey(rp, "k");
  StoredValue out;
  ASSERT_TRUE(rp.Get("k", &out));
  const std::int64_t deadline = NowSeconds() + 2;
  while (NowSeconds() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_FALSE(rp.Get("k", &out));
}

TEST(FrontCache, PromotedSnapshotHonorsDelayedFlushDeadline) {
  RpEngine rp{EngineConfig{}};
  ASSERT_EQ(rp.Set("k", "v", 0, 0), StoreResult::kStored);
  PromoteKey(rp, "k");
  const std::int64_t armed_at = NowSeconds();
  rp.FlushAll(1);
  const std::int64_t deadline = armed_at + 2;
  while (NowSeconds() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  StoredValue out;
  EXPECT_FALSE(rp.Get("k", &out));
}

// -- Promoted/unpromoted conformance matrix -------------------------------

// Every protocol op against a promoted key must produce byte-identical
// wire transcripts to the same op on an unpromoted key (a second RP
// instance fed the identical op sequence, minus GET hammering — GETs
// allocate no cas, so the engines stay in lockstep), and the same
// normalized transcript as the locked engine. The follow-up GET pins the
// state each op left behind.
TEST(FrontCacheConformance, PromotedMatchesUnpromotedAndLockedOnEveryOp) {
  struct OpSpec {
    const char* name;
    Op op;
  };
  const OpSpec kOps[] = {
      {"get", Op::kGet},         {"gets", Op::kGets},
      {"set", Op::kSet},         {"add", Op::kAdd},
      {"replace", Op::kReplace}, {"append", Op::kAppend},
      {"prepend", Op::kPrepend}, {"cas", Op::kCas},
      {"delete", Op::kDelete},   {"incr", Op::kIncr},
      {"decr", Op::kDecr},       {"touch", Op::kTouch},
  };

  EngineConfig config;
  config.shards = 4;
  RpEngine promoted(config);
  RpEngine unpromoted(config);
  LockedEngine locked{EngineConfig{}};
  CacheEngine* engines[] = {&promoted, &unpromoted, &locked};

  for (const OpSpec& spec : kOps) {
    const std::string key = std::string("hot-") + spec.name;
    for (CacheEngine* engine : engines) {
      ASSERT_EQ(engine->Set(key, "100", 3, 0), StoreResult::kStored);
    }
    PromoteKey(promoted, key);

    Request request;
    request.op = spec.op;
    request.keys = {key};
    switch (spec.op) {
      case Op::kSet:
      case Op::kAdd:
      case Op::kReplace:
        request.data = "200";
        break;
      case Op::kAppend:
      case Op::kPrepend:
        request.data = "9";
        break;
      case Op::kCas: {
        // The snapshot's cas token must be the live one: fetch it FROM the
        // promoted engine's front cache and use it for the store.
        StoredValue out;
        ASSERT_TRUE(promoted.Get(key, &out));
        request.data = "300";
        request.cas = out.cas;
        break;
      }
      case Op::kIncr:
        request.delta = 5;
        break;
      case Op::kDecr:
        request.delta = 7;
        break;
      case Op::kTouch:
        request.exptime = 500;
        break;
      default:
        break;
    }

    const std::string promoted_out = Execute(promoted, request);
    // The unpromoted twin needs its own cas token (same value by
    // construction — identical op sequences step identical counters —
    // but fetched independently so the test can't mask a divergence).
    if (spec.op == Op::kCas) {
      StoredValue out;
      ASSERT_TRUE(unpromoted.Get(key, &out));
      request.cas = out.cas;
    }
    const std::string unpromoted_out = Execute(unpromoted, request);
    EXPECT_EQ(promoted_out, unpromoted_out) << spec.name << " on " << key;

    // Post-op state agrees too (and the promoted engine's answer comes
    // from the table or a re-validated snapshot, never a stale one).
    EXPECT_EQ(WireGet(promoted, key), WireGet(unpromoted, key))
        << "post-" << spec.name << " state";
  }
  EXPECT_GE(promoted.Stats().hot_key_promotions, 1u);
  EXPECT_EQ(unpromoted.Stats().hot_key_promotions, 0u);
}

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

TEST(OpCombining, DisabledWithTheFrontCache) {
  EngineConfig config;
  config.hot_key_cache = false;
  RpEngine rp(config);
  StoreOp ops[4];
  for (StoreOp& op : ops) {
    op.kind = StoreKind::kSet;
    op.key = "k";
    op.data = "v";
  }
  StoreResult results[4];
  rp.StoreMany(ops, 4, results);
  EXPECT_EQ(rp.Stats().set_combines, 0u);
  EXPECT_EQ(rp.Stats().sets, 4u);
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

// -- Torture: GETs on a promoted key racing every mutation ----------------

// TSan target (runs in the normal suite too): readers hammer one hot key
// while a writer rewrites it, a chaos thread deletes/flushes it, churn
// forces background resizes, and a ticker re-promotes it continuously.
// Readers assert every observed value is one a SET actually published —
// uniform 16-byte runs of 'a'..'h' — so a torn or stale front-cache read
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
  threads.emplace_back([&] {  // ticker: promote/refresh continuously
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

// -- Adversarial hot-key workload profile ---------------------------------

// The flash-crowd overlay (WorkloadConfig::hot_key_count/hot_key_share) is
// the trigger traffic the maintenance plane exists for: run it through the
// real workload driver (protocol codec, pipelined SET bursts, background
// ticks — no manual PromoteKey) and the engine must respond with
// promotions, front-cache hits, and SET combining on its own.
TEST(HotKeyWorkload, AdversarialProfileDrivesTheMaintenancePlane) {
  EngineConfig config;
  config.shards = 1;  // every op lands on the one shard's detector
  RpEngine rp(config);

  WorkloadConfig workload;
  workload.num_clients = 1;
  workload.num_keys = 1024;
  workload.value_size = 32;
  workload.get_ratio = 0.9;
  workload.sets_per_request = 4;  // pipelined bursts give combining a shot
  workload.hot_key_count = 2;
  workload.hot_key_share = 0.9;
  workload.duration_seconds = 0.3;

  const WorkloadResult result = RunWorkload(rp, workload);
  ASSERT_GT(result.total_requests, 0u);

  const EngineStats stats = rp.Stats();
  EXPECT_GE(stats.hot_key_promotions, 1u);
  EXPECT_GT(stats.front_cache_hits, 0u);
  // 90% of the burst's 4 SETs hit 2 keys, so most bursts carry a same-key
  // pair the combiner folds.
  EXPECT_GT(stats.set_combines, 0u);
}

// The same profile with the front cache off must still be correct traffic —
// and must leave every maintenance counter at zero.
TEST(HotKeyWorkload, ProfileWithFrontCacheDisabledLeavesCountersAtZero) {
  EngineConfig config;
  config.shards = 1;
  config.hot_key_cache = false;
  RpEngine rp(config);

  WorkloadConfig workload;
  workload.num_clients = 1;
  workload.num_keys = 1024;
  workload.get_ratio = 0.9;
  workload.sets_per_request = 4;
  workload.hot_key_count = 2;
  workload.hot_key_share = 0.9;
  workload.duration_seconds = 0.1;

  const WorkloadResult result = RunWorkload(rp, workload);
  ASSERT_GT(result.total_requests, 0u);
  // Prepopulation + the GET share over a hot profile means real hits.
  EXPECT_GT(result.hits, 0u);

  const EngineStats stats = rp.Stats();
  EXPECT_EQ(stats.hot_key_promotions, 0u);
  EXPECT_EQ(stats.front_cache_hits, 0u);
  EXPECT_EQ(stats.set_combines, 0u);
}

}  // namespace
