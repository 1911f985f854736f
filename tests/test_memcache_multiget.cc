// GET-path tests. GetManyScratch is each engine's one GET implementation;
// GetMany and Get are CacheEngine's owning-copy defaults over it (k keys,
// and one key: the batch of one every singleton wire get now is).
//   * conformance: a k-key GetMany answers exactly like k one-key Gets on
//     both engines (order preserved, duplicates answered, expired keys
//     miss, same stats);
//   * the one-epoch invariant: a multi-get opens exactly one read-side
//     critical section per shard group (asserted via the Epoch read-section
//     counter hook);
//   * the one-hash invariant: no engine op string-hashes its key more than
//     once end-to-end (dispatch -> shard route -> table), via the
//     thread-local StringHash invocation counter;
//   * a bounded GetMany-vs-writers/resize torture for the TSan job.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/core/hash.h"
#include "src/memcache/engine.h"
#include "src/memcache/locked_engine.h"
#include "src/memcache/rp_engine.h"
#include "src/rcu/epoch.h"
#include "src/util/rng.h"

namespace {

using namespace rp::memcache;

std::string Key(std::size_t i) { return "mget-" + std::to_string(i); }
std::string Payload(std::size_t i) { return "value-" + std::to_string(i); }

// Buckets per shard table for the conformance engines. The RP maintenance
// crawler walks from bucket 0 and reclaims the dead items it meets, which
// would make the reclaim counters depend on thread timing. At 2^16 buckets
// a tick walks the 8-bucket floor, so reaching kCrawlHorizon takes 2048
// ticks: about 20 s at one shard (10 ms poll) and 82 s, a quarter of the
// crawl's 330 s pass bound, at four (40 ms). Every dead key is placed
// beyond it.
constexpr std::size_t kShardBuckets = std::size_t{1} << 16;
constexpr std::size_t kCrawlHorizon = std::size_t{1} << 14;

// "dead-<i>-<n>" for the first n whose table bucket (the hash's low bits,
// whichever shard owns it) lies beyond kCrawlHorizon.
std::string DeadKey(std::size_t i) {
  for (int n = 0;; ++n) {
    std::string key = "dead-" + std::to_string(i) + "-" + std::to_string(n);
    const std::size_t bucket =
        rp::core::MixedHash<std::string>{}(key) & (kShardBuckets - 1);
    if (bucket >= kCrawlHorizon) {
      return key;
    }
  }
}

EngineConfig ConformanceConfig(std::size_t shards) {
  EngineConfig config;
  config.shards = shards;
  config.initial_buckets = kShardBuckets * shards;
  return config;
}

// GetMany takes string_views over the request's keys (the transparent
// end-to-end path); tests hold owning strings and hand down views.
std::vector<std::string_view> Views(const std::vector<std::string>& keys) {
  return std::vector<std::string_view>(keys.begin(), keys.end());
}

void Prepopulate(CacheEngine& engine, std::size_t keys) {
  for (std::size_t i = 0; i < keys; ++i) {
    ASSERT_EQ(engine.Set(Key(i), Payload(i), static_cast<std::uint32_t>(i), 0),
              StoreResult::kStored);
  }
  // A few dead keys: stored already expired, so every fetch misses.
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_EQ(engine.Set(DeadKey(i), "x", 0, -1), StoreResult::kStored);
  }
}

std::vector<std::string> MixedBatch() {
  // Hits, misses, duplicates, dead keys — in a deliberately shuffled order.
  return {Key(3),  Key(17),    "absent-a", Key(3),     DeadKey(0), Key(40),
          Key(99), DeadKey(1), Key(0),     "absent-b", Key(17),    Key(64)};
}

template <typename EngineT>
void ExpectGetManyMatchesGetLoop(const EngineConfig& config) {
  // Two identically prepared engines of the same type: one answers through
  // GetMany, the other through per-key Get. Separate instances, because a
  // fetch has side effects (recency stamps, lazy reclamation of dead keys).
  EngineT batched(config);
  EngineT looped(config);
  Prepopulate(batched, 128);
  Prepopulate(looped, 128);

  const std::vector<std::string> keys = MixedBatch();
  const std::vector<std::string_view> views = Views(keys);
  std::vector<MultiGetResult> results(keys.size());
  batched.GetMany(views.data(), views.size(), results.data());

  StoredValue single;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const bool hit = looped.Get(keys[i], &single);
    ASSERT_EQ(results[i].hit, hit) << "key " << keys[i];
    if (hit) {
      EXPECT_EQ(results[i].value.data, single.data) << "key " << keys[i];
      EXPECT_EQ(results[i].value.flags, single.flags) << "key " << keys[i];
      EXPECT_EQ(results[i].value.cas, single.cas) << "key " << keys[i];
    }
  }

  // Both fetch styles reclaim the dead keys they touched and count the
  // same hits/misses.
  EXPECT_EQ(batched.ItemCount(), looped.ItemCount());
  const EngineStats a = batched.Stats();
  const EngineStats b = looped.Stats();
  EXPECT_EQ(a.get_hits, b.get_hits);
  EXPECT_EQ(a.get_misses, b.get_misses);
  EXPECT_EQ(a.expired_reclaims, b.expired_reclaims);
}

TEST(MultiGet, MatchesPerKeyGetOnRpEngine) {
  ExpectGetManyMatchesGetLoop<RpEngine>(ConformanceConfig(4));
}

TEST(MultiGet, MatchesPerKeyGetOnRpEngineSingleShard) {
  ExpectGetManyMatchesGetLoop<RpEngine>(ConformanceConfig(1));
}

TEST(MultiGet, MatchesPerKeyGetOnLockedEngine) {
  ExpectGetManyMatchesGetLoop<LockedEngine>(EngineConfig{});
}

TEST(MultiGet, OneReadSectionPerShardGroup) {
  constexpr std::size_t kBatch = 16;

  // Single shard: the whole batch is one group — exactly one section.
  {
    EngineConfig config;
    config.shards = 1;
    RpEngine engine(config);
    Prepopulate(engine, 64);
    std::vector<std::string> keys;
    for (std::size_t i = 0; i < kBatch; ++i) {
      keys.push_back(Key(i));
    }
    const std::vector<std::string_view> views = Views(keys);
    std::vector<MultiGetResult> results(kBatch);
    const std::uint64_t before = rp::rcu::Epoch::ThreadReadSections();
    engine.GetMany(views.data(), kBatch, results.data());
    EXPECT_EQ(rp::rcu::Epoch::ThreadReadSections() - before, 1u)
        << "a single-shard multi-get must open exactly one epoch section";
    for (const MultiGetResult& r : results) {
      EXPECT_TRUE(r.hit);
    }
  }

  // Multiple shards: one section per *distinct shard touched*, never per
  // key. (A per-key implementation would open kBatch sections.)
  {
    EngineConfig config;
    config.shards = 8;
    RpEngine engine(config);
    Prepopulate(engine, 64);
    std::vector<std::string> keys;
    std::set<std::size_t> shards_touched;
    for (std::size_t i = 0; i < kBatch; ++i) {
      keys.push_back(Key(i));
      shards_touched.insert(engine.ShardIndex(keys.back()));
    }
    const std::vector<std::string_view> views = Views(keys);
    std::vector<MultiGetResult> results(kBatch);
    const std::uint64_t before = rp::rcu::Epoch::ThreadReadSections();
    engine.GetMany(views.data(), kBatch, results.data());
    EXPECT_EQ(rp::rcu::Epoch::ThreadReadSections() - before,
              shards_touched.size())
        << "multi-get must open one epoch section per shard group";
  }
}

// The one-hash invariant, end-to-end: every hot-path engine op computes the
// string hash exactly once (at dispatch), however deep the call then goes.
TEST(MultiGet, NoOpHashesAKeyTwice) {
  EngineConfig config;
  config.shards = 4;
  RpEngine engine(config);
  ASSERT_EQ(engine.Set("seed", "100", 0, 0), StoreResult::kStored);

  StoredValue out;
  const auto delta = [&](auto&& fn) {
    const std::uint64_t before = rp::core::StringHashCount();
    fn();
    return rp::core::StringHashCount() - before;
  };

  EXPECT_EQ(delta([&] { engine.Set("k", "v", 0, 0); }), 1u) << "set";
  EXPECT_EQ(delta([&] { engine.Get("k", &out); }), 1u) << "get hit";
  EXPECT_EQ(delta([&] { engine.Get("missing", &out); }), 1u) << "get miss";
  EXPECT_EQ(delta([&] { engine.Add("k2", "7", 0, 0); }), 1u) << "add";
  EXPECT_EQ(delta([&] { engine.Replace("k", "w", 0, 0); }), 1u) << "replace";
  EXPECT_EQ(delta([&] { engine.Append("k", "+"); }), 1u) << "append";
  EXPECT_EQ(delta([&] { engine.Prepend("k", "-"); }), 1u) << "prepend";
  EXPECT_EQ(delta([&] { engine.Incr("k2", 1); }), 1u) << "incr";
  EXPECT_EQ(delta([&] { engine.Decr("k2", 1); }), 1u) << "decr";
  EXPECT_EQ(delta([&] { engine.Touch("k", 100); }), 1u) << "touch";
  EXPECT_EQ(delta([&] { engine.CheckAndSet("k", "z", 0, 0, 1); }), 1u)
      << "cas";
  EXPECT_EQ(delta([&] { engine.Delete("k"); }), 1u) << "delete";

  // A multi-get hashes each key exactly once, duplicates included.
  std::vector<std::string> keys = {Key(1), Key(2), Key(1), "absent", "seed"};
  const std::vector<std::string_view> views = Views(keys);
  std::vector<MultiGetResult> results(keys.size());
  EXPECT_EQ(delta([&] {
              engine.GetMany(views.data(), views.size(), results.data());
            }),
            keys.size())
      << "multi-get";

  // The locked baseline's fetch path also hashes once per probe.
  LockedEngine locked{EngineConfig{}};
  ASSERT_EQ(locked.Set("k", "1", 0, 0), StoreResult::kStored);
  EXPECT_EQ(delta([&] { locked.Get("k", &out); }), 1u) << "locked get";
  EXPECT_EQ(delta([&] { locked.Set("k", "2", 0, 0); }), 1u)
      << "locked set overwrite";
  EXPECT_EQ(delta([&] { locked.Replace("k", "3", 0, 0); }), 1u)
      << "locked replace";
}

// Bounded torture for the TSan job: a GetMany reader races set/delete
// writers while the shard tables grow and shrink underneath (background
// ResizeWorkers, nudged by the churn). Op-bounded loops, 1-core friendly.
TEST(MultiGet, GetManyRacingWritersAndResizeTorture) {
  EngineConfig config;
  config.shards = 2;
  config.initial_buckets = 16;  // tiny: churn forces background resizes
  RpEngine engine(config);
  constexpr std::size_t kKeySpace = 2048;
  constexpr std::size_t kBatch = 16;

  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      rp::Xoshiro256 rng(500 + w);
      for (int i = 0; i < 15000; ++i) {
        const std::size_t k = rng.NextBounded(kKeySpace);
        if (rng.NextBounded(3) != 0) {
          engine.Set(Key(k), Payload(k), 0, 0);
        } else {
          engine.Delete(Key(k));
        }
      }
    });
  }
  threads.emplace_back([&] {
    rp::Xoshiro256 rng(321);
    std::vector<std::string> keys(kBatch);
    std::vector<std::string_view> views(kBatch);
    std::vector<MultiGetResult> results(kBatch);
    for (int batch = 0; batch < 3000; ++batch) {
      for (std::size_t i = 0; i < kBatch; ++i) {
        keys[i] = Key(rng.NextBounded(kKeySpace));
        views[i] = keys[i];
      }
      engine.GetMany(views.data(), kBatch, results.data());
      for (std::size_t i = 0; i < kBatch; ++i) {
        if (results[i].hit) {
          // A hit must carry the exact payload some Set published — a torn
          // or half-reclaimed value would fail here.
          EXPECT_EQ(results[i].value.data,
                    "value-" + keys[i].substr(5));
        }
      }
    }
  });
  for (std::thread& t : threads) {
    t.join();
  }

  const EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.items, engine.ItemCount());
}

}  // namespace
