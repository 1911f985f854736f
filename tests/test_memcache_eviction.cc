// RpEngine eviction policy: the CLOCK sweep over each shard's insertion-
// ordered queue. GETs and full stores set an item's reference bit; the
// sweep spares a live item only if its bit is set, clearing it as it
// requeues the key. Pinned here:
//   (a) an eviction does amortized O(1) queue work — a capped fill pops
//       at most a few entries per eviction (EvictionSweepPops);
//   (b) a reference protects an item for exactly one pass: a GET on the
//       queue head spares it once, and without another GET the next pass
//       evicts it;
//   (c) the sweep never writes the access metadata the meta protocol's
//       h and l flags report (fetched, last_used);
//   (d) GETs setting bits while a writer's sweep clears them keep the byte
//       cap and never read a torn value (run under TSan in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/memcache/engine.h"
#include "src/memcache/item.h"
#include "src/memcache/rp_engine.h"

namespace {

using namespace rp::memcache;

// One store per key, `burst` ops per StoreMany call (the pipelined shape a
// server worker hands the engine). *peak_bytes, if given, tracks the byte
// gauge's highest reading after a burst.
void StoreBursts(RpEngine& engine, const std::vector<std::string>& keys,
                 const std::vector<std::string>& values, std::size_t burst,
                 std::uint64_t* peak_bytes = nullptr) {
  std::vector<StoreOp> ops;
  std::vector<StoreResult> results(burst);
  for (std::size_t i = 0; i < keys.size(); i += burst) {
    ops.clear();
    for (std::size_t j = i; j < keys.size() && j < i + burst; ++j) {
      StoreOp op;
      op.key = keys[j];
      op.data = values[j];
      ops.push_back(op);
    }
    engine.StoreMany(ops.data(), ops.size(), results.data());
    for (std::size_t j = 0; j < ops.size(); ++j) {
      ASSERT_EQ(results[j], StoreResult::kStored) << keys[i + j];
    }
    if (peak_bytes != nullptr) {
      *peak_bytes = std::max(*peak_bytes, engine.Stats().bytes);
    }
  }
}

bool Present(RpEngine& engine, const std::string& key) {
  StoredValue out;
  return engine.Get(key, &out);
}

// A one-key meta-style fetch: what `mg <key> h l` reports comes from these
// fields (the pre-GET fetched and last_used).
ScratchGetResult Fetch(RpEngine& engine, std::string_view key) {
  ScratchGetResult result;
  std::string scratch;
  engine.GetManyScratch(&key, 1, &result, &scratch);
  return result;
}

EngineConfig OneShard(std::size_t max_items) {
  EngineConfig config;
  config.shards = 1;
  config.max_items = max_items;
  return config;
}

TEST(Eviction, CappedFillPopsAFewEntriesPerEviction) {
  EngineConfig config;
  config.shards = 1;
  config.max_items = 1000;
  RpEngine engine(config);
  std::vector<std::string> keys;
  std::vector<std::string> values;
  for (int i = 0; i < 20000; ++i) {
    keys.push_back("fill-" + std::to_string(i));
    values.push_back("value-" + std::to_string(i));
  }
  StoreBursts(engine, keys, values, 64);

  const EngineStats stats = engine.Stats();
  const std::uint64_t victims = stats.evictions + stats.expired_reclaims;
  const std::uint64_t pops = engine.EvictionSweepPops();
  EXPECT_EQ(engine.ItemCount(), 1000u);
  EXPECT_EQ(victims, 19000u);
  // Every queued item carries the bit its store set, so each is requeued
  // once before it can be evicted: about 2 pops per eviction, however
  // long the queue and however fast the fill.
  EXPECT_LE(pops, 3 * victims) << "pops " << pops << " victims " << victims;
  RecordProperty("sweep_pops", std::to_string(pops));
  RecordProperty("victims", std::to_string(victims));
}

TEST(Eviction, AReferenceSparesAnItemForOnePass) {
  RpEngine engine(OneShard(4));
  for (const char* key : {"a", "k1", "k2", "k3"}) {
    ASSERT_EQ(engine.Set(key, "v", 0, 0), StoreResult::kStored);
  }
  // Over the cap: every queued key (x included — it is queued before the
  // sweep runs) holds its store's bit. The first lap spares and clears all
  // five, the second evicts the head. Queue: k1 k2 k3 x, no bit set.
  std::uint64_t pops = engine.EvictionSweepPops();
  ASSERT_EQ(engine.Set("x", "v", 0, 0), StoreResult::kStored);
  EXPECT_EQ(engine.EvictionSweepPops() - pops, 6u);
  EXPECT_FALSE(Present(engine, "a"));
  ASSERT_EQ(engine.Stats().evictions, 1u);

  // A GET on the queue head sets its bit; the sweep spares it (clearing
  // the bit) and evicts the next unreferenced key instead.
  ASSERT_TRUE(Present(engine, "k1"));
  pops = engine.EvictionSweepPops();
  ASSERT_EQ(engine.Set("y", "v", 0, 0), StoreResult::kStored);
  EXPECT_EQ(engine.EvictionSweepPops() - pops, 2u);
  EXPECT_FALSE(Present(engine, "k2"));
  EXPECT_EQ(engine.Stats().evictions, 2u);
  EXPECT_EQ(engine.ItemCount(), 4u);  // k3 x y k1: k1 survived

  // k3, then x: neither was touched since the first lap cleared it.
  ASSERT_EQ(engine.Set("z", "v", 0, 0), StoreResult::kStored);
  EXPECT_FALSE(Present(engine, "k3"));
  ASSERT_EQ(engine.Set("w", "v", 0, 0), StoreResult::kStored);
  EXPECT_FALSE(Present(engine, "x"));

  // Queue: y k1 z w. y still holds its store's bit and is spared once;
  // k1's one reference was consumed, so with no further GET it is evicted
  // as soon as the sweep reaches it.
  pops = engine.EvictionSweepPops();
  ASSERT_EQ(engine.Set("v", "v", 0, 0), StoreResult::kStored);
  EXPECT_EQ(engine.EvictionSweepPops() - pops, 2u);
  EXPECT_FALSE(Present(engine, "k1"));
  EXPECT_EQ(engine.Stats().evictions, 5u);
  for (const char* key : {"y", "z", "w", "v"}) {
    EXPECT_TRUE(Present(engine, key)) << key;
  }
}

TEST(Eviction, SweepLeavesMetaFetchedAndLastAccessAlone) {
  RpEngine engine(OneShard(3));
  const std::int64_t stored_from = NowSeconds();
  for (const char* key : {"victim", "fetched", "unfetched"}) {
    ASSERT_EQ(engine.Set(key, "v", 0, 0), StoreResult::kStored);
  }
  ASSERT_TRUE(Fetch(engine, "fetched").hit);
  const std::int64_t stamped_by = NowSeconds();
  // Let the clock move on, so a sweep that stamped last_used would show.
  while (NowSeconds() <= stamped_by) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  // One lap spares all four queued keys (clearing their bits), then the
  // sweep evicts the head.
  const std::uint64_t pops = engine.EvictionSweepPops();
  ASSERT_EQ(engine.Set("new", "v", 0, 0), StoreResult::kStored);
  ASSERT_EQ(engine.EvictionSweepPops() - pops, 5u);
  ASSERT_EQ(engine.Stats().evictions, 1u);

  const ScratchGetResult fetched = Fetch(engine, "fetched");
  ASSERT_TRUE(fetched.hit);
  EXPECT_TRUE(fetched.fetched);  // h1
  EXPECT_GE(fetched.last_used, stored_from);
  EXPECT_LE(fetched.last_used, stamped_by);

  const ScratchGetResult unfetched = Fetch(engine, "unfetched");
  ASSERT_TRUE(unfetched.hit);
  EXPECT_FALSE(unfetched.fetched);  // h0
  EXPECT_GE(unfetched.last_used, stored_from);
  EXPECT_LE(unfetched.last_used, stamped_by);
}

// Fill values describe themselves, so a reader can check any hit.
std::string FillValue(const std::string& key, std::size_t length) {
  std::string value = key + "|";
  while (value.size() < length) {
    value += static_cast<char>('a' + value.size() % 26);
  }
  return value;
}

bool Intact(const std::string& key, std::string_view value) {
  return value == FillValue(key, value.size());
}

TEST(Eviction, GetsSettingBitsRaceTheSweepUnderAByteCap) {
  EngineConfig config;
  config.shards = 2;
  config.max_bytes = 256 * 1024;
  RpEngine engine(config);
  constexpr int kHotKeys = 16;
  std::vector<std::string> hot;
  for (int i = 0; i < kHotKeys; ++i) {
    hot.push_back("hot-" + std::to_string(i));
    ASSERT_EQ(engine.Set(hot.back(), FillValue(hot.back(), 64 + 24 * i), 0, 0),
              StoreResult::kStored);
  }

  std::atomic<bool> stop{false};
  std::atomic<int> started{0};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> torn{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      StoredValue out;
      std::string scratch;
      std::uint64_t local_reads = 0;
      for (std::size_t n = 0; !stop.load(std::memory_order_relaxed); ++n) {
        const std::string& key = hot[(n * 7 + t) % kHotKeys];
        if (n % 2 == 0) {
          if (engine.Get(key, &out) && !Intact(key, out.data)) {
            torn.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          std::string_view view = key;
          ScratchGetResult result;
          scratch.clear();
          engine.GetManyScratch(&view, 1, &result, &scratch);
          if (result.hit &&
              !Intact(key, std::string_view(scratch).substr(
                               result.data_offset, result.data_size))) {
            torn.fetch_add(1, std::memory_order_relaxed);
          }
        }
        if (++local_reads == 1) {
          started.fetch_add(1, std::memory_order_relaxed);
        }
      }
      reads.fetch_add(local_reads, std::memory_order_relaxed);
    });
  }
  while (started.load(std::memory_order_relaxed) < 2) {
    std::this_thread::yield();
  }

  // Embedded and slab-chunk payload sizes, well past the cap in total.
  constexpr int kFill = 6000;
  std::vector<std::string> keys;
  std::vector<std::string> values;
  for (int i = 0; i < kFill; ++i) {
    keys.push_back("fill-" + std::to_string(i));
    values.push_back(FillValue(keys.back(), 40 + (i * 37) % 600));
  }
  std::uint64_t peak_bytes = 0;
  StoreBursts(engine, keys, values, 16, &peak_bytes);
  stop.store(true);
  for (std::thread& reader : readers) {
    reader.join();
  }

  EXPECT_LE(peak_bytes, config.max_bytes);
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_GT(engine.Stats().evictions, 0u);
  StoredValue out;
  for (int i = kFill - 8; i < kFill; ++i) {
    if (engine.Get(keys[i], &out)) {
      EXPECT_TRUE(Intact(keys[i], out.data)) << keys[i];
    }
  }
}

}  // namespace
