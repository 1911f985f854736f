// abl14: the maintenance plane and store-batch op combining.
//
// Each shard runs a maintenance tick on its resize-worker poll: slab
// automove between size classes and an expired-item crawl. Two cases:
//
//  1. Op combining: a 16-op StoreMany burst where most SETs land on a
//     handful of keys, so repeated SETs of the same key coalesce into the
//     last one. `combines/op` shows how much of the burst evaporates.
//  2. Automove: a store loop against a one-page arena calcified under a
//     dead size class. With the page pinned by live items every store is
//     a heap fallback; once the old items die the tick's automover
//     reassigns the page (`pages_moved`) and `fallbacks/op` drops; what
//     is left are stores that find the class's chunks still waiting out
//     a grace period in the reclaimer queue.
//
// Single-core caveat (see docs/BENCHMARKS.md): on a 1-core box the
// throughput deltas compress; the counters (combines/op, fallbacks/op,
// pages_moved) are the load-bearing evidence.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/memcache/engine.h"
#include "src/memcache/rp_engine.h"
#include "src/memcache/workload.h"
#include "src/rcu/epoch.h"
#include "src/util/rng.h"

namespace {

using rp::memcache::EngineConfig;
using rp::memcache::EngineStats;
using rp::memcache::RpEngine;
using rp::memcache::StoreKind;
using rp::memcache::StoreOp;
using rp::memcache::StoreResult;

constexpr std::size_t kValueSize = 64;  // embeddable in the node chunk
constexpr std::size_t kBatch = 16;

// -- 1. Skewed-SET op combining -------------------------------------------

// A flash-crowd burst: kHotShare of the SETs land on kHotKeys keys, the
// rest spread over kNumKeys, so a pipelined SET run carries many rewrites
// of the same key and all but the last are wasted work.
constexpr std::size_t kNumKeys = 1024;
constexpr std::size_t kHotKeys = 4;
constexpr double kHotShare = 0.875;

std::size_t DrawHotKey(rp::Xoshiro256& rng) {
  if (rng.NextDouble() < kHotShare) {
    return rng.NextBounded(kHotKeys);
  }
  return rng.NextBounded(kNumKeys);
}

void BM_SkewedSetCombining(benchmark::State& state) {
  EngineConfig config;
  config.shards = 1;
  config.initial_buckets = 4096;
  static RpEngine engine(config);
  static const std::string payload(kValueSize, 'v');
  std::vector<std::string> keys;
  keys.reserve(kNumKeys);
  for (std::size_t i = 0; i < kNumKeys; ++i) {
    keys.push_back(rp::memcache::WorkloadKey(i));
  }

  rp::Xoshiro256 rng(29);
  StoreOp ops[kBatch];
  StoreResult results[kBatch];
  const EngineStats before = engine.Stats();
  std::uint64_t total = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < kBatch; ++i) {
      ops[i] = StoreOp{};
      ops[i].kind = StoreKind::kSet;
      ops[i].key = keys[DrawHotKey(rng)];
      ops[i].data = payload;
    }
    engine.StoreMany(ops, kBatch, results);
    total += kBatch;
  }
  const EngineStats after = engine.Stats();
  state.SetItemsProcessed(static_cast<std::int64_t>(total));
  state.counters["combines/op"] = benchmark::Counter(
      static_cast<double>(after.set_combines - before.set_combines) /
      static_cast<double>(total));
}

// -- 2. Calcified arena: automove recovery --------------------------------

// One-page value arena (arena_bytes = max_bytes = 4 KiB clamps page_bytes
// to the whole arena), carved for a mid class the measured stores never
// use. `pinned` keeps the mid items alive so the automover cannot touch
// the page; otherwise they are deleted (and drained) so the first tick
// reassigns it to the measured class.
RpEngine* MakeCalcified(bool pinned) {
  EngineConfig config;
  config.shards = 1;
  config.max_bytes = 4096;
  config.initial_buckets = 64;
  auto* engine = new RpEngine(config);
  // Two pinned mids (~1.6 KiB charged) leave headroom under the 4 KiB
  // byte cap for the measured store churn — the pinned case must exercise
  // the heap fallback, not the byte-cap evictor.
  const std::string mid(600, 'm');
  for (int i = 0; i < 2; ++i) {
    engine->Set("mid-" + std::to_string(i), mid, 0, 0);
  }
  if (!pinned) {
    for (int i = 0; i < 2; ++i) {
      engine->Delete("mid-" + std::to_string(i));
    }
    rp::rcu::Epoch::Barrier();
  }
  return engine;
}

void CalcifiedStoreLoop(benchmark::State& state, bool pinned) {
  static RpEngine* engines[2] = {nullptr, nullptr};
  RpEngine*& slot = engines[pinned ? 1 : 0];
  if (slot == nullptr) {
    slot = MakeCalcified(pinned);
  }
  RpEngine& engine = *slot;
  // Distinct class from the mids, and big enough that the arena's rump
  // page (left after the mid class's carve) cannot hold even one chunk,
  // so only an automoved page can serve it.
  static const std::string big(1024, 'b');

  const EngineStats before = engine.Stats();
  std::uint64_t ops = 0;
  int since_tick = 0;
  for (auto _ : state) {
    engine.Set("big", big, 0, 0);
    ++ops;
    // The maintenance cadence, made deterministic: the tick automoves
    // when a free page exists.
    if (++since_tick == 2) {
      engine.RunMaintenanceTick(0);
      since_tick = 0;
    }
  }
  const EngineStats after = engine.Stats();
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
  state.counters["fallbacks/op"] = benchmark::Counter(
      static_cast<double>(after.slab_fallbacks - before.slab_fallbacks) /
      static_cast<double>(ops));
  state.counters["pages_moved"] =
      benchmark::Counter(static_cast<double>(after.slab_pages_moved));
}

void BM_CalcifiedStorePinned(benchmark::State& state) {
  CalcifiedStoreLoop(state, /*pinned=*/true);
}

void BM_CalcifiedStoreRecovered(benchmark::State& state) {
  CalcifiedStoreLoop(state, /*pinned=*/false);
}

BENCHMARK(BM_SkewedSetCombining)->Threads(1)->UseRealTime();
BENCHMARK(BM_CalcifiedStorePinned)->Threads(1)->UseRealTime();
BENCHMARK(BM_CalcifiedStoreRecovered)->Threads(1)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
