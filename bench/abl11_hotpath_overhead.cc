// A11 — hot-path per-op overhead anatomy (google-benchmark).
//
// Isolates the two costs the one-hash/one-epoch sweep removes from the
// memcached hot path:
//   * string hash cost: std::hash (the old default, out-of-line murmur in
//     libstdc++) vs the in-repo FNV-1a+Mix64, and the double-hash dispatch
//     pattern (hash for shard routing + rehash inside the table) vs hashing
//     once and passing core::Prehashed down;
//   * read-side section cost: one epoch enter/exit per key vs one per batch
//     (nested sections degrade to a nesting-counter bump), i.e. what the
//     engine's multi-get shard-group batching buys per key.
// The engine-level pair at the bottom measures the same two effects
// end-to-end through RpEngine::Get vs RpEngine::GetManyScratch, the
// multi-get path the wire takes.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/core/hash.h"
#include "src/core/rp_hash_map.h"
#include "src/memcache/engine.h"
#include "src/memcache/rp_engine.h"
#include "src/rcu/epoch.h"
#include "src/rcu/guard.h"
#include "src/util/rng.h"

namespace {

constexpr std::size_t kKeys = 4096;
constexpr std::size_t kBatch = 16;

std::vector<std::string> MakeKeys() {
  std::vector<std::string> keys;
  keys.reserve(kKeys);
  for (std::size_t i = 0; i < kKeys; ++i) {
    keys.push_back("memtier-" + std::to_string(i));
  }
  return keys;
}

using StringMap = rp::core::RpHashMap<std::string, std::string>;

StringMap& PopulatedMap() {
  static StringMap map(8192);
  if (map.Empty()) {
    for (const std::string& key : MakeKeys()) {
      map.Insert(key, key);
    }
  }
  return map;
}

// -- Hash function cost -------------------------------------------------------

void BM_HashStdString(benchmark::State& state) {
  const std::vector<std::string> keys = MakeKeys();
  rp::Xoshiro256 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(std::hash<std::string>{}(keys[rng.NextBounded(kKeys)]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashStdString);

void BM_HashFnvString(benchmark::State& state) {
  const std::vector<std::string> keys = MakeKeys();
  rp::Xoshiro256 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rp::core::StringHash{}(keys[rng.NextBounded(kKeys)]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashFnvString);

// -- Double-hash vs single-hash lookup ----------------------------------------

// The pre-sweep dispatch pattern: the engine hashes the key to pick a
// shard, then the table hashes the same key again internally.
void BM_LookupStringDoubleHash(benchmark::State& state) {
  StringMap& map = PopulatedMap();
  const std::vector<std::string> keys = MakeKeys();
  rp::Xoshiro256 rng(1);
  for (auto _ : state) {
    const std::string& key = keys[rng.NextBounded(kKeys)];
    // Shard-routing hash, result consumed...
    benchmark::DoNotOptimize(rp::core::StringHash{}(key));
    // ...then the plain overload rehashes inside the table.
    benchmark::DoNotOptimize(map.Contains(key));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LookupStringDoubleHash);

// The post-sweep pattern: hash once, route on the high bits, pass the full
// hash down.
void BM_LookupStringSingleHash(benchmark::State& state) {
  StringMap& map = PopulatedMap();
  const std::vector<std::string> keys = MakeKeys();
  rp::Xoshiro256 rng(1);
  for (auto _ : state) {
    const std::string& key = keys[rng.NextBounded(kKeys)];
    const std::size_t h = rp::core::StringHash{}(key);
    benchmark::DoNotOptimize(h >> 32);  // the "shard routing" consumer
    benchmark::DoNotOptimize(map.Contains(rp::core::Prehashed{h}, key));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LookupStringSingleHash);

// -- Per-key vs batched read-side sections ------------------------------------

// Both sides use Prehashed lookups, so the measured difference is purely
// the epoch enter/exit amortization (one full fence per outermost section
// on the Epoch flavour).

void BM_EpochSectionPerKey(benchmark::State& state) {
  StringMap& map = PopulatedMap();
  const std::vector<std::string> keys = MakeKeys();
  std::vector<std::size_t> hashes;
  for (const std::string& key : keys) {
    hashes.push_back(rp::core::StringHash{}(key));
  }
  rp::Xoshiro256 rng(1);
  for (auto _ : state) {
    for (std::size_t k = 0; k < kBatch; ++k) {
      const std::size_t i = rng.NextBounded(kKeys);
      // Each Contains opens and closes its own section: 1 fence per key.
      benchmark::DoNotOptimize(
          map.Contains(rp::core::Prehashed{hashes[i]}, keys[i]));
    }
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_EpochSectionPerKey);

void BM_EpochSectionPerBatch(benchmark::State& state) {
  StringMap& map = PopulatedMap();
  const std::vector<std::string> keys = MakeKeys();
  std::vector<std::size_t> hashes;
  for (const std::string& key : keys) {
    hashes.push_back(rp::core::StringHash{}(key));
  }
  rp::Xoshiro256 rng(1);
  for (auto _ : state) {
    // One outermost section per batch; the nested per-lookup guards cost a
    // nesting-counter bump, no fences.
    rp::rcu::ReadGuard<StringMap::domain_type> section;
    for (std::size_t k = 0; k < kBatch; ++k) {
      const std::size_t i = rng.NextBounded(kKeys);
      benchmark::DoNotOptimize(
          map.Contains(rp::core::Prehashed{hashes[i]}, keys[i]));
    }
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_EpochSectionPerBatch);

// -- End-to-end: engine Get loop vs GetManyScratch ----------------------------

rp::memcache::RpEngine& PopulatedEngine() {
  static rp::memcache::RpEngine engine([] {
    rp::memcache::EngineConfig config;
    config.initial_buckets = 8192;
    return config;
  }());
  if (engine.ItemCount() == 0) {
    for (const std::string& key : MakeKeys()) {
      engine.Set(key, "value-payload-32-bytes-xxxxxxxxx", 0, 0);
    }
  }
  return engine;
}

void BM_EngineGetPerKey(benchmark::State& state) {
  rp::memcache::RpEngine& engine = PopulatedEngine();
  const std::vector<std::string> keys = MakeKeys();
  rp::Xoshiro256 rng(1);
  rp::memcache::StoredValue out;
  for (auto _ : state) {
    for (std::size_t k = 0; k < kBatch; ++k) {
      benchmark::DoNotOptimize(engine.Get(keys[rng.NextBounded(kKeys)], &out));
    }
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_EngineGetPerKey);

void BM_EngineGetManyScratch(benchmark::State& state) {
  rp::memcache::RpEngine& engine = PopulatedEngine();
  const std::vector<std::string> keys = MakeKeys();
  rp::Xoshiro256 rng(1);
  // string_views straight over the key set — the wire path's shape (no
  // per-key copies before the engine).
  std::vector<std::string_view> batch(kBatch);
  std::vector<rp::memcache::ScratchGetResult> results(kBatch);
  std::string scratch;
  for (auto _ : state) {
    for (std::size_t k = 0; k < kBatch; ++k) {
      batch[k] = keys[rng.NextBounded(kKeys)];
    }
    scratch.clear();
    engine.GetManyScratch(batch.data(), kBatch, results.data(), &scratch);
    benchmark::DoNotOptimize(results.data());
    benchmark::DoNotOptimize(scratch.data());
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_EngineGetManyScratch);

}  // namespace

BENCHMARK_MAIN();
