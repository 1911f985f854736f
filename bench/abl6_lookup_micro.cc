// A6 — single-threaded lookup latency microbenchmark across tables
// (google-benchmark): isolates per-lookup instruction cost from scaling
// effects. RP lookups pay one fence (Epoch) or none (QSBR) plus the chain
// walk; lock-based tables pay an atomic RMW pair.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "src/baselines/bucket_lock_hash_map.h"
#include "src/baselines/ddds_hash_map.h"
#include "src/baselines/fixed_rcu_hash_map.h"
#include "src/baselines/mutex_hash_map.h"
#include "src/baselines/rwlock_hash_map.h"
#include "src/core/rp_hash_map.h"
#include "src/rcu/qsbr.h"
#include "src/util/rng.h"

namespace {

constexpr std::uint64_t kKeys = 4096;
constexpr std::size_t kBuckets = 8192;

template <typename Map>
void LookupLoop(benchmark::State& state, Map& map) {
  rp::Xoshiro256 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.Contains(rng.NextBounded(kKeys)));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_LookupRp(benchmark::State& state) {
  rp::core::RpHashMap<std::uint64_t, std::uint64_t> map(kBuckets);
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    map.Insert(i, i);
  }
  LookupLoop(state, map);
}
BENCHMARK(BM_LookupRp);

void BM_LookupRpQsbr(benchmark::State& state) {
  rp::rcu::Qsbr::RegisterThread();
  rp::core::RpHashMap<std::uint64_t, std::uint64_t,
                      rp::core::MixedHash<std::uint64_t>,
                      std::equal_to<std::uint64_t>, rp::rcu::Qsbr>
      map(kBuckets);
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    map.Insert(i, i);
  }
  rp::Xoshiro256 rng(1);
  std::uint64_t n = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.Contains(rng.NextBounded(kKeys)));
    if (++n % 256 == 0) {
      rp::rcu::Qsbr::QuiescentState();
    }
  }
  state.SetItemsProcessed(state.iterations());
  rp::rcu::Qsbr::Offline();
}
BENCHMARK(BM_LookupRpQsbr);

void BM_LookupFixedRcu(benchmark::State& state) {
  rp::baselines::FixedRcuHashMap<std::uint64_t, std::uint64_t> map(kBuckets);
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    map.Insert(i, i);
  }
  LookupLoop(state, map);
}
BENCHMARK(BM_LookupFixedRcu);

void BM_LookupDdds(benchmark::State& state) {
  rp::baselines::DddsHashMap<std::uint64_t, std::uint64_t> map(kBuckets);
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    map.Insert(i, i);
  }
  LookupLoop(state, map);
}
BENCHMARK(BM_LookupDdds);

void BM_LookupRwlock(benchmark::State& state) {
  rp::baselines::RwlockHashMap<std::uint64_t, std::uint64_t> map(kBuckets);
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    map.Insert(i, i);
  }
  LookupLoop(state, map);
}
BENCHMARK(BM_LookupRwlock);

void BM_LookupMutex(benchmark::State& state) {
  rp::baselines::MutexHashMap<std::uint64_t, std::uint64_t> map(kBuckets);
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    map.Insert(i, i);
  }
  LookupLoop(state, map);
}
BENCHMARK(BM_LookupMutex);

void BM_LookupBucketLock(benchmark::State& state) {
  rp::baselines::BucketLockHashMap<std::uint64_t, std::uint64_t> map(kBuckets);
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    map.Insert(i, i);
  }
  LookupLoop(state, map);
}
BENCHMARK(BM_LookupBucketLock);

// Miss-path lookups (absent keys) — exercises full-chain walks.
void BM_LookupRpMiss(benchmark::State& state) {
  rp::core::RpHashMap<std::uint64_t, std::uint64_t> map(kBuckets);
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    map.Insert(i, i);
  }
  rp::Xoshiro256 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.Contains(kKeys + rng.NextBounded(kKeys)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LookupRpMiss);

// Insert+erase round trip (update-path cost).
void BM_UpdateRp(benchmark::State& state) {
  rp::core::RpHashMap<std::uint64_t, std::uint64_t> map(kBuckets);
  std::uint64_t key = 1 << 20;
  for (auto _ : state) {
    map.Insert(key, key);
    map.Erase(key);
    ++key;
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_UpdateRp);

}  // namespace

BENCHMARK_MAIN();
