// abl12: allocation cost of the SET path — slab chunks vs per-item heap.
//
// PR 4 left per-item heap allocation as the largest per-op cost on the
// write path: every stored value owned a std::string, so every SET paid a
// malloc (and its eventual free) for the payload. The slab allocator
// replaces that with recycled size-class chunks. This bench isolates
// exactly that difference: the same SET churn runs against an engine with
// slabs enabled (default) and one with slabs disabled
// (EngineConfig::slab_chunk_max = 0 — every payload is an exact-size heap
// block, the PR-4 std::string shape), and reports how many heap bytes and
// heap calls the *calling thread* performs per operation via a global
// operator new hook. Keys and values are pre-generated outside the timed
// loop, so the measured allocations are the engine's own.
//
// Expected shape: the heap baseline pays one payload allocation per SET
// on top of the table-node allocation; the slab engine pays the node only
// (chunks recycle through the deferred reclaimer; page carving amortizes
// to noise). A store that finds its class dry while chunks wait out a
// grace period takes the heap fallback; that is part of the design and is
// measured, not excluded.
//
// Cases are single-threaded except the /threads:2 contention variants
// (bench_smoke runs only the threads:1 cases; see scripts/bench_smoke.sh).
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "src/memcache/engine.h"
#include "src/memcache/rp_engine.h"
#include "src/util/rng.h"

// -- Global allocation hook ---------------------------------------------------
//
// Thread-local counters so each bench thread observes only its own
// allocations (the deferred reclaimer's frees happen on other threads and
// are irrelevant to SET-path cost). Counting is a couple of TLS
// increments — cheap enough to leave enabled for every case.

namespace {
thread_local std::uint64_t tls_heap_bytes = 0;
thread_local std::uint64_t tls_heap_calls = 0;
}  // namespace

void* operator new(std::size_t size) {
  tls_heap_bytes += size;
  ++tls_heap_calls;
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  tls_heap_bytes += size;
  ++tls_heap_calls;
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) - 1) &
                                       ~(static_cast<std::size_t>(align) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using rp::memcache::EngineConfig;
using rp::memcache::RpEngine;

constexpr std::size_t kKeys = 1024;
// Sizes cycle across several slab classes (and stay under chunk_max).
constexpr std::size_t kSizes[] = {32, 100, 300, 900, 2000};
constexpr std::size_t kSizeCount = sizeof(kSizes) / sizeof(kSizes[0]);

EngineConfig ConfigFor(bool slab) {
  EngineConfig config;
  config.shards = 1;          // isolate allocation, not shard routing
  config.initial_buckets = 4096;
  // A byte cap twice the steady-state working set: large enough that
  // byte-cap eviction stays quiet, small enough that the slab arena is
  // finite and chunk recycling (including the fallback slow path) is real.
  config.max_bytes = 16 * 1024 * 1024;
  if (!slab) {
    config.slab_chunk_max = 0;  // per-item heap fallback: the PR-4 shape
  }
  return config;
}

// SET churn over a fixed key set with sizes hopping across classes. The
// engine outlives the benchmark loop via static storage per variant so
// /threads:2 cases share it (gbench constructs one fixture per thread).
template <bool kSlab>
void BM_SetChurn(benchmark::State& state) {
  static RpEngine engine(ConfigFor(kSlab));
  static const std::vector<std::string> keys = [] {
    std::vector<std::string> v;
    v.reserve(kKeys);
    for (std::size_t i = 0; i < kKeys; ++i) {
      v.push_back("abl12-key-" + std::to_string(i));
    }
    return v;
  }();
  static const std::string payload(kSizes[kSizeCount - 1], 'v');

  rp::Xoshiro256 rng(7 + static_cast<std::uint64_t>(state.thread_index()));
  std::uint64_t bytes_before = 0;
  std::uint64_t calls_before = 0;
  std::uint64_t heap_bytes = 0;
  std::uint64_t heap_calls = 0;
  std::uint64_t ops = 0;

  for (auto _ : state) {
    const std::string& key = keys[rng.NextBounded(kKeys)];
    const std::size_t size = kSizes[rng.NextBounded(kSizeCount)];
    bytes_before = tls_heap_bytes;
    calls_before = tls_heap_calls;
    engine.Set(key, std::string_view(payload.data(), size), 0, 0);
    heap_bytes += tls_heap_bytes - bytes_before;
    heap_calls += tls_heap_calls - calls_before;
    ++ops;
  }

  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
  state.counters["heap_B/op"] = benchmark::Counter(
      static_cast<double>(heap_bytes) / static_cast<double>(ops));
  state.counters["heap_allocs/op"] = benchmark::Counter(
      static_cast<double>(heap_calls) / static_cast<double>(ops));
  const rp::memcache::EngineStats stats = engine.Stats();
  state.counters["slab_fallbacks"] =
      benchmark::Counter(static_cast<double>(stats.slab_fallbacks));
  state.counters["bytes_wasted"] =
      benchmark::Counter(static_cast<double>(stats.bytes_wasted));
}

void BM_SetChurnSlab(benchmark::State& state) { BM_SetChurn<true>(state); }
void BM_SetChurnHeap(benchmark::State& state) { BM_SetChurn<false>(state); }

BENCHMARK(BM_SetChurnSlab)->Threads(1)->UseRealTime();
BENCHMARK(BM_SetChurnHeap)->Threads(1)->UseRealTime();
// Contention variants: two threads hammering one shard's slab vs the
// global heap allocator. (Skipped by bench_smoke on 1-core boxes.)
BENCHMARK(BM_SetChurnSlab)->Threads(2)->UseRealTime();
BENCHMARK(BM_SetChurnHeap)->Threads(2)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
