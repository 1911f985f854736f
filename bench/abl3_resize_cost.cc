// A3 — resize cost: duration, grace periods and pointer swings as a
// function of bucket count and load factor.
//
// Validates the design call-outs from DESIGN.md: shrink is O(buckets) work
// with exactly one grace period; expand is O(elements) pointer walks but
// only ~max-run-count grace periods because every chain unzips in parallel
// within a pass.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "src/core/rp_hash_map.h"

namespace {

using Map = rp::core::RpHashMap<std::uint64_t, std::uint64_t>;

void BM_ExpandDouble(benchmark::State& state) {
  const auto buckets = static_cast<std::size_t>(state.range(0));
  const auto load = static_cast<std::uint64_t>(state.range(1));
  std::uint64_t grace_periods = 0;
  std::uint64_t swings = 0;
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Map map(buckets);
    for (std::uint64_t i = 0; i < buckets * load; ++i) {
      map.Insert(i, i);
    }
    state.ResumeTiming();
    map.Resize(buckets * 2);
    state.PauseTiming();
    const auto stats = map.LastResizeStats();
    grace_periods += stats.grace_periods;
    swings += stats.pointer_swings;
    ++rounds;
    state.ResumeTiming();
  }
  state.counters["grace_periods"] =
      static_cast<double>(grace_periods) / static_cast<double>(rounds);
  state.counters["pointer_swings"] =
      static_cast<double>(swings) / static_cast<double>(rounds);
}
BENCHMARK(BM_ExpandDouble)
    ->ArgsProduct({{1024, 8192}, {1, 4, 16}})
    ->Unit(benchmark::kMillisecond);

void BM_ShrinkHalve(benchmark::State& state) {
  const auto buckets = static_cast<std::size_t>(state.range(0));
  const auto load = static_cast<std::uint64_t>(state.range(1));
  std::uint64_t grace_periods = 0;
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Map map(buckets);
    for (std::uint64_t i = 0; i < buckets * load; ++i) {
      map.Insert(i, i);
    }
    state.ResumeTiming();
    map.Resize(buckets / 2);
    state.PauseTiming();
    grace_periods += map.LastResizeStats().grace_periods;
    ++rounds;
    state.ResumeTiming();
  }
  state.counters["grace_periods"] =
      static_cast<double>(grace_periods) / static_cast<double>(rounds);
}
BENCHMARK(BM_ShrinkHalve)
    ->ArgsProduct({{1024, 8192}, {1, 4, 16}})
    ->Unit(benchmark::kMillisecond);

void BM_FullGrowCycle(benchmark::State& state) {
  // 4 -> 4096 via explicit doublings whenever the load factor passes 2,
  // interleaved with the inserts: the "cache warming" pattern.
  for (auto _ : state) {
    Map map(4);
    for (std::uint64_t i = 0; i < 8192; ++i) {
      map.Insert(i, i);
      if (map.Size() > 2 * map.BucketCount()) {
        map.Resize(map.BucketCount() * 2);
      }
    }
    benchmark::DoNotOptimize(map.BucketCount());
  }
  state.SetItemsProcessed(state.iterations() * 8192);
}
BENCHMARK(BM_FullGrowCycle)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
