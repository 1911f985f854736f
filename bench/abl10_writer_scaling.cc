// A10 — update-heavy throughput vs. writer-thread count: single global
// writer mutex vs. the sharded (striped) writer path.
//
// The paper makes lookups scale; this ablation measures what the sharded
// update path buys on the write side. Both series run the same RpHashMap
// with deferred reclamation; the only difference is writer_stripes = 1
// (every update serializes, the original design) vs. the default stripe
// count (updates to different stripes proceed in parallel). Workload is
// update-only: 40% insert, 40% erase, 20% in-place Update over a shared
// keyspace, the mix that flatlines under a single writer lock.
//
// Output: the harness's paper-style series table plus CSV lines
// (CSV,series,threads,ops_per_sec), same shape as the fig* benches.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench/harness.h"
#include "src/core/rp_hash_map.h"
#include "src/util/rng.h"

namespace {

using rp::core::RpHashMap;
using rp::core::RpHashMapOptions;

constexpr std::uint64_t kKeySpace = 1 << 16;

RpHashMapOptions OptionsWithStripes(std::size_t stripes) {
  RpHashMapOptions options;
  options.writer_stripes = stripes;
  return options;
}

std::uint64_t WriterLoop(RpHashMap<std::uint64_t, std::uint64_t>& map, int tid,
                         const std::atomic<bool>& stop) {
  rp::Xoshiro256 rng(static_cast<std::uint64_t>(tid) * 7919 + 1);
  std::uint64_t ops = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    const std::uint64_t key = rng.NextBounded(kKeySpace);
    switch (rng.NextBounded(5)) {
      case 0:
      case 1:
        map.InsertOrAssign(key, key);
        break;
      case 2:
      case 3:
        map.Erase(key);
        break;
      default:
        map.Update(key, [](std::uint64_t& v) { ++v; });
        break;
    }
    ++ops;
  }
  return ops;
}

}  // namespace

int main() {
  const double seconds = rp::bench::SecondsPerPoint(0.5);
  const std::vector<int> thread_counts = rp::bench::ThreadCounts();
  rp::bench::SeriesTable table(
      "A10: update-heavy writer scaling (insert/erase/update mix)",
      thread_counts);

  struct Config {
    const char* name;
    std::size_t stripes;
  };
  const Config configs[] = {
      {"mutex-writer", 1},
      {"sharded-writer", RpHashMapOptions{}.writer_stripes},
  };

  for (const Config& config : configs) {
    for (int threads : thread_counts) {
      RpHashMap<std::uint64_t, std::uint64_t> map(
          kKeySpace / 2, OptionsWithStripes(config.stripes));
      // Pre-populate half the keyspace so erases and updates hit often.
      for (std::uint64_t k = 0; k < kKeySpace; k += 2) {
        map.Insert(k, k);
      }
      const double ops = rp::bench::MeasureThroughput(
          threads, seconds,
          [&map](int tid, const std::atomic<bool>& stop) {
            return WriterLoop(map, tid, stop);
          });
      table.Record(config.name, threads, ops);
      map.FlushDeferred();  // reclaim between points, not during them
    }
  }

  table.Print();

  // Headline comparison for the acceptance check: sharded vs. mutex at the
  // highest measured writer count.
  const int max_threads = thread_counts.back();
  const double mutex_ops = table.At("mutex-writer", max_threads);
  const double sharded_ops = table.At("sharded-writer", max_threads);
  if (mutex_ops > 0) {
    std::printf("sharded/mutex speedup at %d writers: %.2fx\n", max_threads,
                sharded_ops / mutex_ops);
  }
  return 0;
}
