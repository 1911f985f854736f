// F1 — "Results: fixed-size table baseline".
//
// Lookups/second vs reader-thread count on a fixed-size (no resize) table,
// three series: RP (relativistic), DDDS, rwlock. Expected shape: RP scales
// ~linearly, DDDS scales below RP (extra secondary-table check per lookup),
// rwlock stays flat (readers serialize on the lock word).
#include <cstdint>
#include <cstdio>

#include "bench/harness.h"
#include "src/baselines/ddds_hash_map.h"
#include "src/baselines/rwlock_hash_map.h"
#include "src/core/rp_hash_map.h"
#include "src/util/rng.h"

namespace {

constexpr std::size_t kBuckets = 8192;
constexpr std::uint64_t kKeys = 4096;  // load factor 0.5, like the paper's setup

template <typename Map>
void Populate(Map& map) {
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    map.Insert(i, i);
  }
}

template <typename Map>
void RunSeries(rp::bench::SeriesTable& table, const char* name, Map& map,
               const std::vector<int>& threads, double seconds) {
  for (int t : threads) {
    const double ops = rp::bench::MeasureThroughput(
        t, seconds, [&](int id, const std::atomic<bool>& stop) {
          rp::Xoshiro256 rng(static_cast<std::uint64_t>(id) + 1);
          std::uint64_t ops_done = 0;
          std::uint64_t misses = 0;
          while (!stop.load(std::memory_order_relaxed)) {
            if (!map.Contains(rng.NextBounded(kKeys))) {
              ++misses;
            }
            ++ops_done;
          }
          if (misses != 0) {
            std::fprintf(stderr, "BUG: %llu lookup misses\n",
                         static_cast<unsigned long long>(misses));
          }
          return ops_done;
        });
    table.Record(name, t, ops);
    std::printf("  %-8s %2d threads: %10.2f Mlookups/s\n", name, t, ops / 1e6);
    std::fflush(stdout);
  }
}

}  // namespace

int main() {
  const std::vector<int> threads = rp::bench::ThreadCounts();
  const double seconds = rp::bench::SecondsPerPoint();
  rp::bench::SeriesTable table(
      "F1: fixed-size table baseline (8k buckets, 4k entries, pure lookups)",
      threads);

  rp::core::RpHashMap<std::uint64_t, std::uint64_t> rp_map(kBuckets);
  Populate(rp_map);
  RunSeries(table, "RP", rp_map, threads, seconds);

  rp::baselines::DddsHashMap<std::uint64_t, std::uint64_t> ddds_map(kBuckets);
  Populate(ddds_map);
  RunSeries(table, "DDDS", ddds_map, threads, seconds);

  rp::baselines::RwlockHashMap<std::uint64_t, std::uint64_t> rwlock_map(kBuckets);
  Populate(rwlock_map);
  RunSeries(table, "rwlock", rwlock_map, threads, seconds);

  table.Print();
  return 0;
}
