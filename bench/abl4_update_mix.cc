// A4 — mixed read/write scaling across table implementations.
//
// The paper's figures are read-dominated; this ablation sweeps the write
// fraction to show where each design's writer serialization starts to bite:
// RP and DDDS serialize writers on a mutex (reads stay wait-free), the
// bucket-locked table scales writers but taxes readers, the rwlock and
// mutex tables serialize everything.
#include <cstdint>
#include <cstdio>

#include "bench/harness.h"
#include "src/baselines/bucket_lock_hash_map.h"
#include "src/baselines/ddds_hash_map.h"
#include "src/baselines/mutex_hash_map.h"
#include "src/baselines/rwlock_hash_map.h"
#include "src/core/rp_hash_map.h"
#include "src/util/rng.h"

namespace {

constexpr std::uint64_t kKeys = 65536;
constexpr std::size_t kBuckets = 16384;

// Tiny local stand-in so this binary does not need google-benchmark.
template <typename T>
inline void benchmark_do_not_optimize(T&& value) {
  asm volatile("" : : "g"(value) : "memory");
}

template <typename Map>
void RunMix(rp::bench::SeriesTable& table, const char* name, Map& map,
            double write_ratio, const std::vector<int>& threads,
            double seconds) {
  for (int t : threads) {
    const double ops = rp::bench::MeasureThroughput(
        t, seconds, [&](int id, const std::atomic<bool>& stop) {
          rp::Xoshiro256 rng(static_cast<std::uint64_t>(id) * 7919 + 13);
          std::uint64_t done = 0;
          while (!stop.load(std::memory_order_relaxed)) {
            const std::uint64_t key = rng.NextBounded(kKeys);
            if (rng.NextDouble() < write_ratio) {
              if (rng.NextBounded(2) == 0) {
                map.Insert(key, key);
              } else {
                map.Erase(key);
              }
            } else {
              benchmark_do_not_optimize(map.Contains(key));
            }
            ++done;
          }
          return done;
        });
    table.Record(name, t, ops);
  }
}

}  // namespace

int main() {
  const std::vector<int> threads = rp::bench::ThreadCounts();
  const double seconds = rp::bench::SecondsPerPoint(0.2);

  for (double write_ratio : {0.01, 0.10, 0.50}) {
    char title[128];
    std::snprintf(title, sizeof(title),
                  "A4: mixed workload, %.0f%% writes, %llu keys",
                  write_ratio * 100, static_cast<unsigned long long>(kKeys));
    rp::bench::SeriesTable table(title, threads);

    {
      rp::core::RpHashMapOptions options;
      options.auto_resize = false;
      rp::core::RpHashMap<std::uint64_t, std::uint64_t> map(kBuckets, options);
      RunMix(table, "RP", map, write_ratio, threads, seconds);
    }
    {
      rp::baselines::DddsHashMap<std::uint64_t, std::uint64_t> map(kBuckets);
      RunMix(table, "DDDS", map, write_ratio, threads, seconds);
    }
    {
      rp::baselines::RwlockHashMap<std::uint64_t, std::uint64_t> map(kBuckets);
      RunMix(table, "rwlock", map, write_ratio, threads, seconds);
    }
    {
      rp::baselines::MutexHashMap<std::uint64_t, std::uint64_t> map(kBuckets);
      RunMix(table, "mutex", map, write_ratio, threads, seconds);
    }
    {
      rp::baselines::BucketLockHashMap<std::uint64_t, std::uint64_t> map(kBuckets);
      RunMix(table, "bucketlock", map, write_ratio, threads, seconds);
    }

    table.Print();
  }
  return 0;
}
