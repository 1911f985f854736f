// F2 — "Results — continuous resizing".
//
// Lookups/second vs reader threads while one writer thread resizes the
// table back and forth between 8k and 16k buckets without pause — the
// paper's worst-case scenario. Series: RP, DDDS. Expected shape: RP keeps
// scaling (readers never block on the resize); DDDS drops to roughly half
// its fixed-size throughput (every lookup probes two tables / retries).
#include <cstdint>
#include <cstdio>

#include "bench/harness.h"
#include "src/baselines/ddds_hash_map.h"
#include "src/core/rp_hash_map.h"
#include "src/util/rng.h"

namespace {

constexpr std::size_t kSmall = 8192;
constexpr std::size_t kLarge = 16384;
constexpr std::uint64_t kKeys = 8192;

template <typename Map>
std::uint64_t ReaderLoop(Map& map, int id, const std::atomic<bool>& stop) {
  rp::Xoshiro256 rng(static_cast<std::uint64_t>(id) + 1);
  std::uint64_t ops = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    (void)map.Contains(rng.NextBounded(kKeys));
    ++ops;
  }
  return ops;
}

}  // namespace

int main() {
  const std::vector<int> threads = rp::bench::ThreadCounts();
  const double seconds = rp::bench::SecondsPerPoint();
  rp::bench::SeriesTable table(
      "F2: lookups during continuous 8k<->16k resizing", threads);

  {
    rp::core::RpHashMap<std::uint64_t, std::uint64_t> map(kSmall);
    for (std::uint64_t i = 0; i < kKeys; ++i) {
      map.Insert(i, i);
    }
    std::uint64_t resizes = 0;
    for (int t : threads) {
      const double ops = rp::bench::MeasureThroughput(
          t, seconds,
          [&](int id, const std::atomic<bool>& stop) {
            return ReaderLoop(map, id, stop);
          },
          [&](const std::atomic<bool>& stop) {
            while (!stop.load(std::memory_order_relaxed)) {
              map.Resize(kLarge);
              map.Resize(kSmall);
              resizes += 2;
            }
          });
      table.Record("RP", t, ops);
      std::printf("  RP    %2d threads: %10.2f Mlookups/s (resizes so far: %llu)\n",
                  t, ops / 1e6, static_cast<unsigned long long>(resizes));
      std::fflush(stdout);
    }
  }

  {
    rp::baselines::DddsHashMap<std::uint64_t, std::uint64_t> map(kSmall);
    for (std::uint64_t i = 0; i < kKeys; ++i) {
      map.Insert(i, i);
    }
    for (int t : threads) {
      const double ops = rp::bench::MeasureThroughput(
          t, seconds,
          [&](int id, const std::atomic<bool>& stop) {
            return ReaderLoop(map, id, stop);
          },
          [&](const std::atomic<bool>& stop) {
            while (!stop.load(std::memory_order_relaxed)) {
              map.Resize(kLarge);
              map.Resize(kSmall);
            }
          });
      table.Record("DDDS", t, ops);
      std::printf("  DDDS  %2d threads: %10.2f Mlookups/s\n", t, ops / 1e6);
      std::fflush(stdout);
    }
  }

  table.Print();
  return 0;
}
