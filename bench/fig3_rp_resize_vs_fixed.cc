// F3 — "Results — our resize versus fixed".
//
// RP table: three series — fixed 8k buckets, fixed 16k buckets, and
// continuous 8k<->16k resizing. Expected shape: the resize curve scales
// linearly and sits within (or near) the envelope of the two fixed curves,
// demonstrating that resizing costs readers almost nothing.
#include <cstdint>
#include <cstdio>

#include "bench/harness.h"
#include "src/baselines/fixed_rcu_hash_map.h"
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
  rp::bench::SeriesTable table("F3: RP resize versus fixed sizes", threads);

  for (const auto& [name, buckets] :
       {std::pair<const char*, std::size_t>{"8k", kSmall},
        std::pair<const char*, std::size_t>{"16k", kLarge}}) {
    rp::baselines::FixedRcuHashMap<std::uint64_t, std::uint64_t> map(buckets);
    for (std::uint64_t i = 0; i < kKeys; ++i) {
      map.Insert(i, i);
    }
    for (int t : threads) {
      const double ops = rp::bench::MeasureThroughput(
          t, seconds, [&](int id, const std::atomic<bool>& stop) {
            return ReaderLoop(map, id, stop);
          });
      table.Record(name, t, ops);
      std::printf("  %-6s %2d threads: %10.2f Mlookups/s\n", name, t, ops / 1e6);
      std::fflush(stdout);
    }
  }

  {
    rp::core::RpHashMap<std::uint64_t, std::uint64_t> map(kSmall);
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
      table.Record("resize", t, ops);
      std::printf("  resize %2d threads: %10.2f Mlookups/s\n", t, ops / 1e6);
      std::fflush(stdout);
    }
  }

  table.Print();
  return 0;
}
