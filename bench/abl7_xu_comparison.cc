// A7 — RP unzip-resize vs Herbert-Xu dual-chain resize.
//
// The paper dismisses Xu's design for its memory cost ("extra linked-list
// pointers in every node; high memory usage") rather than its speed. This
// ablation quantifies the whole trade:
//   1. idle lookup throughput (Xu pays one extra load for the link-set id),
//   2. lookup throughput under continuous 8k<->16k resizing,
//   3. single-resize latency (Xu: one rebuild + one grace period;
//      RP expand: one grace period per unzip pass),
//   4. per-node memory overhead.
#include <chrono>
#include <cstdint>
#include <cstdio>

#include "bench/harness.h"
#include "src/baselines/xu_hash_map.h"
#include "src/core/rp_hash_map.h"
#include "src/util/rng.h"
#include "src/util/stopwatch.h"

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

template <typename Map>
void Sweep(const char* series, Map& map, rp::bench::SeriesTable& idle,
           rp::bench::SeriesTable& resizing, const std::vector<int>& threads,
           double seconds) {
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    map.Insert(i, i);
  }
  for (int t : threads) {
    const double ops = rp::bench::MeasureThroughput(
        t, seconds, [&](int id, const std::atomic<bool>& stop) {
          return ReaderLoop(map, id, stop);
        });
    idle.Record(series, t, ops);
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
    resizing.Record(series, t, ops);
    std::printf("  %-3s %2d threads under resize: %10.2f Mlookups/s\n", series,
                t, ops / 1e6);
    std::fflush(stdout);
  }
}

// Median-of-few single-resize latency, expand then shrink back.
template <typename Map>
double ResizeLatencyMs(Map& map) {
  double best_ms = 1e300;
  for (int round = 0; round < 5; ++round) {
    rp::Stopwatch watch;
    map.Resize(kLarge);
    map.Resize(kSmall);
    const double ms = static_cast<double>(watch.ElapsedNanos()) / 1e6 / 2.0;
    if (ms < best_ms) {
      best_ms = ms;
    }
  }
  return best_ms;
}

}  // namespace

int main() {
  const std::vector<int> threads = rp::bench::ThreadCounts();
  const double seconds = rp::bench::SecondsPerPoint();
  rp::bench::SeriesTable idle("A7a: idle lookups (no resize)", threads);
  rp::bench::SeriesTable resizing("A7b: lookups during continuous resize",
                                  threads);

  {
    rp::core::RpHashMap<std::uint64_t, std::uint64_t> map(kSmall);
    Sweep("RP", map, idle, resizing, threads, seconds);
  }
  {
    rp::baselines::XuHashMap<std::uint64_t, std::uint64_t> map(kSmall);
    Sweep("Xu", map, idle, resizing, threads, seconds);
  }

  idle.Print();
  resizing.Print();

  // Resize latency + memory overhead.
  {
    rp::core::RpHashMap<std::uint64_t, std::uint64_t> rp_map(kSmall);
    rp::baselines::XuHashMap<std::uint64_t, std::uint64_t> xu_map(kSmall);
    for (std::uint64_t i = 0; i < kKeys; ++i) {
      rp_map.Insert(i, i);
      xu_map.Insert(i, i);
    }
    std::printf("\nA7c: single 8k<->16k resize latency (best of 5)\n");
    std::printf("  RP : %8.3f ms/resize\n", ResizeLatencyMs(rp_map));
    std::printf("  Xu : %8.3f ms/resize\n", ResizeLatencyMs(xu_map));
    std::printf("\nA7d: per-node link overhead\n");
    std::printf("  RP : 0 bytes (single chain)\n");
    std::printf("  Xu : %zu bytes (second chain pointer) = %.1f%% of a 48-byte node\n",
                decltype(xu_map)::PerNodeLinkOverheadBytes(),
                100.0 * static_cast<double>(
                            decltype(xu_map)::PerNodeLinkOverheadBytes()) /
                    48.0);
  }
  return 0;
}
