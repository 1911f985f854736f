// route_cache: a kernel-style workload — an IP routing cache under
// concurrent lookups, route churn (insert/expire), and table resizing.
//
// This is the scenario the paper's introduction motivates: kernel hash
// tables (dcache, route cache, connection tracking) whose read path must
// never block and whose size cannot be known in advance. Readers here are
// "packet processors" doing route lookups; a control-plane thread adds and
// withdraws routes; a background ResizeWorker resizes the table as the
// route count swings, so no writer ever waits out a resize.
//
// Build & run:  ./build/examples/route_cache
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "src/core/resize_worker.h"
#include "src/core/rp_hash_map.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/stopwatch.h"

namespace {

struct Route {
  std::uint32_t next_hop;
  std::uint16_t interface;
  std::uint16_t metric;
};

using RouteTable = rp::core::RpHashMap<std::uint32_t, Route>;

constexpr std::uint32_t kStableRoutes = 50000;
constexpr std::uint32_t kChurnRoutes = 200000;
constexpr int kPacketThreads = 6;
constexpr double kRunSeconds = 2.0;

}  // namespace

int main() {
  RouteTable table(1024);
  rp::core::ResizeWorkerOptions worker_options;
  worker_options.grow_at = 1.0;
  worker_options.poll_interval = std::chrono::milliseconds(10);
  rp::core::ResizeWorker<RouteTable> worker(table, worker_options);

  // Install the stable part of the routing table.
  for (std::uint32_t dst = 0; dst < kStableRoutes; ++dst) {
    table.Insert(dst, Route{dst ^ 0xC0A80001, static_cast<std::uint16_t>(dst % 8),
                            static_cast<std::uint16_t>(dst % 16)});
    worker.Nudge();
  }
  std::printf("installed %zu stable routes, %zu buckets\n", table.Size(),
              table.BucketCount());

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> lookups{0};
  std::atomic<std::uint64_t> route_misses{0};

  // Packet processors: route lookups on the hot path.
  std::vector<std::thread> packet_threads;
  for (int t = 0; t < kPacketThreads; ++t) {
    packet_threads.emplace_back([&, t] {
      rp::Xoshiro256 rng(static_cast<std::uint64_t>(t) + 1);
      std::uint64_t n = 0;
      std::uint64_t misses = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto dst = static_cast<std::uint32_t>(rng.NextBounded(kStableRoutes));
        bool forwarded = false;
        table.With(dst, [&](const Route& route) {
          // "Forward the packet": consume the route fields.
          forwarded = (route.next_hop ^ route.interface) != 0xFFFFFFFF;
        });
        if (!forwarded) {
          ++misses;  // a stable route must never be missing
        }
        ++n;
      }
      lookups.fetch_add(n);
      route_misses.fetch_add(misses);
    });
  }

  // Control plane: bursts of dynamic routes appear and get withdrawn,
  // swinging the table size; the nudges let the worker resize both ways.
  std::thread control([&] {
    rp::Xoshiro256 rng(99);
    int epoch = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::uint32_t base = kStableRoutes + (epoch % 2) * kChurnRoutes;
      for (std::uint32_t i = 0; i < kChurnRoutes && !stop.load(std::memory_order_relaxed); ++i) {
        table.Insert(base + i, Route{base + i, 1, 1});
        worker.Nudge();
      }
      for (std::uint32_t i = 0; i < kChurnRoutes && !stop.load(std::memory_order_relaxed); ++i) {
        table.Erase(base + i);
        worker.Nudge();
      }
      ++epoch;
    }
  });

  rp::Stopwatch watch;
  std::size_t max_buckets = 0;
  std::size_t min_buckets = SIZE_MAX;
  while (watch.ElapsedSeconds() < kRunSeconds) {
    max_buckets = std::max(max_buckets, table.BucketCount());
    min_buckets = std::min(min_buckets, table.BucketCount());
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true);
  for (auto& t : packet_threads) {
    t.join();
  }
  control.join();

  const double rate = static_cast<double>(lookups.load()) / watch.ElapsedSeconds();
  std::printf("\n--- results ---\n");
  std::printf("route lookups: %s aggregate (%d packet threads)\n",
              rp::FormatThroughput(rate).c_str(), kPacketThreads);
  std::printf("stable-route misses: %llu (must be 0 — readers never lose a route)\n",
              static_cast<unsigned long long>(route_misses.load()));
  std::printf("bucket count swung between %zu and %zu during churn\n",
              min_buckets, max_buckets);
  std::printf("final: %zu routes, %zu buckets, %llu resizes total\n",
              table.Size(), table.BucketCount(),
              static_cast<unsigned long long>(table.ResizeCount()));
  return route_misses.load() == 0 ? 0 : 1;
}
