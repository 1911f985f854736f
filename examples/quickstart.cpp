// Quickstart: the RpHashMap public API in two minutes.
//
// Build & run:  ./build/examples/quickstart
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/core/resize_worker.h"
#include "src/core/rp_hash_map.h"

using Map = rp::core::RpHashMap<std::string, std::string>;

int main() {
  // A resizable relativistic hash map. Readers never block; writers
  // serialize internally. The map resizes only when told to: a
  // ResizeWorker keeps the load factor bounded from a background thread.
  Map map(/*initial_buckets=*/16);
  rp::core::ResizeWorker<Map> worker(map);

  // --- Write side ---------------------------------------------------------
  map.Insert("linux", "kernel");
  map.Insert("memcached", "cache");
  map.InsertOrAssign("linux", "kernel 3.x");     // replace atomically
  map.Update("memcached", [](std::string& v) {  // copy-on-write update
    v += " daemon";
  });

  // --- Read side (wait-free; safe from any thread, any time) --------------
  if (auto v = map.Get("linux")) {
    std::printf("linux -> %s\n", v->c_str());
  }
  map.With("memcached", [](const std::string& v) {
    std::printf("memcached -> %s (visited in-place, zero copy)\n", v.c_str());
  });

  // --- Atomic rename: readers never observe the key as absent -------------
  map.Move("linux", "gnu-linux");
  std::printf("moved: contains(linux)=%d contains(gnu-linux)=%d\n",
              map.Contains("linux"), map.Contains("gnu-linux"));

  // --- Background resize: a nudge wakes the worker once the load factor
  // leaves its band, and the worker resizes off the writer's path ----------
  for (int i = 0; i < 10000; ++i) {
    map.Insert("key-" + std::to_string(i), std::to_string(i));
    worker.Nudge();
  }
  while (worker.ResizesPerformed() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::printf("grew to %zu entries across %zu buckets (resized by the worker)\n",
              map.Size(), map.BucketCount());

  // --- Concurrent readers during an explicit resize ------------------------
  worker.Stop();  // the explicit resizes below replace the worker's policy

  std::vector<std::thread> readers;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> lookups{0};
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      std::uint64_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        (void)map.Contains("key-" + std::to_string(n++ % 10000));
      }
      lookups.fetch_add(n);
    });
  }
  map.Resize(64);     // shrink: one wait-for-readers
  map.Resize(16384);  // expand: publish + incremental unzip
  stop.store(true);
  for (auto& r : readers) {
    r.join();
  }

  const auto stats = map.LastResizeStats();
  std::printf(
      "resized %zu -> %zu buckets under %llu concurrent lookups:\n"
      "  %zu unzip passes, %zu grace periods, %zu pointer swings, %.2f ms\n",
      stats.from_buckets, stats.to_buckets,
      static_cast<unsigned long long>(lookups.load()), stats.unzip_passes,
      stats.grace_periods, stats.pointer_swings,
      static_cast<double>(stats.duration_ns) / 1e6);

  std::printf("done.\n");
  return 0;
}
