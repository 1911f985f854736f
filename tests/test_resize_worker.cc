// Deferred (rhashtable-style) resize worker driving RpHashMap.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/baselines/rwlock_hash_map.h"
#include "src/core/resize_worker.h"
#include "src/core/rp_hash_map.h"
#include "tests/worker_race.h"

namespace rp::core {
namespace {

using Map = RpHashMap<std::uint64_t, std::uint64_t>;

TEST(ResizeWorker, GrowsOverloadedTable) {
  Map map(16);
  ResizeWorker<Map> worker(map, FastWorker());
  for (std::uint64_t k = 0; k < 1000; ++k) {
    map.Insert(k, k);
    worker.Nudge();
  }
  // 1000 entries at grow_at=2.0 needs ≥512 buckets. The map publishes its
  // new bucket count before the worker counts the resize, so wait for both.
  WaitUntil([&] {
    return map.BucketCount() >= 512 && worker.ResizesPerformed() >= 1;
  });
  EXPECT_GE(worker.ResizesPerformed(), 1u);
  for (std::uint64_t k = 0; k < 1000; ++k) {
    ASSERT_TRUE(map.Contains(k)) << k;
  }
}

TEST(ResizeWorker, ShrinksEmptiedTable) {
  Map map(16);
  for (std::uint64_t k = 0; k < 4000; ++k) {
    map.Insert(k, k);
  }
  map.Resize(2048);
  ResizeWorker<Map> worker(map, FastWorker());
  for (std::uint64_t k = 0; k < 4000; ++k) {
    map.Erase(k);
  }
  worker.Nudge();
  WaitUntil([&] { return map.BucketCount() <= 16; });
  EXPECT_EQ(map.Size(), 0u);
}

TEST(ResizeWorker, PeriodicTickWorksWithoutNudges) {
  Map map(16);
  ResizeWorker<Map> worker(map, FastWorker());
  for (std::uint64_t k = 0; k < 500; ++k) {
    map.Insert(k, k);  // no Nudge: rely on the poll interval
  }
  WaitUntil([&] { return map.BucketCount() >= 256; });
}

TEST(ResizeWorker, StopIsIdempotentAndFinal) {
  Map map(16);
  ResizeWorker<Map> worker(map, FastWorker());
  worker.Stop();
  worker.Stop();  // second call must be a no-op
  for (std::uint64_t k = 0; k < 1000; ++k) {
    map.Insert(k, k);
    worker.Nudge();  // nudging a stopped worker must be safe
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(map.BucketCount(), 16u);  // nothing resized after Stop
}

TEST(ResizeWorker, HysteresisPreventsOscillation) {
  Map map(64);
  ResizeWorkerOptions options = FastWorker();
  options.min_buckets = 64;
  ResizeWorker<Map> worker(map, options);
  // Load factor 1.0: inside (shrink_at, grow_at) — the worker must not act.
  for (std::uint64_t k = 0; k < 64; ++k) {
    map.Insert(k, k);
    worker.Nudge();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(map.BucketCount(), 64u);
  EXPECT_EQ(worker.ResizesPerformed(), 0u);
}

TEST(ResizeWorker, InBandNudgesDoNotWakeTheWorker) {
  // A nudge wakes the worker only when the load factor has left the band,
  // as the kernel's rhashtable schedules its worker only past
  // rht_grow_above_75 / rht_shrink_below_30. The poll is far beyond the
  // test's run time, so every wakeup counted here comes from a nudge.
  Map map(64);
  ResizeWorkerOptions options;
  options.poll_interval = std::chrono::seconds(10);
  options.min_buckets = 64;  // the empty table is not a shrink candidate
  ResizeWorker<Map> worker(map, options);
  for (std::uint64_t k = 0; k < 64; ++k) {
    map.Insert(k, k);
    worker.Nudge();  // load factor at most 1.0: inside [0.25, 2.0]
  }
  // Give a wrongly woken worker time to run and count its pass.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(worker.Wakeups(), 0u);
  EXPECT_EQ(worker.ResizesPerformed(), 0u);

  // 129 entries in 64 buckets passes grow_at: only the last nudge is out
  // of band, and it buys exactly one wakeup and one resize.
  for (std::uint64_t k = 64; k < 129; ++k) {
    map.Insert(k, k);
    worker.Nudge();
  }
  WaitUntil([&] { return worker.ResizesPerformed() >= 1; });
  EXPECT_EQ(map.BucketCount(), 128u);
  EXPECT_EQ(worker.Wakeups(), 1u);
  EXPECT_EQ(worker.ResizesPerformed(), 1u);
}

TEST(ResizeWorker, NonPowerOfTwoMinBucketsDoesNotSpinResizes) {
  // min_buckets 100 clamps the shrink target to 100 while the table rounds
  // to 128: the worker must recognize that as "already there", not issue a
  // no-op resize on every tick forever.
  Map map(128);
  ResizeWorkerOptions options = FastWorker();
  options.min_buckets = 100;
  ResizeWorker<Map> worker(map, options);
  for (std::uint64_t k = 0; k < 4; ++k) {
    map.Insert(k, k);  // load far below shrink_at
  }
  worker.Nudge();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const std::uint64_t after_settle = worker.ResizesPerformed();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(worker.ResizesPerformed(), after_settle);
  EXPECT_EQ(map.BucketCount(), 128u);
}

TEST(ResizeWorker, CatchesUpInOneResizeAfterBurst) {
  Map map(16);
  // Insert a large burst before the worker exists, then attach it.
  for (std::uint64_t k = 0; k < 10000; ++k) {
    map.Insert(k, k);
  }
  ResizeWorker<Map> worker(map, FastWorker());
  worker.Nudge();
  WaitUntil([&] { return worker.ResizesPerformed() >= 1; });
  EXPECT_GE(map.BucketCount(), 4096u);
  // One catch-up resize, not a ladder of individually-nudged doublings.
  EXPECT_EQ(worker.ResizesPerformed(), 1u);
}

TEST(ResizeWorker, ReadersNeverMissDuringWorkerResizes) {
  Map map(16);
  constexpr std::uint64_t kStable = 256;
  for (std::uint64_t k = 0; k < kStable; ++k) {
    map.Insert(k, k + 1);
  }
  ResizeWorker<Map> worker(map, FastWorker());

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> misses{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      std::uint64_t key = static_cast<std::uint64_t>(r);
      while (!stop.load(std::memory_order_relaxed)) {
        key = (key * 6364136223846793005ULL + 1442695040888963407ULL) % kStable;
        auto v = map.Get(key);
        if (!v.has_value() || *v != key + 1) {
          misses.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Churn volatile keys to swing the load factor across both thresholds.
  for (int round = 0; round < 20; ++round) {
    for (std::uint64_t k = kStable; k < kStable + 2000; ++k) {
      map.Insert(k, k);
      worker.Nudge();
    }
    for (std::uint64_t k = kStable; k < kStable + 2000; ++k) {
      map.Erase(k);
      worker.Nudge();
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) {
    t.join();
  }
  EXPECT_EQ(misses.load(), 0u);
  EXPECT_GE(worker.ResizesPerformed(), 1u);
}

// The worker is generic over the table type: drive a baseline too.
TEST(ResizeWorker, WorksWithRwlockBaseline) {
  using LockMap = baselines::RwlockHashMap<std::uint64_t, std::uint64_t>;
  LockMap map(16);
  ResizeWorker<LockMap> worker(map, FastWorker());
  for (std::uint64_t k = 0; k < 1000; ++k) {
    map.Insert(k, k);
    worker.Nudge();
  }
  WaitUntil([&] { return map.BucketCount() >= 512; });
  for (std::uint64_t k = 0; k < 1000; ++k) {
    ASSERT_TRUE(map.Contains(k));
  }
}

}  // namespace
}  // namespace rp::core
