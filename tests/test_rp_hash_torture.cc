// Torture tests for the resize algorithm's consistency claim.
//
// The paper's correctness argument is instant-by-instant: a reader
// traversing a bucket must observe every element of that bucket at every
// moment of a resize. Races here hide in the windows between pointer swings
// and grace periods, so this suite runs the map on a DelayDomain — an RCU
// domain wrapper that injects random delays into Synchronize and stretches
// read sections — to blow those windows wide open, and cross-checks reader
// observations against ground truth throughout.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "src/core/resize_worker.h"
#include "src/core/rp_hash_map.h"
#include "src/rcu/epoch.h"
#include "src/rcu/guard.h"
#include "src/rcu/reclaimer.h"
#include "src/util/rng.h"
#include "src/util/spin_barrier.h"

namespace rp::core {
namespace {

// RcuDomain decorator: functionally identical to Epoch, but Synchronize
// sleeps a random amount first (so writers sit mid-resize with zipped or
// half-unzipped chains for much longer than in production) and ReadLock
// occasionally yields (so readers park inside critical sections spanning
// many writer steps).
struct DelayDomain {
  static void ReadLock() {
    rcu::Epoch::ReadLock();
    if (Rng().Next() % 64 == 0) {
      std::this_thread::yield();
    }
  }
  static void ReadUnlock() { rcu::Epoch::ReadUnlock(); }

  static void Synchronize() {
    std::this_thread::sleep_for(
        std::chrono::microseconds(Rng().Next() % 200));
    rcu::Epoch::Synchronize();
    synchronize_calls.fetch_add(1, std::memory_order_relaxed);
  }

  template <typename T>
  static void Retire(T* ptr) {
    rcu::Epoch::Retire(ptr);
  }
  static void Barrier() { rcu::Epoch::Barrier(); }
  static std::uint64_t GracePeriodCount() {
    return rcu::Epoch::GracePeriodCount();
  }

  static inline std::atomic<std::uint64_t> synchronize_calls{0};

 private:
  static SplitMix64& Rng() {
    thread_local SplitMix64 rng(
        std::hash<std::thread::id>{}(std::this_thread::get_id()));
    return rng;
  }
};
static_assert(rcu::RcuDomain<DelayDomain>);

using TortureMap =
    RpHashMap<std::uint64_t, std::uint64_t, MixedHash<std::uint64_t>,
              std::equal_to<std::uint64_t>, DelayDomain>;

// Readers hammer a stable key set through many slowed-down resizes. Any
// missed key is an instant-consistency violation.
TEST(RpHashTorture, StableKeysSurviveSlowMotionResizes) {
  TortureMap map(8);
  constexpr std::uint64_t kKeys = 256;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    map.Insert(k, k ^ 0xA5A5);
  }

  constexpr int kReaders = 6;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> misses{0};
  std::atomic<std::uint64_t> corruptions{0};
  SpinBarrier barrier(kReaders + 1);

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      SplitMix64 rng(static_cast<std::uint64_t>(r) * 31 + 1);
      barrier.ArriveAndWait();
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t key = rng.Next() % kKeys;
        const auto v = map.Get(key);
        if (!v.has_value()) {
          misses.fetch_add(1, std::memory_order_relaxed);
        } else if (*v != (key ^ 0xA5A5)) {
          corruptions.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  barrier.ArriveAndWait();
  // Walk the whole resize ladder both ways, repeatedly, with delays active.
  for (int round = 0; round < 6; ++round) {
    map.Resize(256);
    map.Resize(8);
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) {
    t.join();
  }
  EXPECT_EQ(misses.load(), 0u);
  EXPECT_EQ(corruptions.load(), 0u);
  EXPECT_GT(DelayDomain::synchronize_calls.load(), 0u);
}

// Writers mutate volatile keys while resizes crawl: present keys must
// always be found, erased keys must stay erased, and the final state must
// be exact.
TEST(RpHashTorture, UpdatesInterleavedWithSlowResizes) {
  TortureMap map(16);
  constexpr std::uint64_t kStable = 128;
  constexpr std::uint64_t kVolatile = 128;
  for (std::uint64_t k = 0; k < kStable; ++k) {
    map.Insert(k, 1);
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> anomalies{0};

  // Reader: stable keys always present with a sane value.
  std::thread reader([&] {
    SplitMix64 rng(5);
    while (!stop.load(std::memory_order_relaxed)) {
      const std::uint64_t key = rng.Next() % kStable;
      if (!map.Contains(key)) {
        anomalies.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  // Updater: churns the volatile range with Insert/Update/Erase/Move.
  std::thread updater([&] {
    SplitMix64 rng(77);
    while (!stop.load(std::memory_order_relaxed)) {
      const std::uint64_t key = kStable + rng.Next() % kVolatile;
      switch (rng.Next() % 4) {
        case 0:
          map.InsertOrAssign(key, rng.Next());
          break;
        case 1:
          map.Erase(key);
          break;
        case 2:
          map.Update(key, [](std::uint64_t& v) { ++v; });
          break;
        default:
          map.Move(key, kStable + rng.Next() % kVolatile);
      }
    }
  });

  for (int round = 0; round < 4; ++round) {
    map.Resize(512);
    map.Resize(16);
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  updater.join();

  EXPECT_EQ(anomalies.load(), 0u);
  // Final exact check of the stable range.
  for (std::uint64_t k = 0; k < kStable; ++k) {
    EXPECT_TRUE(map.Contains(k)) << k;
  }
  EXPECT_TRUE(map.BucketsArePrecise());
}

// ForEach during slowed resizes: every stable key appears at least once per
// scan (imprecise buckets may yield duplicates, never omissions).
TEST(RpHashTorture, ForEachNeverOmitsDuringSlowResizes) {
  TortureMap map(8);
  constexpr std::uint64_t kKeys = 200;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    map.Insert(k, k);
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> omissions{0};
  std::thread scanner([&] {
    std::vector<bool> seen(kKeys);
    while (!stop.load(std::memory_order_relaxed)) {
      std::fill(seen.begin(), seen.end(), false);
      map.ForEach([&](const std::uint64_t& k, const std::uint64_t&) {
        if (k < kKeys) {
          seen[k] = true;
        }
      });
      for (std::uint64_t k = 0; k < kKeys; ++k) {
        if (!seen[k]) {
          omissions.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  });

  for (int round = 0; round < 5; ++round) {
    map.Resize(128);
    map.Resize(8);
  }
  stop.store(true, std::memory_order_relaxed);
  scanner.join();
  EXPECT_EQ(omissions.load(), 0u);
}

// RcuDomain decorator that calls a test's hook around each grace period:
// hook(false) before Epoch's wait, hook(true) after it. An expand runs one
// grace period before each unzip pass, so the hook can step a reader
// through the unzip one pass at a time. Only the resizing thread calls it.
struct SteppedDomain {
  static void ReadLock() { rcu::Epoch::ReadLock(); }
  static void ReadUnlock() { rcu::Epoch::ReadUnlock(); }

  static void Synchronize() {
    if (hook) {
      hook(false);
    }
    rcu::Epoch::Synchronize();
    if (hook) {
      hook(true);
    }
  }

  template <typename T>
  static void Retire(T* ptr) {
    rcu::Epoch::Retire(ptr);
  }
  static void Barrier() { rcu::Epoch::Barrier(); }
  static std::uint64_t GracePeriodCount() {
    return rcu::Epoch::GracePeriodCount();
  }

  static inline std::function<void(bool)> hook;
};
static_assert(rcu::RcuDomain<SteppedDomain>);

// A reader parked in a sibling run across every pass of a many-run unzip.
// The old chain reads as runs R1..R16 of two nodes each that alternate
// between new buckets 0 and 2. Right after grace period k, a scanner
// follows the still-zipped link end(Rk) -> head(Rk+1) into the sibling run
// and parks there while pass k lands. Its own bucket's next run, Rk+2, is
// reachable only through end(Rk+1), which pass k + 1 swings past Rk+2. So
// pass k + 1 must wait for the scanner: the next grace period releases it
// before waiting, and the scanner must then step from end(Rk+1) to
// head(Rk+2). A pass applied early, or a grace period left out, shows as
// a scanner that steps past Rk+2.
TEST(RpHashTorture, ParkedReaderSurvivesEveryUnzipPass) {
  struct IdentityHash {
    std::size_t operator()(const std::uint64_t& k) const { return k; }
  };
  using SteppedMap = RpHashMap<std::uint64_t, std::uint64_t, IdentityHash,
                               std::equal_to<std::uint64_t>, SteppedDomain>;
  constexpr std::uint64_t kRuns = 16;
  constexpr std::uint64_t kRunLength = 2;
  constexpr std::uint64_t kNone = ~std::uint64_t{0};
  // Node m of old chain 0 of 2 lies in run R(m / kRunLength + 1); odd runs
  // go to new bucket 0 of 4, even runs to bucket 2.
  const auto key_of = [](std::uint64_t m) {
    return 4 * m + 2 * (m / kRunLength % 2);
  };
  const auto head = [&](std::uint64_t run) {
    return key_of((run - 1) * kRunLength);
  };
  const auto end = [&](std::uint64_t run) {
    return key_of(run * kRunLength - 1);
  };

  SteppedMap map(2);
  // Inserts go to the head: insert in reverse to read the chain in order.
  for (std::uint64_t m = kRuns * kRunLength; m-- > 0;) {
    ASSERT_TRUE(map.Insert(key_of(m), m));
  }

  // stepped_to[k]: the key the scanner parked after grace period k visited
  // right after end(Rk+1).
  std::vector<std::uint64_t> stepped_to(kRuns - 1, kNone);
  std::uint64_t grace_periods = 0;
  std::atomic<bool> parked{false};
  std::atomic<bool> release{false};
  std::thread scanner;
  const auto release_scanner = [&] {
    if (scanner.joinable()) {
      release.store(true);
      scanner.join();
    }
  };
  SteppedDomain::hook = [&](bool waited) {
    if (!waited) {
      release_scanner();
      return;
    }
    const std::uint64_t k = ++grace_periods;
    if (k + 2 > kRuns) {
      return;  // pass k + 1 ends the chain: there is no Rk+2 to lose
    }
    parked.store(false);
    release.store(false);
    scanner = std::thread([&, k] {
      std::uint64_t prev = kNone;
      bool parked_here = false;
      map.ForEach([&](const std::uint64_t& key, const std::uint64_t&) {
        if (parked_here && prev == end(k + 1) && stepped_to[k] == kNone) {
          stepped_to[k] = key;
        }
        if (!parked_here && prev == end(k) && key == head(k + 1)) {
          parked_here = true;
          parked.store(true);
          while (!release.load()) {
            std::this_thread::yield();
          }
        }
        prev = key;
      });
      parked.store(true);  // a scan that never parked must not hang the hook
    });
    while (!parked.load()) {
      std::this_thread::yield();
    }
  };
  map.Resize(4);
  release_scanner();
  SteppedDomain::hook = nullptr;

  for (std::uint64_t k = 1; k + 2 <= kRuns; ++k) {
    EXPECT_EQ(stepped_to[k], head(k + 2)) << "pass " << k;
  }
  EXPECT_EQ(map.LastResizeStats().unzip_passes, kRuns - 2);
  EXPECT_TRUE(map.BucketsArePrecise());
}

// Multi-writer configuration: several writers hammer the striped update
// path (disjoint ranges, so the expected final state is exact) while a
// background ResizeWorker walks the table up and down with DelayDomain's
// slowed-down grace periods, and a reader cross-checks a stable range the
// writers never touch. This is the torture version of the sharded writer
// path: writer/writer exclusion per stripe, writer/resize exclusion via
// all-stripe acquisition, erase-path reclamation fully deferred.
TEST(RpHashTorture, ConcurrentWritersRacingBackgroundResizeWorker) {
  TortureMap map(16);

  constexpr std::uint64_t kStable = 128;
  for (std::uint64_t k = 0; k < kStable; ++k) {
    map.Insert(k, k ^ 0x5A5A);
  }

  ResizeWorkerOptions worker_options;
  worker_options.poll_interval = std::chrono::milliseconds(1);
  worker_options.min_buckets = 8;
  ResizeWorker<TortureMap> worker(map, worker_options);

  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 1500;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> anomalies{0};

  std::thread reader([&] {
    SplitMix64 rng(11);
    while (!stop.load(std::memory_order_relaxed)) {
      const std::uint64_t key = rng.Next() % kStable;
      const auto v = map.Get(key);
      if (!v.has_value() || *v != (key ^ 0x5A5A)) {
        anomalies.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      SplitMix64 rng(static_cast<std::uint64_t>(w) * 97 + 3);
      const std::uint64_t base = 1000 + static_cast<std::uint64_t>(w) * 100000;
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        ASSERT_TRUE(map.Insert(base + i, i));
        worker.Nudge();
        // Churn within the writer's own range to exercise the striped
        // replace/erase/move paths against the crawling resizes.
        const std::uint64_t victim = base + rng.Next() % (i + 1);
        switch (rng.Next() % 3) {
          case 0:
            map.Update(victim, [](std::uint64_t& v) { ++v; });
            break;
          case 1:
            map.InsertOrAssign(victim, rng.Next());
            break;
          default:
            break;
        }
      }
      for (std::uint64_t i = 0; i < kPerWriter; i += 2) {
        ASSERT_TRUE(map.Erase(base + i));
        worker.Nudge();
      }
    });
  }

  for (auto& t : writers) {
    t.join();
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  worker.Stop();

  EXPECT_EQ(anomalies.load(), 0u);
  EXPECT_EQ(map.Size(), kStable + kWriters * kPerWriter / 2);
  for (std::uint64_t k = 0; k < kStable; ++k) {
    ASSERT_TRUE(map.Contains(k)) << k;
  }
  for (int w = 0; w < kWriters; ++w) {
    const std::uint64_t base = 1000 + static_cast<std::uint64_t>(w) * 100000;
    for (std::uint64_t i = 0; i < kPerWriter; ++i) {
      EXPECT_EQ(map.Contains(base + i), i % 2 == 1) << base + i;
    }
  }
  // Drain deferred reclamation so the test binary exits allocation-clean
  // even before the map's destructor runs.
  map.FlushDeferred();
}

// The synchronous reclamation policy under the same torture domain: erase
// frees after an inline grace period, so a FlushDeferred/Drain is a no-op
// and memory is returned deterministically.
TEST(RpHashTorture, SyncReclaimerPolicyUnderResizes) {
  using SyncMap =
      RpHashMap<std::uint64_t, std::uint64_t, MixedHash<std::uint64_t>,
                std::equal_to<std::uint64_t>, DelayDomain,
                rcu::SyncReclaimer<DelayDomain>>;
  SyncMap map(8);
  for (std::uint64_t k = 0; k < 200; ++k) {
    map.Insert(k, k);
  }
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> misses{0};
  std::thread reader([&] {
    SplitMix64 rng(23);
    while (!stop.load(std::memory_order_relaxed)) {
      if (!map.Contains(rng.Next() % 100)) {  // stable half
        misses.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  std::thread eraser([&] {
    for (std::uint64_t k = 100; k < 200; ++k) {
      map.Erase(k);  // inline grace period + free per erase
    }
  });
  map.Resize(64);
  map.Resize(8);
  eraser.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(misses.load(), 0u);
  EXPECT_EQ(map.Size(), 100u);
}

}  // namespace
}  // namespace rp::core
