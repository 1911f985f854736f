// Concurrency tests for the RP hash map — the paper's central claims:
// readers run concurrently with writers AND with resizes, and at every
// instant a reader finds every key that is stably present.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/core/resize_worker.h"
#include "src/core/rp_hash_map.h"
#include "src/rcu/epoch.h"
#include "src/rcu/qsbr.h"
#include "src/util/rng.h"
#include "tests/worker_race.h"

namespace rp::core {
namespace {

using IntMap = RpHashMap<std::uint64_t, std::uint64_t>;

// Invariant: keys [0, kStable) are inserted before the threads start and
// never removed; every lookup of a stable key must hit, no matter what the
// writers and resizers are doing.
class StableKeysFixture : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kStable = 2048;

  void Populate(IntMap& map) {
    for (std::uint64_t i = 0; i < kStable; ++i) {
      ASSERT_TRUE(map.Insert(i, i ^ 0xABCD));
    }
  }

  // Runs readers hammering stable keys while `disturber` runs; returns the
  // number of lookup misses observed (must be zero).
  std::uint64_t RunReadersDuring(IntMap& map, int num_readers,
                                 const std::function<void()>& disturber) {
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> wrong_value{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < num_readers; ++t) {
      readers.emplace_back([&, t] {
        Xoshiro256 rng(1000 + t);
        while (!stop.load(std::memory_order_relaxed)) {
          const std::uint64_t key = rng.NextBounded(kStable);
          const auto v = map.Get(key);
          if (!v.has_value()) {
            misses.fetch_add(1, std::memory_order_relaxed);
          } else if (*v != (key ^ 0xABCD)) {
            wrong_value.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    disturber();
    stop.store(true);
    for (auto& r : readers) {
      r.join();
    }
    EXPECT_EQ(wrong_value.load(), 0u);
    return misses.load();
  }
};

TEST_F(StableKeysFixture, LookupsNeverMissDuringContinuousResize) {
  IntMap map(64);
  Populate(map);
  const std::uint64_t misses = RunReadersDuring(map, 6, [&] {
    for (int round = 0; round < 40; ++round) {
      map.Resize(1024);
      map.Resize(64);
    }
  });
  EXPECT_EQ(misses, 0u);
  EXPECT_TRUE(map.BucketsArePrecise());
}

TEST_F(StableKeysFixture, LookupsNeverMissDuringChurningWrites) {
  IntMap map(256);
  Populate(map);
  const std::uint64_t misses = RunReadersDuring(map, 6, [&] {
    Xoshiro256 rng(7);
    for (int i = 0; i < 30000; ++i) {
      const std::uint64_t key = kStable + rng.NextBounded(1024);
      if (rng.NextDouble() < 0.5) {
        map.InsertOrAssign(key, key);
      } else {
        map.Erase(key);
      }
    }
  });
  EXPECT_EQ(misses, 0u);
}

TEST_F(StableKeysFixture, LookupsNeverMissDuringWritesPlusResizes) {
  IntMap map(64);
  Populate(map);
  const std::uint64_t misses = RunReadersDuring(map, 4, [&] {
    std::thread resizer([&] {
      for (int round = 0; round < 20; ++round) {
        map.Resize(2048);
        map.Resize(64);
      }
    });
    Xoshiro256 rng(11);
    for (int i = 0; i < 20000; ++i) {
      const std::uint64_t key = kStable + rng.NextBounded(512);
      if (rng.NextDouble() < 0.5) {
        map.InsertOrAssign(key, key);
      } else {
        map.Erase(key);
      }
    }
    resizer.join();
  });
  EXPECT_EQ(misses, 0u);
}

TEST_F(StableKeysFixture, WorkerResizesUnderConcurrentReaders) {
  IntMap map(4);
  Populate(map);
  ResizeWorkerOptions options = FastWorker();
  options.grow_at = 1.0;
  ResizeWorker<IntMap> worker(map, options);
  std::uint64_t resizes = 0;
  const std::uint64_t misses = RunReadersDuring(map, 4, [&] {
    // Grow then drain a disjoint key range, and let the worker bring the
    // load factor back into its band each time: it resizes both ways
    // while the readers run.
    const std::uint64_t before = worker.ResizesPerformed();
    for (std::uint64_t i = 0; i < 20000; ++i) {
      map.Insert(kStable + i, i);
      worker.Nudge();
    }
    WaitUntil([&] { return map.LoadFactor() <= options.grow_at; });
    for (std::uint64_t i = 0; i < 20000; ++i) {
      map.Erase(kStable + i);
      worker.Nudge();
    }
    WaitUntil([&] { return map.LoadFactor() >= options.shrink_at; });
    resizes = worker.ResizesPerformed() - before;
  });
  EXPECT_EQ(misses, 0u);
  EXPECT_GE(resizes, 2u);  // at least one grow and one shrink
}

TEST_F(StableKeysFixture, MovedKeysAreAlwaysVisibleUnderSomeName) {
  // The atomic-move guarantee: while key k is being renamed to k', a
  // concurrent reader must find at least one of {k, k'}.
  IntMap map(128);
  Populate(map);
  constexpr std::uint64_t kMover = kStable + 1;
  constexpr std::uint64_t kMoverAlt = kStable + 2;
  ASSERT_TRUE(map.Insert(kMover, 777));

  // Bumped after every completed Move: even while kMover -> kMoverAlt is
  // the move in flight, odd while kMoverAlt -> kMover is.
  std::atomic<std::uint64_t> generation{0};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> vanished{0};
  std::atomic<std::uint64_t> decisive{0};
  std::atomic<int> running{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      running.fetch_add(1);
      while (!stop.load(std::memory_order_relaxed)) {
        // Probe the alias the in-flight move unlinks FIRST, then the one it
        // publishes. If the generation is unchanged across the pair, no
        // second move can have started, so the entry changed name at most
        // once, from the first alias to the second: publish-before-unlink
        // makes one of the probes hit. A pair that straddles two moves
        // proves nothing and is not counted.
        const std::uint64_t gen = generation.load();
        const bool even = gen % 2 == 0;
        const bool found_from = map.Contains(even ? kMover : kMoverAlt);
        const bool found_to = map.Contains(even ? kMoverAlt : kMover);
        if (generation.load() != gen) {
          continue;
        }
        decisive.fetch_add(1, std::memory_order_relaxed);
        if (!found_from && !found_to) {
          vanished.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  while (running.load() < 4) {
    std::this_thread::yield();
  }
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(map.Move(kMover, kMoverAlt));
    generation.fetch_add(1);
    ASSERT_TRUE(map.Move(kMoverAlt, kMover));
    generation.fetch_add(1);
  }
  stop.store(true);
  for (auto& r : readers) {
    r.join();
  }
  EXPECT_EQ(vanished.load(), 0u);
  EXPECT_GT(decisive.load(), 1000u);
}

TEST_F(StableKeysFixture, UpdateIsAtomicToReaders) {
  // Copy-update publishes a whole replacement node: a reader must see
  // either the old or the new value, never a mix. Encode value = (x, ~x).
  RpHashMap<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>> map(64);
  map.Insert(1, {5, ~std::uint64_t{5}});
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        map.With(1, [&](const std::pair<std::uint64_t, std::uint64_t>& v) {
          if (v.second != ~v.first) {
            torn.fetch_add(1, std::memory_order_relaxed);
          }
        });
      }
    });
  }
  for (std::uint64_t i = 0; i < 20000; ++i) {
    map.Update(1, [i](std::pair<std::uint64_t, std::uint64_t>& v) {
      v = {i, ~i};
    });
  }
  stop.store(true);
  for (auto& r : readers) {
    r.join();
  }
  EXPECT_EQ(torn.load(), 0u);
}

TEST(RpHashMapConcurrent, ParallelWritersDisjointRanges) {
  IntMap map(1024);
  ResizeWorker<IntMap> worker(map, FastWorker());
  constexpr int kWriters = 8;
  constexpr std::uint64_t kPerWriter = 2000;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      const std::uint64_t base = static_cast<std::uint64_t>(w) * kPerWriter;
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        ASSERT_TRUE(map.Insert(base + i, base + i));
        worker.Nudge();
      }
      // Rewrite the range until the worker has grown the table under us.
      WriteUntilResized(worker, [&] {
        for (std::uint64_t i = 0; i < kPerWriter; ++i) {
          map.InsertOrAssign(base + i, base + i);
        }
      });
    });
  }
  for (auto& t : writers) {
    t.join();
  }
  EXPECT_GT(worker.ResizesPerformed(), 0u);
  EXPECT_EQ(map.Size(), kWriters * kPerWriter);
  for (std::uint64_t i = 0; i < kWriters * kPerWriter; ++i) {
    ASSERT_TRUE(map.Contains(i)) << i;
  }
}

TEST(RpHashMapConcurrent, SizeNeverGoesNegativeUnderChurn) {
  IntMap map(64);
  ResizeWorker<IntMap> resizer(map, FastWorker());
  std::vector<std::thread> workers;
  for (int w = 0; w < 8; ++w) {
    workers.emplace_back([&, w] {
      Xoshiro256 rng(w);
      WriteUntilResized(resizer, [&] {
        for (int i = 0; i < 5000; ++i) {
          const std::uint64_t key = rng.NextBounded(256);
          if (rng.NextDouble() < 0.5) {
            map.InsertOrAssign(key, key);
          } else {
            map.Erase(key);
          }
          resizer.Nudge();
          // Size is approximate under concurrency but must stay sane.
          EXPECT_LT(map.Size(), std::size_t{100000});
        }
      });
    });
  }
  for (auto& t : workers) {
    t.join();
  }
  EXPECT_GT(resizer.ResizesPerformed(), 0u);
  resizer.Stop();
  // After quiescence, Size must equal the actual element count.
  std::size_t counted = 0;
  map.ForEach([&](const std::uint64_t&, const std::uint64_t&) { ++counted; });
  EXPECT_EQ(counted, map.Size());
}

TEST(RpHashMapConcurrent, QsbrReadersDuringResize) {
  using QsbrMap =
      RpHashMap<std::uint64_t, std::uint64_t, MixedHash<std::uint64_t>,
                std::equal_to<std::uint64_t>, rcu::Qsbr>;
  QsbrMap map(64);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    map.Insert(i, i);
  }
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> misses{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      rcu::QsbrThreadScope scope;
      Xoshiro256 rng(t);
      std::uint64_t ops = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        if (!map.Contains(rng.NextBounded(1000))) {
          misses.fetch_add(1, std::memory_order_relaxed);
        }
        if (++ops % 64 == 0) {
          rcu::Qsbr::QuiescentState();
        }
      }
    });
  }
  for (int round = 0; round < 20; ++round) {
    map.Resize(1024);
    map.Resize(64);
  }
  stop.store(true);
  for (auto& r : readers) {
    r.join();
  }
  EXPECT_EQ(misses.load(), 0u);
}

}  // namespace
}  // namespace rp::core
