// Tests for the Epoch RCU domain.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/rcu/epoch.h"
#include "src/rcu/guard.h"
#include "src/rcu/rcu_pointer.h"
#include "src/util/compiler.h"
#include "src/util/rng.h"

namespace rp::rcu {
namespace {

TEST(Epoch, ReadLockUnlockBalances) {
  EXPECT_FALSE(Epoch::InReadSection());
  Epoch::ReadLock();
  EXPECT_TRUE(Epoch::InReadSection());
  Epoch::ReadUnlock();
  EXPECT_FALSE(Epoch::InReadSection());
}

TEST(Epoch, NestedReadSections) {
  Epoch::ReadLock();
  Epoch::ReadLock();
  Epoch::ReadLock();
  EXPECT_TRUE(Epoch::InReadSection());
  Epoch::ReadUnlock();
  Epoch::ReadUnlock();
  EXPECT_TRUE(Epoch::InReadSection());
  Epoch::ReadUnlock();
  EXPECT_FALSE(Epoch::InReadSection());
}

TEST(Epoch, ReadGuardIsRaii) {
  {
    ReadGuard<Epoch> guard;
    EXPECT_TRUE(Epoch::InReadSection());
  }
  EXPECT_FALSE(Epoch::InReadSection());
}

TEST(Epoch, SynchronizeWithNoReadersCompletes) {
  const std::uint64_t before = Epoch::GracePeriodCount();
  Epoch::Synchronize();
  EXPECT_GT(Epoch::GracePeriodCount(), before);
}

TEST(Epoch, SynchronizeManyTimes) {
  const std::uint64_t before = Epoch::GracePeriodCount();
  for (int i = 0; i < 100; ++i) {
    Epoch::Synchronize();
  }
  EXPECT_GE(Epoch::GracePeriodCount(), before + 100);
}

TEST(Epoch, RegistersThreadsImplicitly) {
  const std::size_t before = Epoch::RegisteredThreads();
  std::atomic<bool> registered{false};
  std::atomic<bool> release{false};
  std::thread t([&] {
    Epoch::ReadLock();
    Epoch::ReadUnlock();
    registered.store(true);
    while (!release.load()) {
      std::this_thread::yield();
    }
  });
  while (!registered.load()) {
    std::this_thread::yield();
  }
  EXPECT_EQ(Epoch::RegisteredThreads(), before + 1);
  release.store(true);
  t.join();
  // Unregistration happens at thread exit.
  EXPECT_EQ(Epoch::RegisteredThreads(), before);
}

TEST(Epoch, SynchronizeWaitsForActiveReader) {
  std::atomic<bool> reader_in{false};
  std::atomic<bool> reader_release{false};
  std::atomic<bool> sync_done{false};

  std::thread reader([&] {
    Epoch::ReadLock();
    reader_in.store(true);
    while (!reader_release.load()) {
      std::this_thread::yield();
    }
    Epoch::ReadUnlock();
  });

  while (!reader_in.load()) {
    std::this_thread::yield();
  }

  std::thread writer([&] {
    Epoch::Synchronize();
    sync_done.store(true);
  });

  // The grace period must not complete while the reader is inside.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(sync_done.load());

  reader_release.store(true);
  writer.join();
  reader.join();
  EXPECT_TRUE(sync_done.load());
}

TEST(Epoch, SynchronizeDoesNotWaitForNewReaders) {
  // A continuous stream of short read sections must not starve writers.
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int i = 0; i < 4; ++i) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        ReadGuard<Epoch> guard;
      }
    });
  }
  for (int i = 0; i < 50; ++i) {
    Epoch::Synchronize();
  }
  stop.store(true);
  for (auto& r : readers) {
    r.join();
  }
  SUCCEED();
}

// The core RCU deletion guarantee: after unlink + synchronize, no reader
// still references the old object.
TEST(Epoch, UnlinkSynchronizeFreeIsSafe) {
  struct Object {
    std::atomic<bool> alive{true};
  };
  std::atomic<Object*> shared{new Object()};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<bool> saw_dead{false};

  std::vector<std::thread> readers;
  for (int i = 0; i < 4; ++i) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        ReadGuard<Epoch> guard;
        Object* obj = RcuDereference(shared);
        if (obj != nullptr && !obj->alive.load(std::memory_order_relaxed)) {
          saw_dead.store(true);
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Ensure genuine reader/updater concurrency: on a loaded (or single-core)
  // machine the update loop below can otherwise finish before any reader
  // thread has been scheduled at all.
  while (reads.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }

  for (int i = 0; i < 200; ++i) {
    auto* fresh = new Object();
    Object* old = shared.exchange(fresh);
    Epoch::Synchronize();
    // No reader can still hold `old`: mark then delete.
    old->alive.store(false, std::memory_order_relaxed);
    delete old;
  }

  stop.store(true);
  for (auto& r : readers) {
    r.join();
  }
  delete shared.load();
  EXPECT_FALSE(saw_dead.load());
  EXPECT_GT(reads.load(), 0u);
}

// The store-buffering half of the protocol: ReadLock's snapshot store must
// be visible before the section's first data load, or Synchronize() could
// scan past a reader that already holds the pre-update value. Each round a
// reader enters a section and loads `data` while the writer stores a new
// value and synchronizes. The writer's random delay is the wider one, so
// about half the rounds read the old value, across a sweep of overlaps. A
// reader that saw the old value must not see the writer's grace period end
// while it is still inside. It polls `done` only for a bounded while, since
// on a correct domain the writer is blocked on it meanwhile.
TEST(Epoch, SynchronizeWaitsOutReaderThatSawOldValue) {
  if (std::thread::hardware_concurrency() < 2) {
    GTEST_SKIP() << "store buffering needs reader and writer on two CPUs";
  }
  constexpr std::uint64_t kRounds = 200000;
  constexpr int kDonePolls = 64;
  constexpr auto kBudget = std::chrono::seconds(3);
  struct Shared {
    alignas(64) std::atomic<std::uint64_t> start{0};
    alignas(64) std::atomic<std::uint64_t> finished{0};
    alignas(64) std::atomic<std::uint64_t> data{0};
    alignas(64) std::atomic<std::uint64_t> done{0};
  } s;
  // Spin briefly, then yield: a round must not stall for a whole time slice
  // when the partner thread shares a CPU with other tests.
  auto wait_for = [](const std::atomic<std::uint64_t>& a, std::uint64_t v) {
    for (int spins = 0; a.load(std::memory_order_acquire) < v; ++spins) {
      if (spins < 256) {
        CpuRelax();
      } else {
        std::this_thread::yield();
      }
    }
  };
  auto delay = [](Xoshiro256& rng, std::uint64_t bound) {
    for (std::uint64_t i = rng.NextBounded(bound); i > 0; --i) {
      CompilerBarrier();
    }
  };

  // Written by the reader only; read after join().
  std::uint64_t stale_reads = 0;
  std::uint64_t violations = 0;
  std::thread reader([&] {
    Xoshiro256 rng(7);
    Epoch::RegisterThread();
    for (std::uint64_t round = 1;; ++round) {
      wait_for(s.start, round);
      if (s.start.load(std::memory_order_relaxed) == ~0ULL) {
        return;
      }
      delay(rng, 16);
      Epoch::ReadLock();
      if (s.data.load(std::memory_order_relaxed) < round) {
        ++stale_reads;
        for (int i = 0; i < kDonePolls; ++i) {
          if (s.done.load(std::memory_order_relaxed) >= round) {
            ++violations;
            break;
          }
          CpuRelax();
        }
      }
      Epoch::ReadUnlock();
      s.finished.store(round, std::memory_order_release);
    }
  });

  Xoshiro256 rng(11);
  const auto deadline = std::chrono::steady_clock::now() + kBudget;
  std::uint64_t rounds = 0;
  while (rounds < kRounds && std::chrono::steady_clock::now() < deadline) {
    const std::uint64_t round = ++rounds;
    s.start.store(round, std::memory_order_release);
    delay(rng, 1024);
    s.data.store(round, std::memory_order_relaxed);
    Epoch::Synchronize();
    s.done.store(round, std::memory_order_relaxed);
    wait_for(s.finished, round);
  }
  s.start.store(~0ULL, std::memory_order_release);
  reader.join();

  EXPECT_EQ(violations, 0u)
      << violations << " of " << stale_reads
      << " stale reads outlived the grace period, in " << rounds << " rounds";
}

TEST(Epoch, PointerPublicationOrdersInitialization) {
  struct Payload {
    int a = 0;
    int b = 0;
  };
  std::atomic<Payload*> slot{nullptr};
  std::atomic<bool> stop{false};
  std::atomic<bool> torn{false};

  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      ReadGuard<Epoch> guard;
      Payload* p = RcuDereference(slot);
      if (p != nullptr && (p->a != p->b)) {
        torn.store(true);
      }
    }
  });

  std::vector<Payload*> garbage;
  for (int i = 1; i <= 2000; ++i) {
    auto* p = new Payload();
    p->a = i;
    p->b = i;
    RcuAssignPointer(slot, p);
    if (i % 64 == 0) {
      Epoch::Synchronize();
      for (Payload* g : garbage) {
        delete g;
      }
      garbage.clear();
    }
    garbage.push_back(p);
  }
  stop.store(true);
  reader.join();
  Epoch::Synchronize();
  for (Payload* g : garbage) {
    if (g != slot.load()) {
      delete g;
    }
  }
  delete slot.load();
  EXPECT_FALSE(torn.load());
}

TEST(Epoch, GracePeriodCountMonotonic) {
  const std::uint64_t a = Epoch::GracePeriodCount();
  Epoch::Synchronize();
  const std::uint64_t b = Epoch::GracePeriodCount();
  Epoch::Synchronize();
  const std::uint64_t c = Epoch::GracePeriodCount();
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
}

TEST(Epoch, ConcurrentSynchronizeCallsSerialize) {
  std::vector<std::thread> writers;
  const std::uint64_t before = Epoch::GracePeriodCount();
  for (int i = 0; i < 8; ++i) {
    writers.emplace_back([] {
      for (int j = 0; j < 20; ++j) {
        Epoch::Synchronize();
      }
    });
  }
  for (auto& w : writers) {
    w.join();
  }
  EXPECT_GE(Epoch::GracePeriodCount(), before + 160);
}

}  // namespace
}  // namespace rp::rcu
