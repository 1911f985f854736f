// Unit tests for src/sync: spinlock, reader-writer spinlock.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "src/sync/rwlock.h"
#include "src/sync/spinlock.h"
#include "src/util/spin_barrier.h"

namespace rp::sync {
namespace {

template <typename Lock>
void MutualExclusionTest() {
  Lock lock;
  long counter = 0;
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        std::lock_guard<Lock> guard(lock);
        ++counter;  // racy without the lock
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(counter, static_cast<long>(kThreads) * kIters);
}

TEST(Spinlock, MutualExclusion) { MutualExclusionTest<Spinlock>(); }
TEST(RwSpinlock, WriterMutualExclusion) { MutualExclusionTest<RwSpinlock>(); }

TEST(Spinlock, TryLock) {
  Spinlock lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(RwSpinlock, TryLock) {
  RwSpinlock lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
}

TEST(RwSpinlock, ReadersShareWritersExclude) {
  RwSpinlock lock;
  std::atomic<int> readers_inside{0};
  std::atomic<int> max_readers{0};
  std::atomic<bool> writer_inside{false};
  std::atomic<bool> violation{false};
  constexpr int kReaders = 6;
  constexpr int kIters = 5000;

  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        lock.lock_shared();
        const int inside = readers_inside.fetch_add(1) + 1;
        int prev = max_readers.load();
        while (prev < inside && !max_readers.compare_exchange_weak(prev, inside)) {
        }
        if (writer_inside.load()) {
          violation.store(true);
        }
        readers_inside.fetch_sub(1);
        lock.unlock_shared();
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < 500; ++i) {
      lock.lock();
      writer_inside.store(true);
      if (readers_inside.load() != 0) {
        violation.store(true);
      }
      writer_inside.store(false);
      lock.unlock();
    }
  });
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_FALSE(violation.load());
}

// Reader overlap proven deterministically: all readers hold the shared lock
// at a barrier simultaneously (the stress test above can't guarantee
// overlap under scheduler noise).
TEST(RwSpinlock, ReadersGenuinelyOverlap) {
  RwSpinlock lock;
  constexpr int kReaders = 4;
  SpinBarrier barrier(kReaders);
  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&] {
      lock.lock_shared();
      barrier.ArriveAndWait();  // reachable only if all readers are inside
      lock.unlock_shared();
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  SUCCEED();  // joining at all proves kReaders concurrent shared holders
}

TEST(RwSpinlock, SharedLockGuardCompatible) {
  RwSpinlock lock;
  {
    std::shared_lock<RwSpinlock> shared(lock);
  }
  {
    std::unique_lock<RwSpinlock> exclusive(lock);
  }
  SUCCEED();
}

}  // namespace
}  // namespace rp::sync
