// Tests for the call_rcu machinery (RcuCallbackQueue, Retire, Barrier).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "src/rcu/callback.h"
#include "src/rcu/epoch.h"
#include "src/rcu/qsbr.h"

namespace rp::rcu {
namespace {

TEST(CallbackQueue, RunsCallbacksAfterGracePeriod) {
  std::atomic<int> sync_calls{0};
  std::atomic<int> executed{0};
  {
    RcuCallbackQueue queue([&] { sync_calls.fetch_add(1); });
    queue.Enqueue([](void* arg) { static_cast<std::atomic<int>*>(arg)->fetch_add(1); },
                  &executed);
    queue.Barrier();
    EXPECT_EQ(executed.load(), 1);
    EXPECT_GE(sync_calls.load(), 1);
  }
}

TEST(CallbackQueue, DrainsOnDestruction) {
  std::atomic<int> executed{0};
  {
    RcuCallbackQueue queue([] {});
    for (int i = 0; i < 100; ++i) {
      queue.Enqueue([](void* arg) { static_cast<std::atomic<int>*>(arg)->fetch_add(1); },
                    &executed);
    }
  }
  EXPECT_EQ(executed.load(), 100);
}

TEST(CallbackQueue, BatchesCallbacks) {
  // Many retirements enqueued at once should share grace periods.
  std::atomic<int> sync_calls{0};
  RcuCallbackQueue queue([&] {
    sync_calls.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  });
  std::atomic<int> executed{0};
  for (int i = 0; i < 1000; ++i) {
    queue.Enqueue([](void* arg) { static_cast<std::atomic<int>*>(arg)->fetch_add(1); },
                  &executed);
  }
  queue.Barrier();
  EXPECT_EQ(executed.load(), 1000);
  EXPECT_LT(sync_calls.load(), 1000);  // amortization actually happened
  EXPECT_EQ(queue.callbacks_executed(), 1000u);
  EXPECT_GE(queue.batches_processed(), 1u);
}

TEST(CallbackQueue, RetireDeletesTypedObject) {
  struct Counted {
    explicit Counted(std::atomic<int>* c) : counter(c) {}
    ~Counted() { counter->fetch_add(1); }
    std::atomic<int>* counter;
  };
  std::atomic<int> destroyed{0};
  {
    RcuCallbackQueue queue([] {});
    for (int i = 0; i < 10; ++i) {
      queue.Retire(new Counted(&destroyed));
    }
    queue.Barrier();
    EXPECT_EQ(destroyed.load(), 10);
  }
}

TEST(CallbackQueue, ConcurrentEnqueuers) {
  std::atomic<int> executed{0};
  RcuCallbackQueue queue([] {});
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        queue.Enqueue(
            [](void* arg) { static_cast<std::atomic<int>*>(arg)->fetch_add(1); },
            &executed);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  queue.Barrier();
  EXPECT_EQ(executed.load(), 4000);
}

TEST(CallbackQueue, BarrierOnEmptyQueueReturns) {
  RcuCallbackQueue queue([] {});
  queue.Barrier();
  SUCCEED();
}

TEST(CallbackQueue, PendingCountDrops) {
  RcuCallbackQueue queue([] {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  std::atomic<int> executed{0};
  for (int i = 0; i < 50; ++i) {
    queue.Enqueue([](void* arg) { static_cast<std::atomic<int>*>(arg)->fetch_add(1); },
                  &executed);
  }
  queue.Barrier();
  EXPECT_EQ(queue.pending(), 0u);
}

// -- Wake policy ------------------------------------------------------------

TEST(CallbackQueue, TrickleWakesAtMostOncePerBatchWindow) {
  // A woken reclaimer waits out the whole batch window before its grace
  // period, so a slow trickle of retirements (one per 100 µs, well below
  // kWakeDepth per window) costs at most one wakeup per window — not one
  // per retirement or per shortened window.
  RcuCallbackQueue queue([] {});
  std::atomic<int> executed{0};
  const std::uint64_t wakeups_before = queue.wakeups();
  const auto start = std::chrono::steady_clock::now();
  int enqueued = 0;
  while (std::chrono::steady_clock::now() - start <
         std::chrono::milliseconds(100)) {
    queue.Enqueue([](void* arg) { static_cast<std::atomic<int>*>(arg)->fetch_add(1); },
                  &executed);
    ++enqueued;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  queue.Barrier();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const std::uint64_t wakeups = queue.wakeups() - wakeups_before;
  const std::uint64_t bound =
      static_cast<std::uint64_t>(elapsed / RcuCallbackQueue::kBatchWindow) + 2;
  EXPECT_EQ(executed.load(), enqueued);
  EXPECT_GE(wakeups, 1u);
  EXPECT_LE(wakeups, bound) << "enqueued " << enqueued;
}

TEST(CallbackQueue, DeepBacklogCompletesViaBarrier) {
  // A backlog past kWakeDepth ends the batch window early; Barrier() sees
  // every callback through.
  RcuCallbackQueue queue([] {});
  std::atomic<int> executed{0};
  for (std::size_t i = 0; i < RcuCallbackQueue::kWakeDepth + 64; ++i) {
    queue.Enqueue([](void* arg) { static_cast<std::atomic<int>*>(arg)->fetch_add(1); },
                  &executed);
  }
  queue.Barrier();
  EXPECT_EQ(executed.load(),
            static_cast<int>(RcuCallbackQueue::kWakeDepth) + 64);
  EXPECT_GE(queue.wakeups(), 1u);
  EXPECT_EQ(queue.pending(), 0u);
}

TEST(EpochRetire, ObjectSurvivesUntilGracePeriod) {
  struct Counted {
    explicit Counted(std::atomic<int>* c) : counter(c) {}
    ~Counted() { counter->fetch_add(1); }
    std::atomic<int>* counter;
  };
  std::atomic<int> destroyed{0};
  for (int i = 0; i < 20; ++i) {
    Epoch::Retire(new Counted(&destroyed));
  }
  Epoch::Barrier();
  EXPECT_EQ(destroyed.load(), 20);
}

TEST(QsbrRetire, ObjectReclaimedViaQueue) {
  struct Counted {
    explicit Counted(std::atomic<int>* c) : counter(c) {}
    ~Counted() { counter->fetch_add(1); }
    std::atomic<int>* counter;
  };
  std::atomic<int> destroyed{0};
  Qsbr::Retire(new Counted(&destroyed));
  Qsbr::Barrier();
  EXPECT_EQ(destroyed.load(), 1);
}

TEST(EpochRetire, RetireWhileReadersActive) {
  // Retired objects must not be destroyed while a reader that could hold
  // them is still inside its critical section.
  struct Counted {
    explicit Counted(std::atomic<int>* c) : counter(c) {}
    ~Counted() { counter->fetch_add(1); }
    std::atomic<int>* counter;
  };
  std::atomic<int> destroyed{0};
  std::atomic<bool> reader_in{false};
  std::atomic<bool> release{false};

  std::thread reader([&] {
    Epoch::ReadLock();
    reader_in.store(true);
    while (!release.load()) {
      std::this_thread::yield();
    }
    Epoch::ReadUnlock();
  });
  while (!reader_in.load()) {
    std::this_thread::yield();
  }

  Epoch::Retire(new Counted(&destroyed));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(destroyed.load(), 0);  // reader still pins the grace period

  release.store(true);
  reader.join();
  Epoch::Barrier();
  EXPECT_EQ(destroyed.load(), 1);
}

}  // namespace
}  // namespace rp::rcu
