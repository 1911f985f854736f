#include "src/rcu/callback.h"

#include <utility>

namespace rp::rcu {

RcuCallbackQueue::RcuCallbackQueue(std::function<void()> synchronize)
    : synchronize_(std::move(synchronize)) {
  // Enqueue() runs on the writers' hot path; a zero-allocation store path
  // needs the push_back to never grow the buffer in steady state. The two
  // buffers (this and ReclaimerLoop's batch) swap roles every batch, so
  // both start pre-sized; growth past this only happens when the reclaimer
  // falls further behind than it ever has (a new in-flight high-water).
  pending_.reserve(kInitialCapacity);
  reclaimer_ = std::thread([this] { ReclaimerLoop(); });
}

RcuCallbackQueue::~RcuCallbackQueue() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  reclaimer_.join();
}

void RcuCallbackQueue::Enqueue(Callback fn, void* arg) {
  bool should_wake;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const bool was_empty = pending_.empty();
    pending_.push_back(Entry{fn, arg});
    ++enqueued_;
    // The reclaimer parks only after observing an empty queue, so the
    // empty→non-empty transition starts a batch; reaching kWakeDepth ends
    // its window early. Every other enqueue joins the current batch or is
    // picked up when the loop re-checks its predicates, so the futex
    // syscall stays off the common update path.
    should_wake = was_empty || pending_.size() == kWakeDepth;
  }
  if (should_wake) {
    wake_.notify_one();
  }
}

void RcuCallbackQueue::Barrier() {
  std::unique_lock<std::mutex> lock(mutex_);
  const std::uint64_t target = enqueued_;
  if (executed_ >= target) {
    return;
  }
  // The reclaimer may be sitting out its batch window; barrier_waiters_
  // cuts the window short so the pending queue is processed immediately.
  ++barrier_waiters_;
  wake_.notify_one();
  done_.wait(lock, [&] { return executed_ >= target; });
  --barrier_waiters_;
}

std::uint64_t RcuCallbackQueue::callbacks_executed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return executed_;
}

std::uint64_t RcuCallbackQueue::batches_processed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return batches_;
}

std::size_t RcuCallbackQueue::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pending_.size();
}

std::uint64_t RcuCallbackQueue::wakeups() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return wakeups_;
}

void RcuCallbackQueue::ReclaimerLoop() {
  // In the kernel, call_rcu batches implicitly because grace periods take
  // milliseconds. Here a grace period with few/no readers costs less than a
  // mutex bounce, so an eager reclaimer would wake per retirement and spend
  // its life ping-ponging the queue lock against writers. The fixed
  // accumulation window restores the batching.
  std::vector<Entry> batch;
  batch.reserve(kInitialCapacity);
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] { return stopping_ || !pending_.empty(); });
      if (pending_.empty()) {
        return;  // stopping with nothing left to run
      }
      ++wakeups_;
      // Accumulation window. A condition wait, not a sleep, so a deep
      // queue, a Barrier() caller or shutdown can cut it short.
      wake_.wait_for(lock, kBatchWindow, [&] {
        return stopping_ || barrier_waiters_ != 0 ||
               pending_.size() >= kWakeDepth;
      });
      batch.swap(pending_);
    }

    // One grace period covers the entire batch: every object in it was
    // unlinked before its Enqueue(), which happened before this point.
    synchronize_();

    for (const Entry& entry : batch) {
      entry.fn(entry.arg);
    }

    {
      std::lock_guard<std::mutex> lock(mutex_);
      executed_ += batch.size();
      ++batches_;
    }
    done_.notify_all();
    batch.clear();
  }
}

}  // namespace rp::rcu
