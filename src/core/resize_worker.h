// Deferred resize worker, in the style of the Linux kernel's rhashtable.
//
// RpHashMap's auto-resize runs inline in whichever writer trips the load-
// factor threshold, so that writer absorbs the whole resize (pointer swings
// plus grace-period waits). Kernel practice is to defer the resize to a
// worker so insert/erase latency stays flat and the resize cost lands on a
// dedicated thread. ResizeWorker implements that policy on top of the map's
// public API: construct the map with auto_resize = false and attach a
// worker.
//
// The worker wakes on a writer hint (Nudge) or a periodic tick, compares
// the observed load factor against the grow/shrink thresholds with
// hysteresis, and calls Resize. Readers are oblivious throughout — that is
// the point of the paper's algorithm — and writers only ever pay a relaxed
// load + occasional notify.
//
// For maps using deferred (call_rcu-style) reclamation the worker also
// flushes the map's pending retirements (FlushDeferred, detected by
// concept) after each resize and when stopping, so reclamation keeps pace
// with resize churn; the worker, never a writer, waits out the grace
// period.
#ifndef RP_CORE_RESIZE_WORKER_H_
#define RP_CORE_RESIZE_WORKER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>

#include "src/core/hash.h"

namespace rp::core {

// Maps with a deferred-reclamation policy expose FlushDeferred(); plain
// baselines do not, and the worker skips the flush for them.
template <typename Map>
concept HasFlushDeferred = requires(Map& map) { map.FlushDeferred(); };

struct ResizeWorkerOptions {
  // Grow when size/buckets exceeds this.
  double grow_at = 2.0;
  // Shrink when size/buckets falls below this. Keep well under grow_at /2 so
  // a workload hovering near one threshold cannot make the worker oscillate.
  double shrink_at = 0.25;
  // Never shrink below this many buckets.
  std::size_t min_buckets = 16;
  // Periodic re-check interval when no writer nudges arrive.
  std::chrono::milliseconds poll_interval{50};
  // Invoked once per worker wakeup (nudge or poll tick), outside the
  // worker's own lock and after the resize check. The owner piggybacks its
  // maintenance plane on this thread — slab automove and expired-item
  // crawling — instead of paying a second periodic thread per shard. Must be cheap and must not block on
  // writer-held locks for long; it runs at poll_interval cadence.
  std::function<void()> maintenance_tick;
};

// Map must expose Size(), BucketCount() and Resize(std::size_t) — RpHashMap
// and every resizable baseline in this repository qualify.
template <typename Map>
class ResizeWorker {
 public:
  explicit ResizeWorker(Map& map, ResizeWorkerOptions options = {})
      : map_(map), options_(options), thread_([this] { Run(); }) {}

  ResizeWorker(const ResizeWorker&) = delete;
  ResizeWorker& operator=(const ResizeWorker&) = delete;

  ~ResizeWorker() { Stop(); }

  // Writer-side hint that the load factor may have moved; cheap enough to
  // call on every insert/erase. Coalesces: a pending nudge absorbs later
  // ones until the worker runs.
  void Nudge() {
    if (nudged_.exchange(true, std::memory_order_relaxed)) {
      return;  // worker already has a wakeup pending
    }
    std::lock_guard<std::mutex> lock(mutex_);
    cv_.notify_one();
  }

  // Stops the worker after finishing any in-flight resize, then drains the
  // map's deferred retirements so a map torn down right after its worker is
  // leak-clean. Idempotent.
  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopped_) {
        return;
      }
      stopped_ = true;
      cv_.notify_one();
    }
    thread_.join();
    if constexpr (HasFlushDeferred<Map>) {
      map_.FlushDeferred();
    }
  }

  [[nodiscard]] std::uint64_t ResizesPerformed() const {
    return resizes_.load(std::memory_order_relaxed);
  }

 private:
  void Run() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stopped_) {
      cv_.wait_for(lock, options_.poll_interval,
                   [this] { return stopped_ || nudged_.load(std::memory_order_relaxed); });
      if (stopped_) {
        return;
      }
      nudged_.store(false, std::memory_order_relaxed);
      // Resize outside the lock so Nudge/Stop never block behind a grace
      // period; a nudge arriving mid-resize re-wakes us immediately.
      lock.unlock();
      MaybeResize();
      if (options_.maintenance_tick) {
        options_.maintenance_tick();
      }
      lock.lock();
    }
  }

  void MaybeResize() {
    const std::size_t size = map_.Size();
    const std::size_t buckets = map_.BucketCount();
    const double load =
        static_cast<double>(size) / static_cast<double>(buckets);
    std::size_t target = buckets;
    if (load > options_.grow_at) {
      target = buckets * 2;
      // Catch up in one resize if the map grew far past the threshold while
      // we slept; Resize expands in doubling steps internally anyway.
      while (static_cast<double>(size) / static_cast<double>(target) >
             options_.grow_at) {
        target *= 2;
      }
    } else if (load < options_.shrink_at && buckets > options_.min_buckets) {
      target = buckets / 2;
      while (target > options_.min_buckets &&
             static_cast<double>(size) / static_cast<double>(target) <
                 options_.shrink_at) {
        target /= 2;
      }
      if (target < options_.min_buckets) {
        target = options_.min_buckets;
      }
      // Compare what the map will actually do: tables round to powers of
      // two, so an un-rounded min_buckets clamp (e.g. 100 vs a 128-bucket
      // table) would otherwise read as "resize needed" on every tick and
      // spin no-op all-stripe resizes forever.
      target = CeilPowerOfTwo(target);
    }
    if (target != buckets) {
      map_.Resize(target);
      resizes_.fetch_add(1, std::memory_order_relaxed);
      if constexpr (HasFlushDeferred<Map>) {
        map_.FlushDeferred();
      }
    }
  }

  Map& map_;
  const ResizeWorkerOptions options_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::atomic<bool> nudged_{false};
  bool stopped_ = false;
  std::atomic<std::uint64_t> resizes_{0};
  std::thread thread_;  // last member: starts after everything is ready
};

}  // namespace rp::core

#endif  // RP_CORE_RESIZE_WORKER_H_
