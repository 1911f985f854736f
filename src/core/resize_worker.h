// Deferred resize worker, in the style of the Linux kernel's rhashtable.
//
// RpHashMap carries out a resize when told to (Resize) but never decides
// one: this worker is the repository's one resize policy. Kernel practice,
// which lib/rhashtable.c follows, is to resize only from a deferred worker,
// so insert/erase latency stays flat and the resize cost (pointer swings
// plus grace-period waits) lands on a dedicated thread, never on a writer.
// The worker drives the map through its public API: attach one to any map
// whose size changes.
//
// The worker wakes on a periodic poll tick, or on a writer hint (Nudge)
// that finds the load factor outside the [shrink_at, grow_at] band, and
// resizes to the bucket count the load factor asks for. Readers are
// oblivious throughout — that is the point of the paper's algorithm.
//
// Like the kernel, which schedules its worker only when an insert crosses
// rht_grow_above_75 or a remove crosses rht_shrink_below_30, a nudge in
// the band returns after reading Size() and BucketCount(): it touches
// neither the worker's lock nor its condition variable. The owner's
// maintenance tick therefore runs at poll cadence, plus once per
// out-of-band wakeup.
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
  // Periodic re-check interval. In-band nudges wake nothing, so this is
  // also the cadence of maintenance_tick.
  std::chrono::milliseconds poll_interval{50};
  // Invoked once per worker wakeup, outside the worker's own lock and
  // after the resize check. Wakeups are poll ticks plus the rare nudges
  // that find the load factor out of band, so the tick runs at about
  // poll_interval cadence. The owner piggybacks its maintenance plane on
  // this thread — slab automove and expired-item crawling — instead of
  // paying a second periodic thread per shard. Must be cheap and must not
  // block on writer-held locks for long.
  std::function<void()> maintenance_tick;
};

// Map must expose Size(), BucketCount() and Resize(std::size_t) — RpHashMap
// and every resizable baseline in this repository qualify. Size() and
// BucketCount() must be safe to call while Resize runs: Nudge reads them on
// the writer's thread.
template <typename Map>
class ResizeWorker {
 public:
  explicit ResizeWorker(Map& map, ResizeWorkerOptions options = {})
      : map_(map), options_(options), thread_([this] { Run(); }) {}

  ResizeWorker(const ResizeWorker&) = delete;
  ResizeWorker& operator=(const ResizeWorker&) = delete;

  ~ResizeWorker() { Stop(); }

  // Writer-side hint that the load factor may have moved; cheap enough to
  // call on every insert/erase. Wakes the worker only when the load factor
  // has left the band; in the band it costs two reads of the map's
  // counters (RpHashMap: two atomic loads). Coalesces: a pending nudge
  // absorbs later ones until the worker runs.
  void Nudge() {
    const std::size_t buckets = map_.BucketCount();
    if (Target(buckets) == buckets) {
      return;  // in the band: nothing for the worker to do
    }
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

  // Test hook: passes through the worker loop (poll ticks plus woken
  // nudges), each of which runs the resize check and the maintenance tick.
  [[nodiscard]] std::uint64_t Wakeups() const {
    return wakeups_.load(std::memory_order_relaxed);
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
      wakeups_.fetch_add(1, std::memory_order_relaxed);
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
    const std::size_t buckets = map_.BucketCount();
    const std::size_t target = Target(buckets);
    if (target != buckets) {
      map_.Resize(target);
      resizes_.fetch_add(1, std::memory_order_relaxed);
      if constexpr (HasFlushDeferred<Map>) {
        map_.FlushDeferred();
      }
    }
  }

  // The bucket count the current load factor asks for: `buckets` itself
  // while size/buckets stays within [shrink_at, grow_at] (or a shrink is
  // floored by min_buckets). Shared by Nudge's gate and MaybeResize, so a
  // nudge wakes the worker exactly when the worker would resize.
  std::size_t Target(std::size_t buckets) const {
    const std::size_t size = map_.Size();
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
    return target;
  }

  Map& map_;
  const ResizeWorkerOptions options_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::atomic<bool> nudged_{false};
  bool stopped_ = false;
  std::atomic<std::uint64_t> resizes_{0};
  std::atomic<std::uint64_t> wakeups_{0};
  std::thread thread_;  // last member: starts after everything is ready
};

}  // namespace rp::core

#endif  // RP_CORE_RESIZE_WORKER_H_
