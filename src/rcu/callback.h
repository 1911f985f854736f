// Deferred reclamation: the userspace equivalent of call_rcu().
//
// Writers hand retired objects to a background reclaimer so the update path
// never blocks for a full grace period. The reclaimer batches callbacks,
// runs one Synchronize() per batch (amortising grace periods across many
// retirements — the same batching argument kernel call_rcu makes), then
// invokes the callbacks.
//
// One wake policy. Enqueue() wakes the reclaimer when the queue goes from
// empty to non-empty and again when it reaches kWakeDepth. Once awake, the
// reclaimer lets the batch accumulate for kBatchWindow; a queue of
// kWakeDepth or more, a Barrier() waiter or shutdown cuts the window short.
// A trickle of retirements therefore costs at most one wakeup and one
// grace period per window, and a burst never holds more than about
// kWakeDepth callbacks before its batch starts.
#ifndef RP_RCU_CALLBACK_H_
#define RP_RCU_CALLBACK_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rp::rcu {

class RcuCallbackQueue {
 public:
  using Callback = void (*)(void*);

  // Pending depth that ends the batch window early: past this, waiting
  // longer only grows pending memory.
  static constexpr std::size_t kWakeDepth = 256;
  // How long a woken reclaimer lets a batch accumulate before its grace
  // period.
  static constexpr std::chrono::milliseconds kBatchWindow{10};

  // `synchronize` must implement the domain's wait-for-readers operation.
  explicit RcuCallbackQueue(std::function<void()> synchronize);

  // Drains all pending callbacks (running a final grace period) and joins
  // the reclaimer thread.
  ~RcuCallbackQueue();

  RcuCallbackQueue(const RcuCallbackQueue&) = delete;
  RcuCallbackQueue& operator=(const RcuCallbackQueue&) = delete;

  // Schedules `fn(arg)` to run after a subsequent grace period.
  void Enqueue(Callback fn, void* arg);

  template <typename T>
  void Retire(T* ptr) {
    Enqueue([](void* p) { delete static_cast<T*>(p); }, ptr);
  }

  // Blocks until every callback enqueued before this call has executed.
  void Barrier();

  // Stats for tests, the stats wire, and the ablation benches.
  std::uint64_t callbacks_executed() const;
  std::uint64_t batches_processed() const;
  std::size_t pending() const;
  std::uint64_t wakeups() const;  // reclaimer batch wakeups

 private:
  struct Entry {
    Callback fn;
    void* arg;
  };

  // Pre-sized capacity of both pending buffers (16 B/entry): writers'
  // Enqueue stays allocation-free until more than this many retirements
  // are in flight at once.
  static constexpr std::size_t kInitialCapacity = 1024;

  void ReclaimerLoop();

  const std::function<void()> synchronize_;

  mutable std::mutex mutex_;
  std::condition_variable wake_;       // signals the reclaimer
  std::condition_variable done_;       // signals Barrier() waiters
  std::vector<Entry> pending_;
  bool stopping_ = false;
  std::uint64_t enqueued_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t wakeups_ = 0;
  std::size_t barrier_waiters_ = 0;

  std::thread reclaimer_;
};

}  // namespace rp::rcu

#endif  // RP_RCU_CALLBACK_H_
