// Epoch RCU domain (urcu-mb style general-purpose userspace RCU).
//
// This is the flavour the relativistic data structures default to. Readers
// need no registration ahead of time, may block inside read sections, and
// pay two full memory fences per outermost section — the same cost profile
// as liburcu's memory-barrier flavour, which the paper's memcached port
// used. Writers wait; readers never do.
//
// Protocol. A global grace-period counter `gp` advances by 2 per grace
// period (values always even). Each reader thread owns a cache-line-private
// ThreadRecord whose `ctr` is 0 outside any read section and `gp_snapshot|1`
// (odd) inside one. Synchronize() bumps `gp` and waits until every record is
// either 0 (offline) or holds a snapshot taken after the bump.
//
// Memory ordering is the store-buffering resolution used by urcu-mb: the
// reader stores its snapshot then fences (seq_cst) before touching shared
// data; the writer's counter bump (seq_cst RMW) sits between its data-
// structure update and its scan of reader records. If the scan misses a
// reader's store, C++'s total order on seq_cst operations forces that
// reader's subsequent data loads to observe the writer's update — so no
// reader can simultaneously be hidden from the scan *and* see stale data.
#ifndef RP_RCU_EPOCH_H_
#define RP_RCU_EPOCH_H_

#include <atomic>
#include <cassert>
#include <cstdint>

#include "src/rcu/thread_registry.h"
#include "src/util/compiler.h"

namespace rp::rcu {

class RcuCallbackQueue;

class Epoch {
 public:
  Epoch() = delete;  // static-only domain, process-global like liburcu

  // -- Read side (wait-free, O(1), no shared-cacheline writes) ------------

  RP_ALWAYS_INLINE static void ReadLock() {
    ThreadRecord* self = Self();
    if (self->nesting++ == 0) {
      ++self->read_sections;  // private cacheline; the batching test hook
      const std::uint64_t snapshot = gp_.load(std::memory_order_relaxed);
      // Release (free on x86: plain store) rather than relaxed so the
      // writer's acquire scan gets a happens-before edge covering this
      // thread's pre-section accesses — the fence below carries the real
      // ordering, but race detectors do not model fences.
      self->ctr.store(snapshot | 1, std::memory_order_release);
      SmpMb();  // pairs with the seq_cst RMW in Synchronize()
    }
  }

  RP_ALWAYS_INLINE static void ReadUnlock() {
    ThreadRecord* self = Self();
    assert(self->nesting > 0 && "ReadUnlock without matching ReadLock");
    if (--self->nesting == 0) {
      SmpMb();  // order critical-section loads before going quiescent
      // Release for the same reason as in ReadLock: the writer passing this
      // record on its scan must inherit everything this section read.
      self->ctr.store(0, std::memory_order_release);
    }
  }

  static bool InReadSection() { return Self()->nesting > 0; }

  // Outermost read-side sections this thread has entered so far. Nested
  // ReadLocks don't count — which is exactly the point: batched readers
  // (e.g. a multi-get executing a whole shard group inside one section)
  // advance this once per batch, and tests assert precisely that.
  static std::uint64_t ThreadReadSections() { return Self()->read_sections; }

  // -- Update side ---------------------------------------------------------

  // Blocks until every read-side critical section that began before this
  // call has completed. Must not be called from within a read section.
  static void Synchronize();

  // Defers `delete ptr` until after a grace period, via the domain's
  // background reclaimer. Safe to call from update paths that must not
  // block for a full grace period themselves.
  template <typename T>
  static void Retire(T* ptr) {
    RetireErased(ptr, [](void* p) { delete static_cast<T*>(p); });
  }

  // Waits until all callbacks retired before this call have executed.
  static void Barrier();

  // Barrier() calls this thread has issued so far — the update-side
  // analogue of ThreadReadSections(): the store path promises never to
  // wait for a grace period, and tests assert that by a zero delta.
  static std::uint64_t ThreadBarrierCalls() { return tls_barrier_calls_; }

  // The domain's deferred-reclamation queue. Exposed so the stats wire can
  // report reclaimer health (pending depth, wakeups). Constructs the queue
  // on first use.
  static RcuCallbackQueue& Callbacks();

  // -- Grace-period polling (kernel get_state/poll_state equivalent) -------
  //
  // StartPoll() snapshots the grace-period clock; Poll(cookie) returns true
  // once a full grace period has elapsed since that snapshot. Poll never
  // blocks: it makes one bounded attempt to advance and scan, and returns
  // false if any reader from before the snapshot is still running (or if a
  // concurrent Synchronize holds the grace-period lock). This lets a writer
  // interleave useful work with grace-period waits — e.g. unzip one resize
  // pass per completed period instead of stalling between passes.
  using GpCookie = std::uint64_t;

  static GpCookie StartPoll() {
    // Any grace period that *starts* after this load covers all read-side
    // sections the caller could have observed.
    return gp_.load(std::memory_order_acquire);
  }

  static bool Poll(GpCookie cookie);

  // -- Introspection (tests, resize instrumentation) -----------------------

  // Number of grace periods completed so far.
  static std::uint64_t GracePeriodCount() {
    return gp_.load(std::memory_order_relaxed) / 2;
  }

  static std::size_t RegisteredThreads() { return registry().size(); }

  // Explicit registration; normally implicit on first ReadLock. Exposed so
  // benchmarks can pre-register and keep registration cost out of the
  // measured region.
  static void RegisterThread() { (void)Self(); }

 private:
  friend class EpochTestPeer;

  static void RetireErased(void* ptr, void (*deleter)(void*));
  static ThreadRegistry& registry();
  static RcuCallbackQueue& queue();
  static ThreadRecord* RegisterSlow();

  RP_ALWAYS_INLINE static ThreadRecord* Self() {
    if (RP_UNLIKELY(tls_record_ == nullptr)) {
      tls_record_ = RegisterSlow();
    }
    return tls_record_;
  }

  // Unregisters the thread's record when the thread exits.
  struct TlsGuard {
    TlsGuard() : record(nullptr) {}
    ~TlsGuard();
    ThreadRecord* record;
  };

  static inline std::atomic<std::uint64_t> gp_{2};
  // Highest gp_ value known to have fully completed (all readers scanned).
  static inline std::atomic<std::uint64_t> gp_completed_{2};
  static inline thread_local ThreadRecord* tls_record_ = nullptr;
  static inline thread_local TlsGuard tls_guard_;
  static inline thread_local std::uint64_t tls_barrier_calls_ = 0;
};

}  // namespace rp::rcu

#endif  // RP_RCU_EPOCH_H_
