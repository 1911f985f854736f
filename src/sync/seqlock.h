// Sequence lock (seqlock), the kernel's reader-retry primitive.
//
// Writers increment a sequence counter to odd before mutating and back to
// even after; readers snapshot the counter, read, and retry if the counter
// changed or was odd. Readers never block writers, but unlike relativistic
// readers they may retry indefinitely under a write-heavy load, and they
// must not dereference pointers torn mid-update — so seqlocks suit small
// flat payloads, not linked structures. The SeqlockHashMap baseline shows
// what happens when this primitive meets a real table.
#ifndef RP_SYNC_SEQLOCK_H_
#define RP_SYNC_SEQLOCK_H_

#include <atomic>
#include <cstdint>

#include "src/util/compiler.h"

namespace rp::sync {

class Seqlock {
 public:
  Seqlock() = default;
  Seqlock(const Seqlock&) = delete;
  Seqlock& operator=(const Seqlock&) = delete;

  // -- Reader side: optimistic, lock-free, may retry -----------------------

  // Begins a read attempt; returns the sequence to validate against. Spins
  // past in-progress writes (odd sequence).
  [[nodiscard]] std::uint64_t ReadBegin() const {
    for (;;) {
      const std::uint64_t seq = sequence_.load(std::memory_order_acquire);
      if ((seq & 1) == 0) {
        return seq;
      }
      CpuRelax();
    }
  }

  // Returns true if the reads since ReadBegin() saw no concurrent write.
  [[nodiscard]] bool ReadValidate(std::uint64_t begin_seq) const {
    // Order the protected loads before the validation load.
    std::atomic_thread_fence(std::memory_order_acquire);
    return sequence_.load(std::memory_order_relaxed) == begin_seq;
  }

  // -- Writer side: must be externally serialized (or use WriteLock) -------

  void WriteBegin() {
    const std::uint64_t seq = sequence_.load(std::memory_order_relaxed);
    sequence_.store(seq + 1, std::memory_order_relaxed);
    // Order the sequence bump before the protected stores.
    std::atomic_thread_fence(std::memory_order_release);
  }

  void WriteEnd() {
    const std::uint64_t seq = sequence_.load(std::memory_order_relaxed);
    sequence_.store(seq + 1, std::memory_order_release);
  }

  [[nodiscard]] std::uint64_t Sequence() const {
    return sequence_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> sequence_{0};
};

// Reader loop helper:
//   SeqlockReader reader(lock);
//   while (reader.Retry()) { data = snapshot(); }
// The first Retry() arms the loop (returns true), each later call validates
// the pass just completed and re-arms only when it was torn.
class SeqlockReader {
 public:
  explicit SeqlockReader(const Seqlock& lock) : lock_(lock) {}

  // First call arms the loop; subsequent calls validate the previous pass
  // and re-arm when it was torn.
  [[nodiscard]] bool Retry() {
    if (!armed_) {
      seq_ = lock_.ReadBegin();
      armed_ = true;
      return true;
    }
    if (lock_.ReadValidate(seq_)) {
      return false;
    }
    ++retries_;
    seq_ = lock_.ReadBegin();
    return true;
  }

  [[nodiscard]] std::uint64_t retries() const { return retries_; }

 private:
  const Seqlock& lock_;
  std::uint64_t seq_ = 0;
  std::uint64_t retries_ = 0;
  bool armed_ = false;
};

}  // namespace rp::sync

#endif  // RP_SYNC_SEQLOCK_H_
