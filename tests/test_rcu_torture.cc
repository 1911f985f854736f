// rcutorture-style stress test, modelled on the kernel's RCU torture
// module: updaters rotate a shared structure through a retirement pipeline
// while readers continuously validate that whatever version they observe is
// internally consistent and not yet reclaimed.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/rcu/epoch.h"
#include "src/rcu/guard.h"
#include "src/rcu/qsbr.h"
#include "src/rcu/rcu_pointer.h"

namespace rp::rcu {
namespace {

// A structure whose invariant (checksum) must hold for any version a reader
// can observe; freed versions are poisoned first.
struct TortureElement {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t checksum = 0;
  std::atomic<bool> poisoned{false};

  void Fill(std::uint64_t v) {
    a = v;
    b = ~v;
    checksum = a ^ b;
  }
  bool Valid() const { return (a ^ b) == checksum && !poisoned.load(std::memory_order_relaxed); }
};

template <typename Domain, bool kQsbr>
void TortureRun(int num_readers, int num_updaters, int updates_per_updater) {
  std::atomic<TortureElement*> shared{new TortureElement()};
  shared.load()->Fill(1);

  std::atomic<bool> stop{false};
  std::atomic<int> readers_started{0};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> invalid{0};

  std::vector<std::thread> readers;
  for (int i = 0; i < num_readers; ++i) {
    readers.emplace_back([&] {
      if constexpr (kQsbr) {
        Qsbr::RegisterThread();
      }
      std::uint64_t local_reads = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        {
          ReadGuard<Domain> guard;
          TortureElement* e = RcuDereference(shared);
          if (!e->Valid()) {
            invalid.fetch_add(1, std::memory_order_relaxed);
          }
        }
        if (++local_reads == 1) {
          readers_started.fetch_add(1, std::memory_order_relaxed);
        }
        if constexpr (kQsbr) {
          if (local_reads % 16 == 0) {
            Qsbr::QuiescentState();
          }
        }
      }
      reads.fetch_add(local_reads, std::memory_order_relaxed);
      if constexpr (kQsbr) {
        Qsbr::Offline();
      }
    });
  }

  // Updaters start only once every reader has completed a read, so a
  // writer that finishes fast can never leave the run with no reads.
  while (readers_started.load(std::memory_order_relaxed) < num_readers) {
    std::this_thread::yield();
  }
  std::vector<std::thread> updaters;
  std::atomic<std::uint64_t> version{2};
  for (int i = 0; i < num_updaters; ++i) {
    updaters.emplace_back([&] {
      for (int u = 0; u < updates_per_updater; ++u) {
        auto* fresh = new TortureElement();
        fresh->Fill(version.fetch_add(1, std::memory_order_relaxed));
        TortureElement* old = shared.exchange(fresh, std::memory_order_acq_rel);
        Domain::Synchronize();
        // After the grace period no reader may still see `old`.
        old->poisoned.store(true, std::memory_order_relaxed);
        old->a = 0xDEADBEEF;
        old->checksum = 0;
        delete old;
      }
    });
  }

  for (auto& u : updaters) {
    u.join();
  }
  stop.store(true);
  for (auto& r : readers) {
    r.join();
  }
  delete shared.load();

  EXPECT_EQ(invalid.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
}

TEST(RcuTorture, EpochFewReaders) {
  TortureRun<Epoch, false>(/*num_readers=*/2, /*num_updaters=*/1,
                           /*updates_per_updater=*/300);
}

TEST(RcuTorture, EpochManyReaders) {
  TortureRun<Epoch, false>(/*num_readers=*/8, /*num_updaters=*/2,
                           /*updates_per_updater=*/150);
}

TEST(RcuTorture, EpochWriterHeavy) {
  TortureRun<Epoch, false>(/*num_readers=*/2, /*num_updaters=*/4,
                           /*updates_per_updater=*/150);
}

TEST(RcuTorture, QsbrFewReaders) {
  TortureRun<Qsbr, true>(/*num_readers=*/2, /*num_updaters=*/1,
                         /*updates_per_updater=*/300);
}

TEST(RcuTorture, QsbrManyReaders) {
  TortureRun<Qsbr, true>(/*num_readers=*/8, /*num_updaters=*/2,
                         /*updates_per_updater=*/150);
}

TEST(RcuTorture, QsbrWriterHeavy) {
  TortureRun<Qsbr, true>(/*num_readers=*/2, /*num_updaters=*/4,
                         /*updates_per_updater=*/150);
}

// Mixed retire-based reclamation under reader churn.
TEST(RcuTorture, EpochRetirePipeline) {
  struct Versioned {
    explicit Versioned(std::uint64_t v) : value(v), check(~v) {}
    std::uint64_t value;
    std::uint64_t check;
    bool Valid() const { return check == ~value; }
  };
  std::atomic<Versioned*> shared{new Versioned(1)};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> invalid{0};

  std::vector<std::thread> readers;
  for (int i = 0; i < 6; ++i) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        ReadGuard<Epoch> guard;
        Versioned* v = RcuDereference(shared);
        if (!v->Valid()) {
          invalid.fetch_add(1);
        }
      }
    });
  }

  for (std::uint64_t i = 2; i < 3000; ++i) {
    Versioned* old = shared.exchange(new Versioned(i), std::memory_order_acq_rel);
    Epoch::Retire(old);  // reclaimer thread handles the grace period
  }
  Epoch::Barrier();
  stop.store(true);
  for (auto& r : readers) {
    r.join();
  }
  delete shared.load();
  EXPECT_EQ(invalid.load(), 0u);
}

}  // namespace
}  // namespace rp::rcu
