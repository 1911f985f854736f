// A5 — expand-strategy ablation: unzip (the paper's algorithm) versus a
// full-copy rebuild under RCU (the obvious strawman: allocate the bigger
// table, copy every node, publish, one grace period, free the old nodes).
//
// Both are correct for readers; the contrast is (a) allocation volume —
// unzip allocates only the bucket array, full-copy reallocates every node —
// and (b) reader-visible interference while the expansion runs.
#include <atomic>
#include <cstdint>
#include <cstdio>

#include "bench/harness.h"
#include "src/core/rp_hash_map.h"
#include "src/rcu/epoch.h"
#include "src/rcu/guard.h"
#include "src/rcu/rcu_pointer.h"
#include "src/util/rng.h"
#include "src/util/stopwatch.h"

namespace {

// Minimal full-copy-rebuild RCU table, just enough for this ablation.
class CopyRebuildMap {
 public:
  explicit CopyRebuildMap(std::size_t buckets)
      : size_(buckets), table_(new Slot[buckets]) {}

  ~CopyRebuildMap() {
    FreeAll(table_.load(std::memory_order_relaxed), size_);
  }

  void Insert(std::uint64_t key, std::uint64_t value) {
    Slot* t = table_.load(std::memory_order_relaxed);
    const std::size_t b = rp::core::Mix64(key) & (size_ - 1);
    auto* node = new Node{nullptr, key, value};
    node->next.store(t[b].head.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    t[b].head.store(node, std::memory_order_release);
  }

  bool Contains(std::uint64_t key) const {
    rp::rcu::ReadGuard<rp::rcu::Epoch> guard;
    const Slot* t = table_.load(std::memory_order_acquire);
    const std::size_t b = rp::core::Mix64(key) & (size_ - 1);
    for (const Node* n = t[b].head.load(std::memory_order_acquire); n != nullptr;
         n = n->next.load(std::memory_order_acquire)) {
      if (n->key == key) {
        return true;
      }
    }
    return false;
  }

  // Full-copy expansion: every node is reallocated.
  void ExpandByCopy() {
    const std::size_t new_size = size_ * 2;
    auto* fresh = new Slot[new_size];
    Slot* old = table_.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < size_; ++i) {
      for (Node* n = old[i].head.load(std::memory_order_relaxed); n != nullptr;
           n = n->next.load(std::memory_order_relaxed)) {
        const std::size_t b = rp::core::Mix64(n->key) & (new_size - 1);
        auto* copy = new Node{nullptr, n->key, n->value};
        copy->next.store(fresh[b].head.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
        fresh[b].head.store(copy, std::memory_order_relaxed);
      }
    }
    const std::size_t old_size = size_;
    size_ = new_size;
    table_.store(fresh, std::memory_order_release);
    rp::rcu::Epoch::Synchronize();
    FreeAll(old, old_size);
  }

  void ShrinkByCopy() {
    const std::size_t new_size = size_ / 2;
    auto* fresh = new Slot[new_size];
    Slot* old = table_.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < size_; ++i) {
      for (Node* n = old[i].head.load(std::memory_order_relaxed); n != nullptr;
           n = n->next.load(std::memory_order_relaxed)) {
        const std::size_t b = rp::core::Mix64(n->key) & (new_size - 1);
        auto* copy = new Node{nullptr, n->key, n->value};
        copy->next.store(fresh[b].head.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
        fresh[b].head.store(copy, std::memory_order_relaxed);
      }
    }
    const std::size_t old_size = size_;
    size_ = new_size;
    table_.store(fresh, std::memory_order_release);
    rp::rcu::Epoch::Synchronize();
    FreeAll(old, old_size);
  }

 private:
  struct Node {
    std::atomic<Node*> next;
    std::uint64_t key;
    std::uint64_t value;
  };
  struct Slot {
    std::atomic<Node*> head{nullptr};
  };

  static void FreeAll(Slot* slots, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      Node* node = slots[i].head.load(std::memory_order_relaxed);
      while (node != nullptr) {
        Node* next = node->next.load(std::memory_order_relaxed);
        delete node;
        node = next;
      }
    }
    delete[] slots;
  }

  std::size_t size_;
  std::atomic<Slot*> table_;
};

constexpr std::size_t kSmall = 8192;
constexpr std::uint64_t kKeys = 16384;

}  // namespace

int main() {
  const double seconds = rp::bench::SecondsPerPoint(0.3);

  // Part 1: resize operation cost (writer side), no readers.
  {
    rp::core::RpHashMap<std::uint64_t, std::uint64_t> unzip_map(kSmall);
    CopyRebuildMap copy_map(kSmall);
    for (std::uint64_t i = 0; i < kKeys; ++i) {
      unzip_map.Insert(i, i);
      copy_map.Insert(i, i);
    }
    constexpr int kRounds = 20;
    rp::Stopwatch w1;
    for (int i = 0; i < kRounds; ++i) {
      unzip_map.Resize(kSmall * 2);
      unzip_map.Resize(kSmall);
    }
    const double unzip_ms = static_cast<double>(w1.ElapsedNanos()) / 1e6 / (kRounds * 2);
    rp::Stopwatch w2;
    for (int i = 0; i < kRounds; ++i) {
      copy_map.ExpandByCopy();
      copy_map.ShrinkByCopy();
    }
    const double copy_ms = static_cast<double>(w2.ElapsedNanos()) / 1e6 / (kRounds * 2);
    std::printf("\n=== A5: expansion strategy, writer-side cost ===\n");
    std::printf("unzip (paper):      %8.3f ms/resize (allocates bucket array only)\n",
                unzip_ms);
    std::printf("full-copy rebuild:  %8.3f ms/resize (reallocates all %llu nodes)\n",
                copy_ms, static_cast<unsigned long long>(kKeys));
    std::printf("CSV,strategy,ms_per_resize\nCSV,unzip,%.3f\nCSV,copy,%.3f\n",
                unzip_ms, copy_ms);
  }

  // Part 2: reader throughput while each strategy resizes continuously.
  {
    std::vector<int> threads{1, 4, 8};
    rp::bench::SeriesTable table(
        "A5: reader throughput under continuous expansion strategy", threads);
    {
      rp::core::RpHashMap<std::uint64_t, std::uint64_t> map(kSmall);
      for (std::uint64_t i = 0; i < kKeys; ++i) {
        map.Insert(i, i);
      }
      for (int t : threads) {
        const double ops = rp::bench::MeasureThroughput(
            t, seconds,
            [&](int id, const std::atomic<bool>& stop) {
              rp::Xoshiro256 rng(static_cast<std::uint64_t>(id) + 5);
              std::uint64_t done = 0;
              while (!stop.load(std::memory_order_relaxed)) {
                (void)map.Contains(rng.NextBounded(kKeys));
                ++done;
              }
              return done;
            },
            [&](const std::atomic<bool>& stop) {
              while (!stop.load(std::memory_order_relaxed)) {
                map.Resize(kSmall * 2);
                map.Resize(kSmall);
              }
            });
        table.Record("unzip", t, ops);
      }
    }
    {
      CopyRebuildMap map(kSmall);
      for (std::uint64_t i = 0; i < kKeys; ++i) {
        map.Insert(i, i);
      }
      for (int t : threads) {
        const double ops = rp::bench::MeasureThroughput(
            t, seconds,
            [&](int id, const std::atomic<bool>& stop) {
              rp::Xoshiro256 rng(static_cast<std::uint64_t>(id) + 5);
              std::uint64_t done = 0;
              while (!stop.load(std::memory_order_relaxed)) {
                (void)map.Contains(rng.NextBounded(kKeys));
                ++done;
              }
              return done;
            },
            [&](const std::atomic<bool>& stop) {
              while (!stop.load(std::memory_order_relaxed)) {
                map.ExpandByCopy();
                map.ShrinkByCopy();
              }
            });
        table.Record("copy", t, ops);
      }
    }
    table.Print();
  }
  return 0;
}
