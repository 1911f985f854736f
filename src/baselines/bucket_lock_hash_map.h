// Per-bucket-locked hash table: the fine-grained-locking baseline
// ("Fine-grained Locking" slide — disjoint-access parallelism, but every
// access still executes atomic read-modify-writes and bounces lock lines).
//
// A fixed stripe of cache-line-isolated spinlocks guards the buckets.
// Resizing takes every stripe lock in order (readers block meanwhile).
#ifndef RP_BASELINES_BUCKET_LOCK_HASH_MAP_H_
#define RP_BASELINES_BUCKET_LOCK_HASH_MAP_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <functional>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "src/core/hash.h"
#include "src/sync/spinlock.h"

namespace rp::baselines {

template <typename Key, typename T, typename HashFn = core::MixedHash<Key>,
          typename KeyEqual = std::equal_to<Key>, std::size_t NumStripes = 64>
class BucketLockHashMap {
  static_assert(core::IsPowerOfTwo(NumStripes));

 public:
  using key_type = Key;
  using mapped_type = T;

  explicit BucketLockHashMap(std::size_t initial_buckets = 16)
      : buckets_(core::CeilPowerOfTwo(std::max(initial_buckets, NumStripes))),
        bucket_count_(buckets_.size()) {}

  BucketLockHashMap(const BucketLockHashMap&) = delete;
  BucketLockHashMap& operator=(const BucketLockHashMap&) = delete;

  ~BucketLockHashMap() {
    for (Node* head : buckets_) {
      while (head != nullptr) {
        Node* next = head->next;
        delete head;
        head = next;
      }
    }
  }

  [[nodiscard]] std::optional<T> Get(const Key& key) const {
    const std::size_t hash = HashFn()(key);
    std::lock_guard<sync::Spinlock> lock(StripeFor(hash));
    const Node* node = FindLocked(hash, key);
    if (node == nullptr) {
      return std::nullopt;
    }
    return node->value;
  }

  [[nodiscard]] bool Contains(const Key& key) const {
    const std::size_t hash = HashFn()(key);
    std::lock_guard<sync::Spinlock> lock(StripeFor(hash));
    return FindLocked(hash, key) != nullptr;
  }

  template <typename Fn>
  bool With(const Key& key, Fn&& fn) const {
    const std::size_t hash = HashFn()(key);
    std::lock_guard<sync::Spinlock> lock(StripeFor(hash));
    const Node* node = FindLocked(hash, key);
    if (node == nullptr) {
      return false;
    }
    std::forward<Fn>(fn)(static_cast<const T&>(node->value));
    return true;
  }

  bool Insert(const Key& key, T value) {
    const std::size_t hash = HashFn()(key);
    std::lock_guard<sync::Spinlock> lock(StripeFor(hash));
    if (FindLocked(hash, key) != nullptr) {
      return false;
    }
    Node*& head = buckets_[hash & (buckets_.size() - 1)];
    head = new Node(hash, key, std::move(value), head);
    count_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  bool Erase(const Key& key) {
    const std::size_t hash = HashFn()(key);
    std::lock_guard<sync::Spinlock> lock(StripeFor(hash));
    Node** slot = &buckets_[hash & (buckets_.size() - 1)];
    while (*slot != nullptr) {
      Node* cur = *slot;
      if (cur->hash == hash && KeyEqual{}(cur->key, key)) {
        *slot = cur->next;
        delete cur;
        count_.fetch_sub(1, std::memory_order_relaxed);
        return true;
      }
      slot = &cur->next;
    }
    return false;
  }

  // Stop-the-world resize: takes all stripes in index order.
  void Resize(std::size_t target_buckets) {
    const std::size_t n =
        core::CeilPowerOfTwo(std::max(target_buckets, NumStripes));
    for (auto& stripe : stripes_) {
      stripe.lock();
    }
    if (n != buckets_.size()) {
      std::vector<Node*> fresh(n, nullptr);
      for (Node* head : buckets_) {
        while (head != nullptr) {
          Node* next = head->next;
          Node*& slot = fresh[head->hash & (n - 1)];
          head->next = slot;
          slot = head;
          head = next;
        }
      }
      buckets_.swap(fresh);
      bucket_count_.store(n, std::memory_order_relaxed);
    }
    for (auto it = stripes_.rbegin(); it != stripes_.rend(); ++it) {
      it->unlock();
    }
  }

  [[nodiscard]] std::size_t Size() const {
    return count_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t BucketCount() const {
    // Mirrored: a ResizeWorker's Nudge reads it on a writer thread, outside
    // the stripes, while Resize may be swapping the vector.
    return bucket_count_.load(std::memory_order_relaxed);
  }

 private:
  struct Node {
    Node(std::size_t h, const Key& k, T v, Node* n)
        : next(n), hash(h), key(k), value(std::move(v)) {}
    Node* next;
    const std::size_t hash;
    const Key key;
    T value;
  };

  sync::Spinlock& StripeFor(std::size_t hash) const {
    // Stripe by bucket index so that bucket count changes (always powers of
    // two >= NumStripes) keep the bucket→stripe mapping consistent.
    return stripes_[hash & (NumStripes - 1)];
  }

  const Node* FindLocked(std::size_t hash, const Key& key) const {
    for (const Node* node = buckets_[hash & (buckets_.size() - 1)];
         node != nullptr; node = node->next) {
      if (node->hash == hash && KeyEqual{}(node->key, key)) {
        return node;
      }
    }
    return nullptr;
  }

  std::vector<Node*> buckets_;
  std::atomic<std::size_t> bucket_count_;
  std::atomic<std::size_t> count_{0};
  mutable std::array<sync::PaddedSpinlock, NumStripes> stripes_;
};

}  // namespace rp::baselines

#endif  // RP_BASELINES_BUCKET_LOCK_HASH_MAP_H_
