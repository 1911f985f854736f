// RpHashMap — the paper's primary contribution: a resizable, scalable,
// concurrent hash table built on relativistic programming.
//
// Properties:
//   * Lookups are wait-free: no locks, no retries, no writes to shared
//     cache lines; they run concurrently with inserts, erases, moves and —
//     crucially — with resizes.
//   * The table stays *consistent* for readers at every instant, under the
//     paper's definition: a reader traversing a bucket always observes every
//     element that belongs to that bucket; it may transiently observe extra
//     elements from a sibling bucket ("imprecise buckets"), which is
//     harmless because lookups compare full keys.
//   * Shrinking concatenates sibling chains and needs ONE wait-for-readers
//     regardless of table size.
//   * Expansion publishes "zipped" buckets immediately, then incrementally
//     "unzips" them, one pointer swing per chain per pass, with one
//     wait-for-readers between passes. All chains unzip in parallel, so the
//     number of grace periods is the maximum number of key-runs in any
//     chain, not the number of elements. Writers are locked out of a resize,
//     so one walk of each chain plans every swing before the first
//     wait-for-readers, and each pass afterwards only stores its swings.
//   * Updates run under striped per-bucket writer locks: writers touching
//     different stripes proceed in parallel; a resize takes every stripe (in
//     index order) and so still excludes all other updates. Writers do all
//     the waiting, readers none. With writer_stripes = 1 the table degrades
//     to the original single-writer-mutex behaviour (the comparison baseline
//     in bench/abl10_writer_scaling.cc).
//   * Removed nodes are reclaimed through a pluggable Reclaimer policy
//     (src/rcu/reclaimer.h): deferred call_rcu-style batching by default, so
//     no update ever blocks for a grace period; synchronous
//     wait-then-free for tests that want deterministic reclamation.
//
// Template parameters mirror std::unordered_map, plus the RCU Domain
// (rcu::Epoch for general-purpose use, rcu::Qsbr for zero-cost readers in
// cooperative threads), the Reclaimer policy, and a NodeAlloc policy that
// controls where node memory lives (HeapNodeAlloc by default; the memcache
// engine carves nodes — key bytes included — from slab chunks for a
// zero-heap-allocation store path).
#ifndef RP_CORE_RP_HASH_MAP_H_
#define RP_CORE_RP_HASH_MAP_H_

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/core/hash.h"
#include "src/core/resize_stats.h"
#include "src/rcu/epoch.h"
#include "src/rcu/guard.h"
#include "src/rcu/rcu_pointer.h"
#include "src/rcu/reclaimer.h"
#include "src/util/cacheline.h"
#include "src/util/compiler.h"
#include "src/util/stopwatch.h"

namespace rp::core {

// The table carries out resizes (Resize) but never decides them: when to
// resize is ResizeWorker's policy (src/core/resize_worker.h).
struct RpHashMapOptions {
  // Inert. The table has no inline resize policy; the field stays only so
  // the benchmark sources that still assign `false` to it compile, and the
  // constructor rejects `true`. Deleted with the next benchmark change
  // (ROADMAP item 8).
  bool auto_resize = false;
  // Number of writer-lock stripes (rounded up to a power of two). Each
  // stripe covers an interleaved subset of buckets; updates to different
  // stripes run concurrently. 1 reproduces the single-writer-mutex table.
  std::size_t writer_stripes = 64;
};

// Node-storage policy: where table nodes live. The default allocates each
// node on the heap. A custom policy can carve node memory from any source
// (e.g. a slab chunk that also holds the key bytes — memcached's combined
// item layout) as long as it satisfies:
//
//   Node* Create<Node>(std::size_t hash, const K& key, V&& value)
//       — construct a node (any K the Node's templated constructor takes);
//   Node* Clone(const Node& node)
//       — construct a copy for the clone-and-swing update paths;
//   static void Deallocate(void* p) noexcept
//       — release memory Create/Clone produced. Static because it runs
//         from Node::operator delete, including on the deferred-reclaim
//         path where only the pointer is available.
//
// Every `delete node` inside the map (and inside the reclaimer's deferred
// callbacks) dispatches through Node::operator delete to Deallocate, so a
// policy-allocated node is always released back to its policy.
struct HeapNodeAlloc {
  template <typename Node, typename K, typename V>
  Node* Create(std::size_t hash, const K& key, V&& value) const {
    return new Node(hash, key, std::forward<V>(value));
  }
  template <typename Node>
  Node* Clone(const Node& node) const {
    return new Node(node.hash, node.key, node.value);
  }
  static void Deallocate(void* p) noexcept { ::operator delete(p); }
};

template <typename Key, typename T, typename HashFn = MixedHash<Key>,
          typename KeyEqual = std::equal_to<Key>, typename Domain = rcu::Epoch,
          typename ReclaimPolicy = rcu::DeferredReclaimer<Domain>,
          typename NodeAlloc = HeapNodeAlloc>
class RpHashMap {
  static_assert(rcu::Reclaimer<ReclaimPolicy>,
                "ReclaimPolicy must satisfy rp::rcu::Reclaimer");

 public:
  using key_type = Key;
  using mapped_type = T;
  using reclaimer_type = ReclaimPolicy;
  using hasher = HashFn;
  using node_alloc_type = NodeAlloc;
  // Exposed so callers batching several lookups can open one read-side
  // critical section around them (nested sections degenerate to a counter
  // increment): rcu::ReadGuard<Map::domain_type> guard; then Prehashed ops.
  using domain_type = Domain;

  explicit RpHashMap(std::size_t initial_buckets = 16,
                     RpHashMapOptions options = {}, NodeAlloc node_alloc = {})
      : node_alloc_(std::move(node_alloc)),
        stripe_count_(ClampStripes(options.writer_stripes)),
        stripes_(std::make_unique<Stripe[]>(stripe_count_)) {
    assert(!options.auto_resize && "attach a ResizeWorker instead");
    const std::size_t n = CeilPowerOfTwo(initial_buckets);
    table_.store(BucketArray::Create(n), std::memory_order_release);
    bucket_count_.store(n, std::memory_order_release);
    stripe_mask_.store(EffectiveStripeMaskFor(stripe_count_, n),
                       std::memory_order_release);
  }

  RpHashMap(const RpHashMap&) = delete;
  RpHashMap& operator=(const RpHashMap&) = delete;

  // Destruction requires external quiescence (no concurrent readers or
  // writers), like any container. Deferred reclamation callbacks for nodes
  // this map retired are drained first, so the allocator (and LSan) sees
  // every node freed by the time the destructor returns.
  ~RpHashMap() {
    ReclaimPolicy::Drain();
    BucketArray* t = table_.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < t->size; ++i) {
      Node* node = t->bucket(i).load(std::memory_order_relaxed);
      while (node != nullptr) {
        Node* next = node->next.load(std::memory_order_relaxed);
        delete node;
        node = next;
      }
    }
    BucketArray::Destroy(t);
  }

  // ---------------------------------------------------------------------
  // Read side — wait-free, safe during any concurrent update or resize.
  //
  // Every operation has two spellings: the plain one hashes the key and
  // forwards, and a Prehashed one that trusts a caller-computed hash (the
  // one-hash hot path: engines hash once at dispatch, route a shard on the
  // high bits and hand the full hash down here). A Prehashed value MUST
  // come from this map's HashFn applied to this key.
  //
  // Lookups (and conditional erases below) are heterogeneous: the key
  // parameter is a template, so a table with transparent HashFn/KeyEqual
  // (e.g. the engines' string tables) can be probed with a
  // std::string_view straight out of a parsed request, never
  // materializing a std::string per lookup.
  // ---------------------------------------------------------------------

  template <typename K>
  [[nodiscard]] bool Contains(const K& key) const {
    return Contains(Prehashed{Hash()(key)}, key);
  }

  template <typename K>
  [[nodiscard]] bool Contains(Prehashed hash, const K& key) const {
    rcu::ReadGuard<Domain> guard;
    return FindNode(hash.value, key) != nullptr;
  }

  // Returns a copy of the mapped value.
  template <typename K>
  [[nodiscard]] std::optional<T> Get(const K& key) const {
    return Get(Prehashed{Hash()(key)}, key);
  }

  template <typename K>
  [[nodiscard]] std::optional<T> Get(Prehashed hash, const K& key) const {
    rcu::ReadGuard<Domain> guard;
    const Node* node = FindNode(hash.value, key);
    if (node == nullptr) {
      return std::nullopt;
    }
    return node->value;
  }

  // Invokes fn(const T&) on the mapped value inside the read-side critical
  // section (no copy). Returns whether the key was found. `fn` must not
  // block and must not retain references past its return.
  template <typename K, typename Fn>
  bool With(const K& key, Fn&& fn) const {
    return With(Prehashed{Hash()(key)}, key, std::forward<Fn>(fn));
  }

  template <typename K, typename Fn>
  bool With(Prehashed hash, const K& key, Fn&& fn) const {
    rcu::ReadGuard<Domain> guard;
    const Node* node = FindNode(hash.value, key);
    if (node == nullptr) {
      return false;
    }
    std::forward<Fn>(fn)(static_cast<const T&>(node->value));
    return true;
  }

  // Visits every element under one read-side critical section:
  // fn(const Key&, const T&). Elements inserted/erased concurrently may or
  // may not be visited; during a concurrent resize an element may be
  // visited more than once (imprecise buckets) but never missed.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    rcu::ReadGuard<Domain> guard;
    const BucketArray* t = rcu::RcuDereference(table_);
    for (std::size_t i = 0; i < t->size; ++i) {
      for (const Node* node = rcu::RcuDereference(t->bucket(i));
           node != nullptr; node = rcu::RcuDereference(node->next)) {
        fn(static_cast<const Key&>(node->key), static_cast<const T&>(node->value));
      }
    }
  }

  // Visits the elements of a bounded bucket window under one read-side
  // critical section: fn(const Key&, const T&) for every element whose
  // bucket index falls in [start % buckets, start % buckets + max_buckets).
  // Returns the table's bucket count at visit time so incremental callers
  // (the maintenance crawler) can advance and wrap a cursor. The same
  // imprecision as ForEach applies under concurrent resize; a crawler
  // tolerates both duplicates and misses by construction (it revisits
  // every bucket on later passes).
  template <typename Fn>
  std::size_t ForEachInBuckets(std::size_t start, std::size_t max_buckets,
                               Fn&& fn) const {
    rcu::ReadGuard<Domain> guard;
    const BucketArray* t = rcu::RcuDereference(table_);
    const std::size_t begin = start % t->size;
    const std::size_t end =
        begin + max_buckets < t->size ? begin + max_buckets : t->size;
    for (std::size_t i = begin; i < end; ++i) {
      for (const Node* node = rcu::RcuDereference(t->bucket(i));
           node != nullptr; node = rcu::RcuDereference(node->next)) {
        fn(static_cast<const Key&>(node->key),
           static_cast<const T&>(node->value));
      }
    }
    return t->size;
  }

  [[nodiscard]] std::size_t Size() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool Empty() const { return Size() == 0; }

  // Reads the mirrored bucket count rather than dereferencing the table:
  // callers (e.g. a ResizeWorker polling load factor) need no read-side
  // critical section, and on a QSBR map they must not be silently
  // registered as readers.
  [[nodiscard]] std::size_t BucketCount() const {
    return bucket_count_.load(std::memory_order_acquire);
  }

  [[nodiscard]] double LoadFactor() const {
    return static_cast<double>(Size()) / static_cast<double>(BucketCount());
  }

  [[nodiscard]] std::size_t WriterStripes() const { return stripe_count_; }

  // ---------------------------------------------------------------------
  // Write side — striped per-bucket locks; resize takes every stripe.
  // ---------------------------------------------------------------------

  // Inserts; returns false (leaving the map unchanged) if the key exists.
  // The write side is heterogeneous like the lookups: `key` may be any
  // type the transparent HashFn/KeyEqual handle and the NodeAlloc can
  // build a stored Key from (e.g. a std::string_view over a parsed
  // request) — only a successful insert materializes the stored key.
  template <typename K>
  bool Insert(const K& key, T value) {
    return Insert(Prehashed{Hash()(key)}, key, std::move(value));
  }

  template <typename K>
  bool Insert(Prehashed hash, const K& key, T value) {
    Node* node =
        node_alloc_.template Create<Node>(hash.value, key, std::move(value));
    StripeGuard guard(*this, node->hash);
    if (FindNodeWriter(node->hash, key) != nullptr) {
      delete node;
      return false;
    }
    InsertNode(node);
    count_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  // Inserts or replaces. Returns true if a new key was inserted. A replace
  // swaps in a fresh node with one pointer swing, so readers atomically see
  // either the old or the new value, never a torn one.
  template <typename K>
  bool InsertOrAssign(const K& key, T value) {
    return InsertOrAssign(key, std::move(value), [](const T&) {});
  }

  template <typename K>
  bool InsertOrAssign(Prehashed hash, const K& key, T value) {
    return InsertOrAssign(hash, key, std::move(value), [](const T&) {});
  }

  // InsertOrAssign variant that reports a replacement: on_replace(const T&)
  // runs against the live value, under the key's stripe, just before the
  // swing — without cloning the old node (unlike UpdateIf). Lets callers
  // keep external accounting (e.g. a byte gauge keyed on the value's size)
  // exactly in step with table membership at no extra allocation.
  template <typename K, typename Fn>
  bool InsertOrAssign(const K& key, T value, Fn&& on_replace) {
    return InsertOrAssign(Prehashed{Hash()(key)}, key, std::move(value),
                          std::forward<Fn>(on_replace));
  }

  template <typename K, typename Fn>
  bool InsertOrAssign(Prehashed hash, const K& key, T value,
                      Fn&& on_replace) {
    Node* node =
        node_alloc_.template Create<Node>(hash.value, key, std::move(value));
    StripeGuard guard(*this, node->hash);
    std::atomic<Node*>* slot = nullptr;
    Node* existing = FindSlotWriter(node->hash, key, &slot);
    if (existing != nullptr) {
      std::forward<Fn>(on_replace)(static_cast<const T&>(existing->value));
      ReplaceNodeAt(slot, existing, node);
      return false;
    }
    InsertNode(node);
    count_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  // Copy-updates the value for `key`: clones the node, applies fn(T&) to
  // the clone, and publishes it with one pointer swing. Returns false if
  // the key is absent.
  template <typename K, typename Fn>
  bool Update(const K& key, Fn&& fn) {
    return Update(Prehashed{Hash()(key)}, key, std::forward<Fn>(fn));
  }

  template <typename K, typename Fn>
  bool Update(Prehashed hash, const K& key, Fn&& fn) {
    return UpdateIf(hash, key, [&fn](T& value) {
      std::forward<Fn>(fn)(value);
      return true;
    });
  }

  // Conditional copy-update: like Update, but fn(T&) returns bool — false
  // aborts the update (the clone is discarded, nothing is published, no
  // reclamation happens). The check and the swap are atomic under the
  // key's stripe, so callers get per-key check-then-act semantics against
  // every other writer (the table-level CAS building block). Returns true
  // only when a replacement was published.
  template <typename K, typename Fn>
  bool UpdateIf(const K& key, Fn&& fn) {
    return UpdateIf(Prehashed{Hash()(key)}, key, std::forward<Fn>(fn));
  }

  template <typename K, typename Fn>
  bool UpdateIf(Prehashed hash, const K& key, Fn&& fn) {
    StripeGuard guard(*this, hash.value);
    std::atomic<Node*>* slot = nullptr;
    Node* existing = FindSlotWriter(hash.value, key, &slot);
    if (existing == nullptr) {
      return false;
    }
    Node* replacement = node_alloc_.Clone(*existing);
    if (!std::forward<Fn>(fn)(replacement->value)) {
      delete replacement;  // never published: no grace period needed
      return false;
    }
    ReplaceNodeAt(slot, existing, replacement);
    return true;
  }

  // Two-phase conditional update: pred(const T&) runs against the live
  // value first, and only an accepted check pays the clone that fn(T&)
  // then mutates. Use when rejection is the hot path (failed CAS, expired
  // TTL): a rejected call costs one predicate evaluation, no allocation.
  // Both phases run under the key's stripe, so they are atomic against
  // every other writer. Returns true only when a replacement was published.
  template <typename K, typename Pred, typename Fn>
  bool UpdateIf(const K& key, Pred&& pred, Fn&& fn) {
    return UpdateIf(Prehashed{Hash()(key)}, key, std::forward<Pred>(pred),
                    std::forward<Fn>(fn));
  }

  template <typename K, typename Pred, typename Fn>
  bool UpdateIf(Prehashed hash, const K& key, Pred&& pred, Fn&& fn) {
    StripeGuard guard(*this, hash.value);
    std::atomic<Node*>* slot = nullptr;
    Node* existing = FindSlotWriter(hash.value, key, &slot);
    if (existing == nullptr ||
        !std::forward<Pred>(pred)(static_cast<const T&>(existing->value))) {
      return false;
    }
    Node* replacement = node_alloc_.Clone(*existing);
    std::forward<Fn>(fn)(replacement->value);
    ReplaceNodeAt(slot, existing, replacement);
    return true;
  }

  // Erases; the node is reclaimed per the Reclaimer policy (deferred, by
  // default, so this never waits for readers). Returns whether the key was
  // present.
  template <typename K>
  bool Erase(const K& key) {
    return EraseIf(key, [](const T&) { return true; });
  }

  template <typename K>
  bool Erase(Prehashed hash, const K& key) {
    return EraseIf(hash, key, [](const T&) { return true; });
  }

  // Conditional erase: unlinks the entry only when pred(const T&) holds,
  // with the check and the unlink atomic under the key's stripe (e.g.
  // "erase only if still expired", racing a writer refreshing the TTL).
  // Returns whether an entry was erased. Heterogeneous like the lookups:
  // erasing never stores the probe key, so a string_view works here too
  // (the engines' lazy dead-item reclamation runs off parsed request
  // keys).
  template <typename K, typename Pred>
  bool EraseIf(const K& key, Pred&& pred) {
    return EraseIf(Prehashed{Hash()(key)}, key, std::forward<Pred>(pred));
  }

  template <typename K, typename Pred>
  bool EraseIf(Prehashed hash, const K& key, Pred&& pred) {
    StripeGuard guard(*this, hash.value);
    BucketArray* t = table_.load(std::memory_order_relaxed);
    std::atomic<Node*>* slot = &t->bucket(hash.value & t->mask);
    Node* cur = slot->load(std::memory_order_relaxed);
    while (cur != nullptr) {
      if (cur->hash == hash.value && KeyEqual{}(cur->key, key)) {
        if (!std::forward<Pred>(pred)(static_cast<const T&>(cur->value))) {
          return false;
        }
        slot->store(cur->next.load(std::memory_order_relaxed),
                    std::memory_order_release);
        count_.fetch_sub(1, std::memory_order_relaxed);
        ReclaimPolicy::Retire(cur);
        return true;
      }
      slot = &cur->next;
      cur = slot->load(std::memory_order_relaxed);
    }
    return false;
  }

  // Atomic rename (the paper's "atomic move operation"): re-keys the entry
  // so that no concurrent reader ever observes the value as absent — the
  // new entry is published before the old one is unlinked; a reader may
  // transiently see both, which is harmless, but never neither.
  // Fails (returns false) if `from` is absent or `to` already exists.
  template <typename K1, typename K2>
  bool Move(const K1& from, const K2& to) {
    return Move(Prehashed{Hash()(from)}, from, Prehashed{Hash()(to)}, to);
  }

  template <typename K1, typename K2>
  bool Move(Prehashed from_hash, const K1& from, Prehashed to_hash,
            const K2& to) {
    TwoStripeGuard guard(*this, from_hash.value, to_hash.value);
    Node* source = FindNodeWriter(from_hash.value, from);
    if (source == nullptr || FindNodeWriter(to_hash.value, to) != nullptr) {
      return false;
    }
    Node* dest =
        node_alloc_.template Create<Node>(to_hash.value, to, source->value);
    InsertNode(dest);  // publish at destination first
    UnlinkNode(source);
    ReclaimPolicy::Retire(source);
    return true;
  }

  // Removes every element. One unlink per bucket; reclamation per policy.
  void Clear() {
    Clear([](const Key&, const T&) {});
  }

  // Clear with a per-element visitor: `visit(key, value)` runs for each
  // removed element while all stripes are held, before the node is
  // retired. Callers that maintain external gauges use this to refund
  // per-element deltas — an absolute reset would clobber contributions
  // from writers that run without any shard-wide lock and have already
  // passed their stripe.
  template <typename Visitor>
  void Clear(Visitor&& visit) {
    AllStripesGuard guard(*this);
    BucketArray* t = table_.load(std::memory_order_relaxed);
    std::size_t removed = 0;
    for (std::size_t i = 0; i < t->size; ++i) {
      Node* node = t->bucket(i).exchange(nullptr, std::memory_order_release);
      while (node != nullptr) {
        Node* next = node->next.load(std::memory_order_relaxed);
        visit(node->key, node->value);
        ReclaimPolicy::Retire(node);
        node = next;
        ++removed;
      }
    }
    count_.fetch_sub(removed, std::memory_order_relaxed);
  }

  // Blocks until every retirement handed to this map's reclamation policy
  // so far has been freed. Note the policy's queue is domain-global, so
  // this also waits for retirements from other structures sharing the
  // Domain. No-op under the synchronous policy. ResizeWorker calls this
  // after each deferred resize so reclamation keeps pace with heavy churn.
  void FlushDeferred() { ReclaimPolicy::Drain(); }

  // ---------------------------------------------------------------------
  // Resizing.
  // ---------------------------------------------------------------------

  // Resizes to CeilPowerOfTwo(target) buckets (at least 1), expanding or
  // shrinking by factors of two. Readers continue throughout; writers queue
  // on the stripes for the duration. The one resize entry point: a
  // ResizeWorker, or a caller that wants a given size, decides when.
  void Resize(std::size_t target_buckets) {
    std::lock_guard<std::mutex> resize_lock(resize_mutex_);
    AllStripesGuard guard(*this);
    ResizeLocked(CeilPowerOfTwo(target_buckets));
  }

  [[nodiscard]] ResizeStats LastResizeStats() const {
    std::lock_guard<std::mutex> resize_lock(resize_mutex_);
    return last_resize_;
  }

  [[nodiscard]] std::uint64_t ResizeCount() const {
    return resize_count_.load(std::memory_order_relaxed);
  }

  // Test/diagnostic hook: true when every chain of the current table
  // contains only keys that hash to that bucket (i.e., no resize is mid
  // flight and the last unzip completed). Requires external quiescence.
  [[nodiscard]] bool BucketsArePrecise() const {
    rcu::ReadGuard<Domain> guard;
    const BucketArray* t = rcu::RcuDereference(table_);
    for (std::size_t i = 0; i < t->size; ++i) {
      for (const Node* node = rcu::RcuDereference(t->bucket(i));
           node != nullptr; node = rcu::RcuDereference(node->next)) {
        if ((node->hash & t->mask) != i) {
          return false;
        }
      }
    }
    return true;
  }

 private:
  using Hash = HashFn;

  struct Node {
    // The key parameter is templated so a NodeAlloc can construct the
    // stored Key from whatever probe type reached the write path (e.g. an
    // inline-key descriptor pointing into the node's own chunk) without a
    // conversion round trip through Key.
    template <typename K>
    Node(std::size_t h, const K& k, T v)
        : hash(h), key(k), value(std::move(v)) {}
    // Funnel every `delete node` — including the deleter the deferred
    // reclaimer captures in Retire — into the node-storage policy, so
    // policy-carved nodes are released to their policy, never to the heap.
    static void operator delete(void* p) noexcept { NodeAlloc::Deallocate(p); }
    std::atomic<Node*> next{nullptr};
    const std::size_t hash;
    const Key key;
    T value;
  };

  // Resize moves nodes between buckets purely by re-masking this stored
  // hash — never by rehashing the key. The const qualifier is the
  // compile-time half of that guarantee (the counting-hasher regression
  // test is the runtime half).
  static_assert(std::is_same_v<decltype(Node::hash), const std::size_t>,
                "Node must store its hash immutably for rehash-free resizes");

  // Bucket array with inline storage: exactly two dependent loads on the
  // lookup path (array pointer, bucket head).
  struct BucketArray {
    std::size_t size;
    std::size_t mask;

    std::atomic<Node*>& bucket(std::size_t i) { return slots()[i]; }
    const std::atomic<Node*>& bucket(std::size_t i) const { return slots()[i]; }

    static BucketArray* Create(std::size_t n) {
      assert(IsPowerOfTwo(n));
      void* mem = ::operator new(sizeof(BucketArray) + n * sizeof(std::atomic<Node*>),
                                 std::align_val_t{alignof(BucketArray)});
      auto* array = new (mem) BucketArray();
      array->size = n;
      array->mask = n - 1;
      for (std::size_t i = 0; i < n; ++i) {
        new (&array->slots()[i]) std::atomic<Node*>(nullptr);
      }
      return array;
    }

    static void Destroy(BucketArray* array) {
      array->~BucketArray();
      ::operator delete(array, std::align_val_t{alignof(BucketArray)});
    }

   private:
    std::atomic<Node*>* slots() {
      return reinterpret_cast<std::atomic<Node*>*>(this + 1);
    }
    const std::atomic<Node*>* slots() const {
      return reinterpret_cast<const std::atomic<Node*>*>(this + 1);
    }
  };

  // -- Writer-lock striping -------------------------------------------------
  //
  // Stripe i covers every bucket whose index is ≡ i modulo the effective
  // stripe count. The effective count is min(stripe_count_, bucket_count):
  // both are powers of two, so any two keys that share a bucket share the
  // low bits that select the stripe — one stripe always owns a whole chain.
  //
  // The effective mask lives in its own atomic (stripe_mask_), maintained
  // by resize, precisely so that stripe selection never dereferences the
  // table: a writer choosing its stripe holds no lock and is in no read
  // section, so a concurrent resize could free the BucketArray under it.
  //
  // The table pointer (and stripe_mask_) can only change while ALL stripes
  // are held (resize), so holding any single stripe freezes the
  // bucket→stripe mapping. A writer therefore reads the mask, locks the
  // stripe it selects, and re-checks the mask: if a resize slipped in
  // between (changing the effective stripe count), it unlocks and retries.

  struct alignas(kCacheLineSize) Stripe {
    std::mutex mu;
  };

  static std::size_t ClampStripes(std::size_t requested) {
    std::size_t stripes = CeilPowerOfTwo(std::max<std::size_t>(requested, 1));
#ifdef RP_TSAN_ENABLED
    // TSan's deadlock detector aborts when one thread holds more than 64
    // locks; AllStripesGuard holds every stripe plus resize_mutex_, so cap
    // the stripe count in sanitized builds.
    stripes = std::min<std::size_t>(stripes, 32);
#endif
    return stripes;
  }

  static std::size_t EffectiveStripeMaskFor(std::size_t stripes,
                                            std::size_t buckets) {
    return std::min(stripes, buckets) - 1;
  }

  class StripeGuard {
   public:
    StripeGuard(RpHashMap& map, std::size_t hash) : map_(map) {
      for (;;) {
        const std::size_t mask =
            map_.stripe_mask_.load(std::memory_order_acquire);
        index_ = hash & mask;
        map_.stripes_[index_].mu.lock();
        if (map_.stripe_mask_.load(std::memory_order_relaxed) == mask) {
          return;  // mapping stable; the table is frozen while we hold it
        }
        map_.stripes_[index_].mu.unlock();
      }
    }
    ~StripeGuard() { map_.stripes_[index_].mu.unlock(); }
    StripeGuard(const StripeGuard&) = delete;
    StripeGuard& operator=(const StripeGuard&) = delete;

   private:
    RpHashMap& map_;
    std::size_t index_;
  };

  // Locks the stripes covering two hashes in ascending index order (the
  // same order resize uses), so writer/writer and writer/resize lock
  // acquisition can never cycle.
  class TwoStripeGuard {
   public:
    TwoStripeGuard(RpHashMap& map, std::size_t hash_a, std::size_t hash_b)
        : map_(map) {
      for (;;) {
        const std::size_t mask =
            map_.stripe_mask_.load(std::memory_order_acquire);
        lo_ = hash_a & mask;
        hi_ = hash_b & mask;
        if (lo_ > hi_) {
          std::swap(lo_, hi_);
        }
        map_.stripes_[lo_].mu.lock();
        if (hi_ != lo_) {
          map_.stripes_[hi_].mu.lock();
        }
        if (map_.stripe_mask_.load(std::memory_order_relaxed) == mask) {
          return;
        }
        if (hi_ != lo_) {
          map_.stripes_[hi_].mu.unlock();
        }
        map_.stripes_[lo_].mu.unlock();
      }
    }
    ~TwoStripeGuard() {
      if (hi_ != lo_) {
        map_.stripes_[hi_].mu.unlock();
      }
      map_.stripes_[lo_].mu.unlock();
    }
    TwoStripeGuard(const TwoStripeGuard&) = delete;
    TwoStripeGuard& operator=(const TwoStripeGuard&) = delete;

   private:
    RpHashMap& map_;
    std::size_t lo_;
    std::size_t hi_;
  };

  // Excludes every writer: stripe locks taken in index order. Used by
  // resize and Clear; the table pointer may only change under this guard.
  class AllStripesGuard {
   public:
    explicit AllStripesGuard(RpHashMap& map) : map_(map) {
      for (std::size_t i = 0; i < map_.stripe_count_; ++i) {
        map_.stripes_[i].mu.lock();
      }
    }
    ~AllStripesGuard() {
      for (std::size_t i = map_.stripe_count_; i-- > 0;) {
        map_.stripes_[i].mu.unlock();
      }
    }
    AllStripesGuard(const AllStripesGuard&) = delete;
    AllStripesGuard& operator=(const AllStripesGuard&) = delete;

   private:
    RpHashMap& map_;
  };

  // -- Read-path helper. Caller must hold a read-side critical section.
  // Heterogeneous: `key` may be any type the (transparent) KeyEqual can
  // compare against the stored Key. ------------------------------------
  template <typename K>
  const Node* FindNode(std::size_t hash, const K& key) const {
    const BucketArray* t = rcu::RcuDereference(table_);
    for (const Node* node = rcu::RcuDereference(t->bucket(hash & t->mask));
         node != nullptr; node = rcu::RcuDereference(node->next)) {
      // Full key comparison: buckets may be imprecise during a resize.
      if (node->hash == hash && KeyEqual{}(node->key, key)) {
        return node;
      }
    }
    return nullptr;
  }

  // -- Writer-path helpers. Caller must hold the stripe covering the hash
  // (or all stripes). ------------------------------------------------------

  template <typename K>
  Node* FindNodeWriter(std::size_t hash, const K& key) {
    BucketArray* t = table_.load(std::memory_order_relaxed);
    for (Node* node = t->bucket(hash & t->mask).load(std::memory_order_relaxed);
         node != nullptr; node = node->next.load(std::memory_order_relaxed)) {
      if (node->hash == hash && KeyEqual{}(node->key, key)) {
        return node;
      }
    }
    return nullptr;
  }

  void InsertNode(Node* node) {
    BucketArray* t = table_.load(std::memory_order_relaxed);
    std::atomic<Node*>& head = t->bucket(node->hash & t->mask);
    node->next.store(head.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    rcu::RcuAssignPointer(head, node);
  }

  // One-walk find for the replace/unlink paths: returns the node for `key`
  // (nullptr when absent) and, through `slot`, the pointer slot (bucket
  // head or predecessor's next) referencing it — so a subsequent pointer
  // swing needs no second traversal of a potentially cache-cold chain.
  // Must run under the key's stripe, like every writer-side find.
  template <typename K>
  Node* FindSlotWriter(std::size_t hash, const K& key,
                       std::atomic<Node*>** slot) {
    BucketArray* t = table_.load(std::memory_order_relaxed);
    std::atomic<Node*>* where = &t->bucket(hash & t->mask);
    for (Node* node = where->load(std::memory_order_relaxed); node != nullptr;
         node = where->load(std::memory_order_relaxed)) {
      if (node->hash == hash && KeyEqual{}(node->key, key)) {
        *slot = where;
        return node;
      }
      where = &node->next;
    }
    *slot = nullptr;
    return nullptr;
  }

  // Finds the slot (bucket head or predecessor's next) pointing at `node`.
  std::atomic<Node*>* SlotOf(Node* node) {
    BucketArray* t = table_.load(std::memory_order_relaxed);
    std::atomic<Node*>* slot = &t->bucket(node->hash & t->mask);
    Node* cur = slot->load(std::memory_order_relaxed);
    while (cur != node) {
      assert(cur != nullptr && "node not reachable from its bucket");
      slot = &cur->next;
      cur = slot->load(std::memory_order_relaxed);
    }
    return slot;
  }

  void UnlinkNode(Node* node) {
    SlotOf(node)->store(node->next.load(std::memory_order_relaxed),
                        std::memory_order_release);
  }

  // Replaces `victim` with `replacement` (same key) by one pointer swing,
  // at the slot a one-walk find (FindSlotWriter) returned.
  void ReplaceNodeAt(std::atomic<Node*>* slot, Node* victim,
                     Node* replacement) {
    replacement->next.store(victim->next.load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
    slot->store(replacement, std::memory_order_release);
    ReclaimPolicy::Retire(victim);
  }

  // Caller must hold resize_mutex_ and every stripe.
  void ResizeLocked(std::size_t target) {
    assert(IsPowerOfTwo(target));
    Stopwatch watch;
    ResizeStats stats;
    stats.from_buckets = table_.load(std::memory_order_relaxed)->size;
    stats.to_buckets = target;
    while (table_.load(std::memory_order_relaxed)->size < target) {
      ExpandStep(stats);
    }
    while (table_.load(std::memory_order_relaxed)->size > target) {
      ShrinkStep(stats);
    }
    // Writers are excluded for the whole ladder (we hold every stripe), so
    // one mirror update at the end covers all steps; blocked writers
    // re-check the mask the moment they acquire their stripe.
    bucket_count_.store(target, std::memory_order_release);
    stripe_mask_.store(EffectiveStripeMaskFor(stripe_count_, target),
                       std::memory_order_release);
    stats.duration_ns = watch.ElapsedNanos();
    last_resize_ = stats;
    resize_count_.fetch_add(1, std::memory_order_relaxed);
  }

  // Resize walks chains in index order, and their head nodes are its cache
  // misses: prefetch the head of chain i + kPrefetchChains, if below `end`.
  static constexpr std::size_t kPrefetchChains = 16;
  static void PrefetchChainAhead(const BucketArray* t, std::size_t i,
                                 std::size_t end) {
    if (i + kPrefetchChains < end) {
      __builtin_prefetch(
          t->bucket(i + kPrefetchChains).load(std::memory_order_relaxed));
    }
  }

  // One doubling, by chain unzipping (paper section "Expanding"). Old chain
  // i splits into new buckets i and i + old_size on hash bit old_size. Read
  // as runs R1..Rr that alternate between the two, it unzips in r - 1
  // passes: pass k aims end(Rk)->next at head(Rk+2), or at null past the
  // last run, and a grace period separates consecutive passes. Writers are
  // excluded for the whole resize, so the chains are frozen and every swing
  // is known before the first grace period: one walk plans them all, and a
  // pass only stores its planned swings.
  void ExpandStep(ResizeStats& stats) {
    BucketArray* old_table = table_.load(std::memory_order_relaxed);
    const std::size_t old_size = old_table->size;
    BucketArray* new_table = BucketArray::Create(old_size * 2);

    // Step 1: walk each old chain once. Point both new buckets at their
    // first node in it: chains start "zipped", complete but imprecise,
    // which readers tolerate by key comparison. The new table is private
    // until published: plain stores suffice. And plan the unzip: plan[k]
    // holds pass k + 1's swings across all chains. A swing aims `link`, the
    // next pointer of a run's last node, at `target`.
    struct Swing {
      std::atomic<Node*>* link;
      Node* target;
    };
    std::vector<std::vector<Swing>> plan;
    const auto plan_swing = [&plan](std::size_t pass, Node* run_end,
                                    Node* target) {
      if (plan.size() <= pass) {
        plan.resize(pass + 1);
      }
      plan[pass].push_back(Swing{&run_end->next, target});
    };
    for (std::size_t i = 0; i < old_size; ++i) {
      PrefetchChainAhead(old_table, i, old_size);
      Node* node = old_table->bucket(i).load(std::memory_order_relaxed);
      if (node == nullptr) {
        continue;
      }
      bool high = (node->hash & old_size) != 0;
      new_table->bucket(i | (high ? old_size : 0))
          .store(node, std::memory_order_relaxed);
      // The last node of the latest finished run on each side.
      Node* run_end[2] = {nullptr, nullptr};
      std::size_t runs = 1;
      for (Node* next = node->next.load(std::memory_order_relaxed);
           next != nullptr;
           node = next, next = next->next.load(std::memory_order_relaxed)) {
        if (((next->hash & old_size) != 0) == high) {
          continue;
        }
        // `node` ends run R(runs) and `next` starts R(runs + 1). Pass
        // runs - 1 swings end(R(runs - 1)), on next's side, to `next`; with
        // no such run, `next` heads its new bucket.
        if (run_end[!high] != nullptr) {
          plan_swing(runs - 2, run_end[!high], next);
        } else {
          new_table->bucket(i | (high ? 0 : old_size))
              .store(next, std::memory_order_relaxed);
        }
        run_end[high] = node;
        high = !high;
        ++runs;
      }
      if (run_end[!high] != nullptr) {
        // Pass r - 1 ends the other bucket: end(R(r - 1)) to null.
        plan_swing(runs - 2, run_end[!high], nullptr);
      }
    }

    // Step 2: publish. From here on, new readers use the new buckets.
    rcu::RcuAssignPointer(table_, new_table);

    // Step 3: wait for readers still traversing via the old bucket array.
    Domain::Synchronize();
    ++stats.grace_periods;

    // Step 4: unzip, one planned pass at a time. The grace period before
    // pass k + 1 guarantees that readers present during it entered after
    // pass k's swings, so no reader can be parked on a link a swing is
    // about to retarget away from its remaining nodes. A swing keeps every
    // node its own bucket's readers need (their remainder starts at the
    // target); the sibling's readers entered at or after the skipped run.
    for (std::size_t k = 0; k < plan.size(); ++k) {
      if (k > 0) {
        ++stats.unzip_passes;
        Domain::Synchronize();
        ++stats.grace_periods;
      }
      for (const Swing& swing : plan[k]) {
        swing.link->store(swing.target, std::memory_order_release);
      }
      stats.pointer_swings += plan[k].size();
    }

    // Step 5: the old bucket array is unreachable since the first grace
    // period; free it directly.
    BucketArray::Destroy(old_table);
  }

  // One halving, by chain concatenation (paper section "Shrinking").
  void ShrinkStep(ResizeStats& stats) {
    BucketArray* old_table = table_.load(std::memory_order_relaxed);
    const std::size_t new_size = old_table->size / 2;
    assert(new_size >= 1);
    BucketArray* new_table = BucketArray::Create(new_size);

    // Step 1+2: each new bucket covers old buckets j and j+new_size. Link
    // the tail of chain j to the head of chain j+new_size — readers of old
    // bucket j transiently see appended foreign keys (imprecise, harmless);
    // readers of j+new_size are untouched. Then aim the new bucket at the
    // combined chain.
    for (std::size_t j = 0; j < new_size; ++j) {
      PrefetchChainAhead(old_table, j, new_size);
      Node* lo_head = old_table->bucket(j).load(std::memory_order_relaxed);
      Node* hi_head =
          old_table->bucket(j + new_size).load(std::memory_order_relaxed);
      if (lo_head == nullptr) {
        new_table->bucket(j).store(hi_head, std::memory_order_relaxed);
        continue;
      }
      Node* tail = lo_head;
      for (Node* n = tail->next.load(std::memory_order_relaxed); n != nullptr;
           n = n->next.load(std::memory_order_relaxed)) {
        tail = n;
      }
      tail->next.store(hi_head, std::memory_order_release);
      new_table->bucket(j).store(lo_head, std::memory_order_relaxed);
    }

    // Step 3: publish the small table.
    rcu::RcuAssignPointer(table_, new_table);

    // Step 4: wait for readers that may still use the old bucket array.
    Domain::Synchronize();
    ++stats.grace_periods;

    // Step 5: reclaim it.
    BucketArray::Destroy(old_table);
  }

  // Node-storage policy instance; all node creation funnels through it
  // (deallocation goes through Node::operator delete so the deferred
  // reclaimer's type-erased deleter reaches the policy too).
  NodeAlloc node_alloc_;
  std::atomic<BucketArray*> table_{nullptr};
  std::atomic<std::size_t> count_{0};
  std::atomic<std::uint64_t> resize_count_{0};
  const std::size_t stripe_count_;
  // Mirrors of the current table's geometry, maintained under all stripes:
  // lock-free paths (stripe selection, load-factor checks, BucketCount)
  // read these instead of dereferencing table_, which a concurrent resize
  // may free out from under any thread not inside a read-side section.
  std::atomic<std::size_t> bucket_count_{0};
  std::atomic<std::size_t> stripe_mask_{0};
  const std::unique_ptr<Stripe[]> stripes_;
  // Serializes resizes and guards last_resize_. Writers never take it.
  mutable std::mutex resize_mutex_;
  ResizeStats last_resize_;
};

}  // namespace rp::core

#endif  // RP_CORE_RP_HASH_MAP_H_
