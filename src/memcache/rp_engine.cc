#include "src/memcache/rp_engine.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstddef>
#include <cstring>
#include <deque>
#include <mutex>
#include <new>

#include "src/core/hash.h"
#include "src/core/resize_worker.h"
#include "src/core/rp_hash_map.h"
#include "src/memcache/slab.h"
#include "src/rcu/callback.h"
#include "src/rcu/epoch.h"
#include "src/rcu/reclaimer.h"

namespace rp::memcache {

namespace {

bool ParseUint64(std::string_view s, std::uint64_t* out) {
  if (s.empty()) {
    return false;
  }
  const char* first = s.data();
  const char* last = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(first, last, *out);
  return ec == std::errc() && ptr == last;
}

// Each shard's worker poll: the shrink backstop and the maintenance tick's
// cadence (automove, crawl). Scaled by the shard count so the engine-wide
// wakeup rate stays constant as shards multiply — 8 idle workers each
// polling at 10ms would burn ~1% of a small box on context switches alone.
std::chrono::milliseconds PollInterval(std::size_t shard_count) {
  return std::chrono::milliseconds(10 * shard_count);
}

core::ResizeWorkerOptions WorkerOptions(std::size_t shard_buckets,
                                        std::size_t shard_count) {
  core::ResizeWorkerOptions options;
  // Never shrink below the operator-provisioned initial capacity.
  options.min_buckets = std::max<std::size_t>(shard_buckets, 16);
  // Growth is nudge-driven: a store or delete that leaves the load factor
  // out of band wakes the worker at once, and an in-band nudge wakes
  // nothing.
  options.poll_interval = PollInterval(shard_count);
  return options;
}

std::size_t ShardCountFor(const EngineConfig& config) {
  // Each shard costs a table plus a resize-worker thread, and the config
  // may come from a command line: clamp before rounding so a bogus value
  // (including a negative cast to size_t) can neither hang CeilPowerOfTwo
  // nor spawn an unbounded thread army.
  constexpr std::size_t kMaxShards = 4096;
  return core::CeilPowerOfTwo(
      std::min(std::max<std::size_t>(config.shards, 1), kMaxShards));
}

// Engine-provisioned capacity is split across shards: per-shard tables
// start (and floor) at an even slice of initial_buckets.
std::size_t ShardBucketsFor(const EngineConfig& config, std::size_t shards) {
  return core::CeilPowerOfTwo(
      std::max<std::size_t>(config.initial_buckets / shards, 8));
}

// Evenly split budget, rounded up so the shard caps sum to >= the global
// cap (never exceeding it matters per shard; the sum staying close to the
// configured total matters for capacity planning).
std::size_t PerShard(std::size_t global, std::size_t shards) {
  return global == 0 ? 0 : std::max<std::size_t>((global + shards - 1) / shards, 1);
}

// Values up to this size are EMBEDDED in the node's own chunk (the full
// combined item layout: node + key + value bytes in ONE allocation). 256
// keeps the worst case — a 250-byte key plus the 256-byte payload class —
// inside the node slab's 1024-byte chunk_max, so an embedded item can
// never be forced onto the heap fallback by its own geometry.
constexpr std::size_t kEmbedMaxData = 256;

// Whether the combined layout will embed a payload of `size`. Pooling
// disabled (chunk_max == 0 — the abl12 per-payload-malloc baseline) keeps
// the separate exact-size allocation so that baseline still measures what
// it claims to.
bool ShouldEmbedPayload(const SlabAllocator& value_slab, std::size_t size) {
  return size != 0 && size <= kEmbedMaxData &&
         value_slab.policy().chunk_max != 0;
}

// Payload bytes staged for the next CombinedNodeAlloc::Create on this
// thread. The table's Create signature carries exactly (hash, key, value),
// so the engine hands the to-be-embedded bytes through this side channel
// (set immediately before the table call, consumed — and cleared — first
// thing inside Create). When set, the accompanying CacheValue's buffer is
// empty; Create copies the staged bytes into the node chunk's trailing
// region instead of the value ever owning a separate chunk.
thread_local std::string_view g_staged_payload;

// Node allocation policy for the combined item layout (memcached's single-
// allocation item): each table node, its key bytes, and — for payloads up
// to kEmbedMaxData — its value bytes are carved from ONE chunk of the
// shard's node slab. The node occupies the front, the key bytes follow,
// and the embedded payload sits in the aligned tail behind a slab header
// of its own (stamped kEmbeddedClass: footprint/capacity queries behave
// like a pooled chunk, Free is a no-op — the node chunk owns the bytes).
// The embedded capacity mirrors the value slab's class capacity for the
// size, so byte accounting is bit-identical whether a payload is embedded
// or pooled. A steady-state overwrite therefore touches the heap zero
// times and the allocator exactly once: one node-slab chunk out, one
// retired chunk back after a grace period (Deallocate runs from the
// deferred reclaimer), so readers mid-section can never observe a reused
// node, key, or value region.
struct CombinedNodeAlloc {
  SlabAllocator* node_slab = nullptr;
  SlabAllocator* value_slab = nullptr;

  template <typename Node, typename K, typename V>
  Node* Create(std::size_t hash, const K& key, V&& value) const {
    // Slab payloads are 8-byte aligned (kChunkAlign); that covers the node.
    static_assert(alignof(Node) <= 8, "node must fit slab chunk alignment");
    const std::string_view k(key);
    const std::string_view data = g_staged_payload;
    g_staged_payload = {};
    const std::size_t key_end = sizeof(Node) + k.size();
    std::size_t embed_off = 0;
    std::size_t total = key_end;
    if (!data.empty()) {
      // Reserve the value slab's class footprint (header included) so the
      // embedded region is indistinguishable from a pooled payload chunk:
      // footprint() == FootprintFor(size()) stays an invariant and the
      // in-place Assign rule sees the same capacity either way.
      const std::size_t fp = value_slab->FootprintFor(data.size());
      embed_off = ((key_end + SlabAllocator::kChunkAlign - 1) &
                   ~(SlabAllocator::kChunkAlign - 1)) +
                  SlabAllocator::kHeaderBytes;
      total = embed_off + (fp - SlabAllocator::kHeaderBytes);
    }
    char* mem = node_slab->Allocate(total);
    char* key_bytes = mem + sizeof(Node);
    if (!k.empty()) {
      std::memcpy(key_bytes, k.data(), k.size());
    }
    Node* node = new (mem)
        Node(hash, ItemKey{key_bytes, static_cast<std::uint32_t>(k.size())},
             std::forward<V>(value));
    if (!data.empty()) {
      char* payload = mem + embed_off;
      SlabAllocator::StampEmbedded(payload, total - embed_off, value_slab);
      node->value.data = SlabBuffer::FromChunk(payload, data);
    }
    return node;
  }

  template <typename Node>
  Node* Clone(const Node& node) const {
    // Embeddable payloads are staged and re-embedded in the new node's
    // chunk — copying them through a temporary value-slab chunk first
    // would waste an allocate/copy/free triple per update. The source
    // node stays alive (the caller holds its stripe) until Create has
    // copied the staged bytes out.
    const SlabBuffer& data = node.value.data;
    if (ShouldEmbedPayload(*value_slab, data.size())) {
      g_staged_payload = data.view();
      return Create<Node>(node.hash, node.key,
                          CacheValue::MetadataCopy(node.value));
    }
    return Create<Node>(node.hash, node.key, node.value);
  }

  // Every `delete node` inside the table (and the deferred reclaimer's
  // type-erased deleter) dispatches here through the node's class-scope
  // operator delete; the 16-byte slab header in front of the chunk routes
  // the free back to the owning shard's node slab, heap fallbacks
  // included — no instance state needed. Embedded payload sub-headers
  // free as part of the chunk (their own Free is a no-op).
  static void Deallocate(void* p) noexcept {
    SlabAllocator::Free(static_cast<char*>(p));
  }
};

// Geometry for the node slab: combined node+key+embedded-value allocations
// run from sizeof(Node) (~100 bytes) up to sizeof(Node) + kMaxKeyLength
// (250) + header + the kEmbedMaxData payload class (~320), so classes span
// 64..1024 and the arena is uncapped — its footprint is bounded by the
// item caps (every chunk backs exactly one linked or in-flight node), not
// by a byte budget of its own.
SlabPolicy NodeSlabPolicy() {
  SlabPolicy policy;
  policy.chunk_min = 64;
  policy.chunk_max = 1024;
  policy.arena_bytes = 0;
  return policy;
}

// A GET hit's writes to the item: the access stamps and the CLOCK
// reference bit, each stored only when it changes (memcached rate-limits
// the same bump with ITEM_UPDATE_INTERVAL), so a hot item's line is
// written about once per second and once per sweep that clears its bit,
// not on every hit. Reports the pre-GET last_used/fetched, which the meta
// l and h flags describe. Plain loads and stores, not RMWs: these are
// per-item relaxed hints, and GET must not pay an atomic RMW.
void StampGet(const CacheValue& value, std::int64_t now,
              std::int64_t* last_used, bool* fetched) {
  *last_used = value.last_used.load(std::memory_order_relaxed);
  *fetched = value.fetched.load(std::memory_order_relaxed);
  if (*last_used != now) {
    value.last_used.store(now, std::memory_order_relaxed);
  }
  if (!*fetched) {
    value.fetched.store(true, std::memory_order_relaxed);
  }
  if (!value.referenced.load(std::memory_order_relaxed)) {
    value.referenced.store(true, std::memory_order_relaxed);
  }
}

// -- Maintenance-plane geometry ------------------------------------------

// Crawler: a tick walks at least kCrawlBuckets buckets (small on purpose —
// the tick shares the resize worker's thread), and on a shard too large for
// that floor to visit every bucket within kCrawlPass, the share of the
// table that keeps the pass within it. 5.5 min keeps the floor for shards
// of up to 2^15 buckets at the default 8 shards (an 80 ms poll); a 2^20
// shard walks 255 buckets per tick. A tick collects at most
// kCrawlDeadPerBucket dead keys per bucket walked.
constexpr std::size_t kCrawlBuckets = 8;
constexpr std::chrono::milliseconds kCrawlPass{330'000};
constexpr std::size_t kCrawlDeadPerBucket = 4;

std::size_t CrawlBudget(std::size_t buckets, std::chrono::milliseconds poll) {
  const auto pass = static_cast<std::size_t>(kCrawlPass.count());
  const std::size_t per_tick =
      (buckets * static_cast<std::size_t>(poll.count()) + pass - 1) / pass;
  return std::max(kCrawlBuckets, per_tick);
}

}  // namespace

// One keyspace partition: the full engine column — slab arena, table,
// resize worker, store mutex, eviction queue, flush deadline, byte gauge,
// stats. Shards are heap-allocated (unique_ptr) so their hot atomics never
// share a cache line across shards.
struct RpEngine::Shard {
  // Concurrent-writer configuration: striped writer locks (the table
  // default) and deferred reclamation, spelled out so the engine's choice
  // survives a change of table defaults. Keys are stored as ItemKeys
  // pointing into the node's own slab chunk (combined item layout — see
  // CombinedNodeAlloc above); the transparent KeyEqual compares them
  // against string/string_view probes straight out of a parsed request,
  // and the transparent hasher never rehashes a stored key (the node
  // carries its hash).
  using Table =
      core::RpHashMap<ItemKey, CacheValue, core::MixedHash<std::string>,
                      ItemKeyEqual, rcu::Epoch,
                      rcu::DeferredReclaimer<rcu::Epoch>, CombinedNodeAlloc>;

  Shard(RpEngine* engine, const SlabPolicy& slab_policy, std::size_t buckets,
        std::size_t shard_index, std::size_t shard_count)
      : slab(slab_policy),
        node_slab(NodeSlabPolicy()),
        table(buckets, {}, CombinedNodeAlloc{&node_slab, &slab}),
        next_cas(shard_index + 1),
        cas_step(shard_count),
        resize_worker(table,
                      TickingWorkerOptions(engine, this, buckets, shard_count)) {
  }

  // The maintenance tick piggybacks on the shard's existing resize-worker
  // wakeup — one background cadence per shard, not a second thread.
  // resize_worker is the LAST member, so by the time its thread can fire
  // the tick every other member of this Shard is fully constructed.
  static core::ResizeWorkerOptions TickingWorkerOptions(
      RpEngine* engine, Shard* self, std::size_t buckets,
      std::size_t shard_count) {
    core::ResizeWorkerOptions options = WorkerOptions(buckets, shard_count);
    options.maintenance_tick = [engine, self] {
      engine->MaintenanceTick(*self);
    };
    return options;
  }

  // Payload chunks for this shard's values. Declared before the table:
  // the table's destructor drains deferred reclamation (destroying every
  // retired value, whose chunks flow back here) and then deletes the
  // still-linked nodes, so the allocator must be destroyed strictly after
  // the table.
  SlabAllocator slab;
  // Combined node+key chunks (CombinedNodeAlloc). Same destruction-order
  // constraint as the payload slab: every node the table deletes frees
  // into it.
  SlabAllocator node_slab;

  Table table;

  // Serializes the insert/eviction bookkeeping ops of this shard. The
  // table's striped locks already serialize per-key updates; this mutex
  // exists because eviction state (fifo) must change atomically with
  // table membership — but it is per shard, so SETs to different shards
  // never contend. StoreMutex counts acquisitions in TLS so tests can pin
  // the one-lock-per-batch invariant.
  StoreMutex store_mutex;
  // Approximate LRU (CLOCK): an insertion-ordered queue swept against each
  // item's reference bit, which GETs and full stores set with a relaxed
  // store and the sweep clears when it spares the item. Exact LRU would
  // reintroduce a shared write per GET — the very serialization the RP
  // port removes — so eviction precision is traded for reader scalability.
  std::deque<std::string> fifo;
  // Entries popped off `fifo` by either eviction sweep (test hook:
  // EvictionSweepPops). Guarded by store_mutex, like the queue.
  std::uint64_t sweep_pops = 0;

  // flush_all deadline for this shard's items (kNoFlush = none pending).
  std::atomic<std::int64_t> flush_at{kNoFlush};
  // Charged bytes resident in this shard: key + actual chunk footprint +
  // overhead per item. Every delta is applied either under the store
  // mutex (insert/evict/flush) or inside a table callback under the key's
  // stripe (size-changing updates, conditional erases), so the gauge
  // tracks table membership exactly.
  std::atomic<std::uint64_t> bytes{0};
  // Slab internal fragmentation share of `bytes` (chunk footprint minus
  // stored payload), maintained at the same points as the gauge.
  std::atomic<std::uint64_t> bytes_wasted{0};

  std::atomic<std::uint64_t> get_hits{0};
  std::atomic<std::uint64_t> get_misses{0};
  std::atomic<std::uint64_t> sets{0};
  std::atomic<std::uint64_t> evictions{0};
  std::atomic<std::uint64_t> expired_reclaims{0};
  std::atomic<std::uint64_t> total_items{0};

  // Per-shard CAS source: stepped by the shard count and seeded with
  // shard_index + 1, so values stay nonzero and unique engine-wide without
  // a single engine-global atomic on every store.
  std::atomic<std::uint64_t> next_cas;
  const std::uint64_t cas_step;

  // Tick-private state, guarded by tick_mu (the RunMaintenanceTick test
  // hook may race the worker's own tick).
  std::mutex tick_mu;
  std::vector<std::uint64_t> automove_seen;  // last-seen exhaustion counts
  std::size_t crawl_cursor = 0;

  // Maintenance-plane counters (surfaced through EngineStats).
  std::atomic<std::uint64_t> set_combines{0};
  std::atomic<std::uint64_t> crawler_reclaims{0};

  // Deferred (rhashtable-style) resizes: stores and deletes nudge the
  // worker instead of absorbing resize cost inline. Declared after the
  // table so it stops before the table is destroyed.
  core::ResizeWorker<Table> resize_worker;

  // Gauge helpers: every size-changing path funnels through these so the
  // charge formula (and the waste share) cannot drift between paths.
  void ChargeValue(std::size_t key_size, const CacheValue& value) {
    bytes.fetch_add(ChargedBytes(key_size, value.data),
                    std::memory_order_relaxed);
    bytes_wasted.fetch_add(WastedBytes(value.data), std::memory_order_relaxed);
  }
  void RefundValue(std::size_t key_size, const CacheValue& value) {
    bytes.fetch_sub(ChargedBytes(key_size, value.data),
                    std::memory_order_relaxed);
    bytes_wasted.fetch_sub(WastedBytes(value.data), std::memory_order_relaxed);
  }
  // Delta form for value overwrites. The old pair MUST come from the
  // ORIGINAL stored value (captured in an UpdateIf predicate, which runs
  // on it under the stripe) — never from the update clone, whose freshly
  // allocated chunk can have a different footprint when pooled and
  // fallback allocations mix. (Unsigned wraparound is fine: the gauge
  // only ever sums matched charge/refund pairs.)
  void RechargeValue(std::size_t old_footprint, std::size_t old_size,
                     const CacheValue& value) {
    bytes.fetch_add(value.data.footprint() - old_footprint,
                    std::memory_order_relaxed);
    bytes_wasted.fetch_add(
        (value.data.footprint() - value.data.size()) -
            (old_footprint - old_size),
        std::memory_order_relaxed);
  }
};

RpEngine::RpEngine(EngineConfig config) : config_(config) {
  const std::size_t shard_count = ShardCountFor(config_);
  const std::size_t shard_buckets = ShardBucketsFor(config_, shard_count);
  max_items_per_shard_ = PerShard(config_.max_items, shard_count);
  max_bytes_per_shard_ = PerShard(config_.max_bytes, shard_count);
  poll_interval_ = PollInterval(shard_count);
  track_eviction_ = config_.max_items != 0 || config_.max_bytes != 0;
  const SlabPolicy slab_policy = SlabPolicyFor(config_, shard_count);
  // Construct the RCU domain (thread registry and callback queue) before
  // any shard. Statics die in reverse order of construction, so an engine
  // with static storage duration is then destroyed, and its workers
  // unregistered and its tables drained, while the domain still exists.
  (void)rcu::Epoch::Callbacks();
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>(this, slab_policy, shard_buckets,
                                              i, shard_count));
  }
  shard_mask_ = shard_count - 1;
}

RpEngine::~RpEngine() = default;

std::uint64_t RpEngine::NextCas(Shard& shard) {
  return shard.next_cas.fetch_add(shard.cas_step, std::memory_order_relaxed);
}

// Shard routing uses the high hash bits; the table's bucket index uses the
// low bits of the same mixed hash, so a shard's keys still spread evenly
// over its buckets.
std::size_t RpEngine::ShardIndex(const std::string& key) const {
  return ShardIndexForHash(Hasher{}(key));
}

void RpEngine::GetManyScratch(const std::string_view* keys, std::size_t count,
                              ScratchGetResult* out, std::string* scratch) {
  // Hash every key exactly once up front (the transparent hasher reads
  // the string_views in place — no per-key std::string materializes
  // anywhere on this path). The shard index derives from the hash, so per
  // key only the hash plus a marker byte need storage; batches up to
  // kInlineKeys (the common pipelined multi-get) stay on the stack.
  constexpr std::size_t kInlineKeys = 32;
  constexpr unsigned char kProcessed = 1;
  constexpr unsigned char kDead = 2;
  std::size_t inline_hashes[kInlineKeys];
  unsigned char inline_marks[kInlineKeys];
  std::vector<std::size_t> heap_hashes;
  std::vector<unsigned char> heap_marks;
  std::size_t* hashes = inline_hashes;
  unsigned char* marks = inline_marks;
  if (count > kInlineKeys) {
    heap_hashes.resize(count);
    heap_marks.resize(count);
    hashes = heap_hashes.data();
    marks = heap_marks.data();
  }
  for (std::size_t i = 0; i < count; ++i) {
    hashes[i] = Hasher{}(keys[i]);
    marks[i] = 0;
    out[i] = ScratchGetResult{};
  }

  const std::int64_t now = NowSeconds();
  bool any_dead = false;
  for (std::size_t i = 0; i < count; ++i) {
    if (marks[i] & kProcessed) {
      continue;  // already answered as part of an earlier shard group
    }
    const std::size_t shard_index = ShardIndexForHash(hashes[i]);
    Shard& shard = *shards_[shard_index];
    const std::int64_t flush_at =
        shard.flush_at.load(std::memory_order_relaxed);
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    {
      // ONE epoch enter/exit for the whole shard group: the guards the
      // nested With() calls open see nesting > 0 and degrade to a local
      // counter bump — no fences, no shared stores.
      rcu::ReadGuard<Shard::Table::domain_type> section;
      for (std::size_t j = i; j < count; ++j) {
        if ((marks[j] & kProcessed) != 0 ||
            ShardIndexForHash(hashes[j]) != shard_index) {
          continue;
        }
        marks[j] |= kProcessed;
        bool hit = false;
        bool dead = false;
        shard.table.With(
            core::Prehashed{hashes[j]}, keys[j],
            [&](const CacheValue& value) {
              if (!IsLive(value, flush_at, now)) {
                dead = true;
                return;
              }
              // The payload appends to scratch inside the read section —
              // the chunk the view points at may be reclaimed the instant
              // the section closes — and the slot records its offset, not
              // a pointer, so scratch may reallocate as the batch grows.
              ScratchGetResult& slot = out[j];
              const std::string_view data = value.data.view();
              slot.data_offset = scratch->size();
              slot.data_size = data.size();
              scratch->append(data.data(), data.size());
              slot.flags = value.flags;
              slot.cas = value.cas;
              slot.expire_at = value.expire_at;
              StampGet(value, now, &slot.last_used, &slot.fetched);
              slot.hit = true;
              hit = true;
            });
        if (hit) {
          ++hits;
        } else {
          ++misses;
          if (dead) {
            marks[j] |= kDead;
            any_dead = true;
          }
        }
      }
    }
    // Stats batched per group: one shared RMW per counter instead of one
    // per key.
    if (hits != 0) {
      shard.get_hits.fetch_add(hits, std::memory_order_relaxed);
    }
    if (misses != 0) {
      shard.get_misses.fetch_add(misses, std::memory_order_relaxed);
    }
  }

  // Lazy reclamation strictly after every read section has closed:
  // EraseIf blocks on the key's stripe, and a resize holds all stripes
  // while it waits for readers — reclaiming inside a section would
  // deadlock the two against each other.
  if (any_dead) {
    for (std::size_t i = 0; i < count; ++i) {
      if (marks[i] & kDead) {
        ReclaimDead(ShardForHash(hashes[i]), core::Prehashed{hashes[i]},
                    keys[i]);
      }
    }
  }
}

bool RpEngine::ReclaimDead(Shard& shard, core::Prehashed hash,
                           std::string_view key) {
  const std::int64_t now = NowSeconds();
  const std::int64_t flush_at = shard.flush_at.load(std::memory_order_relaxed);
  // Conditional erase: the still-dead re-check, the byte refund and the
  // unlink are atomic under the key's stripe, so a racing Set/Touch that
  // refreshes the TTL can never have its freshly-revived entry reclaimed.
  const bool erased =
      shard.table.EraseIf(hash, key, [&](const CacheValue& value) {
        if (IsLive(value, flush_at, now)) {
          return false;
        }
        shard.RefundValue(key.size(), value);
        return true;
      });
  if (erased) {
    shard.expired_reclaims.fetch_add(1, std::memory_order_relaxed);
    shard.resize_worker.Nudge();
  }
  return erased;
}

bool RpEngine::OverLimit(const Shard& shard, std::size_t incoming) const {
  return (max_items_per_shard_ != 0 &&
          shard.table.Size() > max_items_per_shard_) ||
         (max_bytes_per_shard_ != 0 &&
          shard.bytes.load(std::memory_order_relaxed) + incoming >
              max_bytes_per_shard_);
}

void RpEngine::EvictLocked(Shard& shard, std::size_t incoming,
                           std::string_view keep) {
  if (!track_eviction_) {
    return;
  }
  const std::int64_t now = NowSeconds();
  const std::int64_t flush_at = shard.flush_at.load(std::memory_order_relaxed);
  // CLOCK sweep: a live item whose reference bit is set is spared — the
  // bit is cleared and the key requeued — and everything else in FIFO
  // order is evicted. Each requeue consumes one reference, so an eviction
  // costs amortized O(1) pops. Dead items (expired / overtaken by a flush
  // deadline) are reclaimed on sight regardless of the bit. `chances`
  // bounds one call's requeues in case GETs re-set bits as fast as the
  // sweep clears them. The sweep never writes last_used or fetched.
  // `keep`, the key a SET is about to store, is never a victim: its entries
  // leave the queue as the sweep meets them (a delete and a re-set leave
  // two) and one goes back to the tail when the sweep ends, so the sweep
  // runs until it has made room or visited every other entry.
  std::size_t chances = shard.fifo.size();
  std::string kept;
  while (OverLimit(shard, incoming) && !shard.fifo.empty()) {
    std::string victim = std::move(shard.fifo.front());
    shard.fifo.pop_front();
    ++shard.sweep_pops;
    if (!keep.empty() && victim == keep) {
      kept = std::move(victim);
      continue;
    }
    bool referenced = false;
    bool was_dead = false;
    const bool erased = shard.table.EraseIf(victim, [&](const CacheValue& value) {
      was_dead = !IsLive(value, flush_at, now);
      if (!was_dead && chances > 0 &&
          value.referenced.load(std::memory_order_relaxed)) {
        value.referenced.store(false, std::memory_order_relaxed);
        referenced = true;
        return false;
      }
      shard.RefundValue(victim.size(), value);
      return true;
    });
    if (erased) {
      if (was_dead) {
        shard.expired_reclaims.fetch_add(1, std::memory_order_relaxed);
      } else {
        shard.evictions.fetch_add(1, std::memory_order_relaxed);
      }
      continue;
    }
    if (referenced) {
      --chances;
      shard.fifo.push_back(std::move(victim));
    }
    // else: stale queue entry (deleted or already evicted) — drop it.
  }
  if (!kept.empty()) {
    shard.fifo.push_back(std::move(kept));
  }
}

bool RpEngine::PublishValueLocked(Shard& shard, core::Prehashed hash,
                                  std::string_view key, CacheValue&& value) {
  // A staged (to-be-embedded) payload is not in value.data yet; charge
  // what the embedded region will occupy — by construction exactly the
  // value slab's class footprint for the staged size, so the gauge cannot
  // tell embedded and pooled payloads apart.
  const std::string_view staged = g_staged_payload;
  const std::size_t data_footprint =
      staged.empty() ? value.data.footprint()
                     : shard.slab.FootprintFor(staged.size());
  const std::size_t data_size =
      staged.empty() ? value.data.size() : staged.size();
  const std::size_t new_charge =
      key.size() + data_footprint + kItemOverheadBytes;
  const std::size_t new_waste = data_footprint - data_size;
  // One stripe-atomic insert-or-assign: on a replacement the byte delta
  // against the old value is applied inside the table callback, under the
  // key's stripe, so a concurrent size-changing update of the same key can
  // never skew the gauge — and the old payload is never cloned (the
  // callback sees the ORIGINAL value, so its footprint is the real one).
  const bool inserted = shard.table.InsertOrAssign(
      hash, key, std::move(value), [&](const CacheValue& old) {
        shard.bytes.fetch_add(
            new_charge - ChargedBytes(key.size(), old.data),
            std::memory_order_relaxed);
        shard.bytes_wasted.fetch_add(new_waste - WastedBytes(old.data),
                                     std::memory_order_relaxed);
      });
  if (inserted) {
    shard.bytes.fetch_add(new_charge, std::memory_order_relaxed);
    shard.bytes_wasted.fetch_add(new_waste, std::memory_order_relaxed);
    shard.total_items.fetch_add(1, std::memory_order_relaxed);
    if (track_eviction_) {
      shard.fifo.push_back(std::string(key));
    }
  }
  return inserted;
}

// Replace and cas as one conditional per-key update: the liveness check,
// the cas comparison (kCas only) and the overwrite are atomic under the
// stripe. A concurrent DELETE can never be resurrected by a REPLACE that
// passed a stale check, and a concurrent APPEND/INCR/TOUCH (which bump the
// cas under the same stripe) either lands before a CAS's comparison — CAS
// returns kExists — or after the whole CAS. Neither kind ever inserts, so
// eviction bookkeeping is untouched. The core takes only the stripe lock
// (safe with or without the store mutex held) and leaves `sets` counting
// and eviction to StoreMany.
StoreResult RpEngine::OverwriteCore(Shard& shard, core::Prehashed hash,
                                    const StoreOp& op, std::int64_t now) {
  const bool is_cas = op.kind == StoreKind::kCas;
  const std::int64_t flush_at = shard.flush_at.load(std::memory_order_relaxed);
  const std::uint64_t cas = NextCas(shard);
  bool live = false;
  bool matched = false;
  // The gauge delta must be computed against the ORIGINAL value's
  // footprint (captured in the predicate, which runs on the stored value
  // under the stripe) — the clone handed to the mutate callback sits in a
  // freshly allocated chunk whose footprint can differ from the
  // original's whenever pooled and fallback allocations mix.
  std::size_t old_footprint = 0;
  std::size_t old_size = 0;
  shard.table.UpdateIf(
      hash, op.key,
      [&](const CacheValue& value) {
        if (!IsLive(value, flush_at, now)) {
          return false;
        }
        live = true;
        matched = !is_cas || value.cas == op.cas;
        if (matched) {
          old_footprint = value.data.footprint();
          old_size = value.data.size();
        }
        return matched;
      },
      [&](CacheValue& value) {
        // `value` is the writer's private clone: overwriting its buffer
        // in place (or swapping chunks — Assign frees only never-published
        // chunks here) is invisible to readers of the original node.
        value.data.Assign(&shard.slab, op.data);
        shard.RechargeValue(old_footprint, old_size, value);
        value.flags = op.flags;
        value.expire_at = ResolveExptime(op.exptime, now);
        value.cas = cas;
        value.stored_at = now;
        value.last_used.store(now, std::memory_order_relaxed);
        value.referenced.store(true, std::memory_order_relaxed);
      });
  if (!live) {
    return is_cas ? StoreResult::kNotFound : StoreResult::kNotStored;
  }
  return matched ? StoreResult::kStored : StoreResult::kExists;
}

// Append/Prepend are per-key read-modify-writes: the table's striped
// writer lock already makes the clone-mutate-publish atomic against any
// concurrent update of the same key, so no engine-wide lock is needed.
// Dead (expired/flushed) items reject the concatenation — stored_at is
// preserved, so a flushed item can never be revived through its tail.
// Growth past kMaxItemBytes (memcached's item_size_max) is rejected too.
StoreResult RpEngine::ConcatCore(Shard& shard, core::Prehashed hash,
                                 const StoreOp& op, std::int64_t now) {
  const bool prepend = op.kind == StoreKind::kPrepend;
  const std::int64_t flush_at = shard.flush_at.load(std::memory_order_relaxed);
  const std::uint64_t cas = NextCas(shard);
  std::size_t old_footprint = 0;  // captured from the original, not the clone
  std::size_t old_size = 0;
  const bool updated = shard.table.UpdateIf(
      hash, op.key,
      [&](const CacheValue& value) {
        if (!IsLive(value, flush_at, now) ||
            value.data.size() + op.data.size() > kMaxItemBytes) {
          return false;  // dead, or the result would exceed item_size_max
        }
        old_footprint = value.data.footprint();
        old_size = value.data.size();
        return true;
      },
      [&](CacheValue& value) {
        if (prepend) {
          value.data.Prepend(&shard.slab, op.data);
        } else {
          value.data.Append(&shard.slab, op.data);
        }
        shard.RechargeValue(old_footprint, old_size, value);
        value.cas = cas;
      });
  return updated ? StoreResult::kStored : StoreResult::kNotStored;
}

StoreResult RpEngine::StoreOneLocked(Shard& shard, core::Prehashed hash,
                                     const StoreOp& op, std::int64_t now,
                                     bool* inserted) {
  *inserted = false;
  switch (op.kind) {
    case StoreKind::kSet: {
      // Embeddable payloads go straight from the parsed request into the
      // new node's own chunk (staged for CombinedNodeAlloc::Create — the
      // payload slab is never consulted); only larger ones take a payload
      // chunk. Either way no owning string is allocated for the bytes.
      const bool embed = ShouldEmbedPayload(shard.slab, op.data.size());
      SlabBuffer payload;
      if (!op.data.empty() && !embed) {
        payload = SlabBuffer(&shard.slab, op.data);
      }
      CacheValue value(std::move(payload), op.flags,
                       ResolveExptime(op.exptime, now), NextCas(shard));
      value.stored_at = now;
      value.last_used.store(now, std::memory_order_relaxed);
      value.referenced.store(true, std::memory_order_relaxed);
      if (embed) {
        g_staged_payload = op.data;
      }
      *inserted = PublishValueLocked(shard, hash, op.key, std::move(value));
      return StoreResult::kStored;
    }
    case StoreKind::kAdd: {
      const std::int64_t flush_at =
          shard.flush_at.load(std::memory_order_relaxed);
      CacheValue value(SlabBuffer(&shard.slab, op.data), op.flags,
                       ResolveExptime(op.exptime, now), NextCas(shard));
      value.stored_at = now;
      value.last_used.store(now, std::memory_order_relaxed);
      value.referenced.store(true, std::memory_order_relaxed);
      const std::size_t new_charge = ChargedBytes(op.key.size(), value.data);
      const std::size_t new_waste = WastedBytes(value.data);
      bool live = false;
      std::size_t old_footprint = 0;  // from the original, not the clone
      std::size_t old_size = 0;
      // A dead entry (expired or flushed) may be overwritten in place; the
      // liveness check and the overwrite are atomic under the stripe.
      const bool replaced = shard.table.UpdateIf(
          hash, op.key,
          [&](const CacheValue& old) {
            if (IsLive(old, flush_at, now)) {
              live = true;
              return false;
            }
            old_footprint = old.data.footprint();
            old_size = old.data.size();
            return true;
          },
          [&](CacheValue& old) {
            shard.bytes.fetch_add(
                new_charge -
                    (op.key.size() + old_footprint + kItemOverheadBytes),
                std::memory_order_relaxed);
            shard.bytes_wasted.fetch_add(
                new_waste - (old_footprint - old_size),
                std::memory_order_relaxed);
            old = std::move(value);
            // Overwriting a dead entry is a reclaim plus a fresh link, so
            // the stats match the locked engine's erase-then-insert for the
            // same traffic (add-over-dead is the one store that proves
            // liveness).
            shard.expired_reclaims.fetch_add(1, std::memory_order_relaxed);
            shard.total_items.fetch_add(1, std::memory_order_relaxed);
          });
      if (live) {
        return StoreResult::kNotStored;
      }
      if (replaced) {
        return StoreResult::kStored;
      }
      if (shard.table.Insert(hash, op.key, std::move(value))) {
        shard.bytes.fetch_add(new_charge, std::memory_order_relaxed);
        shard.bytes_wasted.fetch_add(new_waste, std::memory_order_relaxed);
        shard.total_items.fetch_add(1, std::memory_order_relaxed);
        if (track_eviction_) {
          shard.fifo.push_back(std::string(op.key));
        }
        *inserted = true;
        return StoreResult::kStored;
      }
      // Insert race: a concurrent lock-free add of the same key published
      // first (only possible on an uncapped cache, where adds skip the
      // store mutex). That add stored; this one did not.
      return StoreResult::kNotStored;
    }
    case StoreKind::kReplace:
    case StoreKind::kAppend:
    case StoreKind::kPrepend:
    case StoreKind::kCas:
      return op.kind == StoreKind::kReplace || op.kind == StoreKind::kCas
                 ? OverwriteCore(shard, hash, op, now)
                 : ConcatCore(shard, hash, op, now);
    case StoreKind::kDelete: {
      // A per-key conditional erase: the byte refund happens under the
      // key's stripe, and the eviction queue tolerates stale keys (the
      // sweep re-checks presence), so no shard-wide state is touched. A
      // dead (expired/flushed) entry is still physically erased, but
      // answers kNotFound and counts as a reclaim — memcached semantics
      // (delete of an expired key is a miss). The resize nudge rides the
      // caller's per-group nudge via *inserted (table membership changed).
      // Deletes answer kStored for "deleted" but must NOT count in `sets`
      // — the StoreMany counting loop special-cases them.
      const std::int64_t flush_at =
          shard.flush_at.load(std::memory_order_relaxed);
      bool was_live = false;
      const bool erased =
          shard.table.EraseIf(hash, op.key, [&](const CacheValue& value) {
            was_live = IsLive(value, flush_at, now);
            shard.RefundValue(op.key.size(), value);
            return true;
          });
      if (!erased) {
        return StoreResult::kNotFound;
      }
      *inserted = true;
      if (!was_live) {
        shard.expired_reclaims.fetch_add(1, std::memory_order_relaxed);
        return StoreResult::kNotFound;
      }
      return StoreResult::kStored;
    }
  }
  return StoreResult::kNotStored;  // unreachable: all kinds handled above
}

void RpEngine::StoreMany(const StoreOp* ops, std::size_t count,
                         StoreResult* results) {
  // Hash every key exactly once up front; the shard index derives from the
  // hash, mirroring GetManyScratch (and batches up to kInlineOps — the
  // largest burst the connection collects — stay off the heap).
  constexpr std::size_t kInlineOps = 64;
  std::size_t inline_hashes[kInlineOps];
  unsigned char inline_done[kInlineOps];
  unsigned char inline_combined[kInlineOps];
  std::vector<std::size_t> heap_hashes;
  std::vector<unsigned char> heap_done;
  std::vector<unsigned char> heap_combined;
  std::size_t* hashes = inline_hashes;
  unsigned char* done = inline_done;
  unsigned char* combined = inline_combined;
  if (count > kInlineOps) {
    heap_hashes.resize(count);
    heap_done.resize(count);
    heap_combined.resize(count);
    hashes = heap_hashes.data();
    done = heap_done.data();
    combined = heap_combined.data();
  }
  for (std::size_t i = 0; i < count; ++i) {
    hashes[i] = Hasher{}(ops[i].key);
    done[i] = 0;
    combined[i] = 0;
  }

  // Op combining: a SET whose NEXT op on the same key within this batch is
  // also a SET is dead work — nothing can observe its value before the
  // later SET overwrites it, because the batch executes under one
  // store-mutex section in request order. Mark it combined: it answers
  // STORED and counts in `sets` (wire semantics identical to per-op
  // execution) but skips the allocation, the table publish and its
  // eviction sweep; the surviving SET performs the one real insert, so
  // total_items and the byte gauge land exactly where per-op execution
  // would leave them. Any intervening op on the key (add, append, cas,
  // delete, ...) disqualifies the pair — its result could depend on the
  // earlier SET having landed. Always on: the scan is a few compares per
  // op, and a pipelined burst that rewrites a key saves a whole publish.
  for (std::size_t j = 0; j + 1 < count; ++j) {
    if (ops[j].kind != StoreKind::kSet) {
      continue;
    }
    for (std::size_t k = j + 1; k < count; ++k) {
      if (hashes[k] != hashes[j] || ops[k].key != ops[j].key) {
        continue;
      }
      if (ops[k].kind == StoreKind::kSet) {
        combined[j] = 1;
      }
      break;  // the first later op on the key decides
    }
  }

  const std::int64_t now = NowSeconds();
  for (std::size_t i = 0; i < count; ++i) {
    if (done[i] != 0) {
      continue;  // already executed as part of an earlier shard group
    }
    const std::size_t shard_index = ShardIndexForHash(hashes[i]);
    Shard& shard = *shards_[shard_index];

    // Execute the group in request order under AT MOST ONE store-mutex
    // acquisition, stripe locks nested under it. Capped caches take it so
    // the gauge check and eviction sweep are atomic against each publish;
    // uncapped caches (no eviction bookkeeping at all) take none: the
    // insert-or-assign is stripe-atomic, every gauge moves by fetch-add
    // deltas, and there is no FIFO state to guard. Per-op eviction is
    // preserved and the counters are batched.
    std::uint64_t stored = 0;
    std::uint64_t combines = 0;
    bool inserted_any = false;
    {
      std::unique_lock<StoreMutex> lock(shard.store_mutex, std::defer_lock);
      if (track_eviction_) {
        lock.lock();
      }
      for (std::size_t j = i; j < count; ++j) {
        if (done[j] != 0 || ShardIndexForHash(hashes[j]) != shard_index) {
          continue;
        }
        done[j] = 1;
        if (combined[j] != 0) {
          // Coalesced into the batch's next SET of the same key: STORED on
          // the wire, zero table/allocator/eviction work here.
          results[j] = StoreResult::kStored;
          ++stored;
          ++combines;
          continue;
        }
        if (track_eviction_ && ops[j].kind == StoreKind::kSet) {
          // A SET always stores, so make room for its whole charge before
          // publishing: the new value exists beside the old one until a
          // grace period (memcached, too, allocates the new item before
          // unlinking the old), and the byte gauge never exceeds the cap.
          // Its own key is not a victim. Other kinds may not store, so
          // they only evict after publishing.
          EvictLocked(shard,
                      ops[j].key.size() +
                          shard.slab.FootprintFor(ops[j].data.size()) +
                          kItemOverheadBytes,
                      ops[j].key);
        }
        bool inserted = false;
        results[j] = StoreOneLocked(shard, core::Prehashed{hashes[j]}, ops[j],
                                    now, &inserted);
        // kStored from a kDelete means "deleted": no new bytes to evict
        // for, and deletes never count in `sets` (as on the locked
        // engine).
        if (results[j] == StoreResult::kStored &&
            ops[j].kind != StoreKind::kDelete) {
          ++stored;
          EvictLocked(shard);
        }
        inserted_any = inserted_any || inserted;
      }
    }
    if (stored != 0) {
      shard.sets.fetch_add(stored, std::memory_order_relaxed);
    }
    if (combines != 0) {
      shard.set_combines.fetch_add(combines, std::memory_order_relaxed);
    }
    if (inserted_any) {
      shard.resize_worker.Nudge();
    }
  }

  if (count >= 2) {
    store_batches_.fetch_add(1, std::memory_order_relaxed);
    store_batched_ops_.fetch_add(count, std::memory_order_relaxed);
  }
}

// INCR/DECR as one atomic per-key update: parse, bump and re-serialize
// inside the table's conditional clone-and-swing, under that key's stripe.
// A non-numeric or dead value aborts the update — nothing is published
// and nothing goes through reclamation. The predicate distinguishes
// dead (NOT_FOUND on the wire) from non-numeric (CLIENT_ERROR).
ArithResult RpEngine::Arith(const std::string& key, std::uint64_t delta,
                            bool increment) {
  const core::Prehashed hash{Hasher{}(key)};
  Shard& shard = ShardForHash(hash.value);
  const std::int64_t now = NowSeconds();
  const std::int64_t flush_at = shard.flush_at.load(std::memory_order_relaxed);
  const std::uint64_t cas = NextCas(shard);
  ArithStatus status = ArithStatus::kNotFound;  // stays if the key is absent
  std::uint64_t next = 0;
  std::size_t old_footprint = 0;  // captured from the original, not the clone
  std::size_t old_size = 0;
  shard.table.UpdateIf(
      hash, key,
      [&](const CacheValue& value) {
        if (!IsLive(value, flush_at, now)) {
          status = ArithStatus::kNotFound;
          return false;
        }
        std::uint64_t current = 0;
        if (!ParseUint64(value.data.view(), &current)) {
          status = ArithStatus::kNonNumeric;
          return false;
        }
        next = increment ? current + delta
                         : (current >= delta ? current - delta : 0);
        status = ArithStatus::kOk;
        old_footprint = value.data.footprint();
        old_size = value.data.size();
        return true;
      },
      [&](CacheValue& value) {
        char digits[20];
        auto [end, ec] = std::to_chars(digits, digits + sizeof(digits), next);
        (void)ec;  // a uint64 always fits 20 digits
        value.data.Assign(&shard.slab, std::string_view(
                                           digits,
                                           static_cast<std::size_t>(end - digits)));
        shard.RechargeValue(old_footprint, old_size, value);
        value.cas = cas;
      });
  if (status != ArithStatus::kOk) {
    return {status, 0};
  }
  // "9" -> "10" and friends grow the gauge too; the store mutex is taken
  // only when the shard is actually over budget.
  if (track_eviction_ && OverLimit(shard)) {
    std::lock_guard<StoreMutex> lock(shard.store_mutex);
    EvictLocked(shard);
  }
  return {ArithStatus::kOk, next};
}

ArithResult RpEngine::Incr(const std::string& key, std::uint64_t delta) {
  return Arith(key, delta, /*increment=*/true);
}

ArithResult RpEngine::Decr(const std::string& key, std::uint64_t delta) {
  return Arith(key, delta, /*increment=*/false);
}

// Dead entries count as absent (as for GET/ADD/REPLACE): touching one
// aborts, so TOUCH can never revive a logically-dead item under a racing
// ADD that already observed it dead.
bool RpEngine::Touch(const std::string& key, std::int64_t exptime) {
  const core::Prehashed hash{Hasher{}(key)};
  Shard& shard = ShardForHash(hash.value);
  const std::int64_t now = NowSeconds();
  const std::int64_t flush_at = shard.flush_at.load(std::memory_order_relaxed);
  return shard.table.UpdateIf(
      hash, key,
      [&](const CacheValue& value) { return IsLive(value, flush_at, now); },
      [&](CacheValue& value) {
        value.expire_at = ResolveExptime(exptime, now);
      });
}

// Flush fans out across shards. An immediate flush physically clears each
// shard under its store mutex (Clear syncs on every stripe, so all byte
// deltas from in-flight per-key updates land before the gauge resets). A
// delayed flush just arms each shard's deadline; items die logically when
// it passes and are reclaimed lazily (GET path, eviction sweep). The
// cleared nodes' slab chunks flow back through deferred reclamation —
// readers mid-section keep seeing valid data.
void RpEngine::FlushAll(std::int64_t delay_seconds) {
  const std::int64_t now = NowSeconds();
  if (delay_seconds > 0) {
    // The delay follows the protocol's exptime conventions (<= 30 days is
    // relative, larger is an absolute unix time) — which also keeps a
    // wire-supplied huge value from overflowing `now + delay`.
    const std::int64_t at = ResolveExptime(delay_seconds, now);
    for (auto& shard : shards_) {
      shard->flush_at.store(at, std::memory_order_relaxed);
    }
    return;
  }
  for (auto& shard : shards_) {
    std::lock_guard<StoreMutex> lock(shard->store_mutex);
    // Refund gauges per cleared node instead of resetting them: on an
    // uncapped cache, stores run lock-free past the store mutex, so a
    // concurrent SET that already passed its stripe may apply its charge
    // after this flush — an absolute reset would strand that delta
    // forever, while per-node refunds compose with it exactly.
    shard->table.Clear([&shard](const ItemKey& key, const CacheValue& value) {
      shard->RefundValue(key.size, value);
    });
    shard->fifo.clear();
    shard->flush_at.store(kNoFlush, std::memory_order_relaxed);
  }
}

// -- Maintenance plane ----------------------------------------------------
//
// One tick per shard, piggybacked on the shard's resize-worker wakeup (and
// runnable synchronously through RunMaintenanceTick), so it runs at the
// worker's poll cadence plus its rare out-of-band wakeups. The tick hosts
// slab automove and the expired-item crawl.

void RpEngine::RunMaintenanceTick(std::size_t shard_index) {
  MaintenanceTick(*shards_[shard_index]);
}

void RpEngine::MaintenanceTick(Shard& shard) {
  std::lock_guard<std::mutex> lock(shard.tick_mu);
  AutomoveTick(shard);
  CrawlerTick(shard);
}

void RpEngine::AutomoveTick(Shard& shard) {
  const std::size_t classes = shard.slab.ClassCount();
  if (classes == 0) {
    return;
  }
  if (shard.automove_seen.size() != classes) {
    shard.automove_seen.assign(classes, 0);
  }
  // Steering signal: the class whose exhaustion count grew most since the
  // last tick is the one starving NOW (cumulative counts would keep
  // chasing yesterday's pressure).
  std::size_t best = classes;
  std::uint64_t best_delta = 0;
  for (std::size_t cls = 0; cls < classes; ++cls) {
    const std::uint64_t total = shard.slab.ExhaustedByClass(cls);
    const std::uint64_t delta = total - shard.automove_seen[cls];
    shard.automove_seen[cls] = total;
    if (delta > best_delta) {
      best_delta = delta;
      best = cls;
    }
  }
  if (best < classes) {
    // At most one page per tick: a calcified arena recovers over a few
    // ticks instead of thrashing pages between two starving classes.
    shard.slab.TryReassignPage(best);
  }
}

void RpEngine::CrawlerTick(Shard& shard) {
  const std::int64_t now = NowSeconds();
  const std::int64_t flush_at = shard.flush_at.load(std::memory_order_relaxed);
  // Walk this tick's buckets collecting dead keys (key bytes copied out —
  // the node may be reclaimed the moment the section closes), then erase
  // them OUTSIDE the read section: EraseIf takes stripe locks, and a
  // resize holds all stripes while waiting for readers.
  const std::size_t walk =
      CrawlBudget(shard.table.BucketCount(), poll_interval_);
  std::vector<std::string> dead;
  const std::size_t begin = shard.crawl_cursor;
  const std::size_t buckets = shard.table.ForEachInBuckets(
      begin, walk, [&](const ItemKey& key, const CacheValue& value) {
        if (dead.size() < walk * kCrawlDeadPerBucket &&
            !IsLive(value, flush_at, now)) {
          dead.emplace_back(key.data, key.size);
        }
      });
  shard.crawl_cursor =
      begin % buckets + walk >= buckets ? 0 : begin % buckets + walk;
  for (const std::string& key : dead) {
    if (ReclaimDead(shard, core::Prehashed{Hasher{}(key)}, key)) {
      shard.crawler_reclaims.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

std::size_t RpEngine::ItemCount() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->table.Size();
  }
  return total;
}

std::size_t RpEngine::BucketCount() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->table.BucketCount();
  }
  return total;
}

std::size_t RpEngine::EvictionQueueDepth() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<StoreMutex> lock(shard->store_mutex);
    total += shard->fifo.size();
  }
  return total;
}

std::uint64_t RpEngine::ResizeWorkerWakeups() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->resize_worker.Wakeups();
  }
  return total;
}

std::uint64_t RpEngine::EvictionSweepPops() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<StoreMutex> lock(shard->store_mutex);
    total += shard->sweep_pops;
  }
  return total;
}

EngineStats RpEngine::Stats() const {
  EngineStats stats;
  stats.limit_maxbytes = config_.max_bytes;
  stats.store_batches = store_batches_.load(std::memory_order_relaxed);
  stats.store_batched_ops =
      store_batched_ops_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    stats.get_hits += shard->get_hits.load(std::memory_order_relaxed);
    stats.get_misses += shard->get_misses.load(std::memory_order_relaxed);
    stats.sets += shard->sets.load(std::memory_order_relaxed);
    stats.evictions += shard->evictions.load(std::memory_order_relaxed);
    stats.expired_reclaims +=
        shard->expired_reclaims.load(std::memory_order_relaxed);
    stats.total_items += shard->total_items.load(std::memory_order_relaxed);
    stats.bytes += shard->bytes.load(std::memory_order_relaxed);
    stats.bytes_wasted += shard->bytes_wasted.load(std::memory_order_relaxed);
    stats.items += shard->table.Size();
    stats.set_combines += shard->set_combines.load(std::memory_order_relaxed);
    stats.crawler_reclaims +=
        shard->crawler_reclaims.load(std::memory_order_relaxed);
    const SlabStats slab = shard->slab.Stats();
    stats.slab_reserved += slab.bytes_reserved;
    stats.slab_fallbacks += slab.fallback_allocs;
    stats.slab_pages_moved += slab.pages_moved;
    // The combined-item node slab is real reserved memory too; its arena
    // is uncapped, so fallbacks only ever come from node+key sizes beyond
    // its chunk_max (impossible through the protocol's 250-byte key cap).
    const SlabStats nodes = shard->node_slab.Stats();
    stats.slab_reserved += nodes.bytes_reserved;
    stats.slab_fallbacks += nodes.fallback_allocs;
    stats.slab_pages_moved += nodes.pages_moved;
  }
  // Reclaimer health is process-global (one RCU domain, one callback
  // queue): both engines report the same numbers by design.
  rcu::RcuCallbackQueue& reclaimer = rcu::Epoch::Callbacks();
  stats.reclaimer_pending = reclaimer.pending();
  stats.reclaimer_wakeups = reclaimer.wakeups();
  FillMetaCommandStats(&stats);
  return stats;
}

}  // namespace rp::memcache
