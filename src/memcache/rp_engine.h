// RpEngine: the paper's relativistic memcached port, sharded.
//
// The keyspace is partitioned into EngineConfig::shards independent shards
// (power of two). Each shard owns the whole engine column for its slice of
// the keyspace: an RpHashMap, a background ResizeWorker, a store mutex, a
// CLOCK eviction queue, a slab allocator for value payloads, byte
// accounting and stats counters. Keys route to shards by the high bits of
// the same mixed hash the table uses for buckets (low bits), so shard
// membership and bucket placement stay uncorrelated — and every request
// computes that hash exactly once, at the dispatch boundary, handing it
// down as a core::Prehashed token so no key is ever string-hashed twice
// (the one-hash invariant; see docs/ARCHITECTURE.md). SET-heavy traffic
// to different shards never contends on any lock; GETs stay wait-free
// everywhere.
//
// Within a shard, GET takes the fast path: a relativistic lookup copying
// the value out inside the read-side critical section — no lock, no shared
// write beyond relaxed per-item access stamps, each stored only when it
// changes. Per-key updates (DELETE, TOUCH,
// APPEND/PREPEND, INCR/DECR, REPLACE, CAS, expiry reclamation) go straight
// to the shard's table, whose striped writer locks serialize them per
// bucket; conditional forms (UpdateIf/EraseIf) make their check-then-act
// atomic under the key's stripe. Removed values are reclaimed via the
// deferred (call_rcu-style) policy so no update waits for a grace period.
// Every store enters through StoreMany. On a capped cache each shard group
// of a StoreMany serializes on the shard's store mutex (once per group),
// because eviction bookkeeping must change atomically with table
// membership; so do eviction and an immediate flush. An uncapped cache's
// stores take no engine lock at all. Resizes are off the writer path
// entirely: each table runs with auto_resize off and its shard's
// background ResizeWorker absorbs resize cost, kernel-rhashtable style.
//
// Value payloads live in per-shard slab chunks (src/memcache/slab.h), not
// per-item heap strings: a steady-state SET recycles a chunk instead of
// calling malloc, and the byte gauge charges the chunk's actual footprint
// (waste tracked as bytes_wasted) instead of a modelled constant — exact
// accounting against allocator overhead. Chunks are recycled strictly
// through value destruction inside nodes the DeferredReclaimer retires,
// so a reader inside an epoch section can never observe a reused chunk.
// A store never waits for a grace period. When a size class runs dry
// against the shard's arena (max_bytes / shards), the allocation falls
// back to an exact-size tracked heap block, charged to the byte gauge, so
// the cache keeps serving and the byte-cap sweep still bounds memory; the
// maintenance tick's slab automove then moves a page to the starving
// class.
#ifndef RP_MEMCACHE_RP_ENGINE_H_
#define RP_MEMCACHE_RP_ENGINE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/hash.h"
#include "src/memcache/engine.h"

namespace rp::memcache {

class RpEngine final : public CacheEngine {
 public:
  explicit RpEngine(EngineConfig config = {});
  ~RpEngine() override;

  bool Get(const std::string& key, StoredValue* out) override;
  // Batched multi-get: keys (string_views over the parsed request — the
  // whole lookup path is transparent, nothing is copied per key) are
  // hashed once, grouped by shard, and each shard's group executes inside
  // a single read-side critical section (one epoch enter/exit per group,
  // not per key). Hit values append to *scratch (results carry offsets —
  // realloc-safe) and per-item metadata (remaining TTL, prior last-access,
  // fetched-before) is captured for the meta t/l/h flags. Expired items
  // are reclaimed after every section has closed — reclamation takes
  // writer locks, which must never happen inside a read section (a resize
  // holding the stripes waits for readers). Every key answers from the
  // table inside its group's read section — one epoch enter/exit per
  // group, which tests pin.
  void GetManyScratch(const std::string_view* keys, std::size_t count,
                      ScratchGetResult* out, std::string* scratch) override;
  // Every store, singletons included: ops are hashed once up front and
  // grouped by shard; each shard group executes its ops in request order
  // under at most ONE store_mutex acquisition (none on an uncapped cache),
  // with one resize nudge and one batched `sets` update at the end. Never
  // waits for a grace period.
  void StoreMany(const StoreOp* ops, std::size_t count,
                 StoreResult* results) override;
  ArithResult Incr(const std::string& key, std::uint64_t delta) override;
  ArithResult Decr(const std::string& key, std::uint64_t delta) override;
  bool Touch(const std::string& key, std::int64_t exptime) override;
  using CacheEngine::FlushAll;
  void FlushAll(std::int64_t delay_seconds) override;

  std::size_t ItemCount() const override;
  EngineStats Stats() const override;
  const char* Name() const override { return "rp"; }

  // Shard geometry, exposed for the sharding tests and benches.
  std::size_t ShardCount() const { return shards_.size(); }
  std::size_t ShardIndex(const std::string& key) const;

  // Aggregate bucket count across shards; the underlying tables resize
  // automatically with load (resize-focused tests and benches).
  std::size_t BucketCount() const;

  // Total entries across the shards' eviction queues. Test hook for the
  // bounded-memory regression: an unlimited cache (max_items == 0 and
  // max_bytes == 0) must keep this at zero forever.
  std::size_t EvictionQueueDepth() const;

  // Total entries the eviction sweeps have popped off the shards' queues.
  // Test hook for the CLOCK bound: every requeue consumes a reference bit,
  // so pops stay within a small multiple of evictions plus reclaims.
  std::uint64_t EvictionSweepPops() const;

  // Runs one maintenance tick for `shard_index` synchronously on the
  // calling thread — exactly what the shard's resize worker runs every
  // poll. Test/bench hook: call this, and the automove step and the crawl
  // step have deterministically happened.
  void RunMaintenanceTick(std::size_t shard_index);

 private:
  struct Shard;

  // The engine's one string hash per request: computed at the dispatch
  // boundary, high bits route the shard, and the full value flows into the
  // table as a core::Prehashed token — no key is ever hashed twice.
  using Hasher = core::MixedHash<std::string>;

  std::size_t ShardIndexForHash(std::size_t hash) const {
    return (hash >> 32) & shard_mask_;
  }
  Shard& ShardForHash(std::size_t hash) const {
    return *shards_[ShardIndexForHash(hash)];
  }
  // True when this shard is over its item budget, or would be over its
  // byte budget with `incoming` more bytes charged.
  bool OverLimit(const Shard& shard, std::size_t incoming = 0) const;
  // Evicts until !OverLimit(shard, incoming), never evicting `keep`.
  // Caller must hold shard.store_mutex.
  void EvictLocked(Shard& shard, std::size_t incoming = 0,
                   std::string_view keep = {});
  // Erases `key` if (still) dead, refunding the gauge. Returns whether the
  // entry was actually reclaimed (the crawler counts its wins).
  bool ReclaimDead(Shard& shard, core::Prehashed hash, std::string_view key);
  ArithResult Arith(const std::string& key, std::uint64_t delta,
                    bool increment);

  // -- Maintenance plane (runs on each shard's resize-worker thread) ------

  // The per-shard tick: slab automove and a bounded expired-item crawl.
  void MaintenanceTick(Shard& shard);
  void AutomoveTick(Shard& shard);
  void CrawlerTick(Shard& shard);
  // Executes one store op inside StoreMany's group section (which holds
  // shard.store_mutex on a capped cache), value build included. Returns
  // the wire result; *inserted reports whether table membership changed
  // (the caller nudges the resize worker once per group).
  StoreResult StoreOneLocked(Shard& shard, core::Prehashed hash,
                             const StoreOp& op, std::int64_t now,
                             bool* inserted);
  // Publishes a fully built value for `key` (insert-or-assign + byte-gauge
  // and eviction bookkeeping), under StoreOneLocked's locking. Returns
  // true when a new key was inserted (vs overwritten).
  bool PublishValueLocked(Shard& shard, core::Prehashed hash,
                          std::string_view key, CacheValue&& value);
  // Update-path cores of StoreOneLocked: they touch only the table's
  // stripe locks (safe with or without the store mutex held) and do NOT
  // count `sets` or trigger eviction — StoreMany does. OverwriteCore runs
  // kReplace and kCas, ConcatCore kAppend and kPrepend.
  StoreResult OverwriteCore(Shard& shard, core::Prehashed hash,
                            const StoreOp& op, std::int64_t now);
  StoreResult ConcatCore(Shard& shard, core::Prehashed hash,
                         const StoreOp& op, std::int64_t now);
  // Next CAS value for an item stored in `shard`: per-shard counters
  // stepped by the shard count and salted by the shard index, so values
  // stay unique engine-wide without a single contended atomic.
  std::uint64_t NextCas(Shard& shard);

  const EngineConfig config_;
  // Per-shard budgets derived from config_ (0 = unlimited).
  std::size_t max_items_per_shard_ = 0;
  std::size_t max_bytes_per_shard_ = 0;
  // Whether inserts feed the eviction queue at all: an unlimited cache
  // skips recency tracking entirely so the queue cannot grow without
  // bound under set/delete churn.
  bool track_eviction_ = false;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t shard_mask_ = 0;
  // Batched-store observability (engine-wide; bumped once per StoreMany
  // call that actually batched).
  std::atomic<std::uint64_t> store_batches_{0};
  std::atomic<std::uint64_t> store_batched_ops_{0};
};

}  // namespace rp::memcache

#endif  // RP_MEMCACHE_RP_ENGINE_H_
