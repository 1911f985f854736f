// Cache-engine interface shared by the locked (default-memcached-like) and
// relativistic engines. The protocol server and the workload driver program
// against this interface, so the F5 reproduction swaps engines and nothing
// else.
#ifndef RP_MEMCACHE_ENGINE_H_
#define RP_MEMCACHE_ENGINE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/memcache/item.h"
#include "src/memcache/slab.h"

namespace rp::memcache {

enum class StoreResult {
  kStored,
  kNotStored,  // add on existing / replace on missing
  kExists,     // cas mismatch
  kNotFound,   // cas on missing key
};

// A std::mutex that counts this thread's acquisitions in thread-local
// storage — the store-path analogue of Epoch::ThreadReadSections(). Both
// engines guard their store bookkeeping with it, so tests can pin the
// one-lock-per-batch invariant ("a k-store shard group takes exactly one
// store-mutex acquisition") by delta, with zero shared-state cost on the
// hot path (the counter lives on the acquiring thread's own cache line).
class StoreMutex {
 public:
  void lock() {
    ++tls_acquisitions_;
    mu_.lock();
  }
  void unlock() { mu_.unlock(); }
  bool try_lock() {
    if (!mu_.try_lock()) {
      return false;
    }
    ++tls_acquisitions_;
    return true;
  }

  // Store-mutex acquisitions performed by the calling thread, across every
  // StoreMutex instance in the process.
  static std::uint64_t ThreadAcquisitions() { return tls_acquisitions_; }

 private:
  std::mutex mu_;
  static inline thread_local std::uint64_t tls_acquisitions_ = 0;
};

// One element of a batched store (StoreMany below). All six storage
// commands batch — not just SET — so a pipelined burst of mixed stores
// still executes as one shard group per shard. Views point into the parsed
// requests; they must stay valid for the duration of the StoreMany call.
// kDelete lets a pipelined run of meta deletes (`md ... q`) ride the same
// shard-grouped batch; it carries no data and maps kStored → deleted,
// kNotFound → missing.
enum class StoreKind : std::uint8_t {
  kSet,
  kAdd,
  kReplace,
  kAppend,
  kPrepend,
  kCas,
  kDelete,
};

struct StoreOp {
  StoreKind kind = StoreKind::kSet;
  std::string_view key;
  std::string_view data;
  std::uint32_t flags = 0;
  std::int64_t exptime = 0;
  std::uint64_t cas = 0;  // kCas only
};

struct EngineConfig {
  std::size_t initial_buckets = 1024;
  // Item cap; inserting beyond it evicts (approximately) least-recently
  // used items. 0 = unlimited.
  std::size_t max_items = 0;
  // Byte cap over the charged size of every resident item (key + actual
  // slab-chunk footprint + kItemOverheadBytes). 0 = unlimited. Sharded
  // engines split the budget evenly (max_bytes / shards) and evict per
  // shard; the same split sizes each shard's slab arena.
  std::size_t max_bytes = 0;
  // Keyspace partitions for engines that shard their cache state (rounded
  // up to a power of two, clamped to [1, 4096]; 0 and 1 both mean
  // unsharded). Each shard owns
  // its own table, store mutex, eviction queue and stats, so writers to
  // different shards never contend. Engines modelling a single global
  // cache lock (LockedEngine) ignore this.
  std::size_t shards = 8;
  // Slab size-class tuning (see src/memcache/slab.h): payload chunks grow
  // geometrically by `slab_growth` (memcached -f) up to `slab_chunk_max`
  // bytes; larger values (and everything, when slab_chunk_max = 0) take
  // exact-size tracked heap allocations — the per-item-malloc baseline.
  double slab_growth = 1.25;
  std::size_t slab_chunk_max = 8 * 1024;
};

// The slab geometry an engine derives from its config for each of
// `shard_count` shards (LockedEngine passes 1). Exposed so tests and
// capacity planning can predict exact charges via SlabFootprintFor.
inline SlabPolicy SlabPolicyFor(const EngineConfig& config,
                                std::size_t shard_count) {
  SlabPolicy policy;
  policy.growth = config.slab_growth;
  policy.chunk_max = config.slab_chunk_max;
  if (config.max_bytes != 0 && shard_count != 0) {
    policy.arena_bytes =
        (config.max_bytes + shard_count - 1) / shard_count;
  }
  return policy;
}

// What the byte gauge charges for a key/data pair stored under `config`
// (deterministic: slab class capacities depend only on the policy, not on
// shard placement). The prediction half of the exact-accounting tests.
inline std::size_t ModelChargedBytes(const EngineConfig& config,
                                     std::size_t key_size,
                                     std::size_t data_size) {
  return key_size + SlabFootprintFor(SlabPolicyFor(config, 1), data_size) +
         kItemOverheadBytes;
}

// Outcome of incr/decr. The protocol distinguishes a missing key
// (NOT_FOUND on the wire) from a present-but-non-numeric value
// (CLIENT_ERROR), so the engine must report which one happened rather
// than collapsing both into "no result".
enum class ArithStatus {
  kOk,
  kNotFound,    // key absent or expired
  kNonNumeric,  // value exists but is not an unsigned decimal integer
};

struct ArithResult {
  ArithStatus status = ArithStatus::kNotFound;
  std::uint64_t value = 0;  // post-op value, valid only when status == kOk

  bool ok() const { return status == ArithStatus::kOk; }
};

// Snapshot of engine counters. Sharded engines aggregate across shards at
// snapshot time, so the totals are consistent-enough gauges (memcached
// semantics), not a linearizable cut.
struct EngineStats {
  std::uint64_t get_hits = 0;
  std::uint64_t get_misses = 0;
  std::uint64_t sets = 0;
  std::uint64_t evictions = 0;
  std::uint64_t expired_reclaims = 0;
  std::uint64_t items = 0;
  // Cumulative count of items ever linked into the cache (new keys).
  std::uint64_t total_items = 0;
  // Charged bytes currently resident: key + actual chunk footprint +
  // overhead per item. Exact against the allocator, not a model.
  std::uint64_t bytes = 0;
  // Share of `bytes` that is slab-class internal fragmentation (chunk
  // footprint minus stored payload bytes), summed over resident items.
  std::uint64_t bytes_wasted = 0;
  // Slab page memory currently carved from the heap, across shards.
  std::uint64_t slab_reserved = 0;
  // Cumulative allocations served by the exact-size heap fallback (pool
  // exhausted or value larger than slab_chunk_max).
  std::uint64_t slab_fallbacks = 0;
  // Configured max_bytes (0 = unlimited); the `stats` wire field.
  std::uint64_t limit_maxbytes = 0;
  // Batched-store observability: StoreMany calls that actually batched
  // (2+ ops), and the ops they carried. Singleton stores touch neither, so
  // batching effectiveness is store_batched_ops / cmd_set.
  std::uint64_t store_batches = 0;
  std::uint64_t store_batched_ops = 0;
  // -- Maintenance plane (PR 7). All zero on engines without one. ---------
  // Always 0: no engine has a front cache. Kept only because perfbench
  // reads it; it goes at the next change to the benchmark.
  std::uint64_t front_cache_hits = 0;
  // SETs coalesced away by store-batch op combining (still counted in
  // `sets`; the combined op's effect survives via the batch's last SET).
  std::uint64_t set_combines = 0;
  // Slab pages reassigned across size classes by automove.
  std::uint64_t slab_pages_moved = 0;
  // Dead (expired/flushed) items reclaimed by the maintenance crawler
  // rather than by a GET tripping over them (also in expired_reclaims).
  std::uint64_t crawler_reclaims = 0;
  // Deferred-reclamation queue health (process-global RCU domain, so both
  // engines report the same numbers): callbacks currently pending and
  // batch wakeups of the reclaimer thread.
  std::uint64_t reclaimer_pending = 0;
  std::uint64_t reclaimer_wakeups = 0;
  // Always 0: no maintenance tick drains the queue inline; the reclaimer
  // thread runs every batch. Kept only because perfbench reads it; it is
  // not on the stats wire and goes at the next change to the benchmark.
  std::uint64_t reclaimer_inline_pumps = 0;
  // -- Meta protocol (PR 9). Commands executed per meta opcode; counted at
  // the dispatch layer (ExecuteRequest / the batched meta paths), stored
  // on the engine so `stats` reports them per engine like everything else.
  std::uint64_t cmd_mg = 0;
  std::uint64_t cmd_ms = 0;
  std::uint64_t cmd_md = 0;
  std::uint64_t cmd_ma = 0;
};

// One slot of a multi-get answer: out[i] describes keys[i] (miss = !hit).
struct MultiGetResult {
  StoredValue value;
  bool hit = false;
};

class CacheEngine {
 public:
  virtual ~CacheEngine() = default;

  // Copies the live value for `key` into *out. Expired items count as
  // misses (and are lazily reclaimed).
  virtual bool Get(const std::string& key, StoredValue* out) = 0;

  // Batched multi-get, the one multi-key read path: keys[0..count) arrive
  // as string_views over the parsed request (the stack's hashers and table
  // lookups are transparent end-to-end), hit values are appended to
  // *scratch and referenced by offset in out[i], so no per-hit std::string
  // is ever allocated. Semantics match per-key Get — per-key hit/miss
  // stats, lazy reclamation of dead items — plus the meta-flag metadata
  // (expire_at, prior last_used, prior fetched bit) each hit carries. The
  // relativistic engine runs each shard's keys inside ONE read-side
  // critical section; the locked engine takes its global lock once.
  virtual void GetManyScratch(const std::string_view* keys, std::size_t count,
                              ScratchGetResult* out, std::string* scratch) = 0;

  // Owning-copy form of GetManyScratch (one StoredValue per hit). Nothing
  // on the wire path calls it; it stays for tests and because perfbench's
  // TracingEngine overrides it.
  virtual void GetMany(const std::string_view* keys, std::size_t count,
                       MultiGetResult* out) {
    std::vector<ScratchGetResult> slots(count);
    std::string scratch;
    GetManyScratch(keys, count, slots.data(), &scratch);
    for (std::size_t i = 0; i < count; ++i) {
      const ScratchGetResult& slot = slots[i];
      out[i].hit = slot.hit;
      if (!slot.hit) {
        continue;
      }
      StoredValue& value = out[i].value;
      value.data.assign(scratch, slot.data_offset, slot.data_size);
      value.flags = slot.flags;
      value.cas = slot.cas;
      value.expire_at = slot.expire_at;
      value.last_used = slot.last_used;
      value.fetched = slot.fetched;
    }
  }

  // Batched stores, the one store path: executes ops[0..count) in order,
  // filling results[0..count). Payloads are string_views over the parsed
  // request; engines copy them straight into a slab chunk, so no owning
  // std::string is ever allocated for the data block. The relativistic
  // engine groups ops by shard and pays one store-mutex acquisition and
  // one resize nudge per shard group, and never waits for a grace period;
  // the locked engine takes its global mutex once for the whole batch. A
  // one-op call is an ordinary store: batch stats count only 2+ ops.
  virtual void StoreMany(const StoreOp* ops, std::size_t count,
                         StoreResult* results) = 0;

  // Per-op conveniences: each builds one StoreOp and runs StoreMany on it.
  // Virtual only because perfbench's TracingEngine overrides them; the
  // engines themselves implement StoreMany alone.
  virtual StoreResult Set(const std::string& key, std::string_view data,
                          std::uint32_t flags, std::int64_t exptime) {
    return StoreOne({StoreKind::kSet, key, data, flags, exptime, 0});
  }
  virtual StoreResult Add(const std::string& key, std::string_view data,
                          std::uint32_t flags, std::int64_t exptime) {
    return StoreOne({StoreKind::kAdd, key, data, flags, exptime, 0});
  }
  virtual StoreResult Replace(const std::string& key, std::string_view data,
                              std::uint32_t flags, std::int64_t exptime) {
    return StoreOne({StoreKind::kReplace, key, data, flags, exptime, 0});
  }
  virtual StoreResult Append(const std::string& key, std::string_view data) {
    return StoreOne({StoreKind::kAppend, key, data, 0, 0, 0});
  }
  virtual StoreResult Prepend(const std::string& key, std::string_view data) {
    return StoreOne({StoreKind::kPrepend, key, data, 0, 0, 0});
  }
  virtual StoreResult CheckAndSet(const std::string& key, std::string_view data,
                                  std::uint32_t flags, std::int64_t exptime,
                                  std::uint64_t expected_cas) {
    return StoreOne(
        {StoreKind::kCas, key, data, flags, exptime, expected_cas});
  }
  // True when a live item was deleted. A dead (expired/flushed) entry is
  // still reclaimed but answers false, as memcached's delete does.
  virtual bool Delete(const std::string& key) {
    return StoreOne({StoreKind::kDelete, key, {}, 0, 0, 0}) ==
           StoreResult::kStored;
  }

  // Returns the post-op value on kOk; distinguishes a missing/expired key
  // (kNotFound) from a non-numeric value (kNonNumeric). Decr clamps at
  // zero (protocol rule).
  virtual ArithResult Incr(const std::string& key, std::uint64_t delta) = 0;
  virtual ArithResult Decr(const std::string& key, std::uint64_t delta) = 0;

  virtual bool Touch(const std::string& key, std::int64_t exptime) = 0;

  // flush_all [delay]: delay <= 0 drops everything immediately; delay > 0
  // arms a deadline (exptime conventions: <= 30 days means `delay` seconds
  // out, larger is an absolute unix time), after which every item stored
  // before the deadline is logically expired (lazily reclaimed). Items
  // stored at or after the deadline survive.
  virtual void FlushAll(std::int64_t delay_seconds) = 0;
  void FlushAll() { FlushAll(0); }

  virtual std::size_t ItemCount() const = 0;
  virtual EngineStats Stats() const = 0;
  virtual const char* Name() const = 0;

  // -- Meta-command accounting (`stats` fields cmd_mg/ms/md/ma) -----------
  // Bumped by the dispatch layer (which knows the wire opcode; the engine
  // store paths only see StoreOps) and folded into EngineStats by the
  // engines' Stats() via FillMetaCommandStats. Lives on the base so both
  // engines share one implementation and the counters survive engine-
  // agnostic call sites like the workload driver.
  enum class MetaCmd { kGet, kSet, kDelete, kArith };
  void CountMetaCommand(MetaCmd cmd, std::uint64_t n = 1) {
    meta_cmds_[static_cast<std::size_t>(cmd)].fetch_add(
        n, std::memory_order_relaxed);
  }

 protected:
  void FillMetaCommandStats(EngineStats* stats) const {
    stats->cmd_mg = meta_cmds_[0].load(std::memory_order_relaxed);
    stats->cmd_ms = meta_cmds_[1].load(std::memory_order_relaxed);
    stats->cmd_md = meta_cmds_[2].load(std::memory_order_relaxed);
    stats->cmd_ma = meta_cmds_[3].load(std::memory_order_relaxed);
  }

 private:
  StoreResult StoreOne(const StoreOp& op) {
    StoreResult result;
    StoreMany(&op, 1, &result);
    return result;
  }

  std::atomic<std::uint64_t> meta_cmds_[4] = {};
};

}  // namespace rp::memcache

#endif  // RP_MEMCACHE_ENGINE_H_
