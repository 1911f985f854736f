// LockedEngine: models default memcached's global cache lock.
//
// Every operation — including GET — acquires one process-wide mutex, mirrors
// memcached 1.4's cache_lock around assoc/LRU state. This is the "default"
// series in the F5 figure: GET throughput saturates as soon as the lock does.
// Exact LRU is maintained (GET moves the item to MRU), which is precisely
// the shared-state write that forces the global lock in real memcached.
//
// Payloads use the same slab allocator (one arena — this engine models a
// single global cache, so `shards` is ignored) and the same exact byte
// accounting as the RP engine, keeping the fig5 contrast like-for-like.
// Because everything here runs under the global lock, freed chunks recycle
// immediately: the class-exhaustion eviction loop can genuinely run until
// a chunk comes back, unlike the RP engine's deferred-reclaim dance.
#ifndef RP_MEMCACHE_LOCKED_ENGINE_H_
#define RP_MEMCACHE_LOCKED_ENGINE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "src/core/hash.h"
#include "src/memcache/engine.h"
#include "src/memcache/slab.h"

namespace rp::memcache {

class LockedEngine final : public CacheEngine {
 public:
  explicit LockedEngine(EngineConfig config = {});
  ~LockedEngine() override = default;

  // Every GET, a lone key included, under ONE mutex acquisition for the
  // whole batch (the global-lock analogue of the RP engine's
  // one-read-section-per-shard-group batching), so the fig5 multi-get
  // contrast compares batching against batching. Keys are string_views
  // probed via the map's transparent hasher, and hit values append to
  // *scratch — no per-key or per-hit copies here either.
  void GetManyScratch(const std::string_view* keys, std::size_t count,
                      ScratchGetResult* out, std::string* scratch) override;
  // Every store, singletons included, under ONE mutex acquisition for the
  // whole call — the symmetric counterpart of the RP engine's
  // one-lock-per-shard-group batching, so the fig5 pipelined-SET contrast
  // compares batching against batching. Keys are probed as string_views
  // via the map's transparent hasher; an owning std::string materializes
  // only when a new key is linked.
  void StoreMany(const StoreOp* ops, std::size_t count,
                 StoreResult* results) override;
  ArithResult Incr(const std::string& key, std::uint64_t delta) override;
  ArithResult Decr(const std::string& key, std::uint64_t delta) override;
  bool Touch(const std::string& key, std::int64_t exptime) override;
  using CacheEngine::FlushAll;
  void FlushAll(std::int64_t delay_seconds) override;

  std::size_t ItemCount() const override;
  EngineStats Stats() const override;
  const char* Name() const override { return "locked"; }

 private:
  struct Entry {
    CacheValue value;
    std::list<std::string>::iterator lru_it;
  };

  // Same hash function as the RP stack (FNV-1a + Mix64) so the fig5
  // baseline pays like-for-like hash cost: one string hash per container
  // probe instead of libstdc++'s out-of-line std::hash. Transparent
  // hasher + comparator enable heterogeneous (string_view) finds for the
  // multi-get path.
  using Map = std::unordered_map<std::string, Entry,
                                 core::MixedHash<std::string>, std::equal_to<>>;

  // All helpers require mutex_ held. Keys are string_views: the map's
  // transparent hasher probes them without an owning copy.
  Map::iterator FindLiveLocked(std::string_view key, std::int64_t now);
  void TouchLruLocked(Map::iterator it);
  void EraseLocked(Map::iterator it);
  void StoreLocked(std::string_view key, std::string_view data,
                   std::uint32_t flags, std::int64_t exptime);
  // Per-kind store cores run by StoreMany: replace and cas (kNotStored /
  // kNotFound on a miss, kExists on a cas mismatch), append and prepend.
  StoreResult OverwriteOpLocked(const StoreOp& op, std::int64_t now);
  StoreResult ConcatOpLocked(const StoreOp& op, std::int64_t now);
  // Overwrite through an iterator the caller already holds (from
  // FindLiveLocked): replace/cas reuse their lookup instead of paying a
  // second find — the one-hash rule applied to the locked baseline.
  void StoreAtLocked(Map::iterator it, std::string_view data,
                     std::uint32_t flags, std::int64_t exptime);
  void EvictIfNeededLocked();
  // Class-exhaustion eviction: when the slab pool for `data_size` is dry,
  // evicts LRU victims until a chunk is available (frees are immediate
  // under the global lock) or the cache is empty. `keep`, when set, names
  // an item the caller holds an iterator to (spliced to MRU first); the
  // sweep stops rather than evict it.
  void EvictForChunkLocked(std::size_t data_size,
                           const std::string* keep = nullptr);
  // Gauge bookkeeping around a value mutation (charge delta + waste).
  void RechargeLocked(std::size_t old_footprint, std::size_t old_size,
                      const CacheValue& value);
  ArithResult ArithLocked(const std::string& key, std::uint64_t delta,
                          bool increment);

  const EngineConfig config_;
  // StoreMutex (a counting std::mutex) so tests can pin StoreMany's
  // one-acquisition-per-batch promise on this engine too.
  mutable StoreMutex mutex_;
  // Declared before map_ so chunks freed by the map's destruction land in
  // a live allocator.
  SlabAllocator slab_;
  Map map_;
  std::list<std::string> lru_;  // front = MRU, back = LRU victim
  std::uint64_t next_cas_ = 1;
  // Byte-accurate accounting, same charge formula as the RP engine (key +
  // actual chunk footprint + overhead) so the fig5 baseline stays
  // comparable. Guarded by mutex_ like everything else here — this engine
  // models the global cache lock, sharding included.
  std::uint64_t bytes_ = 0;
  std::uint64_t bytes_wasted_ = 0;
  // flush_all deadline (kNoFlush = none pending); items stored before it
  // are logically expired once it passes.
  std::int64_t flush_at_ = kNoFlush;
  EngineStats stats_;
};

}  // namespace rp::memcache

#endif  // RP_MEMCACHE_LOCKED_ENGINE_H_
