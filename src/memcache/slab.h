// Per-shard slab allocation for cache payloads (memcached's slab classes).
//
// Why: the engines previously heap-allocated a std::string per stored value
// — one malloc/free round trip per SET on the hottest write path, and a
// byte gauge that charged a *modelled* key+data+64 constant rather than
// what the allocator actually handed out. A slab allocator kills both: it
// carves geometric size-class chunks out of large pages owned by the
// shard, so a steady-state SET recycles a chunk instead of calling the
// heap, and the chunk size is a known quantity the byte gauge can charge
// exactly (internal fragmentation included, reported as `bytes_wasted`).
//
// Reclamation discipline (the part memcached does not have to solve): the
// relativistic engine's readers copy values inside an epoch read-side
// critical section with no locks held, so a chunk must never be recycled
// while a reader may still dereference it. Chunk lifetime is therefore
// tied to value lifetime: a SlabBuffer frees its chunk only from its
// destructor, and the RP engine's values die inside table nodes retired
// through the DeferredReclaimer — i.e. strictly after a grace period.
// A freed chunk re-enters the free list only once no read-side critical
// section that could have observed it remains open. Buffers that were
// never published (clones being built under a stripe lock) may free
// immediately; nobody else ever saw them.
//
// Exhaustion policy: TryAllocate returns nullptr when a size class is dry
// and the arena cap (EngineConfig::max_bytes / shards) forbids another
// page. Allocate() then falls back to a tracked exact-size heap
// allocation, so the cache keeps serving; fallbacks are counted and still
// charged exactly, and the engine's byte-cap sweep keeps total memory
// bounded. The RP engine never waits for retired chunks to come back (that
// takes a grace period); slab automove later moves a free page to the
// starving class. Values larger than `chunk_max` always take the fallback
// path (memcached similarly special-cases large items).
#ifndef RP_MEMCACHE_SLAB_H_
#define RP_MEMCACHE_SLAB_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <string_view>
#include <vector>

namespace rp::memcache {

// Size-class geometry and arena budget. The defaults mirror memcached's
// shape: classes grow geometrically (`growth`, memcached -f) from
// `chunk_min` up to `chunk_max`, pages of `page_bytes` are carved into
// chunks of one class, and `arena_bytes` caps total page memory
// (0 = uncapped). `chunk_max = 0` disables pooling entirely: every
// allocation is an exact-size tracked heap block — the per-item-malloc
// baseline the abl12 bench compares against.
struct SlabPolicy {
  double growth = 1.25;
  std::size_t chunk_min = 16;
  std::size_t chunk_max = 8 * 1024;
  std::size_t page_bytes = 64 * 1024;
  std::size_t arena_bytes = 0;
};

// Gauges and counters an allocator exposes to the engine `stats` plumbing.
struct SlabStats {
  std::uint64_t bytes_reserved = 0;   // page bytes carved from the heap
  std::uint64_t chunks_in_use = 0;    // slab chunks currently handed out
  std::uint64_t fallback_bytes = 0;   // live tracked heap-fallback bytes
  std::uint64_t fallback_allocs = 0;  // cumulative fallback allocations
  std::uint64_t class_exhausted = 0;  // cumulative dry-pool TryAllocate calls
  std::uint64_t pages_moved = 0;      // pages reassigned across classes
};

// Every allocation (slab chunk or heap fallback) is preceded by a 16-byte
// header recording its owner and capacity, so freeing and footprint
// queries need only the payload pointer — values carry no allocator back
// reference of their own.
class SlabAllocator {
 public:
  static constexpr std::size_t kHeaderBytes = 16;
  static constexpr std::uint32_t kFallbackClass = 0xFFFFFFFFu;
  // Marks a buffer embedded inside ANOTHER allocation (the combined item
  // layout places value bytes in the trailing region of the table node's
  // chunk). Footprint/capacity queries work off the header as usual;
  // Free() is a no-op — the enclosing allocation owns the bytes and is
  // freed as a whole.
  static constexpr std::uint32_t kEmbeddedClass = 0xFFFFFFFEu;
  // Chunk capacities are 8-byte multiples so every chunk start (and the
  // intrusive free-list pointer stored in the payload) stays aligned.
  static constexpr std::size_t kChunkAlign = 8;

  // The 16 bytes preceding every payload. `owner` is null for untracked
  // heap blocks; `cls` is kFallbackClass for any non-pooled allocation.
  struct Header {
    SlabAllocator* owner;
    std::uint32_t capacity;
    std::uint32_t cls;
  };

  static Header* HeaderOf(char* payload) {
    return reinterpret_cast<Header*>(payload - kHeaderBytes);
  }
  static const Header* HeaderOf(const char* payload) {
    return reinterpret_cast<const Header*>(payload - kHeaderBytes);
  }

  // Stamps `payload` (a region inside another allocation, preceded by
  // kHeaderBytes of reserved space) as an embedded sub-buffer of capacity
  // `capacity`. Footprint/capacity queries behave like a pooled chunk;
  // Free() on it is a no-op. `owner` is recorded so copies of the buffer
  // (which allocate a chunk of their own) draw from the same pool and
  // land in the same size class — byte accounting stays history-free.
  static void StampEmbedded(char* payload, std::size_t capacity,
                            SlabAllocator* owner) {
    *HeaderOf(payload) =
        Header{owner, static_cast<std::uint32_t>(capacity), kEmbeddedClass};
  }

  explicit SlabAllocator(SlabPolicy policy = {});
  ~SlabAllocator();

  SlabAllocator(const SlabAllocator&) = delete;
  SlabAllocator& operator=(const SlabAllocator&) = delete;

  // Slab-pool-only allocation: returns nullptr when `size` has no pooled
  // class (pooling disabled or size > chunk_max) or the class is dry and
  // the arena cap forbids another page. Never touches the heap fallback.
  char* TryAllocate(std::size_t size);

  // TryAllocate, falling back to a tracked exact-size heap allocation so
  // the cache keeps serving under pool exhaustion. size == 0 returns
  // nullptr (empty values own no chunk).
  char* Allocate(std::size_t size);

  // Heap allocation with a null-owner header, for buffers that live
  // without an allocator (default-constructed values in tests).
  static char* AllocateUntracked(std::size_t size);

  // Returns the allocation behind `payload` to its owner: slab chunks
  // re-enter their class free list, fallbacks go back to the heap. The
  // caller must guarantee no concurrent reader can still dereference the
  // payload (see the reclamation discipline above). nullptr is a no-op.
  static void Free(char* payload);

  // Total heap footprint of the allocation behind `payload` (header +
  // chunk capacity); what byte accounting charges. 0 for nullptr.
  // Inline header read: the store path queries this several times per op.
  static std::size_t FootprintOf(const char* payload) {
    return payload == nullptr ? 0 : kHeaderBytes + HeaderOf(payload)->capacity;
  }

  // Usable capacity behind `payload` (0 for nullptr).
  static std::size_t CapacityOf(const char* payload) {
    return payload == nullptr ? 0 : HeaderOf(payload)->capacity;
  }

  static SlabAllocator* OwnerOf(const char* payload) {
    return payload == nullptr ? nullptr : HeaderOf(payload)->owner;
  }

  // True when an immediate TryAllocate(size) could succeed (free chunk or
  // arena headroom for a page) — the engine's eviction trigger. Sizes the
  // pool does not manage (0, oversize, pooling disabled) report true:
  // eviction cannot help the fallback path.
  bool HasAvailable(std::size_t size) const;

  // True when the arena has carved at least one chunk of `size`'s class.
  // Test hook: tells a class that is dry with chunks in use from one the
  // arena never carved.
  bool HasChunksOf(std::size_t size) const;

  // Deterministic footprint an Allocate(size) of this policy produces —
  // identical across allocators with the same policy, which keeps byte
  // accounting comparable across shard counts and engines. Matches
  // FootprintOf on the returned payload.
  std::size_t FootprintFor(std::size_t size) const;

  std::size_t ClassCount() const { return class_capacity_.size(); }
  std::size_t ClassCapacity(std::size_t index) const {
    return class_capacity_[index];
  }
  const SlabPolicy& policy() const { return policy_; }

  SlabStats Stats() const;

  // -- Slab automove (maintenance plane) -----------------------------------
  //
  // Pages are carved wholly into one class and normally stay there for the
  // allocator's lifetime — which calcifies the arena: a workload shift
  // leaves the old hot class hoarding pages while the new one burns heap
  // fallbacks (the PR 5 wire-churn experiment measured exactly this). The
  // maintenance tick undoes it: when a class keeps reporting exhaustion
  // while another class owns a page with every chunk free, the tick moves
  // that page across.

  // Cumulative TryAllocate exhaustions charged to class `cls` — the rate
  // signal the automove policy steers on. Out-of-range indices report 0
  // (fallback-only sizes; no page can help them).
  std::uint64_t ExhaustedByClass(std::size_t cls) const;

  // Index of the pooled class serving `size`, or ClassCount() when none
  // does. Exposed for the automove policy and tests.
  std::size_t ClassFor(std::size_t size) const { return ClassIndexFor(size); }

  // Reassigns one fully-free page from some donor class to `to_cls`:
  // unlinks the donor page's chunks from its free list, recarves the page
  // at the destination stride, and pushes the new chunks onto to_cls's
  // free list. Returns false when to_cls is invalid, already has free
  // chunks (no need), or no class owns an entirely-free page. Maintenance-
  // plane cost: walks free lists and the page table under mu_.
  bool TryReassignPage(std::size_t to_cls);

 private:
  // Index of the smallest class with capacity >= size; class count when
  // the size is unpooled. O(1) via a flat lookup table indexed by the
  // size rounded up to the chunk alignment — the geometric ladder tops
  // out at a few KiB, so the table is a couple of KiB of uint16s and the
  // hot store path skips a binary search per query.
  std::size_t ClassIndexFor(std::size_t size) const {
    const std::size_t slot = (size + kChunkAlign - 1) / kChunkAlign;
    return slot < class_lookup_.size() ? class_lookup_[slot]
                                       : class_capacity_.size();
  }
  // Carves one more page for `cls`; false when the arena cap forbids it.
  // Requires mu_ held.
  bool GrowClassLocked(std::size_t cls);

  SlabPolicy policy_;
  std::vector<std::size_t> class_capacity_;  // ascending, immutable
  std::vector<std::uint16_t> class_lookup_;  // aligned size -> class index

  // One carved page. Tracking the owning class and chunk count (instead of
  // the old bare void*) is what makes automove possible: a page is movable
  // exactly when all `chunks` of its class's free list fall inside
  // [mem, mem + bytes).
  struct PageInfo {
    char* mem;
    std::size_t bytes;
    std::size_t cls;
    std::size_t chunks;
  };

  mutable std::mutex mu_;
  std::vector<char*> free_lists_;  // per class, intrusive via payload bytes
  std::vector<std::size_t> class_chunks_;  // chunks currently carved, per class
  std::vector<PageInfo> pages_;
  std::size_t bytes_reserved_ = 0;

  std::uint64_t chunks_in_use_ = 0;
  std::uint64_t fallback_bytes_ = 0;
  std::uint64_t fallback_allocs_ = 0;
  std::uint64_t class_exhausted_ = 0;
  std::vector<std::uint64_t> class_exhausted_by_;  // per class, same signal
  std::uint64_t pages_moved_ = 0;
};

static_assert(sizeof(SlabAllocator::Header) == SlabAllocator::kHeaderBytes);
static_assert(alignof(SlabAllocator::Header) <= SlabAllocator::kChunkAlign);

// Pure form of SlabAllocator::FootprintFor for callers (tests, capacity
// planning) that have a policy but no allocator instance.
std::size_t SlabFootprintFor(const SlabPolicy& policy, std::size_t size);

// The value-payload buffer stored in CacheValue: a chunk from a
// SlabAllocator (or a tracked heap fallback) plus a length. Copyable —
// the relativistic engine's updates clone values — with the copy placed
// in a fresh chunk from the same owner, so the original stays untouched
// for concurrent readers. Mutating operations take the allocator
// explicitly (the engine always has the shard's at hand) and never evict
// or block: under a stripe lock the only legal slow path is the heap
// fallback.
class SlabBuffer {
 public:
  SlabBuffer() = default;
  // Copies `contents` into a chunk from `slab` (nullptr = untracked heap).
  SlabBuffer(SlabAllocator* slab, std::string_view contents) {
    Assign(slab, contents);
  }
  // Adopts a chunk the caller already obtained from TryAllocate/Allocate,
  // copying `contents` into it. The TryAllocate-first store path uses this
  // to pay one allocator lock instead of a HasAvailable + Allocate pair.
  // The chunk's capacity must cover contents.size(); ownership transfers.
  static SlabBuffer FromChunk(char* chunk, std::string_view contents) {
    SlabBuffer buffer;
    buffer.payload_ = chunk;
    buffer.size_ = static_cast<std::uint32_t>(contents.size());
    if (!contents.empty()) {
      std::memcpy(chunk, contents.data(), contents.size());
    }
    return buffer;
  }
  ~SlabBuffer() { SlabAllocator::Free(payload_); }

  SlabBuffer(const SlabBuffer& other);
  SlabBuffer& operator=(const SlabBuffer& other);
  SlabBuffer(SlabBuffer&& other) noexcept
      : payload_(other.payload_), size_(other.size_) {
    other.payload_ = nullptr;
    other.size_ = 0;
  }
  SlabBuffer& operator=(SlabBuffer&& other) noexcept;

  std::string_view view() const {
    // Chunkless buffers hand out a valid (static) pointer so callers can
    // feed data()/size() straight into memcpy-style sinks.
    return payload_ == nullptr ? std::string_view{""}
                               : std::string_view{payload_, size_};
  }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return SlabAllocator::CapacityOf(payload_); }
  // Heap footprint of the backing allocation; what byte accounting
  // charges. 0 for an empty buffer.
  std::size_t footprint() const { return SlabAllocator::FootprintOf(payload_); }

  // Replaces the contents. Reuses the current chunk when the new size
  // fits its capacity (legal only on values no concurrent reader can see:
  // clones under a stripe lock, or any value under the locked engine's
  // global lock — the engines' update discipline guarantees exactly that).
  void Assign(SlabAllocator* slab, std::string_view contents);
  void Append(SlabAllocator* slab, std::string_view tail);
  void Prepend(SlabAllocator* slab, std::string_view head);
  void Clear();

 private:
  char* payload_ = nullptr;
  std::uint32_t size_ = 0;
};

}  // namespace rp::memcache

#endif  // RP_MEMCACHE_SLAB_H_
