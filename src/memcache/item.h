// Cache item model and expiry-time semantics for the mini-memcached.
#ifndef RP_MEMCACHE_ITEM_H_
#define RP_MEMCACHE_ITEM_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "src/memcache/slab.h"

namespace rp::memcache {

// Key descriptor for the combined item layout (memcached's single-
// allocation item): the key bytes live in the trailing region of the same
// slab chunk that holds the table node, so this is just a pointer + length
// into that chunk — storing a key performs no allocation of its own. The
// descriptor is only ever compared/hashed through its string_view
// conversion, and the bytes it points at live exactly as long as the node
// that embeds it (chunks recycle only through deferred reclamation, so a
// reader inside an epoch section can never observe a reused key region).
struct ItemKey {
  const char* data = nullptr;
  std::uint32_t size = 0;

  operator std::string_view() const { return {data, size}; }
};

// Transparent equality over anything string_view-convertible: probes
// (std::string, std::string_view) and stored ItemKeys all funnel through
// one comparison, sidestepping C++20 rewritten-candidate ambiguity that a
// member operator== on ItemKey would invite.
struct ItemKeyEqual {
  using is_transparent = void;
  bool operator()(std::string_view a, std::string_view b) const {
    return a == b;
  }
};

// Seconds since the unix epoch, as memcached reckons time.
std::int64_t NowSeconds();

// memcached expiry convention: 0 = never; values up to 30 days are relative
// to now; larger values are absolute epoch seconds; negative = already
// expired.
std::int64_t ResolveExptime(std::int64_t exptime, std::int64_t now);

constexpr std::int64_t kNeverExpires = 0;

// Whether an item with the given resolved deadline is expired at `now`.
constexpr bool IsExpired(std::int64_t expire_at, std::int64_t now) {
  return expire_at != kNeverExpires && expire_at <= now;
}

// `flush_all [delay]` semantics (memcached's oldest_live rule): once the
// flush deadline passes, every item stored before the deadline is logically
// expired; items stored at or after the deadline survive. 0 = no flush
// pending.
constexpr std::int64_t kNoFlush = 0;

constexpr bool IsFlushed(std::int64_t stored_at, std::int64_t flush_at,
                         std::int64_t now) {
  return flush_at != kNoFlush && now >= flush_at && stored_at < flush_at;
}

// Fixed per-item overhead approximating the table node, hash/cas/expiry
// fields and eviction bookkeeping. Both engines use the same constant so
// byte accounting stays comparable across the fig5 series.
constexpr std::size_t kItemOverheadBytes = 64;

// Hard ceiling on a stored value's size, enforced by both engines on the
// append/prepend growth paths (a single data block is already capped at
// this by the protocol parser — RequestParser::kMaxValueLength — but
// appends accumulate). memcached's item_size_max plays the same role;
// it also keeps value sizes comfortably inside the slab header's 32-bit
// capacity field.
constexpr std::size_t kMaxItemBytes = 1024 * 1024;

// Per-item memory charge: the key, the fixed node overhead, and the
// *actual* heap footprint of the payload's slab chunk (header + chunk
// capacity — internal fragmentation included), not a modelled data size.
// The `waste` share (footprint minus stored bytes) is tracked separately
// so `stats` can report `bytes_wasted`.
inline std::size_t ChargedBytes(std::size_t key_size, const SlabBuffer& data) {
  return key_size + data.footprint() + kItemOverheadBytes;
}

inline std::size_t WastedBytes(const SlabBuffer& data) {
  return data.footprint() - data.size();
}

// The value record stored in the hash tables. Copyable (the relativistic
// engine's updates are copy-on-write; the copy lands in a fresh slab chunk
// so readers of the original are undisturbed); the access metadata is
// mutable + atomic so the lock-free GET fast path can stamp it without a
// writer lock.
struct CacheValue {
  SlabBuffer data;
  std::uint32_t flags = 0;
  std::int64_t expire_at = kNeverExpires;
  std::uint64_t cas = 0;
  // When the value was last fully stored (set/add/replace/cas); compared
  // against the engine's flush deadline. Partial mutations (append, incr,
  // touch) preserve it so they can never revive a flushed item.
  std::int64_t stored_at = 0;
  mutable std::atomic<std::int64_t> last_used{0};
  // Whether any GET has ever fetched this value (memcached's ITEM_FETCHED,
  // surfaced by the meta protocol's `h` flag). Mutable + atomic for the
  // same reason as last_used: the lock-free GET path stamps it. Full
  // stores build a fresh CacheValue, which resets it; partial mutations
  // clone it through the copy constructors below.
  mutable std::atomic<bool> fetched{false};
  // CLOCK reference bit for the eviction sweep: set by GETs and full
  // stores, cleared by the sweep when it spares the item. Unlike
  // last_used/fetched it is eviction-private and never reaches the wire.
  mutable std::atomic<bool> referenced{false};

  CacheValue() = default;
  CacheValue(SlabBuffer d, std::uint32_t f, std::int64_t e, std::uint64_t c)
      : data(std::move(d)), flags(f), expire_at(e), cas(c) {}

  CacheValue(const CacheValue& other)
      : data(other.data),
        flags(other.flags),
        expire_at(other.expire_at),
        cas(other.cas),
        stored_at(other.stored_at),
        last_used(other.last_used.load(std::memory_order_relaxed)),
        fetched(other.fetched.load(std::memory_order_relaxed)),
        referenced(other.referenced.load(std::memory_order_relaxed)) {}

  CacheValue& operator=(const CacheValue& other) {
    if (this != &other) {
      data = other.data;
      flags = other.flags;
      expire_at = other.expire_at;
      cas = other.cas;
      stored_at = other.stored_at;
      last_used.store(other.last_used.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
      fetched.store(other.fetched.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
      referenced.store(other.referenced.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    }
    return *this;
  }

  CacheValue(CacheValue&& other) noexcept
      : data(std::move(other.data)),
        flags(other.flags),
        expire_at(other.expire_at),
        cas(other.cas),
        stored_at(other.stored_at),
        last_used(other.last_used.load(std::memory_order_relaxed)),
        fetched(other.fetched.load(std::memory_order_relaxed)),
        referenced(other.referenced.load(std::memory_order_relaxed)) {}

  CacheValue& operator=(CacheValue&& other) noexcept {
    data = std::move(other.data);
    flags = other.flags;
    expire_at = other.expire_at;
    cas = other.cas;
    stored_at = other.stored_at;
    last_used.store(other.last_used.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
    fetched.store(other.fetched.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
    referenced.store(other.referenced.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    return *this;
  }

  // Copy of the bookkeeping fields with an *empty* payload buffer. The
  // combined-item clone path stages the payload bytes for embedding in
  // the new node's own chunk, so copying them through a temporary chunk
  // here would be a wasted allocate/copy/free round trip.
  static CacheValue MetadataCopy(const CacheValue& other) {
    CacheValue copy;
    copy.flags = other.flags;
    copy.expire_at = other.expire_at;
    copy.cas = other.cas;
    copy.stored_at = other.stored_at;
    copy.last_used.store(other.last_used.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
    copy.fetched.store(other.fetched.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    copy.referenced.store(other.referenced.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
    return copy;
  }
};

// The reference bit rides in the padding after `fetched`: the record that
// every table node embeds stays one cache line.
static_assert(sizeof(CacheValue) == 64);

// Combined liveness check: an item is dead when its TTL has lapsed or when
// a (possibly delayed) flush_all deadline has overtaken it.
inline bool IsLive(const CacheValue& value, std::int64_t flush_at,
                   std::int64_t now) {
  return !IsExpired(value.expire_at, now) &&
         !IsFlushed(value.stored_at, flush_at, now);
}

// An owning copy of one hit, as CacheEngine's Get/GetMany conveniences
// hand it back; the wire path reads ScratchGetResult slots instead. The
// metadata tail (expire_at / last_used / fetched) is what the meta
// protocol's t / l / h response flags report.
struct StoredValue {
  std::string data;
  std::uint32_t flags = 0;
  std::uint64_t cas = 0;
  std::int64_t expire_at = kNeverExpires;
  std::int64_t last_used = 0;   // previous access time (before this GET)
  bool fetched = false;         // had been fetched before this GET
};

// One slot of a scratch-region GET (CacheEngine::GetManyScratch): instead
// of an owning std::string per hit, the value bytes are appended to a
// caller-provided scratch buffer inside the engine's read-side critical
// section and referenced here by offset (not pointer — the buffer may
// reallocate while later hits append). Every wire GET, classic or meta,
// reads its hits this way: the response codec copies the bytes straight
// out of the scratch region.
struct ScratchGetResult {
  std::size_t data_offset = 0;
  std::size_t data_size = 0;
  std::uint32_t flags = 0;
  std::uint64_t cas = 0;
  std::int64_t expire_at = kNeverExpires;
  std::int64_t last_used = 0;   // previous access time (before this GET)
  bool fetched = false;         // had been fetched before this GET
  bool hit = false;
};

}  // namespace rp::memcache

#endif  // RP_MEMCACHE_ITEM_H_
