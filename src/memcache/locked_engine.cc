#include "src/memcache/locked_engine.h"

#include <charconv>
#include <iterator>

#include "src/rcu/callback.h"
#include "src/rcu/epoch.h"

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

}  // namespace

LockedEngine::LockedEngine(EngineConfig config)
    : config_(config), slab_(SlabPolicyFor(config_, 1)) {
  map_.reserve(config_.initial_buckets);
}

LockedEngine::Map::iterator LockedEngine::FindLiveLocked(std::string_view key,
                                                         std::int64_t now) {
  auto it = map_.find(key);
  if (it == map_.end()) {
    return map_.end();
  }
  if (!IsLive(it->second.value, flush_at_, now)) {
    ++stats_.expired_reclaims;
    EraseLocked(it);
    return map_.end();
  }
  return it;
}

void LockedEngine::TouchLruLocked(Map::iterator it) {
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
}

void LockedEngine::EraseLocked(Map::iterator it) {
  bytes_ -= ChargedBytes(it->first.size(), it->second.value.data);
  bytes_wasted_ -= WastedBytes(it->second.value.data);
  lru_.erase(it->second.lru_it);
  map_.erase(it);  // frees the slab chunk immediately — global lock held
}

void LockedEngine::RechargeLocked(std::size_t old_footprint,
                                  std::size_t old_size,
                                  const CacheValue& value) {
  bytes_ += value.data.footprint() - old_footprint;
  bytes_wasted_ +=
      (value.data.footprint() - value.data.size()) - (old_footprint - old_size);
}

void LockedEngine::EvictForChunkLocked(std::size_t data_size,
                                       const std::string* keep) {
  if (slab_.HasAvailable(data_size)) {
    return;
  }
  // Class-targeted (memcached's "evict to make room in the slab class"
  // under the global lock): scan coldest-first for items whose chunk
  // belongs to the dry class — evicting anything else frees chunks the
  // needy class can never receive. Frees recycle immediately here (no
  // grace period), so one matching victim is enough; the scan is bounded
  // because a single LRU (unlike memcached's per-class LRUs) has no index
  // by class. `keep` protects the item an in-place overwrite is about to
  // mutate (its iterator must survive). If no match is in reach the
  // allocation falls back to the heap, still charged exactly.
  constexpr std::size_t kScanBound = 128;
  const std::size_t needed = slab_.FootprintFor(data_size);
  std::size_t scanned = 0;
  auto it = lru_.end();
  while (it != lru_.begin() && scanned < kScanBound &&
         !slab_.HasAvailable(data_size)) {
    --it;  // walk coldest-first
    ++scanned;
    if (keep != nullptr && *it == *keep) {
      continue;
    }
    auto victim = map_.find(*it);
    if (victim == map_.end() ||
        victim->second.value.data.footprint() != needed) {
      continue;
    }
    // Erasing invalidates the node `it` points at; resume from its
    // successor so the next step lands on the element before it.
    auto resume = std::next(it);
    EraseLocked(victim);
    ++stats_.evictions;
    it = resume;
  }
}

void LockedEngine::StoreLocked(std::string_view key, std::string_view data,
                               std::uint32_t flags, std::int64_t exptime) {
  auto it = map_.find(key);
  if (it != map_.end()) {
    StoreAtLocked(it, data, flags, exptime);
    return;
  }
  const std::int64_t now = NowSeconds();
  EvictForChunkLocked(data.size());
  CacheValue value(SlabBuffer(&slab_, data), flags, ResolveExptime(exptime, now),
                   next_cas_++);
  value.stored_at = now;
  value.last_used.store(now, std::memory_order_relaxed);
  bytes_ += ChargedBytes(key.size(), value.data);
  bytes_wasted_ += WastedBytes(value.data);
  lru_.push_front(std::string(key));
  map_.emplace(lru_.front(), Entry{std::move(value), lru_.begin()});
  ++stats_.total_items;
  EvictIfNeededLocked();
  ++stats_.sets;
}

void LockedEngine::StoreAtLocked(Map::iterator it, std::string_view data,
                                 std::uint32_t flags, std::int64_t exptime) {
  const std::int64_t now = NowSeconds();
  // MRU first: the class-exhaustion sweep below must never evict the item
  // this iterator points at.
  TouchLruLocked(it);
  // Assign reuses the current chunk in place exactly when the new size
  // stays in its class (equal footprints); only a class change actually
  // allocates, so only then is the exhaustion sweep allowed to evict.
  if (slab_.FootprintFor(data.size()) != it->second.value.data.footprint()) {
    EvictForChunkLocked(data.size(), &it->first);
  }
  CacheValue& value = it->second.value;
  const std::size_t old_footprint = value.data.footprint();
  const std::size_t old_size = value.data.size();
  // In-place overwrite under the global lock (no reader can hold a
  // reference): reuses the chunk when the new size stays in its class.
  value.data.Assign(&slab_, data);
  RechargeLocked(old_footprint, old_size, value);
  value.flags = flags;
  value.expire_at = ResolveExptime(exptime, now);
  value.cas = next_cas_++;
  value.stored_at = now;
  value.last_used.store(now, std::memory_order_relaxed);
  EvictIfNeededLocked();
  ++stats_.sets;
}

void LockedEngine::EvictIfNeededLocked() {
  if (config_.max_items == 0 && config_.max_bytes == 0) {
    return;
  }
  const auto over = [&] {
    return (config_.max_items != 0 && map_.size() > config_.max_items) ||
           (config_.max_bytes != 0 && bytes_ > config_.max_bytes);
  };
  while (over() && !lru_.empty()) {
    auto victim = map_.find(lru_.back());
    if (victim != map_.end()) {
      EraseLocked(victim);
      ++stats_.evictions;
    } else {
      lru_.pop_back();
    }
  }
}

bool LockedEngine::Get(const std::string& key, StoredValue* out) {
  const std::int64_t now = NowSeconds();
  std::lock_guard<StoreMutex> lock(mutex_);
  auto it = FindLiveLocked(key, now);
  if (it == map_.end()) {
    ++stats_.get_misses;
    return false;
  }
  // Exact LRU: the GET path mutates shared state, which is why default
  // memcached cannot drop the lock here.
  TouchLruLocked(it);
  CacheValue& value = it->second.value;
  // Meta-flag metadata reports the PRE-get state (prior access time,
  // prior fetched bit), captured before this GET stamps both.
  out->expire_at = value.expire_at;
  out->last_used = value.last_used.load(std::memory_order_relaxed);
  out->fetched = value.fetched.load(std::memory_order_relaxed);
  value.last_used.store(now, std::memory_order_relaxed);
  value.fetched.store(true, std::memory_order_relaxed);
  const std::string_view data = value.data.view();
  out->data.assign(data.data(), data.size());
  out->flags = value.flags;
  out->cas = value.cas;
  ++stats_.get_hits;
  return true;
}

void LockedEngine::GetManyScratch(const std::string_view* keys,
                                  std::size_t count, ScratchGetResult* out,
                                  std::string* scratch) {
  const std::int64_t now = NowSeconds();
  std::lock_guard<StoreMutex> lock(mutex_);
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = ScratchGetResult{};
    auto it = FindLiveLocked(keys[i], now);
    if (it == map_.end()) {
      ++stats_.get_misses;
      continue;
    }
    TouchLruLocked(it);
    CacheValue& value = it->second.value;
    ScratchGetResult& slot = out[i];
    slot.hit = true;
    const std::string_view data = value.data.view();
    slot.data_offset = scratch->size();
    slot.data_size = data.size();
    scratch->append(data.data(), data.size());
    slot.flags = value.flags;
    slot.cas = value.cas;
    slot.expire_at = value.expire_at;
    slot.last_used = value.last_used.load(std::memory_order_relaxed);
    slot.fetched = value.fetched.load(std::memory_order_relaxed);
    value.last_used.store(now, std::memory_order_relaxed);
    value.fetched.store(true, std::memory_order_relaxed);
    ++stats_.get_hits;
  }
}

StoreResult LockedEngine::OverwriteOpLocked(const StoreOp& op,
                                            std::int64_t now) {
  const bool is_cas = op.kind == StoreKind::kCas;
  auto it = FindLiveLocked(op.key, now);
  if (it == map_.end()) {
    return is_cas ? StoreResult::kNotFound : StoreResult::kNotStored;
  }
  if (is_cas && it->second.value.cas != op.cas) {
    return StoreResult::kExists;
  }
  StoreAtLocked(it, op.data, op.flags, op.exptime);
  return StoreResult::kStored;
}

StoreResult LockedEngine::ConcatOpLocked(const StoreOp& op, std::int64_t now) {
  auto it = FindLiveLocked(op.key, now);
  if (it == map_.end()) {
    return StoreResult::kNotStored;
  }
  if (it->second.value.data.size() + op.data.size() > kMaxItemBytes) {
    return StoreResult::kNotStored;  // would exceed item_size_max
  }
  CacheValue& value = it->second.value;
  const std::size_t old_footprint = value.data.footprint();
  const std::size_t old_size = value.data.size();
  if (op.kind == StoreKind::kPrepend) {
    value.data.Prepend(&slab_, op.data);
  } else {
    value.data.Append(&slab_, op.data);
  }
  RechargeLocked(old_footprint, old_size, value);
  value.cas = next_cas_++;
  TouchLruLocked(it);
  EvictIfNeededLocked();
  ++stats_.sets;
  return StoreResult::kStored;
}

void LockedEngine::StoreMany(const StoreOp* ops, std::size_t count,
                             StoreResult* results) {
  if (count == 0) {
    return;
  }
  const std::int64_t now = NowSeconds();
  // The whole call under ONE global-lock acquisition, a lone store
  // included: the pipelined fig5 contrast stays symmetric with the RP
  // engine's shard groups.
  std::lock_guard<StoreMutex> lock(mutex_);
  for (std::size_t i = 0; i < count; ++i) {
    const StoreOp& op = ops[i];
    switch (op.kind) {
      case StoreKind::kSet:
        StoreLocked(op.key, op.data, op.flags, op.exptime);
        results[i] = StoreResult::kStored;
        break;
      case StoreKind::kAdd:
        if (FindLiveLocked(op.key, now) != map_.end()) {
          results[i] = StoreResult::kNotStored;
        } else {
          StoreLocked(op.key, op.data, op.flags, op.exptime);
          results[i] = StoreResult::kStored;
        }
        break;
      case StoreKind::kReplace:
      case StoreKind::kCas:
        results[i] = OverwriteOpLocked(op, now);
        break;
      case StoreKind::kAppend:
      case StoreKind::kPrepend:
        results[i] = ConcatOpLocked(op, now);
        break;
      case StoreKind::kDelete: {
        // Delete semantics over the same StoreResult (kStored = deleted,
        // kNotFound = miss, expired entries reclaimed as a miss); deletes
        // never count toward `sets`.
        auto it = FindLiveLocked(op.key, now);
        if (it == map_.end()) {
          results[i] = StoreResult::kNotFound;
        } else {
          EraseLocked(it);
          results[i] = StoreResult::kStored;
        }
        break;
      }
    }
  }
  if (count >= 2) {
    ++stats_.store_batches;
    stats_.store_batched_ops += count;
  }
}

ArithResult LockedEngine::ArithLocked(const std::string& key,
                                      std::uint64_t delta, bool increment) {
  const std::int64_t now = NowSeconds();
  auto it = FindLiveLocked(key, now);
  if (it == map_.end()) {
    return {ArithStatus::kNotFound, 0};
  }
  std::uint64_t current = 0;
  if (!ParseUint64(it->second.value.data.view(), &current)) {
    return {ArithStatus::kNonNumeric, 0};
  }
  const std::uint64_t next =
      increment ? current + delta : (current >= delta ? current - delta : 0);
  char digits[20];
  auto [end, ec] = std::to_chars(digits, digits + sizeof(digits), next);
  (void)ec;  // a uint64 always fits 20 digits
  CacheValue& value = it->second.value;
  const std::size_t old_footprint = value.data.footprint();
  const std::size_t old_size = value.data.size();
  value.data.Assign(
      &slab_, std::string_view(digits, static_cast<std::size_t>(end - digits)));
  RechargeLocked(old_footprint, old_size, value);
  value.cas = next_cas_++;
  TouchLruLocked(it);
  EvictIfNeededLocked();
  return {ArithStatus::kOk, next};
}

ArithResult LockedEngine::Incr(const std::string& key, std::uint64_t delta) {
  std::lock_guard<StoreMutex> lock(mutex_);
  return ArithLocked(key, delta, /*increment=*/true);
}

ArithResult LockedEngine::Decr(const std::string& key, std::uint64_t delta) {
  std::lock_guard<StoreMutex> lock(mutex_);
  return ArithLocked(key, delta, /*increment=*/false);
}

bool LockedEngine::Touch(const std::string& key, std::int64_t exptime) {
  const std::int64_t now = NowSeconds();
  std::lock_guard<StoreMutex> lock(mutex_);
  auto it = FindLiveLocked(key, now);
  if (it == map_.end()) {
    return false;
  }
  it->second.value.expire_at = ResolveExptime(exptime, now);
  TouchLruLocked(it);
  return true;
}

void LockedEngine::FlushAll(std::int64_t delay_seconds) {
  std::lock_guard<StoreMutex> lock(mutex_);
  if (delay_seconds > 0) {
    // Logical flush: items stored before the deadline die once it passes
    // and are reclaimed lazily by FindLiveLocked. The delay follows the
    // protocol's exptime conventions (<= 30 days relative, else absolute).
    flush_at_ = ResolveExptime(delay_seconds, NowSeconds());
    return;
  }
  map_.clear();
  lru_.clear();
  bytes_ = 0;
  bytes_wasted_ = 0;
  flush_at_ = kNoFlush;
}

std::size_t LockedEngine::ItemCount() const {
  std::lock_guard<StoreMutex> lock(mutex_);
  return map_.size();
}

EngineStats LockedEngine::Stats() const {
  std::lock_guard<StoreMutex> lock(mutex_);
  EngineStats stats = stats_;
  stats.items = map_.size();
  stats.bytes = bytes_;
  stats.bytes_wasted = bytes_wasted_;
  stats.limit_maxbytes = config_.max_bytes;
  const SlabStats slab = slab_.Stats();
  stats.slab_reserved = slab.bytes_reserved;
  stats.slab_fallbacks = slab.fallback_allocs;
  stats.slab_pages_moved = slab.pages_moved;
  // Reclaimer health is process-global (one RCU domain, one callback
  // queue); the locked engine reports the same numbers the RP engine does.
  // Its own maintenance counters (combines, crawls) stay zero — the
  // maintenance plane is an RP-engine subsystem.
  rcu::RcuCallbackQueue& reclaimer = rcu::Epoch::Callbacks();
  stats.reclaimer_pending = reclaimer.pending();
  stats.reclaimer_wakeups = reclaimer.wakeups();
  FillMetaCommandStats(&stats);
  return stats;
}

}  // namespace rp::memcache
