// Store-path invariants for the batched/combined-item write path:
//
//  1. Zero heap allocations on a steady-state overwrite (RP engine): the
//     combined item layout puts node, key and embedded value bytes in ONE
//     recycled slab chunk, so overwriting an existing key allocates
//     nothing from the heap once the pools are warm.
//  2. One store-mutex acquisition per shard group of a batched store on a
//     capped cache — and ZERO on an uncapped cache, whose stores publish
//     lock-free — with no synchronous grace-period barrier on either. A
//     one-op StoreMany (every lone store takes that path) obeys the same
//     bounds and leaves the batch counters alone.
//  3. Batched stores are semantically identical to the per-op calls, on
//     both engines, results and final cache state included.
//  4. Embedded payloads survive the size transitions that move a value
//     between the embedded region and an owned payload chunk.
//  5. A store into a dry slab class takes the charged heap fallback; it
//     neither evicts for the class nor waits for a grace period.
//  6. A store burst that leaves every shard's load factor in band wakes no
//     resize worker: the per-group nudge returns before the worker's lock.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "src/memcache/locked_engine.h"
#include "src/memcache/rp_engine.h"
#include "src/memcache/slab.h"
#include "src/rcu/epoch.h"
#include "src/rcu/reclaimer.h"

// ---------------------------------------------------------------------------
// Thread-local allocation counter: counts operator new calls made by THIS
// thread while armed. The reclaimer thread's activity is deliberately not
// counted — the invariant under test is that the storing thread's hot path
// never touches the heap.
namespace {
thread_local bool g_count_allocs = false;
thread_local std::uint64_t g_alloc_count = 0;
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocs) {
    ++g_alloc_count;
  }
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (g_count_allocs) {
    ++g_alloc_count;
  }
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace rp::memcache {
namespace {

using Reclaimer = rcu::DeferredReclaimer<rcu::Epoch>;

EngineConfig UncappedOneShard() {
  EngineConfig config;
  config.shards = 1;
  config.initial_buckets = 4096;
  return config;
}

// Capped far above the working set: eviction bookkeeping (and with it the
// store mutex) is live, but no eviction ever triggers.
EngineConfig CappedOneShard() {
  EngineConfig config;
  config.shards = 1;
  config.initial_buckets = 4096;
  config.max_bytes = std::size_t{1} << 30;
  return config;
}

TEST(StorePathAllocs, SteadyStateOverwriteAllocatesNothing) {
  RpEngine engine(UncappedOneShard());
  constexpr int kKeys = 16;
  const std::string value(64, 'v');
  // Fixed-width keys: every node chunk in this test (pre-carve pool and
  // measured working set alike) is byte-identical in size, hence lands in
  // the same slab class and recycles interchangeably.
  auto make_key = [](const char* prefix, int i) {
    std::string id = std::to_string(i);
    return std::string(prefix) + std::string(4 - id.size(), '0') + id;
  };
  std::vector<std::string> keys;
  for (int i = 0; i < kKeys; ++i) {
    keys.push_back(make_key("alloc-key-", i));
  }
  // Warm up every transient deterministically. An overwrite draws its
  // clone chunk from the slab free list, and the retired node sits in
  // flight (slab chunk held, reclaimer queue entry occupied) until a
  // grace period passes — so the pools must be pre-carved to the measured
  // window's in-flight high-water, not just to the live working set.
  // Storing-then-deleting kPrecarve distinct keys guarantees that many
  // same-class chunks exist and, after the drain, sit on the free list;
  // the reclaimer queue's buffers are pre-sized in its constructor.
  constexpr int kPrecarve = 768;
  for (int i = 0; i < kPrecarve; ++i) {
    engine.Set(make_key("carve-key-", i), value, 0, 0);
  }
  for (int i = 0; i < kPrecarve; ++i) {
    engine.Delete(make_key("carve-key-", i));
  }
  Reclaimer::Drain();
  for (int i = 0; i < 2000; ++i) {
    engine.Set(keys[i % kKeys], value, 0, 0);
  }
  Reclaimer::Drain();

  // Measured window: pure overwrites, with a periodic drain bounding the
  // in-flight retirements below the pre-carved chunk count and the queue's
  // pre-sized capacity. The drain only waits (no allocation); without it
  // the 1-core reclaimer can lag arbitrarily and a deep enough backlog
  // legitimately carves a fresh slab page — capacity growth, not steady
  // state.
  constexpr int kOps = 5000;
  constexpr int kDrainEvery = 500;
  static_assert(kDrainEvery + kKeys <= kPrecarve,
                "in-flight bound must stay within the pre-carved pool");
  g_alloc_count = 0;
  g_count_allocs = true;
  for (int i = 0; i < kOps; ++i) {
    engine.Set(keys[i % kKeys], value, 0, 0);
    if ((i + 1) % kDrainEvery == 0) {
      Reclaimer::Drain();
    }
  }
  g_count_allocs = false;
  EXPECT_EQ(g_alloc_count, 0u)
      << "steady-state overwrite touched the heap " << g_alloc_count
      << " times in " << kOps << " ops";
}

// Builds a k-SET burst over distinct keys.
std::vector<StoreOp> SetBurst(int count, const std::string_view value,
                              std::vector<std::string>& key_storage) {
  key_storage.clear();
  for (int i = 0; i < count; ++i) {
    key_storage.push_back("batch-key-" + std::to_string(i));
  }
  std::vector<StoreOp> ops;
  for (int i = 0; i < count; ++i) {
    StoreOp op;
    op.kind = StoreKind::kSet;
    op.key = key_storage[i];
    op.data = value;
    ops.push_back(op);
  }
  return ops;
}

TEST(StorePathLocking, CappedBatchTakesOneLockPerShardGroup) {
  RpEngine engine(CappedOneShard());
  std::vector<std::string> keys;
  std::vector<StoreOp> ops = SetBurst(16, "batched-value", keys);
  std::vector<StoreResult> results(ops.size());

  // Pre-store once so the measured batch is pure overwrites (insert-path
  // bookkeeping identical either way; this just keeps the run warm).
  engine.StoreMany(ops.data(), ops.size(), results.data());

  const std::uint64_t locks_before = StoreMutex::ThreadAcquisitions();
  const std::uint64_t barriers_before = rcu::Epoch::ThreadBarrierCalls();
  engine.StoreMany(ops.data(), ops.size(), results.data());
  const std::uint64_t locks = StoreMutex::ThreadAcquisitions() - locks_before;
  const std::uint64_t barriers =
      rcu::Epoch::ThreadBarrierCalls() - barriers_before;

  EXPECT_EQ(locks, 1u) << "a 16-SET one-shard batch on a capped cache must "
                          "pay exactly one store-mutex acquisition";
  EXPECT_EQ(barriers, 0u)
      << "the store path must never wait on a grace period synchronously";
  for (const StoreResult r : results) {
    EXPECT_EQ(r, StoreResult::kStored);
  }
}

TEST(StorePathLocking, CappedBatchTakesOneLockPerShard) {
  EngineConfig config = CappedOneShard();
  config.shards = 4;
  RpEngine engine(config);
  std::vector<std::string> keys;
  // 64 keys over 4 shards: the chance of an untouched shard is ~4e-9, so
  // the expected acquisition count is exactly the shard count.
  std::vector<StoreOp> ops = SetBurst(64, "batched-value", keys);
  std::vector<StoreResult> results(ops.size());
  engine.StoreMany(ops.data(), ops.size(), results.data());

  const std::uint64_t locks_before = StoreMutex::ThreadAcquisitions();
  engine.StoreMany(ops.data(), ops.size(), results.data());
  EXPECT_EQ(StoreMutex::ThreadAcquisitions() - locks_before, 4u)
      << "one store-mutex acquisition per shard group";
}

TEST(StorePathLocking, UncappedBatchTakesNoLocks) {
  RpEngine engine(UncappedOneShard());
  std::vector<std::string> keys;
  std::vector<StoreOp> ops = SetBurst(16, "batched-value", keys);
  std::vector<StoreResult> results(ops.size());
  engine.StoreMany(ops.data(), ops.size(), results.data());

  const std::uint64_t locks_before = StoreMutex::ThreadAcquisitions();
  const std::uint64_t barriers_before = rcu::Epoch::ThreadBarrierCalls();
  engine.StoreMany(ops.data(), ops.size(), results.data());
  EXPECT_EQ(StoreMutex::ThreadAcquisitions() - locks_before, 0u)
      << "an uncapped cache has no eviction state to guard: batched stores "
         "must publish lock-free";
  EXPECT_EQ(rcu::Epoch::ThreadBarrierCalls() - barriers_before, 0u);
}

// A lone store is a one-op StoreMany: it takes the same lock path as a
// shard group of one — one acquisition when capped, none when uncapped —
// never barriers, and is not counted as a batch.
TEST(StorePathLocking, OneOpStoreTakesTheGroupLockPathAndIsNoBatch) {
  for (const bool capped : {false, true}) {
    RpEngine engine(capped ? CappedOneShard() : UncappedOneShard());
    std::vector<std::string> keys;
    std::vector<StoreOp> ops = SetBurst(1, "lone-value", keys);
    StoreResult result = StoreResult::kNotStored;
    engine.StoreMany(ops.data(), 1, &result);  // insert; measure overwrite

    const EngineStats before = engine.Stats();
    const std::uint64_t locks_before = StoreMutex::ThreadAcquisitions();
    const std::uint64_t barriers_before = rcu::Epoch::ThreadBarrierCalls();
    engine.StoreMany(ops.data(), 1, &result);
    EXPECT_EQ(StoreMutex::ThreadAcquisitions() - locks_before,
              capped ? 1u : 0u)
        << (capped ? "capped" : "uncapped");
    EXPECT_EQ(rcu::Epoch::ThreadBarrierCalls() - barriers_before, 0u);
    EXPECT_EQ(result, StoreResult::kStored);

    // The per-op convenience is the same one-op call.
    const std::uint64_t set_locks_before = StoreMutex::ThreadAcquisitions();
    EXPECT_EQ(engine.Set(keys[0], "lone-value", 0, 0), StoreResult::kStored);
    EXPECT_EQ(StoreMutex::ThreadAcquisitions() - set_locks_before,
              capped ? 1u : 0u);

    const EngineStats after = engine.Stats();
    EXPECT_EQ(after.store_batches, before.store_batches);
    EXPECT_EQ(after.store_batched_ops, before.store_batched_ops);
    EXPECT_EQ(after.sets, before.sets + 2);
  }
}

// A class that has its page but no free chunk, on a capped cache far under
// its byte budget: the store must not evict for the class or drain the
// reclaimer to get a chunk back. It takes the heap fallback and returns.
TEST(StorePathLocking, DryClassStoreFallsBackWithoutWaiting) {
  EngineConfig config;
  config.shards = 1;
  config.initial_buckets = 4096;
  config.max_bytes = std::size_t{256} << 10;  // 8 pages of 32 KiB
  RpEngine engine(config);
  // A probe allocator with the engine's slab policy replays the engine's
  // value-slab allocations (payloads above the embed limit; nodes live in
  // their own slab), so it knows when the engine's class runs dry.
  SlabAllocator probe(SlabPolicyFor(config, 1));
  constexpr std::size_t kDrySize = 1000;
  int next_key = 0;
  auto store = [&](std::size_t size) {
    probe.Allocate(size);
    ASSERT_EQ(engine.Add("dry-" + std::to_string(next_key++),
                         std::string(size, 'x'), 0, 0),
              StoreResult::kStored);
  };
  store(kDrySize);  // carves the class's page
  // Pin every other page with one live item of a distinct class.
  for (std::size_t size = 3000; size > 300; size = size * 4 / 5) {
    if (!probe.HasChunksOf(size) && probe.HasAvailable(size)) {
      store(size);
    }
  }
  while (probe.HasAvailable(kDrySize)) {
    store(kDrySize);
  }
  ASSERT_TRUE(probe.HasChunksOf(kDrySize));

  std::vector<std::string> keys;
  const std::string value(kDrySize, 'y');
  std::vector<StoreOp> ops = SetBurst(1, value, keys);
  StoreResult result = StoreResult::kNotStored;
  const EngineStats before = engine.Stats();
  const std::uint64_t barriers_before = rcu::Epoch::ThreadBarrierCalls();
  engine.StoreMany(ops.data(), 1, &result);
  EXPECT_EQ(rcu::Epoch::ThreadBarrierCalls() - barriers_before, 0u)
      << "a store into a dry class must not wait for a grace period";
  EXPECT_EQ(result, StoreResult::kStored);
  const EngineStats after = engine.Stats();
  EXPECT_EQ(after.slab_fallbacks, before.slab_fallbacks + 1);
  EXPECT_EQ(after.evictions, before.evictions);
  StoredValue out;
  ASSERT_TRUE(engine.Get(keys[0], &out));
  EXPECT_EQ(out.data, value);
}

// Pre-sized shards keep a burst's load factor in band (a table never
// shrinks below its initial size), so none of the burst's nudges may wake a
// worker. The engine polls each worker every 10 ms x shards; a slow run
// that outlasts a poll interval is allowed the ticks it spanned, and no
// more.
TEST(StorePathWakeups, InBandStoreBurstWakesNoResizeWorker) {
  EngineConfig config;
  config.shards = 16;
  config.initial_buckets = 16 * 1024;  // 1024 buckets per shard
  const auto poll = std::chrono::milliseconds(10 * 16);
  const auto start = std::chrono::steady_clock::now();
  RpEngine engine(config);
  const std::uint64_t before = engine.ResizeWorkerWakeups();
  for (int i = 0; i < 2048; ++i) {  // ~128 inserts per shard, each nudging
    ASSERT_EQ(engine.Set("burst-" + std::to_string(i), "v", 0, 0),
              StoreResult::kStored);
  }
  // Give a wrongly woken worker time to run and count its pass.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const std::uint64_t woken = engine.ResizeWorkerWakeups() - before;
  const auto polls = (std::chrono::steady_clock::now() - start) / poll;
  EXPECT_LE(woken, config.shards * static_cast<std::uint64_t>(polls))
      << "in-band nudges woke a resize worker";
  EXPECT_EQ(engine.BucketCount(), config.initial_buckets);
}

// ---------------------------------------------------------------------------
// Batched == per-op, on both engines. Two instances of the same engine run
// the same mixed burst — one through StoreMany, one through the per-op
// virtuals — and must agree on every result and on the final cache state.

using EngineFactory = std::unique_ptr<CacheEngine> (*)(EngineConfig);

std::unique_ptr<CacheEngine> MakeLocked(EngineConfig config) {
  return std::make_unique<LockedEngine>(config);
}
std::unique_ptr<CacheEngine> MakeRp(EngineConfig config) {
  return std::make_unique<RpEngine>(config);
}

class StoreBatchEquivalence : public ::testing::TestWithParam<EngineFactory> {};

StoreResult RunPerOp(CacheEngine& engine, const StoreOp& op) {
  const std::string key(op.key);
  switch (op.kind) {
    case StoreKind::kSet:
      return engine.Set(key, op.data, op.flags, op.exptime);
    case StoreKind::kAdd:
      return engine.Add(key, op.data, op.flags, op.exptime);
    case StoreKind::kReplace:
      return engine.Replace(key, op.data, op.flags, op.exptime);
    case StoreKind::kAppend:
      return engine.Append(key, op.data);
    case StoreKind::kPrepend:
      return engine.Prepend(key, op.data);
    case StoreKind::kCas:
      return engine.CheckAndSet(key, op.data, op.flags, op.exptime, op.cas);
  }
  return StoreResult::kNotStored;
}

TEST_P(StoreBatchEquivalence, MixedBurstMatchesPerOpPath) {
  EngineConfig config;
  config.shards = 2;
  auto batched = GetParam()(config);
  auto per_op = GetParam()(config);

  // Seed both identically (per-op: seeding is not under test).
  for (auto* engine : {batched.get(), per_op.get()}) {
    engine->Set("present", "base", 1, 0);
    engine->Set("concat", "mid", 0, 0);
    engine->Set("casme", "old", 0, 0);
  }
  // The cas token differs between instances; fetch each engine's own.
  StoredValue stored;
  ASSERT_TRUE(batched->Get("casme", &stored));
  const std::uint64_t batched_cas = stored.cas;
  ASSERT_TRUE(per_op->Get("casme", &stored));
  const std::uint64_t per_op_cas = stored.cas;

  auto make_ops = [](std::uint64_t cas_token) {
    std::vector<StoreOp> ops(8);
    ops[0] = {StoreKind::kSet, "fresh", "set-data", 7, 0, 0};
    ops[1] = {StoreKind::kAdd, "present", "add-loses", 0, 0, 0};
    ops[2] = {StoreKind::kAdd, "added", "add-wins", 2, 0, 0};
    ops[3] = {StoreKind::kReplace, "missing", "no-store", 0, 0, 0};
    ops[4] = {StoreKind::kAppend, "concat", "-tail", 0, 0, 0};
    ops[5] = {StoreKind::kPrepend, "concat", "head-", 0, 0, 0};
    ops[6] = {StoreKind::kCas, "casme", "cas-new", 0, 0, cas_token};
    ops[7] = {StoreKind::kCas, "casme", "stale", 0, 0, cas_token};
    return ops;
  };

  const std::vector<StoreOp> batched_ops = make_ops(batched_cas);
  std::vector<StoreResult> batched_results(batched_ops.size());
  batched->StoreMany(batched_ops.data(), batched_ops.size(),
                     batched_results.data());

  const std::vector<StoreOp> per_op_ops = make_ops(per_op_cas);
  std::vector<StoreResult> per_op_results(per_op_ops.size());
  for (std::size_t i = 0; i < per_op_ops.size(); ++i) {
    per_op_results[i] = RunPerOp(*per_op, per_op_ops[i]);
  }

  for (std::size_t i = 0; i < batched_results.size(); ++i) {
    EXPECT_EQ(batched_results[i], per_op_results[i]) << "op " << i;
  }
  for (const char* key :
       {"fresh", "present", "added", "missing", "concat", "casme"}) {
    StoredValue a, b;
    const bool hit_a = batched->Get(key, &a);
    const bool hit_b = per_op->Get(key, &b);
    EXPECT_EQ(hit_a, hit_b) << key;
    if (hit_a && hit_b) {
      EXPECT_EQ(a.data, b.data) << key;
      EXPECT_EQ(a.flags, b.flags) << key;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, StoreBatchEquivalence,
                         ::testing::Values(&MakeLocked, &MakeRp));

// ---------------------------------------------------------------------------
// Embedded-layout transitions: values crossing the embed threshold (256
// bytes) move between the node chunk's embedded region and an owned
// payload chunk; contents and byte accounting must survive every hop.

TEST(StorePathEmbedding, ValueSurvivesEmbedBoundaryTransitions) {
  RpEngine engine(UncappedOneShard());
  const std::string small(32, 'a');
  const std::string at_limit(256, 'b');
  const std::string beyond(257, 'c');
  const std::string large(4096, 'd');

  StoredValue out;
  for (const std::string* v : {&small, &at_limit, &beyond, &large, &small}) {
    ASSERT_EQ(engine.Set("k", *v, 0, 0), StoreResult::kStored);
    ASSERT_TRUE(engine.Get("k", &out));
    EXPECT_EQ(out.data, *v);
  }

  // Append from embedded into owned-chunk territory: 32 -> 332 bytes.
  ASSERT_EQ(engine.Set("k", small, 0, 0), StoreResult::kStored);
  const std::string tail(300, 't');
  ASSERT_EQ(engine.Append("k", tail), StoreResult::kStored);
  ASSERT_TRUE(engine.Get("k", &out));
  EXPECT_EQ(out.data, small + tail);

  // Flush refunds every embedded charge exactly.
  engine.FlushAll(0);
  EXPECT_EQ(engine.Stats().bytes, 0u);
  EXPECT_EQ(engine.Stats().bytes_wasted, 0u);
}

// Byte accounting cannot tell embedded and pooled payloads apart: the
// charge for a value stored at (say) 32 bytes must be identical whether
// it was written fresh (embedded) or shrunk there from an owned chunk.
TEST(StorePathEmbedding, ChargesMatchAcrossEmbeddedAndPooled) {
  RpEngine fresh(UncappedOneShard());
  RpEngine shrunk(UncappedOneShard());
  const std::string small(32, 'a');
  const std::string large(4096, 'd');

  fresh.Set("k", small, 0, 0);
  shrunk.Set("k", large, 0, 0);
  shrunk.Set("k", small, 0, 0);

  EXPECT_EQ(fresh.Stats().bytes, shrunk.Stats().bytes);
  EXPECT_EQ(fresh.Stats().bytes_wasted, shrunk.Stats().bytes_wasted);
}

}  // namespace
}  // namespace rp::memcache
