// Slab-allocation tests:
//   * allocator unit tests: size-class geometry, chunk recycling, arena
//     cap, tracked heap fallback, footprint determinism, stats gauges;
//   * SlabBuffer semantics: assign/append/prepend, strict same-class chunk
//     reuse, copy/move, the footprint()==FootprintFor(size) invariant;
//   * cross-engine conformance: both engines charge byte-for-byte
//     identical gauges (bytes and bytes_wasted) for identical traffic;
//   * the recycling torture test: GET readers race SET/DELETE churn across
//     size-class boundaries on the RP engine — no reader may ever observe
//     a recycled chunk (values are self-describing, so a reused chunk
//     shows up as a corrupt payload), and the byte gauge never exceeds
//     max_bytes/shards per shard (asserted via the aggregate).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/memcache/engine.h"
#include "src/memcache/locked_engine.h"
#include "src/memcache/rp_engine.h"
#include "src/memcache/slab.h"
#include "src/util/rng.h"

namespace rp::memcache {
namespace {

TEST(SlabAllocator, ClassLadderIsGeometricAndBounded) {
  SlabPolicy policy;
  policy.growth = 1.25;
  policy.chunk_min = 16;
  policy.chunk_max = 8 * 1024;
  SlabAllocator slab(policy);

  ASSERT_GT(slab.ClassCount(), 4u);
  std::size_t prev = 0;
  for (std::size_t i = 0; i < slab.ClassCount(); ++i) {
    const std::size_t cap = slab.ClassCapacity(i);
    EXPECT_GT(cap, prev) << "class capacities must strictly increase";
    EXPECT_EQ(cap % 8, 0u) << "chunk capacities stay 8-byte aligned";
    if (prev != 0 && i + 1 < slab.ClassCount()) {
      // Geometric-ish: each step grows by at least the alignment quantum
      // and by no more than ~2x the configured factor (alignment rounding).
      EXPECT_LE(cap, prev * 2) << "growth factor out of band at class " << i;
    }
    prev = cap;
  }
  EXPECT_EQ(slab.ClassCapacity(slab.ClassCount() - 1), 8u * 1024u);
}

TEST(SlabAllocator, FreedChunksAreRecycled) {
  SlabPolicy policy;
  policy.page_bytes = 4 * 1024;
  SlabAllocator slab(policy);

  char* first = slab.TryAllocate(100);
  ASSERT_NE(first, nullptr);
  const std::size_t footprint = SlabAllocator::FootprintOf(first);
  EXPECT_EQ(footprint, slab.FootprintFor(100));
  EXPECT_EQ(SlabAllocator::OwnerOf(first), &slab);

  SlabAllocator::Free(first);
  char* second = slab.TryAllocate(100);
  // LIFO free list: the chunk we just freed comes straight back.
  EXPECT_EQ(second, first);
  SlabAllocator::Free(second);

  const SlabStats stats = slab.Stats();
  EXPECT_EQ(stats.chunks_in_use, 0u);
  EXPECT_GT(stats.bytes_reserved, 0u);
  EXPECT_EQ(stats.fallback_allocs, 0u);
}

TEST(SlabAllocator, ArenaCapMakesTryAllocateFail) {
  SlabPolicy policy;
  policy.page_bytes = 1024;
  policy.arena_bytes = 2048;
  SlabAllocator slab(policy);

  std::vector<char*> chunks;
  for (;;) {
    char* p = slab.TryAllocate(64);
    if (p == nullptr) {
      break;
    }
    chunks.push_back(p);
  }
  EXPECT_FALSE(chunks.empty());
  EXPECT_FALSE(slab.HasAvailable(64));
  EXPECT_LE(slab.Stats().bytes_reserved, policy.arena_bytes);
  EXPECT_GT(slab.Stats().class_exhausted, 0u);

  // Allocate() keeps serving through the tracked fallback...
  char* fallback = slab.Allocate(64);
  ASSERT_NE(fallback, nullptr);
  EXPECT_EQ(slab.Stats().fallback_allocs, 1u);
  EXPECT_GT(slab.Stats().fallback_bytes, 0u);
  SlabAllocator::Free(fallback);
  EXPECT_EQ(slab.Stats().fallback_bytes, 0u);

  // ...and freeing a pooled chunk makes the class available again.
  SlabAllocator::Free(chunks.back());
  chunks.pop_back();
  EXPECT_TRUE(slab.HasAvailable(64));
  for (char* p : chunks) {
    SlabAllocator::Free(p);
  }
}

TEST(SlabAllocator, OversizeAndDisabledGoToFallback) {
  SlabPolicy policy;
  policy.chunk_max = 1024;
  SlabAllocator slab(policy);
  EXPECT_EQ(slab.TryAllocate(4096), nullptr);
  EXPECT_TRUE(slab.HasAvailable(4096)) << "eviction cannot help oversize";
  char* big = slab.Allocate(4096);
  ASSERT_NE(big, nullptr);
  EXPECT_GE(SlabAllocator::FootprintOf(big),
            SlabAllocator::kHeaderBytes + 4096);
  SlabAllocator::Free(big);

  SlabPolicy off;
  off.chunk_max = 0;  // slabbing disabled: the abl12 heap baseline
  SlabAllocator heap_only(off);
  EXPECT_EQ(heap_only.ClassCount(), 0u);
  EXPECT_EQ(heap_only.TryAllocate(64), nullptr);
  char* p = heap_only.Allocate(64);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(heap_only.Stats().fallback_allocs, 1u);
  SlabAllocator::Free(p);
}

TEST(SlabAllocator, FootprintForIsDeterministicAndMatchesAllocations) {
  SlabPolicy policy;
  policy.growth = 1.5;
  policy.chunk_min = 32;
  policy.chunk_max = 4096;
  SlabAllocator slab(policy);
  for (std::size_t size : {1u, 31u, 32u, 33u, 100u, 1000u, 4096u, 9000u}) {
    EXPECT_EQ(slab.FootprintFor(size), SlabFootprintFor(policy, size))
        << "pure helper and allocator disagree at size " << size;
    char* p = slab.Allocate(size);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(SlabAllocator::FootprintOf(p), slab.FootprintFor(size))
        << "allocation footprint differs from prediction at size " << size;
    SlabAllocator::Free(p);
  }
  EXPECT_EQ(slab.FootprintFor(0), 0u);
}

TEST(SlabBuffer, AssignAppendPrependKeepFootprintInvariant) {
  SlabAllocator slab{SlabPolicy{}};
  SlabBuffer buffer;
  EXPECT_TRUE(buffer.empty());
  EXPECT_EQ(buffer.footprint(), 0u);

  buffer.Assign(&slab, "hello");
  EXPECT_EQ(buffer.view(), "hello");
  EXPECT_EQ(buffer.footprint(), slab.FootprintFor(5));

  buffer.Append(&slab, ", world");
  EXPECT_EQ(buffer.view(), "hello, world");
  EXPECT_EQ(buffer.footprint(), slab.FootprintFor(12));

  buffer.Prepend(&slab, ">> ");
  EXPECT_EQ(buffer.view(), ">> hello, world");
  EXPECT_EQ(buffer.footprint(), slab.FootprintFor(15));

  // Growth across a class boundary reallocates; the footprint tracks the
  // new class exactly.
  const std::string big(500, 'b');
  buffer.Append(&slab, big);
  EXPECT_EQ(buffer.size(), 515u);
  EXPECT_EQ(buffer.footprint(), slab.FootprintFor(515));

  // Shrinking assign returns to the small class (strict same-class reuse:
  // no squatting in the big chunk), so accounting can never depend on a
  // value's history.
  buffer.Assign(&slab, "tiny");
  EXPECT_EQ(buffer.view(), "tiny");
  EXPECT_EQ(buffer.footprint(), slab.FootprintFor(4));

  buffer.Assign(&slab, "");
  EXPECT_TRUE(buffer.empty());
  EXPECT_EQ(buffer.footprint(), 0u);
}

TEST(SlabBuffer, CopyLandsInFreshChunkFromSameOwner) {
  SlabAllocator slab{SlabPolicy{}};
  SlabBuffer original(&slab, "payload-abcdef");
  SlabBuffer copy(original);
  EXPECT_EQ(copy.view(), original.view());
  EXPECT_NE(copy.view().data(), original.view().data())
      << "a copy must own a distinct chunk (readers keep the original)";
  EXPECT_EQ(copy.footprint(), original.footprint());

  SlabBuffer moved(std::move(copy));
  EXPECT_EQ(moved.view(), "payload-abcdef");
  EXPECT_EQ(copy.footprint(), 0u);  // NOLINT(bugprone-use-after-move): spec

  // Allocator-less buffers work too (untracked heap), for standalone
  // CacheValue use in tests.
  SlabBuffer untracked(nullptr, "no allocator");
  EXPECT_EQ(untracked.view(), "no allocator");
  SlabBuffer untracked_copy(untracked);
  EXPECT_EQ(untracked_copy.view(), "no allocator");
}

// Both engines derive the same slab policy from the same config, so for
// identical single-threaded traffic their exact byte gauges must agree
// byte for byte — the cross-engine half of "accounting is a function of
// the traffic, not the engine".
TEST(SlabConformance, EnginesChargeIdenticalBytesForIdenticalTraffic) {
  EngineConfig config;
  config.shards = 4;  // exercise per-shard arenas vs the locked single one
  RpEngine rp(config);
  LockedEngine locked(config);

  Xoshiro256 rng(99);
  const auto drive = [&](CacheEngine& engine) {
    Xoshiro256 local = rng;  // same op stream for both engines
    for (int i = 0; i < 4000; ++i) {
      const std::string key = "slab-key-" + std::to_string(local.NextBounded(300));
      const std::size_t size = 1 + local.NextBounded(3000);
      const std::string value(size, 'x');
      switch (local.NextBounded(6)) {
        case 0:
          engine.Delete(key);
          break;
        case 1:
          engine.Append(key, "-tail");
          break;
        case 2:
          engine.Prepend(key, "head-");
          break;
        case 3:
          engine.Replace(key, value, 0, 0);
          break;
        default:
          engine.Set(key, value, 0, 0);
          break;
      }
    }
  };
  drive(rp);
  drive(locked);

  const EngineStats a = rp.Stats();
  const EngineStats b = locked.Stats();
  EXPECT_EQ(a.items, b.items);
  EXPECT_EQ(a.bytes, b.bytes)
      << "exact charges must not depend on engine or shard placement";
  EXPECT_EQ(a.bytes_wasted, b.bytes_wasted);
  EXPECT_EQ(a.slab_fallbacks, 0u) << "uncapped arenas never fall back";
  EXPECT_EQ(b.slab_fallbacks, 0u);

  // And the model helper predicts a fresh store's charge on both.
  rp.FlushAll();
  locked.FlushAll();
  rp.Set("probe", std::string(777, 'p'), 0, 0);
  locked.Set("probe", std::string(777, 'p'), 0, 0);
  const std::uint64_t expected = ModelChargedBytes(config, 5, 777);
  EXPECT_EQ(rp.Stats().bytes, expected);
  EXPECT_EQ(locked.Stats().bytes, expected);
}

// Gauge-drift regression: charges are computed against the ORIGINAL
// value's footprint, never the update clone's — the clone's fresh chunk
// can land a different footprint when pooled and fallback allocations
// mix (tiny arena forces the mix here). Any drift shows up at the end:
// an empty cache must gauge exactly zero (an underflow would read as a
// astronomically large value and wedge eviction).
TEST(SlabConformance, GaugeSurvivesFallbackPooledTransitions) {
  EngineConfig config;
  config.shards = 1;
  config.max_bytes = 64 * 1024;  // tiny arena: pool pressure is constant
  RpEngine engine(config);

  const std::string blob(900, 'x');
  std::vector<std::string> keys;
  for (int i = 0; i < 80; ++i) {
    keys.push_back("drift-" + std::to_string(i));
    engine.Set(keys.back(), blob, 0, 0);
  }

  // Every store needs a fresh chunk but never drains the reclaimer, so
  // retired chunks pile up in grace-period limbo and the stores alternate
  // between pooled chunks and heap fallbacks — exactly the footprint mix
  // the historical drift bug needed. The reclaimer's batches swing the
  // pool back.
  Xoshiro256 rng(5);
  for (int i = 0; i < 600; ++i) {
    const std::string& key = keys[rng.NextBounded(keys.size())];
    switch (rng.NextBounded(4)) {
      case 0:
        engine.Set(key, blob, 0, 0);
        break;
      case 1:
        engine.Prepend(key, "h-");
        break;
      default:
        engine.Append(key, "-t");
        break;
    }
    // The gauge must stay sane (an underflow reads as ~2^64).
    ASSERT_LE(engine.Stats().bytes, 1u << 30) << "gauge drifted/underflowed";
  }
  // Mixed-origin chunks really happened (the bug's precondition).
  ASSERT_GT(engine.Stats().slab_fallbacks, 0u);

  for (const std::string& key : keys) {
    engine.Delete(key);
  }
  EXPECT_EQ(engine.ItemCount(), 0u);
  EXPECT_EQ(engine.Stats().bytes, 0u) << "empty cache must gauge zero";
  EXPECT_EQ(engine.Stats().bytes_wasted, 0u);
}

// memcached's item_size_max analogue: appends/prepends that would grow a
// value past kMaxItemBytes answer NOT_STORED on both engines instead of
// growing without bound (the slab header stores capacity in 32 bits).
TEST(SlabConformance, AppendBeyondItemSizeMaxIsRejected) {
  for (const bool use_rp : {true, false}) {
    std::unique_ptr<CacheEngine> engine;
    if (use_rp) {
      engine = std::make_unique<RpEngine>(EngineConfig{});
    } else {
      engine = std::make_unique<LockedEngine>(EngineConfig{});
    }
    const std::string big(kMaxItemBytes - 2, 'b');
    ASSERT_EQ(engine->Set("big", big, 0, 0), StoreResult::kStored);
    EXPECT_EQ(engine->Append("big", "xy"), StoreResult::kStored)
        << engine->Name() << ": growth up to the cap is fine";
    EXPECT_EQ(engine->Append("big", "z"), StoreResult::kNotStored)
        << engine->Name() << ": growth past item_size_max must be rejected";
    EXPECT_EQ(engine->Prepend("big", "z"), StoreResult::kNotStored)
        << engine->Name();
    StoredValue out;
    ASSERT_TRUE(engine->Get("big", &out));
    EXPECT_EQ(out.data.size(), kMaxItemBytes) << engine->Name();
  }
}

// The byte-cap guarantee against *exact* accounting, on both engines: the
// gauge (which now includes chunk waste) never exceeds max_bytes while
// values hop across size classes.
TEST(SlabConformance, ByteCapHoldsUnderExactAccountingOnBothEngines) {
  for (const bool use_rp : {true, false}) {
    EngineConfig config;
    config.max_bytes = 64 * 1024;
    config.shards = 4;
    std::unique_ptr<CacheEngine> engine;
    if (use_rp) {
      engine = std::make_unique<RpEngine>(config);
    } else {
      engine = std::make_unique<LockedEngine>(config);
    }
    Xoshiro256 rng(7);
    for (int i = 0; i < 800; ++i) {
      const std::string key = "k" + std::to_string(rng.NextBounded(128));
      const std::string blob(1 + rng.NextBounded(2500), 'b');
      switch (rng.NextBounded(4)) {
        case 0:
          engine->Append(key, "-tail");
          break;
        case 1:
          engine->Replace(key, blob, 0, 0);
          break;
        default:
          engine->Set(key, blob, 0, 0);
          break;
      }
      const EngineStats stats = engine->Stats();
      ASSERT_LE(stats.bytes, config.max_bytes)
          << engine->Name() << " op " << i;
      ASSERT_LE(stats.bytes_wasted, stats.bytes) << engine->Name();
    }
    EXPECT_GT(engine->Stats().evictions, 0u) << engine->Name();
  }
}

// -- The recycling torture test ---------------------------------------------
//
// GET readers race SET/DELETE churn whose values hop across size-class
// boundaries, against a deliberately small per-shard arena so chunks are
// constantly exhausted, evicted and recycled. Every value is
// self-describing (key-derived fill byte + only that byte, any length the
// writers could have stored), so if a reader's in-section copy ever
// overlapped a recycled chunk, the payload would carry another key's fill
// byte or torn contents and fail the check. The byte gauge (summed over
// shards, each capped at max_bytes/shards) must never exceed max_bytes.
char FillFor(std::size_t key_index) {
  return static_cast<char>('a' + key_index % 26);
}

TEST(SlabTorture, ReadersNeverObserveRecycledChunksUnderChurn) {
  EngineConfig config;
  config.shards = 2;
  config.max_bytes = 2 * 64 * 1024;  // divisible: per-shard cap is exact
  config.initial_buckets = 64;
  RpEngine engine(config);

  constexpr std::size_t kKeys = 64;
  // Sizes straddle several classes, up to well past the smallest page.
  constexpr std::size_t kSizes[] = {8, 40, 200, 900, 2200, 6000};

  const auto key_of = [](std::size_t i) {
    return "torture-" + std::to_string(i);
  };

  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  // Two writers churning stores/deletes across classes.
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      Xoshiro256 rng(1000 + w);
      for (int op = 0; op < 12000 && !failed.load(std::memory_order_relaxed);
           ++op) {
        const std::size_t i = rng.NextBounded(kKeys);
        if (rng.NextBounded(5) == 0) {
          engine.Delete(key_of(i));
        } else {
          const std::size_t size = kSizes[rng.NextBounded(std::size(kSizes))];
          engine.Set(key_of(i), std::string(size, FillFor(i)), 0, 0);
        }
      }
    });
  }
  // Two readers validating every observed payload.
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      Xoshiro256 rng(2000 + r);
      StoredValue out;
      for (int op = 0; op < 20000 && !failed.load(std::memory_order_relaxed);
           ++op) {
        const std::size_t i = rng.NextBounded(kKeys);
        if (!engine.Get(key_of(i), &out)) {
          continue;
        }
        bool size_ok = false;
        for (const std::size_t size : kSizes) {
          size_ok |= out.data.size() == size;
        }
        if (!size_ok) {
          failed.store(true, std::memory_order_relaxed);
          ADD_FAILURE() << "impossible payload size " << out.data.size();
          break;
        }
        const char expected = FillFor(i);
        if (out.data.find_first_not_of(expected) != std::string::npos) {
          failed.store(true, std::memory_order_relaxed);
          ADD_FAILURE()
              << "reader observed a recycled/torn chunk for key " << i;
          break;
        }
        // The gauge respects the cap at every instant (each shard is
        // capped at max_bytes/shards; the aggregate bounds their sum).
        const std::uint64_t bytes = engine.Stats().bytes;
        if (bytes > config.max_bytes) {
          failed.store(true, std::memory_order_relaxed);
          ADD_FAILURE() << "gauge " << bytes << " exceeds cap "
                        << config.max_bytes;
          break;
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  ASSERT_FALSE(failed.load());

  // The churn really did stress the pool: evictions happened, and with a
  // 2.5x-over-arena working set some of them were class-exhaustion driven.
  const EngineStats stats = engine.Stats();
  EXPECT_GT(stats.evictions + stats.expired_reclaims, 0u);
  EXPECT_LE(stats.bytes, config.max_bytes);
}

}  // namespace
}  // namespace rp::memcache
