// Tests for the precomputed-hash (core::Prehashed) table API:
//   * plain and hash-accepting overloads agree: a randomized op mix driven
//     through both spellings converges to identical map state;
//   * a counting hasher proves the hash-cost contract — plain ops hash
//     exactly once, Prehashed ops never, and resizes never rehash (bucket
//     moves reuse the hash stored in the node);
//   * a bounded torture (TSan target): prehashed writers and readers racing
//     explicit resizes.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/core/hash.h"
#include "src/core/rp_hash_map.h"
#include "src/util/rng.h"

namespace {

using rp::core::Prehashed;
using rp::core::RpHashMap;
using rp::core::RpHashMapOptions;
using rp::core::StringHash;

std::string KeyName(std::uint64_t i) { return "key-" + std::to_string(i); }

// Snapshot helper: the map's contents as an ordered std::map.
template <typename Map>
std::map<std::string, std::uint64_t> Snapshot(const Map& map) {
  std::map<std::string, std::uint64_t> out;
  map.ForEach([&](const std::string& key, const std::uint64_t& value) {
    out[key] = value;
  });
  return out;
}

TEST(HashedApi, PlainAndHashedOverloadsAgree) {
  RpHashMap<std::string, std::uint64_t> plain(16);
  RpHashMap<std::string, std::uint64_t> hashed(16);
  rp::Xoshiro256 rng(7);

  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t k = rng.NextBounded(512);
    const std::string key = KeyName(k);
    const Prehashed h{StringHash{}(key)};
    const std::uint64_t op = rng.NextBounded(6);
    switch (op) {
      case 0:
        EXPECT_EQ(plain.Insert(key, k), hashed.Insert(h, key, k));
        break;
      case 1:
        EXPECT_EQ(plain.InsertOrAssign(key, k + i),
                  hashed.InsertOrAssign(h, key, k + i));
        break;
      case 2:
        EXPECT_EQ(plain.Update(key, [](std::uint64_t& v) { ++v; }),
                  hashed.Update(h, key, [](std::uint64_t& v) { ++v; }));
        break;
      case 3:
        EXPECT_EQ(
            plain.UpdateIf(
                key, [](const std::uint64_t& v) { return v % 2 == 0; },
                [](std::uint64_t& v) { v *= 3; }),
            hashed.UpdateIf(
                h, key, [](const std::uint64_t& v) { return v % 2 == 0; },
                [](std::uint64_t& v) { v *= 3; }));
        break;
      case 4:
        EXPECT_EQ(plain.Erase(key), hashed.Erase(h, key));
        break;
      case 5: {
        const std::string to = KeyName(k + 512);
        const Prehashed to_h{StringHash{}(to)};
        EXPECT_EQ(plain.Move(key, to), hashed.Move(h, key, to_h, to));
        break;
      }
    }
    // Read-side spot check through both spellings.
    EXPECT_EQ(plain.Contains(key), hashed.Contains(h, key));
    EXPECT_EQ(plain.Get(key), hashed.Get(h, key));
  }

  EXPECT_EQ(plain.Size(), hashed.Size());
  EXPECT_EQ(Snapshot(plain), Snapshot(hashed));
}

// Hasher that counts its invocations (on top of the production hash).
struct CountingHash {
  static inline std::atomic<std::uint64_t> calls{0};
  std::size_t operator()(const std::string& s) const {
    calls.fetch_add(1, std::memory_order_relaxed);
    return StringHash{}(s);
  }
};

std::uint64_t CountingCalls() {
  return CountingHash::calls.load(std::memory_order_relaxed);
}

using CountingMap =
    RpHashMap<std::string, std::uint64_t, CountingHash>;

TEST(HashedApi, PlainOpsHashOnceHashedOpsNever) {
  CountingMap map(64);
  const std::string key = "the-key";

  std::uint64_t before = CountingCalls();
  ASSERT_TRUE(map.Insert(key, 1));
  EXPECT_EQ(CountingCalls() - before, 1u) << "plain Insert must hash once";

  before = CountingCalls();
  EXPECT_TRUE(map.Contains(key));
  EXPECT_EQ(CountingCalls() - before, 1u) << "plain Contains must hash once";

  before = CountingCalls();
  EXPECT_TRUE(map.UpdateIf(key, [](std::uint64_t& v) {
    ++v;
    return true;
  }));
  EXPECT_EQ(CountingCalls() - before, 1u) << "plain UpdateIf must hash once";

  // The hashed spellings pay exactly the caller's one hash, nothing inside.
  before = CountingCalls();
  const Prehashed h{CountingHash{}(key)};
  EXPECT_EQ(CountingCalls() - before, 1u);

  before = CountingCalls();
  EXPECT_TRUE(map.Contains(h, key));
  EXPECT_EQ(map.Get(h, key).value(), 2u);
  EXPECT_TRUE(map.With(h, key, [](const std::uint64_t&) {}));
  EXPECT_FALSE(map.InsertOrAssign(h, key, 9));  // replaced, not inserted
  EXPECT_TRUE(map.Update(h, key, [](std::uint64_t& v) { ++v; }));
  EXPECT_TRUE(map.Erase(h, key));
  EXPECT_TRUE(map.Insert(h, key, 1));
  EXPECT_EQ(CountingCalls() - before, 0u)
      << "Prehashed overloads must never rehash";
}

TEST(HashedApi, ResizeNeverRehashes) {
  CountingMap map(16);
  constexpr std::uint64_t kKeys = 256;
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(map.Insert(KeyName(i), i));
  }

  const std::uint64_t before = CountingCalls();
  map.Resize(1024);  // several expand steps: every chain unzips
  map.Resize(16);    // several shrink steps: every chain concatenates
  map.Resize(map.BucketCount() * 2);
  map.Resize(map.BucketCount() / 2);
  EXPECT_EQ(CountingCalls() - before, 0u)
      << "bucket moves must reuse Node::hash, never rehash the key";

  // And nothing was lost or misplaced along the way.
  EXPECT_TRUE(map.BucketsArePrecise());
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    EXPECT_EQ(map.Get(KeyName(i)).value(), i);
  }
}

// Bounded torture for the TSan job: two prehashed writers and a prehashed
// reader race explicit resizes. Loops are op-bounded (not stop-flag-only)
// so a 1-core scheduler cannot starve the finish line.
TEST(HashedApi, PrehashedOpsRacingResizeTorture) {
  RpHashMap<std::string, std::uint64_t> map(16);
  constexpr std::uint64_t kKeySpace = 128;

  // Precompute the hashes once, as an engine would.
  std::vector<std::string> keys;
  std::vector<Prehashed> hashes;
  for (std::uint64_t i = 0; i < kKeySpace; ++i) {
    keys.push_back(KeyName(i));
    hashes.push_back(Prehashed{StringHash{}(keys.back())});
  }

  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      rp::Xoshiro256 rng(100 + w);
      for (int i = 0; i < 20000; ++i) {
        const std::uint64_t k = rng.NextBounded(kKeySpace);
        if (rng.NextBounded(2) == 0) {
          map.InsertOrAssign(hashes[k], keys[k], k);
        } else {
          map.Erase(hashes[k], keys[k]);
        }
      }
    });
  }
  threads.emplace_back([&] {
    rp::Xoshiro256 rng(999);
    for (int i = 0; i < 40000; ++i) {
      const std::uint64_t k = rng.NextBounded(kKeySpace);
      map.With(hashes[k], keys[k], [&](const std::uint64_t& v) {
        // Values are always the key index; a torn read would break this.
        EXPECT_EQ(v, k);
      });
    }
  });
  threads.emplace_back([&] {
    for (int i = 0; i < 30; ++i) {
      map.Resize(map.BucketCount() * 2);
      map.Resize(map.BucketCount() * 2);
      map.Resize(map.BucketCount() / 2);
      map.Resize(map.BucketCount() / 2);
    }
  });
  for (std::thread& t : threads) {
    t.join();
  }

  // Converged state must still be coherent and hash-addressable.
  const auto contents = Snapshot(map);
  EXPECT_EQ(contents.size(), map.Size());
  for (const auto& [key, value] : contents) {
    EXPECT_EQ(key, KeyName(value));
    EXPECT_TRUE(map.Contains(Prehashed{StringHash{}(key)}, key));
  }
}

}  // namespace
