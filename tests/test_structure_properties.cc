// Typed sweep over the hash map's RCU-domain axis (Epoch vs QSBR),
// complementing tests/test_properties.cc which sweeps the hash map's
// sizing parameters.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/core/rp_hash_map.h"
#include "src/rcu/epoch.h"
#include "src/rcu/qsbr.h"
#include "src/util/rng.h"

namespace rp {
namespace {

// ---------------------------------------------------------------------------
// Property: the hash map behaves identically on the Epoch and QSBR domains
// (the structures are domain-generic; only the read-side cost differs).
// QSBR readers must announce quiescent states for writer progress.
// ---------------------------------------------------------------------------
template <typename Domain>
struct DomainTag {
  using domain = Domain;
};

template <typename Tag>
class HashMapDomainTyped : public ::testing::Test {};

using DomainTags = ::testing::Types<DomainTag<rcu::Epoch>, DomainTag<rcu::Qsbr>>;
TYPED_TEST_SUITE(HashMapDomainTyped, DomainTags);

TYPED_TEST(HashMapDomainTyped, ResizeUnderConcurrentReaders) {
  using Domain = typename TypeParam::domain;
  using Map = core::RpHashMap<std::uint64_t, std::uint64_t,
                              core::MixedHash<std::uint64_t>,
                              std::equal_to<std::uint64_t>, Domain>;
  core::RpHashMapOptions options;
  options.auto_resize = false;
  Map map(16, options);
  constexpr std::uint64_t kKeys = 512;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    map.Insert(k, k * 7);
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> misses{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      if constexpr (std::is_same_v<Domain, rcu::Qsbr>) {
        rcu::Qsbr::RegisterThread();
      }
      SplitMix64 rng(static_cast<std::uint64_t>(t) + 1);
      std::uint64_t since_quiescent = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t key = rng.Next() % kKeys;
        const auto v = map.Get(key);
        if (!v.has_value() || *v != key * 7) {
          misses.fetch_add(1, std::memory_order_relaxed);
        }
        if constexpr (std::is_same_v<Domain, rcu::Qsbr>) {
          if (++since_quiescent == 64) {
            rcu::Qsbr::QuiescentState();
            since_quiescent = 0;
          }
        }
      }
      if constexpr (std::is_same_v<Domain, rcu::Qsbr>) {
        rcu::Qsbr::Offline();
      }
    });
  }

  for (int round = 0; round < 10; ++round) {
    map.Resize(1024);
    map.Resize(16);
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& r : readers) {
    r.join();
  }
  EXPECT_EQ(misses.load(), 0u);
  EXPECT_EQ(map.Size(), kKeys);
}

TYPED_TEST(HashMapDomainTyped, GracePeriodsAdvanceWithUpdates) {
  using Domain = typename TypeParam::domain;
  using Map = core::RpHashMap<std::uint64_t, std::uint64_t,
                              core::MixedHash<std::uint64_t>,
                              std::equal_to<std::uint64_t>, Domain>;
  Map map(64);
  const std::uint64_t before = Domain::GracePeriodCount();
  for (std::uint64_t k = 0; k < 64; ++k) {
    map.Insert(k, k);
  }
  map.Resize(256);  // expansion must run grace periods on this domain
  EXPECT_GT(Domain::GracePeriodCount(), before);
  // Deferred reclamation drains on this domain too.
  for (std::uint64_t k = 0; k < 64; ++k) {
    map.Erase(k);
  }
  Domain::Barrier();
  SUCCEED();
}

}  // namespace
}  // namespace rp
