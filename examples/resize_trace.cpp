// resize_trace: an instrumented walk-through of the paper's two resize
// algorithms, printing what each phase does and what it costs.
//
// Run:  ./build/examples/resize_trace
#include <cstdio>
#include <cstdint>

#include "src/core/rp_hash_map.h"
#include "src/rcu/epoch.h"

namespace {

using Map = rp::core::RpHashMap<std::uint64_t, std::uint64_t>;

void Report(const char* label, const rp::core::ResizeStats& stats,
            std::uint64_t gp_before, std::uint64_t gp_after) {
  std::printf("%s\n", label);
  std::printf("  buckets:        %zu -> %zu\n", stats.from_buckets, stats.to_buckets);
  std::printf("  unzip passes:   %zu\n", stats.unzip_passes);
  std::printf("  grace periods:  %zu (domain counter advanced %llu)\n",
              stats.grace_periods,
              static_cast<unsigned long long>(gp_after - gp_before));
  std::printf("  pointer swings: %zu\n", stats.pointer_swings);
  std::printf("  duration:       %.3f ms\n\n",
              static_cast<double>(stats.duration_ns) / 1e6);
}

}  // namespace

int main() {
  std::printf(
      "Tracing the relativistic resize algorithms "
      "(Triplett/McKenney/Walpole, ATC'11)\n\n");

  for (const std::uint64_t load : {1ULL, 4ULL, 16ULL}) {
    constexpr std::size_t kBuckets = 1024;
    Map map(kBuckets);
    for (std::uint64_t i = 0; i < kBuckets * load; ++i) {
      map.Insert(i, i);
    }

    std::printf("== load factor %llu (%llu entries in %zu buckets) ==\n",
                static_cast<unsigned long long>(load),
                static_cast<unsigned long long>(kBuckets * load), kBuckets);

    // EXPAND: allocate 2x buckets -> aim each new bucket into the zipped old
    // chain -> publish -> wait for readers -> unzip one swing per chain per
    // pass, waiting for readers between passes -> free old array.
    std::uint64_t gp0 = rp::rcu::Epoch::GracePeriodCount();
    map.Resize(kBuckets * 2);
    Report("EXPAND (unzip)", map.LastResizeStats(), gp0,
           rp::rcu::Epoch::GracePeriodCount());

    // SHRINK: allocate half-size array -> concatenate sibling chains (a
    // reader of bucket j transiently sees bucket j+half's entries appended:
    // imprecise but complete) -> publish -> ONE wait-for-readers -> free.
    gp0 = rp::rcu::Epoch::GracePeriodCount();
    map.Resize(kBuckets / 2);
    Report("SHRINK x4 (concatenate, 2 halvings)", map.LastResizeStats(), gp0,
           rp::rcu::Epoch::GracePeriodCount());

    std::printf("  buckets precise after resizes: %s\n\n",
                map.BucketsArePrecise() ? "yes" : "NO (bug!)");
  }

  std::printf(
      "Note how expand grace periods track the chain interleaving (runs),\n"
      "not the element count, and shrink is always one grace period per\n"
      "halving. That is the paper's core algorithmic result.\n");
  return 0;
}
