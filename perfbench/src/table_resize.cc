// table-resize: the paper's own experiment, in process. Three reader
// threads do uniform lookups on an RpHashMap<uint64_t, uint64_t> of 8k
// keys while one thread alternates Resize(16k) / Resize(8k); fixed slices
// run the same readers on the same table with no resizer. Every lookup
// checks that its key is present and holds its value.
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "perfbench/src/probe.h"
#include "perfbench/src/run.h"
#include "perfbench/src/util.h"
#include "src/core/rp_hash_map.h"

namespace pb {

namespace {

using Map = rp::core::RpHashMap<std::uint64_t, std::uint64_t>;

constexpr std::size_t kSmall = 8192;
constexpr std::size_t kLarge = 16384;
constexpr int kReaders = 3;
constexpr int kBatch = 256;

struct Table {
  std::vector<std::uint64_t> keys;
  std::vector<std::uint64_t> values;
  std::unique_ptr<Map> map;
};

Table BuildTable(std::size_t n, std::uint64_t seed) {
  Table t;
  rp::core::RpHashMapOptions options;
  options.auto_resize = false;
  t.map = std::make_unique<Map>(kSmall, options);
  Rng rng(seed, 7);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t key = rng.Next();
    if (!t.map->Insert(key, Mix64(key))) {
      continue;  // a repeated 64-bit draw: keep the keys distinct
    }
    t.keys.push_back(key);
    t.values.push_back(Mix64(key));
  }
  return t;
}

// Fixed and resizing slices alternate through the run (even slices fixed,
// odd slices resizing), so both phases see the same host conditions; the
// host's speed drifts on a scale of seconds, much longer than a slice.
constexpr double kSliceSeconds = 0.25;

// What a resizer costs the readers is mostly cross-core coherence traffic,
// so it depends on which CPUs the resizer and each reader share caches
// with. Left to the scheduler, that placement is drawn once per process
// and moved lookups/s during resizing by 2x between runs. Instead every
// thread is pinned, and the placement rotates each slice pair (one fixed
// and one resizing slice) so that the resizer visits every CPU in turn.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) {
        cpus.push_back(c);
      }
    }
  }
  return cpus;
}

// Role 0 is the resizer, roles 1..kReaders the readers. With fewer CPUs
// than threads nothing is pinned.
void PinForPair(const std::vector<int>& cpus, std::size_t pair, int role) {
  if (cpus.size() < static_cast<std::size_t>(kReaders) + 1) {
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[(pair + static_cast<std::size_t>(role)) % cpus.size()], &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

// In resizing slices a Resize(16k)/Resize(8k) pair starts this often.
// Back to back, the readers' rate swung with host conditions far beyond
// any usable bound; see METHODOLOGY.md.
constexpr std::uint64_t kResizePeriodNs = 1'000'000;
// Set-up's single-thread warm-up reads: about a tenth of a second.
constexpr int kWarmupLookups = 8 << 20;
// Latency samples are kept for every 64th batch: about 3000 per slice,
// few enough that their buffers stay a small part of peak_rss_mb.
constexpr int kSampleEvery = 64;

struct ReaderStats {
  std::uint64_t lookups = 0;
  std::uint64_t misses = 0;
  std::uint64_t wrong = 0;
  std::vector<double> ops_by_slice;
  // ns per lookup of sampled batches, by slice.
  std::vector<std::vector<double>> ns_by_slice;
};

struct ResizerStats {
  std::vector<std::vector<double>> resize_us_by_slice;
  std::uint64_t resizes = 0;
  std::uint64_t grace_periods = 0;
  std::uint64_t expands = 0;
  std::uint64_t unzip_passes = 0;
  std::uint64_t pointer_swings = 0;
};

struct Run {
  std::vector<ReaderStats> readers;
  ResizerStats resizer;
  std::size_t slices = 0;
  double cpu_s = 0;
  std::vector<double> gp_us;

  // Lookups per second over the fixed (false) or resizing (true) slices.
  double Rate(bool resizing) const {
    double ops = 0;
    std::size_t n = 0;
    for (std::size_t i = resizing ? 1 : 0; i < slices; i += 2) {
      for (const auto& r : readers) {
        ops += r.ops_by_slice[i];
      }
      ++n;
    }
    return ops / (static_cast<double>(n) * kSliceSeconds);
  }
  double ResizingSeconds() const {
    return static_cast<double>(slices / 2) * kSliceSeconds;
  }
  std::uint64_t Lookups() const {
    std::uint64_t n = 0;
    for (const auto& r : readers) {
      n += r.lookups;
    }
    return n;
  }
  // Sampled per-lookup ns of every fixed (false) or resizing (true) slice.
  std::vector<std::vector<double>> LookupNs(bool resizing) const {
    std::vector<std::vector<double>> by_slice;
    for (std::size_t i = resizing ? 1 : 0; i < slices; i += 2) {
      std::vector<double>& all = by_slice.emplace_back();
      for (const auto& r : readers) {
        all.insert(all.end(), r.ns_by_slice[i].begin(), r.ns_by_slice[i].end());
      }
    }
    return by_slice;
  }
  std::vector<std::vector<double>> ResizeUs() const {
    std::vector<std::vector<double>> by_slice;
    for (std::size_t i = 1; i < slices; i += 2) {
      by_slice.push_back(resizer.resize_us_by_slice[i]);
    }
    return by_slice;
  }
};

std::size_t SliceOf(std::uint64_t t, std::uint64_t start) {
  return static_cast<std::size_t>(static_cast<double>(t - start) /
                                  (kSliceSeconds * 1e9));
}

void ReadLoop(const Table& t, std::uint64_t seed, int id, int role,
              const std::vector<int>& cpus, std::uint64_t start,
              std::size_t slices, ReaderStats* out) {
  Rng rng(seed, 100 + static_cast<std::uint64_t>(id));
  out->ops_by_slice.assign(slices, 0);
  out->ns_by_slice.assign(slices, {});
  const std::uint64_t n = t.keys.size();
  std::size_t pinned_pair = SIZE_MAX;
  for (std::uint64_t batch = 0;; ++batch) {
    const std::size_t pair = SliceOf(NowNs(), start) / 2;
    if (pair != pinned_pair) {
      PinForPair(cpus, pair, role);
      pinned_pair = pair;
    }
    const std::uint64_t t0 = NowNs();
    for (int i = 0; i < kBatch; ++i) {
      const std::uint64_t idx = rng.Below(n);
      const std::optional<std::uint64_t> v = t.map->Get(t.keys[idx]);
      if (!v) {
        ++out->misses;
      } else if (*v != t.values[idx]) {
        ++out->wrong;
      }
    }
    const std::uint64_t t1 = NowNs();
    const std::size_t slice = SliceOf(t1, start);
    if (slice >= slices) {
      break;
    }
    out->lookups += kBatch;
    out->ops_by_slice[slice] += kBatch;
    if (batch % kSampleEvery == 0) {
      out->ns_by_slice[slice].push_back(static_cast<double>(t1 - t0) / kBatch);
    }
  }
}

// In resizing slices: Resize(16k) then Resize(8k), one pair per period, so
// every fixed slice finds the table at 8k buckets.
void ResizeLoop(Map& map, const std::vector<int>& cpus, std::uint64_t start,
                std::size_t slices, ResizerStats* out) {
  out->resize_us_by_slice.assign(slices, {});
  std::size_t pinned_pair = SIZE_MAX;
  for (;;) {
    const std::size_t slice = SliceOf(NowNs(), start);
    if (slice >= slices) {
      break;
    }
    if (slice / 2 != pinned_pair) {
      pinned_pair = slice / 2;
      PinForPair(cpus, pinned_pair, 0);
    }
    if (slice % 2 == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      continue;
    }
    const std::uint64_t pair_start = NowNs();
    for (const std::size_t target : {kLarge, kSmall}) {
      const std::uint64_t t0 = NowNs();
      map.Resize(target);
      out->resize_us_by_slice[slice].push_back(static_cast<double>(NowNs() - t0) / 1e3);
      const rp::core::ResizeStats s = map.LastResizeStats();
      ++out->resizes;
      out->grace_periods += s.grace_periods;
      if (target == kLarge) {
        ++out->expands;
        out->unzip_passes += s.unzip_passes;
        out->pointer_swings += s.pointer_swings;
      }
    }
    const std::uint64_t next = pair_start + kResizePeriodNs;
    if (const std::uint64_t now = NowNs(); now < next) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(next - now));
    }
  }
}

Run Interleave(const Table& t, std::uint64_t seed, double seconds,
               bool probe_on) {
  Run run;
  run.slices = std::max<std::size_t>(2, static_cast<std::size_t>(seconds / kSliceSeconds) & ~std::size_t{1});
  run.readers.resize(kReaders);
  GracePeriodProbe probe;
  if (probe_on) {
    probe.Start();
  }
  const std::vector<int> cpus = AllowedCpus();
  const double cpu0 = ProcessCpuSeconds();
  const std::uint64_t start = NowNs();
  std::vector<std::thread> threads;
  for (int i = 0; i < kReaders; ++i) {
    threads.emplace_back(ReadLoop, std::cref(t), seed, i, i + 1, std::cref(cpus),
                         start, run.slices, &run.readers[i]);
  }
  threads.emplace_back(ResizeLoop, std::ref(*t.map), std::cref(cpus), start,
                       run.slices, &run.resizer);
  for (auto& th : threads) {
    th.join();
  }
  run.cpu_s = ProcessCpuSeconds() - cpu0;
  probe.Stop();
  run.gp_us = probe.Take();
  return run;
}

void CountFailures(const Run& run, RunResult* r) {
  for (const auto& rs : run.readers) {
    r->attempted += rs.lookups;
    r->failures.impossible_miss += rs.misses;
    r->failures.wrong_value += rs.wrong;
  }
}

double HitRatio(const RunResult& r) {
  const double misses = static_cast<double>(r.failures.impossible_miss);
  return r.attempted == 0 ? 0 : (static_cast<double>(r.attempted) - misses) /
                                    static_cast<double>(r.attempted);
}

}  // namespace

RunResult RunTableResize(const RunArgs& args) {
  const WorkloadSpec& spec = *args.spec;
  RunResult result;

  // Set-up: build and fill the table, then warm it with a fixed number of
  // checked reads, so that setup_s measures work and not a timer.
  // Repeated; the last table is the one measured.
  std::vector<double> setup_s;
  Table table;
  for (int rep = 0; rep < (args.trace ? 1 : kSetupReps); ++rep) {
    const std::uint64_t t0 = NowNs();
    table = BuildTable(spec.keys, args.seed);
    Rng rng(args.seed, 99);
    for (int i = 0; i < kWarmupLookups; ++i) {
      const std::uint64_t idx = rng.Below(table.keys.size());
      const std::optional<std::uint64_t> v = table.map->Get(table.keys[idx]);
      if (!v) {
        ++result.failures.impossible_miss;
      } else if (*v != table.values[idx]) {
        ++result.failures.wrong_value;
      }
    }
    result.attempted += kWarmupLookups;
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  if (!args.trace) {
    const Run run = Interleave(table, args.seed, args.seconds, false);
    CountFailures(run, &result);
    const double ops = run.Rate(true);
    const double base = run.Rate(false);
    // Percentiles are medians over the resizing slices of each slice's
    // percentile, like the socket workloads' medians over rounds.
    const std::vector<std::vector<double>> lookup_ns = run.LookupNs(true);
    const std::vector<std::vector<double>> resize_us = run.ResizeUs();
    auto& m = result.metrics;
    m["ops_per_s"] = ops;
    for (const double p : {50, 90, 99}) {
      const std::string q = std::to_string(static_cast<int>(p));
      m["get_p" + q + "_us"] = WindowedPercentile(lookup_ns, p) / 1e3;
      m["set_p" + q + "_us"] = WindowedPercentile(resize_us, p);
    }
    m["cpu_us_per_op"] = run.cpu_s * 1e6 / static_cast<double>(run.Lookups());
    m["hit_ratio"] = HitRatio(result);
    m["peak_rss_mb"] = PeakRssMb();
    m["setup_s"] = Median(setup_s);
    auto& d = result.details;
    d["resizes_per_s"] = static_cast<double>(run.resizer.resizes) / run.ResizingSeconds();
    d["resize_lookup_ratio"] = ops / base;
    d["resize_lookup_base_per_s"] = base;
    d["get_samples"] = static_cast<double>(Pooled(lookup_ns).size());
    d["set_samples"] = static_cast<double>(Pooled(resize_us).size());
    return result;
  }

  // Traced run: an untraced half (the overhead baseline), then a half with
  // the grace-period probe on.
  const Run plain = Interleave(table, args.seed, 0.5 * args.seconds, false);
  const Run traced = Interleave(table, args.seed, 0.5 * args.seconds, true);
  CountFailures(plain, &result);
  CountFailures(traced, &result);
  const double plain_ops = plain.Rate(true);
  const double traced_ops = traced.Rate(true);
  std::vector<double> resize_us = Pooled(traced.ResizeUs());
  std::vector<double> gp = traced.gp_us;
  const ResizerStats& rz = traced.resizer;
  auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };
  auto& m = result.metrics;
  m["resizes_per_s"] = static_cast<double>(plain.resizer.resizes) / plain.ResizingSeconds();
  m["resize_lookup_ratio"] = plain_ops / plain.Rate(false);
  m["resize_lookup_base_per_s"] = plain.Rate(false);
  m["core.resize_ms_p50"] = Percentile(resize_us, 50) / 1e3;
  m["core.resize_ms_p99"] = Percentile(resize_us, 99) / 1e3;
  m["core.grace_periods_per_resize"] = ratio(rz.grace_periods, rz.resizes);
  m["core.unzip_passes_per_expand"] = ratio(rz.unzip_passes, rz.expands);
  m["core.pointer_swings_per_expand"] = ratio(rz.pointer_swings, rz.expands);
  m["core.lookup_ns_fixed"] = Mean(Pooled(traced.LookupNs(false)));
  m["core.lookup_ns_resizing"] = Mean(Pooled(traced.LookupNs(true)));
  m["core.resizes_in_window"] = static_cast<double>(rz.resizes);
  m["rcu.grace_period_p50_us"] = Percentile(gp, 50);
  m["rcu.grace_period_p99_us"] = Percentile(gp, 99);
  m["trace.ops_per_s_untraced"] = plain_ops;
  m["trace.ops_per_s_traced"] = traced_ops;
  m["trace.overhead_share"] = 1.0 - traced_ops / plain_ops;
  result.details["setup_s"] = Median(setup_s);
  result.details["hit_ratio"] = HitRatio(result);
  result.details["gp_samples"] = static_cast<double>(gp.size());
  return result;
}

}  // namespace pb
