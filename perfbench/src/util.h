// Small self-contained helpers for the benchmark: clock, seeded RNG, a
// Zipf sampler, percentiles, process CPU/RSS and JSON number formatting.
// The benchmark owns its generator and statistics so that its inputs stay
// identical however the library under test changes.
#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace pb {

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline std::uint64_t Mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// SplitMix64 stream: every input the benchmark generates comes from one of
// these, seeded from (--seed, stream id).
class Rng {
 public:
  Rng(std::uint64_t seed, std::uint64_t stream)
      : state_(Mix64(seed * 0x9E3779B97F4A7C15ULL + stream + 1)) {}

  std::uint64_t Next() { return Mix64(state_ += 0x9E3779B97F4A7C15ULL); }
  std::uint64_t Below(std::uint64_t bound) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(Next()) * bound) >> 64);
  }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  // Exponential inter-arrival gap with the given mean.
  double Exponential(double mean) { return -mean * std::log(1.0 - Unit()); }

 private:
  std::uint64_t state_;
};

// Zipf(theta) over [0, n) by inversion of a precomputed CDF: rank r is key
// r, so key 0 is the hottest on every seed.
class Zipf {
 public:
  Zipf(std::size_t n, double theta) : cdf_(n) {
    double sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) {
      c /= sum;
    }
  }
  std::uint32_t Next(Rng& rng) const {
    const double u = rng.Unit();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<std::uint32_t>(
        std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1));
  }

 private:
  std::vector<double> cdf_;
};

// Linear-interpolated percentile (p in [0, 100]); sorts `v` in place.
inline double Percentile(std::vector<double>& v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

inline double Median(std::vector<double> v) { return Percentile(v, 50); }

// Median over windows (rounds, slices) of each window's p-th percentile.
// Consecutive windows are merged until each holds at least `min_samples`,
// so that a rare request kind still has a few dozen samples above its p99
// in every window.
inline double WindowedPercentile(const std::vector<std::vector<double>>& windows,
                                 double p, std::size_t min_samples = 2000) {
  std::vector<double> per_window;
  std::vector<double> merged;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    merged.insert(merged.end(), windows[i].begin(), windows[i].end());
    const bool last = i + 1 == windows.size();
    if (!merged.empty() && (merged.size() >= min_samples || last)) {
      // A short remainder at the end is left out, unless it is all there is.
      if (last && merged.size() < min_samples && !per_window.empty()) {
        break;
      }
      per_window.push_back(Percentile(merged, p));
      merged.clear();
    }
  }
  return Median(per_window);
}

inline std::vector<double> Pooled(const std::vector<std::vector<double>>& windows) {
  std::vector<double> all;
  for (const auto& w : windows) {
    all.insert(all.end(), w.begin(), w.end());
  }
  return all;
}

inline double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) {
    sum += x;
  }
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

// User + system CPU seconds of this process, all threads.
inline double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

// Peak RSS of this process image, from VmHWM. (ru_maxrss would carry over
// the spawning process's peak across exec.)
inline double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) {
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

// Shortest round-trip decimal form of a double (every digit measured).
inline std::string Num(double x) {
  if (!std::isfinite(x)) {
    return "null";
  }
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), x);
  return std::string(buf, res.ptr);
}

inline std::string Quote(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
  return out;
}

}  // namespace pb

#endif  // PERFBENCH_UTIL_H_
