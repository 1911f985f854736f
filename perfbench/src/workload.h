// Workload definitions, self-describing values and failure accounting.
//
// Every stored value names its key, its version and its length in a
// header, followed by a fill pattern derived from (key, version). A reader
// can therefore check any response on its own: the right key, a version
// that was actually written, the length the header promises, and an
// untorn fill.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <atomic>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>

#include "perfbench/src/util.h"

namespace pb {

enum class Kind { kCacheRead, kCacheWrite, kClusterRead, kTableResize };

struct WorkloadSpec {
  const char* name;
  Kind kind;
  bool cluster;      // served through a ClusterProxy over 3 backends
  bool meta;         // quiet ms/mg runs instead of classic get/set
  bool all_present;  // uncapped, no TTL: every key must always hit
  std::size_t keys;
  double theta;
  std::size_t value_min;
  std::size_t value_max;
  std::size_t max_bytes;  // engine byte cap, 0 = uncapped
  double ttl_share;       // share of stores that carry a TTL
  int ttl_seconds;
  // Open-loop offered rate in round trips per second, over both generator
  // threads: about a quarter of the closed-loop capacity on a 4-CPU host,
  // below the knee where latency starts to swing with host noise.
  double open_rate;
  // Workload traffic run after prepopulation, before any timing.
  double warmup_seconds;
};

inline constexpr WorkloadSpec kWorkloads[] = {
    {"cache-read", Kind::kCacheRead, false, false, true, 200000, 0.99, 32,
     256, 0, 0.0, 0, 40000, 0.5},
    // The longer warm-up carries the cache past the transient that follows
    // the fill (evictions and slab moves settling), which otherwise stalls
    // the server for a few hundred milliseconds early in the timed window.
    {"cache-write", Kind::kCacheWrite, false, true, false, 200000, 0.9, 32,
     2048, 64u << 20, 0.10, 3, 11000, 2.0},
    {"cluster-read", Kind::kClusterRead, true, false, true, 200000, 0.99, 32,
     256, 0, 0.0, 0, 15000, 0.5},
    {"table-resize", Kind::kTableResize, false, false, true, 8192, 0.0, 8, 8,
     0, 0.0, 0, 0, 0},
};

inline const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) {
      return &spec;
    }
  }
  return nullptr;
}

// Failure kinds, counted separately; their sum is the run's `failed`.
struct Failures {
  std::uint64_t wrong_value = 0;      // wrong key, unwritten version, length
  std::uint64_t corrupt = 0;          // torn or garbled value bytes
  std::uint64_t impossible_miss = 0;  // miss on a key that must be present
  std::uint64_t error_reply = 0;      // SERVER_ERROR/CLIENT_ERROR/NS/...
  std::uint64_t timeout = 0;          // no response within the deadline
  std::uint64_t disconnect = 0;       // closed or unframable stream

  std::uint64_t Total() const {
    return wrong_value + corrupt + impossible_miss + error_reply + timeout +
           disconnect;
  }
  void Add(const Failures& o) {
    wrong_value += o.wrong_value;
    corrupt += o.corrupt;
    impossible_miss += o.impossible_miss;
    error_reply += o.error_reply;
    timeout += o.timeout;
    disconnect += o.disconnect;
  }
};

inline std::string KeyName(std::uint32_t key) {
  return "pb:" + std::to_string(key);
}

// Highest version written so far per key; a read may return any version
// up to it, never a later one.
class VersionTable {
 public:
  explicit VersionTable(std::size_t keys)
      : versions_(std::make_unique<std::atomic<std::uint32_t>[]>(keys)) {}
  std::uint32_t Bump(std::uint32_t key) {
    return versions_[key].fetch_add(1, std::memory_order_relaxed) + 1;
  }
  std::uint32_t Latest(std::uint32_t key) const {
    return versions_[key].load(std::memory_order_relaxed);
  }

 private:
  std::unique_ptr<std::atomic<std::uint32_t>[]> versions_;
};

class ValueCodec {
 public:
  ValueCodec(std::size_t min_len, std::size_t max_len)
      : min_(min_len), max_(max_len) {
    cycle_.resize(max_len + 26);
    for (std::size_t i = 0; i < cycle_.size(); ++i) {
      cycle_[i] = static_cast<char>('a' + i % 26);
    }
  }

  std::size_t Length(std::uint32_t key, std::uint32_t version) const {
    const std::uint64_t h = Mix64((std::uint64_t{key} << 32) ^ version ^ 0x5bd1e995);
    return min_ + h % (max_ - min_ + 1);
  }

  // Appends the value for (key, version): "<key>.<version>.<len>|<fill>".
  void Append(std::string* out, std::uint32_t key, std::uint32_t version) const {
    const std::size_t len = Length(key, version);
    char header[48];
    const std::size_t h = Header(header, key, version, len);
    out->append(header, h);
    out->append(Fill(key, version, h), len - h);
  }

  enum class Check { kOk, kWrongValue, kCorrupt };

  Check Verify(std::string_view data, std::uint32_t key,
               const VersionTable& versions) const {
    std::uint64_t fields[3];
    const char* p = data.data();
    const char* end = data.data() + data.size();
    for (int i = 0; i < 3; ++i) {
      const auto res = std::from_chars(p, end, fields[i]);
      const char sep = i < 2 ? '.' : '|';
      if (res.ec != std::errc() || res.ptr == end || *res.ptr != sep) {
        return Check::kCorrupt;
      }
      p = res.ptr + 1;
    }
    const std::uint64_t version = fields[1];
    if (fields[0] != key || version > versions.Latest(key) ||
        fields[2] != data.size() ||
        data.size() != Length(key, static_cast<std::uint32_t>(version))) {
      return Check::kWrongValue;
    }
    const std::size_t h = static_cast<std::size_t>(p - data.data());
    if (std::memcmp(p, Fill(key, static_cast<std::uint32_t>(version), h),
                    data.size() - h) != 0) {
      return Check::kCorrupt;
    }
    return Check::kOk;
  }

 private:
  static std::size_t Header(char* buf, std::uint32_t key, std::uint32_t version,
                            std::size_t len) {
    char* p = std::to_chars(buf, buf + 16, key).ptr;
    *p++ = '.';
    p = std::to_chars(p, p + 16, version).ptr;
    *p++ = '.';
    p = std::to_chars(p, p + 16, len).ptr;
    *p++ = '|';
    return static_cast<std::size_t>(p - buf);
  }
  const char* Fill(std::uint32_t key, std::uint32_t version,
                   std::size_t offset) const {
    return cycle_.data() + (Mix64(key * 31ULL + version) + offset) % 26;
  }

  std::size_t min_;
  std::size_t max_;
  std::string cycle_;
};

}  // namespace pb

#endif  // PERFBENCH_WORKLOAD_H_
