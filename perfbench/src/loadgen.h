// The benchmark's own load generator for the socket workloads.
//
// Closed loop: each generator thread owns one connection and does blocking
// round trips. Open loop: each thread sends on a seeded Poisson schedule,
// pipelining requests that fall due before earlier ones are answered, and
// times every request from its due time to its last response byte, so a
// stall is charged to every request it delays. Every response is checked.
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/util.h"
#include "perfbench/src/workload.h"

namespace pb {

enum class ReqKind : std::uint8_t { kGet, kMGet, kSet, kMetaSets, kMetaGets };

inline constexpr std::size_t kRunLength = 8;  // keys per mget / meta run

struct Pending {
  ReqKind kind = ReqKind::kGet;
  std::uint32_t nkeys = 0;
  std::uint32_t ttl_mask = 0;  // bit i: store i carries a TTL
  std::uint64_t due_ns = 0;
  std::uint32_t keys[kRunLength] = {};

  bool IsRead() const {
    return kind == ReqKind::kGet || kind == ReqKind::kMGet ||
           kind == ReqKind::kMetaGets;
  }
};

// Read-only state shared by every generator thread of one run.
struct Shared {
  Shared(const WorkloadSpec& spec, std::uint64_t seed);

  const WorkloadSpec& spec;
  const std::uint64_t seed;
  const Zipf zipf;
  const ValueCodec codec;
  std::vector<std::string> key_names;
};

// Draws the workload's request mix from a seeded stream.
class RequestGen {
 public:
  RequestGen(const Shared& shared, std::uint64_t stream)
      : shared_(shared), rng_(shared.seed, stream) {}
  void Next(Pending* p);

 private:
  const Shared& shared_;
  Rng rng_;
};

// Appends the request's wire bytes. Stores take fresh versions from
// `versions` (nullptr: version 0, the prepopulation pass).
void Encode(const Shared& shared, const Pending& p, VersionTable* versions,
            std::string* wire);

struct ClientStats {
  // Open loop: latency samples (µs) and generator lateness (µs).
  std::vector<double> read_us;
  std::vector<double> write_us;
  std::vector<double> lag_us;
  // Closed loop: summed round-trip times.
  double rtt_sum_us = 0;
  std::uint64_t round_trips = 0;
  std::uint64_t attempted = 0;  // key operations sent
  std::uint64_t completed = 0;  // key operations answered
  std::uint64_t keys_read = 0;  // keys asked for by reads
  std::uint64_t hits = 0;       // keys answered with a value
  Failures failures;

  void Merge(const ClientStats& o);
};

struct PhaseSpec {
  std::uint16_t port = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  // Open loop when > 0: requests fall due on a Poisson schedule at this
  // rate. Otherwise closed loop: blocking round trips.
  double rate_per_thread = 0;
};

// One generator thread's work on one connection; run two side by side.
void Drive(const Shared& shared, VersionTable& versions, const PhaseSpec& phase,
           std::uint64_t stream, ClientStats* out);
// Stores version 0 of keys [first, last) with pipelined replied sets.
void Prepopulate(const Shared& shared, const VersionTable& versions,
                 std::uint16_t port, std::uint32_t first, std::uint32_t last,
                 ClientStats* out);

}  // namespace pb

#endif  // PERFBENCH_LOADGEN_H_
