// mc-benchmark-style workload driver.
//
// Reproduces the paper's memcached experiment in-process: N client threads
// issue GET or SET traffic against a CacheEngine as fast as they can for a
// fixed duration. Optionally the full text-protocol round trip (request
// encode → parse → execute → response format) is exercised per operation,
// modelling the per-request work a server connection performs; the engine
// contrast (global lock vs relativistic reads) is the variable under test.
#ifndef RP_MEMCACHE_WORKLOAD_H_
#define RP_MEMCACHE_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "src/memcache/engine.h"

namespace rp::memcache {

struct WorkloadConfig {
  std::size_t num_clients = 1;
  std::size_t num_keys = 10000;
  std::size_t value_size = 32;
  // When > value_size, each SET's payload size is drawn uniformly from
  // [value_size, value_size_max] instead of being fixed — walking stores
  // across the engines' slab size classes (prepopulation still uses
  // value_size). 0 keeps the classic fixed-size workload.
  std::size_t value_size_max = 0;
  // Fraction of operations that are GETs (1.0 = pure GET, 0.0 = pure SET —
  // the paper's mc-benchmark runs are pure GET and pure SET).
  double get_ratio = 1.0;
  // Keys per GET request (memcached "get k1 k2 ..." pipelining). 1 = the
  // classic single-key workload; larger values batch more keys into the
  // one GET path (one read section per shard group in the RP engine).
  // Each key is drawn independently from the zipf distribution. GET stats
  // (gets/hits/misses) count keys; total_requests counts round trips.
  std::size_t keys_per_get = 1;
  // SETs per round trip — the SET analogue of keys_per_get. Wire form is
  // a pipelined run of k-1 "set ... noreply" commands plus one replied
  // set per round trip, which the server connection collects into a
  // single batched StoreMany (one store-mutex acquisition per shard
  // group). Keys and value sizes are drawn independently per store. SET
  // stats count stores; total_requests counts round trips.
  std::size_t sets_per_request = 1;
  // Drive the meta protocol instead of the classic text commands: a GET
  // round trip becomes a quiet-flag mg run ("mg <key> v q" × keys_per_get)
  // and a SET round trip a quiet ms run ("ms <key> <size> q" ×
  // sets_per_request), each bounded by an mn barrier so the blocking
  // client knows when the (mostly suppressed) responses are done. The
  // server collects each quiet run into ONE batched engine call — one
  // epoch section / store-mutex acquisition per shard group — so this
  // measures quiet-flag pipelining as real client throughput.
  bool use_meta = false;
  // Zipf skew over keys (0 = uniform).
  double zipf_theta = 0.0;
  double duration_seconds = 1.0;
  // Route every operation through the protocol codec.
  bool use_protocol = true;
  // Pre-populate all keys before measuring.
  bool prepopulate = true;
  std::uint64_t seed = 42;
};

struct WorkloadResult {
  double requests_per_second = 0.0;
  std::uint64_t total_requests = 0;
  std::uint64_t gets = 0;
  std::uint64_t sets = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  double duration_seconds = 0.0;
};

// Runs the workload and aggregates across client threads.
WorkloadResult RunWorkload(CacheEngine& engine, const WorkloadConfig& config);

// Drives the same workload over real TCP: every client thread opens its
// own loopback connection to a running Server on `port` and does one
// blocking request/response round trip per operation (mc-benchmark
// style), so the measurement includes the kernel socket path and the
// server's event loop, not just the engine. Prepopulation (when enabled)
// also goes over the wire, via pipelined noreply sets.
WorkloadResult RunSocketWorkload(std::uint16_t port,
                                 const WorkloadConfig& config);

// Key name for index i, mc-benchmark style ("memtier-<i>").
std::string WorkloadKey(std::size_t i);

// Builds a cache engine by name — "rp" (relativistic, sharded) or "locked"
// (global-lock baseline). One construction point shared by the benches,
// the example server and the tests; returns nullptr for an unknown name.
std::unique_ptr<CacheEngine> MakeEngine(std::string_view name,
                                        const EngineConfig& config);

}  // namespace rp::memcache

#endif  // RP_MEMCACHE_WORKLOAD_H_
