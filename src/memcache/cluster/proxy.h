// Consistent-hash routing proxy — the cluster tier's request handler.
//
// A ClusterProxy is a RequestHandler, so the epoll Server front end serves
// it exactly as it serves a local engine: same connections, same
// pipelining, same batch boundaries. Each request routes by its key's ring
// owner and is forwarded re-serialized with q/noreply stripped, so every
// sub-request draws a framable response; the backend's bytes pass through
// verbatim and the proxy re-applies the quiet/noreply suppression
// client-side — a direct engine and the proxy produce byte-identical
// transcripts (tests/test_cluster_conformance.cc replays the full op ×
// item-state matrix through both to pin that).
//
// Multi-key gets scatter-gather: keys group by ring owner (the cluster
// analogue of GetManyScratch's shard grouping), each backend gets ONE
// batched `get` sub-request — pinned by the cluster_scatter_batches
// counter — and the sends all happen before any response is awaited,
// overlapping the backends' round trips. Responses reassemble in client
// key order.
// Pipelined store bursts fan out the same way, riding each backend's
// batched StoreMany wire path.
//
// Responses always append in request order — the proxy never reorders
// responses within one connection's pipeline (ClusterConformance.
// MixedPipelineOrderMatchesDirect enforces this).
//
// Topology changes (AddNode/RemoveNode) swap an immutable routing
// snapshot; in-flight requests finish on the ring they started with, and
// consistent hashing bounds the keys that move (~keys/N per node change,
// measured live by cluster_remapped_keys).
#ifndef RP_MEMCACHE_CLUSTER_PROXY_H_
#define RP_MEMCACHE_CLUSTER_PROXY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/memcache/cluster/backend.h"
#include "src/memcache/cluster/hash_ring.h"
#include "src/memcache/connection.h"

namespace rp::memcache::cluster {

struct BackendAddress {
  std::string name;
  std::uint16_t port = 0;
};

struct ClusterOptions {
  std::size_t vnodes_per_node = HashRing::kDefaultVnodesPerNode;
  BackendOptions backend;
};

// Snapshot of the proxy's counters (the `stats` wire rows; see
// docs/PROTOCOL.md).
struct ClusterStats {
  std::uint64_t nodes = 0;
  std::uint64_t nodes_dead = 0;
  std::uint64_t backend_errors = 0;
  std::uint64_t backend_retries = 0;
  std::uint64_t remapped_keys = 0;
  std::uint64_t forwards = 0;
  std::uint64_t scatter_gets = 0;
  std::uint64_t scatter_batches = 0;
  std::uint64_t store_batches = 0;
  std::uint64_t store_batched_ops = 0;
};

class ClusterProxy : public RequestHandler {
 public:
  explicit ClusterProxy(const std::vector<BackendAddress>& backends,
                        ClusterOptions options = {});
  ~ClusterProxy() override;

  // RequestHandler: called concurrently by every server worker.
  void Execute(const Request& request, std::string* out, bool* quit,
               const ServerConnectionStats* conn_stats) override;
  void ExecuteStores(const Request* requests, std::size_t count,
                     std::string* out) override;
  void ExecuteMetaGets(const Request* requests, std::size_t count,
                       std::string* out) override;

  // Topology. Both swap the routing snapshot; false = duplicate/unknown
  // name. In-flight requests complete on the old snapshot (its backends
  // stay alive until the last holder drops).
  bool AddNode(const BackendAddress& address);
  bool RemoveNode(std::string_view name);

  ClusterStats Stats() const;

  // Ring owner of `key` ("" on an empty ring) — routing introspection for
  // tests and benches. Does not count toward cluster_remapped_keys.
  std::string NodeNameForKey(std::string_view key) const;
  // The live backend handle for `name` (nullptr if not a current member);
  // test hook for health/error inspection.
  std::shared_ptr<Backend> BackendByName(std::string_view name) const;

 private:
  // Immutable routing snapshot: the ring plus backend handles parallel to
  // its node indexes, and the previous ring for remap accounting.
  struct Routing {
    HashRing ring;
    std::vector<std::shared_ptr<Backend>> by_node;
    HashRing previous_ring;
    bool has_previous = false;
  };

  std::shared_ptr<const Routing> Snapshot() const;
  // Ring owner of keys[index], counting a remap when the previous ring
  // owned it elsewhere. nullptr on an empty ring.
  Backend* RouteKey(const Routing& routing, std::string_view key);

  void ExecuteGet(const Request& request, std::string* out);
  void ForwardSingle(const Request& request, std::string* out);
  void BroadcastFlushAll(const Request& request, std::string* out);
  void AppendStatsResponse(std::string* out,
                           const ServerConnectionStats* conn_stats);
  // Shared scatter-gather core for store bursts and quiet mg runs: group
  // by ring owner, one pipelined sub-exchange per backend, responses
  // reassembled in request order (failures substitute SERVER_ERROR).
  void FanOut(const Request* requests, std::size_t count, std::string* out);

  const ClusterOptions options_;

  mutable std::mutex routing_mutex_;
  std::shared_ptr<const Routing> routing_;

  // Counters for retired members, so RemoveNode doesn't erase history.
  std::atomic<std::uint64_t> retired_errors_{0};
  std::atomic<std::uint64_t> retired_retries_{0};

  std::atomic<std::uint64_t> remapped_keys_{0};
  std::atomic<std::uint64_t> forwards_{0};
  std::atomic<std::uint64_t> scatter_gets_{0};
  std::atomic<std::uint64_t> scatter_batches_{0};
  std::atomic<std::uint64_t> store_batches_{0};
  std::atomic<std::uint64_t> store_batched_ops_{0};
};

}  // namespace rp::memcache::cluster

#endif  // RP_MEMCACHE_CLUSTER_PROXY_H_
