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
// Under a Server the proxy never blocks its worker: AttachWorker gives
// each worker an agent that owns one long-lived pipelined Channel per
// backend (backend.h), registered in the worker's epoll. A request that
// needs a backend is parked on its connection while the worker serves
// other clients; when its responses are framed, its answer takes its
// place in the connection's response order. So a slow backend delays only
// the requests routed to it (ClusterFaults.
// WedgedBackendDoesNotStallOtherClients). The synchronous Execute calls
// are a thin driver over the same Channels: they borrow idle ones and
// poll() them until the answer is complete, for callers outside a Server.
//
// Responses always leave in request order — the proxy never reorders
// responses within one connection's pipeline (ClusterConformance.
// MixedPipelineOrderMatchesDirect and ProtocolSplits.
// ProxySocketTranscriptsMatchDirectAtEverySplit enforce this).
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

  // RequestHandler, synchronous: safe to call from any thread.
  void Execute(const Request& request, std::string* out, bool* quit,
               const ServerConnectionStats* conn_stats) override;
  void ExecuteStores(const Request* requests, std::size_t count,
                     std::string* out) override;
  void ExecuteMetaGets(const Request* requests, std::size_t count,
                       std::string* out) override;
  // One agent per server worker: the non-blocking path.
  std::unique_ptr<WorkerAgent> AttachWorker(WorkerContext& context) override;

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
  class Call;
  class Agent;

  std::shared_ptr<const Routing> Snapshot() const;
  // Ring owner (node index) of `key`, counting a remap when the previous
  // ring owned it elsewhere. The ring must not be empty.
  std::size_t RouteKey(const Routing& routing, std::string_view key);

  // version, mn, stats and quit are answered by the proxy itself.
  static bool AnswersLocally(Op op);
  void ExecuteLocal(const Request& request, std::string* out, bool* quit,
                    const ServerConnectionStats* conn_stats);
  void CountStoreBurst(std::size_t count);
  // Routes `call` into parts, one per sub-request, and submits each to the
  // Channel `channel_for` returns for its backend (the worker's own, or a
  // borrowed one). A marked-dead backend's parts fail at once.
  template <typename ChannelFor>
  void Launch(Call& call, ChannelFor&& channel_for);
  // The synchronous driver: Launch on borrowed channels, poll them until
  // every part is answered, append the answer to *out.
  void RunSync(Call& call, std::string* out);
  void AppendStatsResponse(std::string* out,
                           const ServerConnectionStats* conn_stats);

  const ClusterOptions options_;

  mutable std::mutex routing_mutex_;
  std::shared_ptr<const Routing> routing_;
  // Bumped by every AddNode/RemoveNode, so agents know to drop channels
  // to departed members.
  std::atomic<std::uint64_t> topology_version_{0};

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
