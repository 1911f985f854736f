#include "src/memcache/cluster/proxy.h"

#include <charconv>
#include <utility>

namespace rp::memcache::cluster {

namespace {

// Must match the direct engine path (ExecuteRequest in connection.cc) so
// proxy and direct transcripts stay byte-identical.
constexpr std::string_view kVersionString = "rp-memcache 1.0";

constexpr std::string_view kNoBackendsMessage = "cluster has no backends";

std::string_view FrameView(const std::string& raw, const ResponseFrame& f) {
  return std::string_view(raw).substr(f.offset, f.size);
}

void AppendBackendErrorLine(std::string* out, std::string_view node) {
  out->append("SERVER_ERROR cluster backend ");
  out->append(node);
  out->append(" unavailable\r\n");
}

// The client-side half of strip-and-forward: the proxy forwarded the
// request with q/noreply removed, so the backend always answered; this
// re-applies the suppression those flags asked for, over the verbatim
// response bytes.
void AppendForwardedResponse(std::string* out, const Request& request,
                             std::string_view response) {
  if (request.noreply) {
    return;
  }
  if (IsMetaOp(request.op) && request.meta.quiet) {
    if (request.op == Op::kMetaGet) {
      if (response.starts_with("EN")) {
        return;  // quiet mg: misses are silent
      }
    } else if (response.starts_with("HD")) {
      return;  // quiet ms/md/ma: bare success is silent
    }
  }
  out->append(response);
}

// Failure answer for one request: classic noreply stays silent (it never
// answers, success or failure); everything else gets SERVER_ERROR — meta
// failures always answer, q notwithstanding.
void AppendRequestFailure(std::string* out, const Request& request,
                          std::string_view node) {
  if (request.noreply) {
    return;
  }
  AppendBackendErrorLine(out, node);
}

// The next unconsumed VALUE block at *pos in `frame`, if it answers `key`:
// returns the block's full span (header line + data + CRLF) and advances
// *pos past it. An END/error line, frame exhaustion, or a block for a
// different key (the backend skipped `key` — a miss) return empty without
// advancing, because that block answers a later key of the same group.
std::string_view TakeValueBlock(std::string_view frame, std::size_t* pos,
                                std::string_view key) {
  const std::string_view rest = frame.substr(*pos);
  if (!rest.starts_with("VALUE ")) {
    return {};
  }
  const std::size_t eol = rest.find("\r\n");
  if (eol == std::string_view::npos) {
    return {};
  }
  const std::string_view line = rest.substr(6, eol - 6);
  const std::size_t key_end = line.find(' ');
  if (key_end == std::string_view::npos || line.substr(0, key_end) != key) {
    return {};
  }
  // <flags> <bytes> [<cas>] — the data length is the second token.
  const std::string_view tail = line.substr(key_end + 1);
  const std::size_t flags_end = tail.find(' ');
  if (flags_end == std::string_view::npos) {
    return {};
  }
  std::string_view bytes_token = tail.substr(flags_end + 1);
  bytes_token = bytes_token.substr(0, bytes_token.find(' '));
  std::size_t size = 0;
  const auto [ptr, ec] = std::from_chars(
      bytes_token.data(), bytes_token.data() + bytes_token.size(), size);
  if (ec != std::errc() || ptr != bytes_token.data() + bytes_token.size()) {
    return {};
  }
  const std::size_t total = eol + 2 + size + 2;
  if (total > rest.size()) {
    return {};
  }
  *pos += total;
  return rest.substr(0, total);
}

}  // namespace

ClusterProxy::ClusterProxy(const std::vector<BackendAddress>& backends,
                           ClusterOptions options)
    : options_(options) {
  auto routing = std::make_shared<Routing>();
  routing->ring = HashRing(options_.vnodes_per_node);
  routing->previous_ring = HashRing(options_.vnodes_per_node);
  for (const BackendAddress& address : backends) {
    if (!routing->ring.AddNode(address.name)) {
      continue;  // duplicate name: first wins
    }
    routing->by_node.push_back(std::make_shared<Backend>(
        address.name, address.port, options_.backend));
  }
  routing_ = std::move(routing);
}

ClusterProxy::~ClusterProxy() = default;

std::shared_ptr<const ClusterProxy::Routing> ClusterProxy::Snapshot() const {
  std::lock_guard<std::mutex> lock(routing_mutex_);
  return routing_;
}

Backend* ClusterProxy::RouteKey(const Routing& routing, std::string_view key) {
  const std::size_t index = routing.ring.NodeForKey(key);
  if (index == HashRing::kNoNode) {
    return nullptr;
  }
  if (routing.has_previous) {
    // Live measurement of consistent hashing's bounded key movement: a
    // routed key counts when the pre-change ring owned it elsewhere.
    const std::size_t prev = routing.previous_ring.NodeForKey(key);
    if (prev == HashRing::kNoNode ||
        routing.previous_ring.NodeName(prev) != routing.ring.NodeName(index)) {
      remapped_keys_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return routing.by_node[index].get();
}

void ClusterProxy::Execute(const Request& request, std::string* out,
                           bool* quit,
                           const ServerConnectionStats* conn_stats) {
  *quit = false;
  switch (request.op) {
    case Op::kQuit:
      *quit = true;
      return;
    case Op::kVersion:
      // Answered locally (every backend would say the same thing).
      AppendVersionResponse(out, kVersionString);
      return;
    case Op::kMetaNoop:
      // The pipeline barrier is proxy-local: by the time the connection
      // executes it, every earlier response is already in *out.
      out->append(kResponseMetaNoop);
      return;
    case Op::kStats:
      AppendStatsResponse(out, conn_stats);
      return;
    case Op::kFlushAll:
      BroadcastFlushAll(request, out);
      return;
    case Op::kGet:
    case Op::kGets:
      ExecuteGet(request, out);
      return;
    default:
      // Every remaining op carries exactly one key: route and forward.
      ForwardSingle(request, out);
      return;
  }
}

void ClusterProxy::ForwardSingle(const Request& request, std::string* out) {
  const std::shared_ptr<const Routing> routing = Snapshot();
  Backend* backend = RouteKey(*routing, request.keys[0]);
  if (backend == nullptr) {
    if (!request.noreply) {
      AppendServerError(out, kNoBackendsMessage);
    }
    return;
  }
  // Thread-local scratch: the singleton forward path allocates nothing in
  // steady state. Safe — this function never re-enters.
  static thread_local std::string wire;
  static thread_local std::string raw;
  static thread_local std::vector<ResponseFrame> frames;
  wire.clear();
  raw.clear();
  frames.clear();
  AppendRequestWire(&wire, request, /*strip_quiet=*/true);
  forwards_.fetch_add(1, std::memory_order_relaxed);
  const Request* request_ptr = &request;
  if (!backend->Exchange(wire, &request_ptr, 1, &raw, &frames)) {
    AppendRequestFailure(out, request, backend->name());
    return;
  }
  AppendForwardedResponse(out, request, FrameView(raw, frames[0]));
}

void ClusterProxy::ExecuteGet(const Request& request, std::string* out) {
  const std::shared_ptr<const Routing> routing = Snapshot();
  if (routing->ring.node_count() == 0) {
    AppendServerError(out, kNoBackendsMessage);
    return;
  }
  // Route every key exactly once (RouteKey counts remaps).
  static thread_local std::vector<Backend*> owners;
  owners.clear();
  for (const std::string& key : request.keys) {
    owners.push_back(RouteKey(*routing, key));
  }
  bool single_owner = true;
  for (std::size_t i = 1; i < owners.size(); ++i) {
    if (owners[i] != owners[0]) {
      single_owner = false;
      break;
    }
  }
  if (single_owner) {
    // One owner (always the case for a single-key get): forward the
    // request wholesale and pass the response — VALUEs in request key
    // order plus END — straight through.
    static thread_local std::string wire;
    static thread_local std::string raw;
    static thread_local std::vector<ResponseFrame> frames;
    wire.clear();
    raw.clear();
    frames.clear();
    AppendRequestWire(&wire, request, /*strip_quiet=*/true);
    forwards_.fetch_add(1, std::memory_order_relaxed);
    const Request* request_ptr = &request;
    if (!owners[0]->Exchange(wire, &request_ptr, 1, &raw, &frames)) {
      AppendBackendErrorLine(out, owners[0]->name());
      return;
    }
    out->append(FrameView(raw, frames[0]));
    return;
  }

  // Scatter-gather: the cluster analogue of GetManyScratch's shard
  // grouping. One batched `get` sub-request per owner
  // (cluster_scatter_batches pins that), all sent before any response is
  // awaited.
  struct GetGroup {
    Backend* backend = nullptr;
    Request sub;
    std::string wire;
    int fd = -1;
    bool ok = false;
    ResponseFrame frame{};
    std::size_t block_pos = 0;  // reassembly scan state within frame
  };
  std::vector<GetGroup> groups;
  std::vector<std::size_t> group_of(request.keys.size());
  for (std::size_t i = 0; i < request.keys.size(); ++i) {
    std::size_t g = 0;
    while (g < groups.size() && groups[g].backend != owners[i]) {
      ++g;
    }
    if (g == groups.size()) {
      groups.emplace_back();
      groups[g].backend = owners[i];
      groups[g].sub.op = request.op;
    }
    groups[g].sub.keys.push_back(request.keys[i]);
    group_of[i] = g;
  }
  scatter_gets_.fetch_add(1, std::memory_order_relaxed);
  scatter_batches_.fetch_add(groups.size(), std::memory_order_relaxed);
  forwards_.fetch_add(groups.size(), std::memory_order_relaxed);
  for (GetGroup& group : groups) {
    AppendRequestWire(&group.wire, group.sub, /*strip_quiet=*/true);
    group.fd = group.backend->BeginExchange(group.wire);
  }
  std::string raw;
  std::vector<ResponseFrame> frames;
  for (GetGroup& group : groups) {
    if (group.fd < 0) {
      continue;
    }
    const Request* sub_ptr = &group.sub;
    group.ok = group.backend->FinishExchange(group.fd, group.wire, &sub_ptr, 1,
                                             &raw, &frames);
    if (group.ok) {
      group.frame = frames.back();
    }
  }
  // Reassemble in client key order: each group's VALUE blocks arrive in
  // its sub-request's key order, so one forward cursor per group merges
  // them without any key→block map.
  const Backend* failed = nullptr;
  for (const GetGroup& group : groups) {
    if (!group.ok && failed == nullptr) {
      failed = group.backend;
    }
  }
  for (std::size_t i = 0; i < request.keys.size(); ++i) {
    GetGroup& group = groups[group_of[i]];
    if (!group.ok) {
      continue;  // this key's owner failed; the terminator reports it
    }
    const std::string_view block = TakeValueBlock(
        FrameView(raw, group.frame), &group.block_pos, request.keys[i]);
    out->append(block);
  }
  if (failed != nullptr) {
    // Live keys answered above; the error terminator (in place of END)
    // tells the client the request only partially resolved.
    AppendBackendErrorLine(out, failed->name());
  } else {
    out->append(kResponseEnd);
  }
}

void ClusterProxy::ExecuteStores(const Request* requests, std::size_t count,
                                 std::string* out) {
  if (count >= 2) {
    store_batches_.fetch_add(1, std::memory_order_relaxed);
    store_batched_ops_.fetch_add(count, std::memory_order_relaxed);
  }
  FanOut(requests, count, out);
}

void ClusterProxy::ExecuteMetaGets(const Request* requests, std::size_t count,
                                   std::string* out) {
  FanOut(requests, count, out);
}

void ClusterProxy::FanOut(const Request* requests, std::size_t count,
                          std::string* out) {
  if (count == 0) {
    return;
  }
  const std::shared_ptr<const Routing> routing = Snapshot();
  if (routing->ring.node_count() == 0) {
    for (std::size_t i = 0; i < count; ++i) {
      if (!requests[i].noreply) {
        AppendServerError(out, kNoBackendsMessage);
      }
    }
    return;
  }
  // Group the burst by ring owner; each backend receives ONE pipelined
  // wire burst, which its connection collects into the batched
  // StoreMany / GetManyScratch path — the cluster rides the same batching
  // the single-process server built.
  struct FanGroup {
    Backend* backend = nullptr;
    std::string wire;
    std::vector<const Request*> members;
    int fd = -1;
    bool ok = false;
    std::size_t frame_begin = 0;
  };
  std::vector<FanGroup> groups;
  // (group, index within group) per request, for in-order reassembly.
  std::vector<std::pair<std::size_t, std::size_t>> placement(count);
  for (std::size_t i = 0; i < count; ++i) {
    Backend* owner = RouteKey(*routing, requests[i].keys[0]);
    std::size_t g = 0;
    while (g < groups.size() && groups[g].backend != owner) {
      ++g;
    }
    if (g == groups.size()) {
      groups.emplace_back();
      groups[g].backend = owner;
    }
    placement[i] = {g, groups[g].members.size()};
    groups[g].members.push_back(&requests[i]);
    AppendRequestWire(&groups[g].wire, requests[i], /*strip_quiet=*/true);
  }
  forwards_.fetch_add(groups.size(), std::memory_order_relaxed);
  for (FanGroup& group : groups) {
    group.fd = group.backend->BeginExchange(group.wire);
  }
  std::string raw;
  std::vector<ResponseFrame> frames;
  for (FanGroup& group : groups) {
    group.frame_begin = frames.size();
    if (group.fd < 0) {
      continue;
    }
    group.ok = group.backend->FinishExchange(group.fd, group.wire,
                                             group.members.data(),
                                             group.members.size(), &raw,
                                             &frames);
  }
  // Responses leave in original request order — the proxy never reorders
  // responses within one connection's pipeline.
  for (std::size_t i = 0; i < count; ++i) {
    const auto [g, member] = placement[i];
    const FanGroup& group = groups[g];
    if (!group.ok) {
      AppendRequestFailure(out, requests[i], group.backend->name());
      continue;
    }
    AppendForwardedResponse(out, requests[i],
                            FrameView(raw, frames[group.frame_begin + member]));
  }
}

void ClusterProxy::BroadcastFlushAll(const Request& request,
                                     std::string* out) {
  const std::shared_ptr<const Routing> routing = Snapshot();
  if (routing->ring.node_count() == 0) {
    if (!request.noreply) {
      AppendServerError(out, kNoBackendsMessage);
    }
    return;
  }
  std::string wire;
  AppendRequestWire(&wire, request, /*strip_quiet=*/true);
  const Backend* failed = nullptr;
  for (const std::shared_ptr<Backend>& backend : routing->by_node) {
    std::string raw;
    std::vector<ResponseFrame> frames;
    forwards_.fetch_add(1, std::memory_order_relaxed);
    const Request* request_ptr = &request;
    if (!backend->Exchange(wire, &request_ptr, 1, &raw, &frames) &&
        failed == nullptr) {
      failed = backend.get();
    }
  }
  if (request.noreply) {
    return;
  }
  if (failed != nullptr) {
    AppendBackendErrorLine(out, failed->name());
  } else {
    out->append(kResponseOk);
  }
}

void ClusterProxy::AppendStatsResponse(
    std::string* out, const ServerConnectionStats* conn_stats) {
  const ClusterStats stats = Stats();
  AppendStat(out, "engine", "cluster-proxy");
  AppendStat(out, "cluster_nodes", stats.nodes);
  AppendStat(out, "cluster_nodes_dead", stats.nodes_dead);
  AppendStat(out, "cluster_backend_errors", stats.backend_errors);
  AppendStat(out, "cluster_backend_retries", stats.backend_retries);
  AppendStat(out, "cluster_remapped_keys", stats.remapped_keys);
  AppendStat(out, "cluster_forwards", stats.forwards);
  AppendStat(out, "cluster_scatter_gets", stats.scatter_gets);
  AppendStat(out, "cluster_scatter_batches", stats.scatter_batches);
  AppendStat(out, "cluster_store_batches", stats.store_batches);
  AppendStat(out, "cluster_store_batched_ops", stats.store_batched_ops);
  if (conn_stats != nullptr) {
    AppendStat(out, "curr_connections", conn_stats->curr_connections);
    AppendStat(out, "total_connections", conn_stats->total_connections);
  }
  out->append(kResponseEnd);
}

bool ClusterProxy::AddNode(const BackendAddress& address) {
  std::lock_guard<std::mutex> lock(routing_mutex_);
  const std::shared_ptr<const Routing>& current = routing_;
  if (current->ring.NodeIndex(address.name) != HashRing::kNoNode) {
    return false;
  }
  auto next = std::make_shared<Routing>();
  next->previous_ring = current->ring;
  next->has_previous = true;
  next->ring = current->ring;
  next->ring.AddNode(address.name);
  // AddNode appends, so indexes 0..n-1 still line up with current.
  next->by_node = current->by_node;
  next->by_node.push_back(std::make_shared<Backend>(
      address.name, address.port, options_.backend));
  routing_ = std::move(next);
  return true;
}

bool ClusterProxy::RemoveNode(std::string_view name) {
  std::lock_guard<std::mutex> lock(routing_mutex_);
  const std::shared_ptr<const Routing>& current = routing_;
  const std::size_t index = current->ring.NodeIndex(name);
  if (index == HashRing::kNoNode) {
    return false;
  }
  // The member's counters move to the retired totals so cluster stats
  // stay monotone across topology changes.
  retired_errors_.fetch_add(current->by_node[index]->errors(),
                            std::memory_order_relaxed);
  retired_retries_.fetch_add(current->by_node[index]->retries(),
                             std::memory_order_relaxed);
  auto next = std::make_shared<Routing>();
  next->previous_ring = current->ring;
  next->has_previous = true;
  next->ring = current->ring;
  next->ring.RemoveNode(name);
  // RemoveNode compacts ring indexes above `index` down by one; erasing
  // the same slot here keeps by_node aligned. In-flight requests hold the
  // old snapshot, which keeps the removed Backend alive until they drain.
  next->by_node = current->by_node;
  next->by_node.erase(next->by_node.begin() +
                      static_cast<std::ptrdiff_t>(index));
  routing_ = std::move(next);
  return true;
}

ClusterStats ClusterProxy::Stats() const {
  const std::shared_ptr<const Routing> routing = Snapshot();
  ClusterStats stats;
  stats.nodes = routing->ring.node_count();
  const std::int64_t now = MonotonicMs();
  for (const std::shared_ptr<Backend>& backend : routing->by_node) {
    if (backend->IsDead(now)) {
      ++stats.nodes_dead;
    }
    stats.backend_errors += backend->errors();
    stats.backend_retries += backend->retries();
  }
  stats.backend_errors += retired_errors_.load(std::memory_order_relaxed);
  stats.backend_retries += retired_retries_.load(std::memory_order_relaxed);
  stats.remapped_keys = remapped_keys_.load(std::memory_order_relaxed);
  stats.forwards = forwards_.load(std::memory_order_relaxed);
  stats.scatter_gets = scatter_gets_.load(std::memory_order_relaxed);
  stats.scatter_batches = scatter_batches_.load(std::memory_order_relaxed);
  stats.store_batches = store_batches_.load(std::memory_order_relaxed);
  stats.store_batched_ops =
      store_batched_ops_.load(std::memory_order_relaxed);
  return stats;
}

std::string ClusterProxy::NodeNameForKey(std::string_view key) const {
  const std::shared_ptr<const Routing> routing = Snapshot();
  const std::size_t index = routing->ring.NodeForKey(key);
  if (index == HashRing::kNoNode) {
    return std::string();
  }
  return routing->ring.NodeName(index);
}

std::shared_ptr<Backend> ClusterProxy::BackendByName(
    std::string_view name) const {
  const std::shared_ptr<const Routing> routing = Snapshot();
  const std::size_t index = routing->ring.NodeIndex(name);
  if (index == HashRing::kNoNode) {
    return nullptr;
  }
  return routing->by_node[index];
}

}  // namespace rp::memcache::cluster
