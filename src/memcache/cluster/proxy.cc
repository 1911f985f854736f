#include "src/memcache/cluster/proxy.h"

#include <algorithm>
#include <charconv>
#include <utility>

#include "src/memcache/cluster/wire.h"

namespace rp::memcache::cluster {

namespace {

constexpr std::string_view kNoBackendsMessage = "cluster has no backends";

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

// One client-level dispatch — a request, a store burst or an mg run — and
// its sub-requests ("parts") in flight. Each part's response lands in
// `raw`; once every part is answered or failed, Assemble writes the
// client's answer. A parked call answers into its connection slot and
// frees itself; if the connection went away first, it only waits out its
// parts and frees itself.
class ClusterProxy::Call final : public ResponseSink, public ParkedRequest {
 public:
  enum class Kind {
    kForward,   // each request is one part to its key's owner
    kGet,       // one get: one part per owner of its keys
    kFlushAll,  // one flush_all: one part per member
  };

  explicit Call(Kind call_kind) : kind(call_kind) {}
  // The kind of call that answers one request.
  static Kind KindOf(Op op) {
    switch (op) {
      case Op::kGet:
      case Op::kGets:
        return Kind::kGet;
      case Op::kFlushAll:
        return Kind::kFlushAll;
      default:
        return Kind::kForward;
    }
  }

  void Deliver(std::uint32_t index, const std::string_view* response) override {
    Part& part = parts[index];
    if (response != nullptr) {
      part.ok = true;
      part.offset = raw.size();
      part.size = response->size();
      raw.append(*response);
    }
    if (--outstanding != 0 || !parked) {
      return;  // a synchronous caller sees outstanding reach zero itself
    }
    if (conn != nullptr) {
      Assemble(&slot->bytes);
      conn->Release(slot);
      context->Wake(*conn);
    }
    delete this;
  }
  void Abandon() override { conn = nullptr; }

  // The client's answer: forwarded responses with the quiet/noreply
  // suppression re-applied, in request order; a failed part answers
  // SERVER_ERROR naming its backend.
  void Assemble(std::string* out) {
    switch (kind) {
      case Kind::kForward:
        for (std::size_t i = 0; i < count; ++i) {
          if (no_backends) {
            if (!requests[i].noreply) {
              AppendServerError(out, kNoBackendsMessage);
            }
          } else if (parts[i].ok) {
            AppendForwardedResponse(out, requests[i], View(parts[i]));
          } else {
            AppendRequestFailure(out, requests[i], Name(parts[i]));
          }
        }
        return;
      case Kind::kGet:
        AssembleGet(out);
        return;
      case Kind::kFlushAll:
        if (requests[0].noreply) {
          return;
        }
        if (no_backends) {
          AppendServerError(out, kNoBackendsMessage);
          return;
        }
        for (const Part& part : parts) {
          if (!part.ok) {
            AppendBackendErrorLine(out, Name(part));
            return;
          }
        }
        out->append(kResponseOk);
        return;
    }
  }

  struct Part {
    std::size_t node = 0;  // in routing
    const Request* request = nullptr;  // sent, and frames the response
    bool ok = false;
    std::size_t offset = 0;  // the response within raw
    std::size_t size = 0;
    std::size_t cursor = 0;  // scatter reassembly position in the response
  };

  const Kind kind;
  // The client requests this call answers, in order; kGet and kFlushAll
  // have exactly one. They point into `owned` when the call is parked.
  const Request* requests = nullptr;
  std::size_t count = 0;
  std::vector<Request> owned;
  std::shared_ptr<const Routing> routing;  // the ring the call started on
  bool no_backends = false;
  std::vector<Part> parts;
  std::vector<Request> subs;              // a scatter's per-owner gets
  std::vector<std::uint32_t> part_of_key;  // a scatter's key → part
  std::string raw;
  std::uint32_t outstanding = 0;  // parts not yet delivered
  bool parked = false;
  Connection* conn = nullptr;  // null once abandoned
  Connection::Slot* slot = nullptr;
  WorkerContext* context = nullptr;

 private:
  std::string_view View(const Part& part) const {
    return std::string_view(raw).substr(part.offset, part.size);
  }
  const std::string& Name(const Part& part) const {
    return routing->by_node[part.node]->name();
  }

  void AssembleGet(std::string* out) {
    if (no_backends) {
      AppendServerError(out, kNoBackendsMessage);
      return;
    }
    if (parts.size() == 1) {
      // One owner (always the case for a single-key get): its response —
      // VALUEs in request key order plus END — passes straight through.
      if (parts[0].ok) {
        out->append(View(parts[0]));
      } else {
        AppendBackendErrorLine(out, Name(parts[0]));
      }
      return;
    }
    // Reassemble in client key order: each part's VALUE blocks arrive in
    // its sub-request's key order, so one forward cursor per part merges
    // them without any key→block map.
    const Part* failed = nullptr;
    for (const Part& part : parts) {
      if (!part.ok && failed == nullptr) {
        failed = &part;
      }
    }
    const std::vector<std::string>& keys = requests[0].keys;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      Part& part = parts[part_of_key[i]];
      if (!part.ok) {
        continue;  // this key's owner failed; the terminator reports it
      }
      out->append(TakeValueBlock(View(part), &part.cursor, keys[i]));
    }
    if (failed != nullptr) {
      // Live keys answered above; the error terminator (in place of END)
      // tells the client the request only partially resolved.
      AppendBackendErrorLine(out, Name(*failed));
    } else {
      out->append(kResponseEnd);
    }
  }
};

// One server worker's side of the proxy: one Channel per backend, its
// socket in the worker's epoll, shared by every client on the worker.
class ClusterProxy::Agent final : public WorkerAgent {
 public:
  Agent(ClusterProxy& proxy, WorkerContext& context)
      : proxy_(proxy),
        context_(context),
        topology_seen_(proxy.topology_version_.load()) {}

  void Execute(Request& request, Connection& conn, bool* quit,
               const ServerConnectionStats* conn_stats) override {
    *quit = false;
    if (AnswersLocally(request.op)) {
      // Behind parked requests, Output() holds the answer in its turn.
      proxy_.ExecuteLocal(request, conn.Output(), quit, conn_stats);
      return;
    }
    auto call = std::make_unique<Call>(Call::KindOf(request.op));
    call->owned.push_back(std::move(request));
    Start(std::move(call), conn);
  }
  void ExecuteStores(std::vector<Request>& requests,
                     Connection& conn) override {
    proxy_.CountStoreBurst(requests.size());
    Forward(requests, conn);
  }
  void ExecuteMetaGets(std::vector<Request>& requests,
                       Connection& conn) override {
    Forward(requests, conn);
  }

  void OnEvent(int fd, std::uint32_t events) override {
    for (Member& member : members_) {
      if (member.channel->fd() == fd) {
        member.channel->OnEvent(events);
        return;
      }
    }
  }
  void Expire(std::int64_t now_ms) override {
    for (Member& member : members_) {
      member.channel->Expire(now_ms);
    }
    if (topology_seen_ != proxy_.topology_version_.load()) {
      DropDeparted();
    }
  }
  void Flush() override {
    for (Member& member : members_) {
      member.channel->Flush();
    }
  }
  std::int64_t NextDeadlineMs() const override {
    std::int64_t next = 0;
    for (const Member& member : members_) {
      const std::int64_t due = member.channel->deadline();
      if (due != 0 && (next == 0 || due < next)) {
        next = due;
      }
    }
    return next;
  }

 private:
  struct Member {
    std::shared_ptr<Backend> backend;  // keeps a departed member alive
    std::unique_ptr<Channel> channel;
  };

  void Forward(std::vector<Request>& requests, Connection& conn) {
    auto call = std::make_unique<Call>(Call::Kind::kForward);
    call->owned = std::move(requests);
    Start(std::move(call), conn);
  }

  // Submits the call's parts; parks it on `conn` unless every part has
  // already failed, in which case it answers at once.
  void Start(std::unique_ptr<Call> call, Connection& conn) {
    call->requests = call->owned.data();
    call->count = call->owned.size();
    proxy_.Launch(*call, [this](const std::shared_ptr<Backend>& backend) {
      return ChannelFor(backend);
    });
    if (call->outstanding == 0) {
      call->Assemble(conn.Output());
      return;
    }
    Call* parked = call.release();  // frees itself once answered
    parked->parked = true;
    parked->conn = &conn;
    parked->context = &context_;
    parked->slot = conn.Park(parked);
  }

  Channel* ChannelFor(const std::shared_ptr<Backend>& backend) {
    for (Member& member : members_) {
      if (member.backend == backend) {
        return member.channel.get();
      }
    }
    members_.push_back(
        Member{backend, std::make_unique<Channel>(*backend, &context_)});
    return members_.back().channel.get();
  }

  // After a topology change: closes the idle channels of members that
  // left the ring. Busy ones drain first and go on a later pass.
  void DropDeparted() {
    const std::uint64_t version = proxy_.topology_version_.load();
    const std::shared_ptr<const Routing> routing = proxy_.Snapshot();
    bool all_dropped = true;
    for (std::size_t i = 0; i < members_.size();) {
      const auto& current = routing->by_node;
      if (std::find(current.begin(), current.end(), members_[i].backend) !=
          current.end()) {
        ++i;
      } else if (!members_[i].channel->idle()) {
        all_dropped = false;
        ++i;
      } else {
        members_.erase(members_.begin() + static_cast<std::ptrdiff_t>(i));
      }
    }
    if (all_dropped) {
      topology_seen_ = version;
    }
  }

  ClusterProxy& proxy_;
  WorkerContext& context_;
  std::vector<Member> members_;
  std::uint64_t topology_seen_;
};

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

std::unique_ptr<WorkerAgent> ClusterProxy::AttachWorker(
    WorkerContext& context) {
  return std::make_unique<Agent>(*this, context);
}

std::shared_ptr<const ClusterProxy::Routing> ClusterProxy::Snapshot() const {
  std::lock_guard<std::mutex> lock(routing_mutex_);
  return routing_;
}

std::size_t ClusterProxy::RouteKey(const Routing& routing,
                                   std::string_view key) {
  const std::size_t index = routing.ring.NodeForKey(key);
  if (routing.has_previous) {
    // Live measurement of consistent hashing's bounded key movement: a
    // routed key counts when the pre-change ring owned it elsewhere.
    const std::size_t prev = routing.previous_ring.NodeForKey(key);
    if (prev == HashRing::kNoNode ||
        routing.previous_ring.NodeName(prev) != routing.ring.NodeName(index)) {
      remapped_keys_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return index;
}

bool ClusterProxy::AnswersLocally(Op op) {
  return op == Op::kQuit || op == Op::kVersion || op == Op::kMetaNoop ||
         op == Op::kStats;
}

void ClusterProxy::ExecuteLocal(const Request& request, std::string* out,
                                bool* quit,
                                const ServerConnectionStats* conn_stats) {
  switch (request.op) {
    case Op::kQuit:
      *quit = true;
      return;
    case Op::kVersion:
      // Every backend would say the same thing.
      AppendVersionResponse(out, kServerVersion);
      return;
    case Op::kMetaNoop:
      // The pipeline barrier is proxy-local: it leaves after every earlier
      // response, parked ones included.
      out->append(kResponseMetaNoop);
      return;
    default:
      AppendStatsResponse(out, conn_stats);
      return;
  }
}

void ClusterProxy::CountStoreBurst(std::size_t count) {
  if (count >= 2) {
    store_batches_.fetch_add(1, std::memory_order_relaxed);
    store_batched_ops_.fetch_add(count, std::memory_order_relaxed);
  }
}

template <typename ChannelFor>
void ClusterProxy::Launch(Call& call, ChannelFor&& channel_for) {
  call.routing = Snapshot();
  const Routing& routing = *call.routing;
  if (routing.ring.node_count() == 0) {
    call.no_backends = true;
    return;
  }
  switch (call.kind) {
    case Call::Kind::kForward:
      // Every remaining op carries exactly one key.
      call.parts.resize(call.count);
      for (std::size_t i = 0; i < call.count; ++i) {
        call.parts[i].node = RouteKey(routing, call.requests[i].keys[0]);
        call.parts[i].request = &call.requests[i];
      }
      break;
    case Call::Kind::kGet: {
      // Route every key exactly once (RouteKey counts remaps), grouping
      // by owner: the cluster analogue of GetManyScratch's shard grouping.
      // Each owner gets ONE batched get (cluster_scatter_batches pins it).
      const Request& request = call.requests[0];
      std::vector<std::size_t> owners;
      call.part_of_key.resize(request.keys.size());
      for (std::size_t i = 0; i < request.keys.size(); ++i) {
        const std::size_t node = RouteKey(routing, request.keys[i]);
        std::size_t g = 0;
        while (g < owners.size() && owners[g] != node) {
          ++g;
        }
        if (g == owners.size()) {
          owners.push_back(node);
        }
        call.part_of_key[i] = static_cast<std::uint32_t>(g);
      }
      call.parts.resize(owners.size());
      for (std::size_t g = 0; g < owners.size(); ++g) {
        call.parts[g].node = owners[g];
      }
      if (owners.size() == 1) {
        call.parts[0].request = &request;  // forwarded wholesale
        break;
      }
      call.subs.resize(owners.size());
      for (std::size_t g = 0; g < owners.size(); ++g) {
        call.subs[g].op = request.op;
        call.parts[g].request = &call.subs[g];
      }
      for (std::size_t i = 0; i < request.keys.size(); ++i) {
        call.subs[call.part_of_key[i]].keys.push_back(request.keys[i]);
      }
      scatter_gets_.fetch_add(1, std::memory_order_relaxed);
      scatter_batches_.fetch_add(owners.size(), std::memory_order_relaxed);
      break;
    }
    case Call::Kind::kFlushAll:
      call.parts.resize(routing.by_node.size());
      for (std::size_t node = 0; node < routing.by_node.size(); ++node) {
        call.parts[node].node = node;
        call.parts[node].request = &call.requests[0];
      }
      break;
  }
  // Hand the parts over in request order, so each backend's channel keeps
  // it. A backend marked dead fails its parts at once (one error per
  // call, no connect storm); the first call after dead_retry_ms goes
  // through and is the half-open probe.
  struct Group {
    std::size_t node;
    Channel* channel;  // null: the backend is marked dead
  };
  std::vector<Group> groups;
  const std::int64_t now = MonotonicMs();
  call.outstanding = 1;  // held while parts are handed over
  for (std::size_t i = 0; i < call.parts.size(); ++i) {
    const std::size_t node = call.parts[i].node;
    std::size_t g = 0;
    while (g < groups.size() && groups[g].node != node) {
      ++g;
    }
    if (g == groups.size()) {
      const std::shared_ptr<Backend>& backend = routing.by_node[node];
      Channel* channel = nullptr;
      if (backend->IsDead(now)) {
        backend->CountError();
      } else {
        channel = channel_for(backend);
      }
      groups.push_back(Group{node, channel});
    }
    if (groups[g].channel != nullptr) {
      ++call.outstanding;
      groups[g].channel->Submit(*call.parts[i].request, &call,
                                static_cast<std::uint32_t>(i), now);
    }
  }
  forwards_.fetch_add(groups.size(), std::memory_order_relaxed);
  --call.outstanding;
}

void ClusterProxy::RunSync(Call& call, std::string* out) {
  std::vector<std::pair<Backend*, std::unique_ptr<Channel>>> borrowed;
  Launch(call, [&borrowed](const std::shared_ptr<Backend>& backend) {
    borrowed.emplace_back(backend.get(), backend->Borrow());
    return borrowed.back().second.get();
  });
  if (call.outstanding != 0) {
    std::vector<Channel*> channels;
    for (const auto& entry : borrowed) {
      channels.push_back(entry.second.get());
    }
    DriveChannels(channels.data(), channels.size(), call.outstanding);
  }
  call.Assemble(out);
  for (auto& [backend, channel] : borrowed) {
    backend->Return(std::move(channel));
  }
}

void ClusterProxy::Execute(const Request& request, std::string* out,
                           bool* quit,
                           const ServerConnectionStats* conn_stats) {
  *quit = false;
  if (AnswersLocally(request.op)) {
    ExecuteLocal(request, out, quit, conn_stats);
    return;
  }
  Call call(Call::KindOf(request.op));
  call.requests = &request;
  call.count = 1;
  RunSync(call, out);
}

void ClusterProxy::ExecuteStores(const Request* requests, std::size_t count,
                                 std::string* out) {
  CountStoreBurst(count);
  Call call(Call::Kind::kForward);
  call.requests = requests;
  call.count = count;
  RunSync(call, out);
}

void ClusterProxy::ExecuteMetaGets(const Request* requests, std::size_t count,
                                   std::string* out) {
  Call call(Call::Kind::kForward);
  call.requests = requests;
  call.count = count;
  RunSync(call, out);
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
  topology_version_.fetch_add(1);
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
  topology_version_.fetch_add(1);
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
