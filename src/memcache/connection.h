// Per-connection state for the event-driven server: the socket, the
// incremental request parser, and the input/output buffers, driven by
// readiness callbacks from one event-loop worker.
//
// Threading model: a Connection is owned by exactly one worker and is only
// ever touched from that worker's thread, so none of its state needs
// locking. The shared ConnectionCounters (stats) are atomics.
#ifndef RP_MEMCACHE_CONNECTION_H_
#define RP_MEMCACHE_CONNECTION_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/memcache/engine.h"
#include "src/memcache/protocol.h"

namespace rp::memcache {

// Monotonic milliseconds (steady clock) for idle-timeout bookkeeping.
std::int64_t MonotonicMs();

// Server-wide connection gauges, owned by the Server and shared (by
// pointer) with every Connection so the `stats` command can report them.
struct ConnectionCounters {
  std::atomic<std::uint64_t> current{0};
  std::atomic<std::uint64_t> total{0};
};

// Snapshot of the gauges handed to ExecuteRequest for a `stats` response.
struct ServerConnectionStats {
  std::uint64_t curr_connections = 0;
  std::uint64_t total_connections = 0;
};

// Executes one parsed request against an engine, appending the wire
// response to *out (nothing for noreply). Sets *quit on a quit command.
// A get/gets, a lone key included, is one engine.GetManyScratch call, as
// an mg is one ExecuteMetaGetBatch and a store one ExecuteStoreBatch.
// Shared by the server's connections and the in-process workload driver;
// conn_stats, when non-null, adds curr/total_connections to `stats`.
void ExecuteRequest(CacheEngine& engine, const Request& request,
                    std::string* out, bool* quit,
                    const ServerConnectionStats* conn_stats = nullptr);

// True for a storage request StoreMany can carry: one of the six classic
// storage commands, or a meta store/delete (ms/md — their StoreOps ride
// the same shard-grouped batch), with its single key (the parser
// guarantees one key, but the check keeps this safe on hand-built
// requests too).
bool IsBatchableStore(const Request& request);

// Executes a burst of storage requests as one engine.StoreMany call and
// appends each request's wire response (noreply suppressed per op; meta
// requests answer in meta grammar, with q suppressing bare HD) to *out.
// This is the one store path: ExecuteRequest runs every lone store here
// as a burst of one, and the connection hands it pipelined store runs so
// the engine pays its per-batch costs (one store-mutex acquisition per
// shard group) once. Every request must satisfy IsBatchableStore or be a
// classic delete, which also has a StoreOp form (the connection does not
// collect classic deletes into bursts).
void ExecuteStoreBatch(CacheEngine& engine, const Request* requests,
                       std::size_t count, std::string* out);

// Executes a run of mg requests as ONE engine.GetManyScratch call — one
// epoch read section per shard group on the RP engine, hit payloads
// appended to a thread-local scratch region and referenced by offset (no
// per-hit std::string anywhere) — then assembles each response straight
// from the scratch views. This is the quiet-flag pipelining path: a
// client blasting `mg <key> q`×k sees exactly the batched engine cost of
// a classic `get k1..kk`, with misses silently suppressed per the q
// contract. mg T (touch) and mg N (autovivify) side effects run per-key
// after the batch. Every request must have op == kMetaGet and one key.
void ExecuteMetaGetBatch(CacheEngine& engine, const Request* requests,
                         std::size_t count, std::string* out);

class Connection;
class WorkerAgent;

// The event-loop services a server worker offers its WorkerAgent. Used
// only from that worker's thread.
class WorkerContext {
 public:
  // Registers `fd` in the worker's epoll for `events`, or changes the
  // events it is registered for. The worker hands that fd's events to
  // WorkerAgent::OnEvent; closing the fd unregisters it.
  virtual void Watch(int fd, std::uint32_t events) = 0;
  // `conn` released parked responses: the worker flushes them, and
  // resumes any requests the parking held back, before it next sleeps.
  virtual void Wake(Connection& conn) = 0;

 protected:
  ~WorkerContext() = default;
};

// The handler's side of a parked request (Connection::Park).
class ParkedRequest {
 public:
  // The connection is being destroyed before the response arrived: the
  // slot is gone and must never be filled or released.
  virtual void Abandon() = 0;

 protected:
  ~ParkedRequest() = default;
};

// Dispatch seam between the event-driven front end and whatever answers
// requests behind it — a local engine (EngineHandler) or the cluster
// routing proxy (cluster::ClusterProxy). A Connection hands store and mg
// runs (a lone one included) to the batched entry points and every other
// request to Execute, so every implementation sees the exact batch
// boundaries the wire produced. Implementations must be thread-safe: one
// handler instance is shared by every worker's connections.
class RequestHandler {
 public:
  virtual ~RequestHandler();

  // One request → its wire response appended to *out (nothing when the
  // protocol suppresses it). Sets *quit on a quit command. conn_stats,
  // when non-null, carries the server's connection gauges for `stats`.
  virtual void Execute(const Request& request, std::string* out, bool* quit,
                       const ServerConnectionStats* conn_stats) = 0;
  // A burst of IsBatchableStore requests, a lone store included;
  // responses append to *out in request order.
  virtual void ExecuteStores(const Request* requests, std::size_t count,
                             std::string* out) = 0;
  // A pipelined run of mg requests; responses append in request order.
  virtual void ExecuteMetaGets(const Request* requests, std::size_t count,
                               std::string* out) = 0;

  // Asynchronous execution on one server worker. The Server calls this
  // once per event-loop worker; when it returns an agent, that worker's
  // connections dispatch through the agent instead of the three calls
  // above. The default, nullptr, keeps every request synchronous.
  virtual std::unique_ptr<WorkerAgent> AttachWorker(WorkerContext& context);
};

// One worker's asynchronous side of a RequestHandler. Its entry points
// keep the handler's batch boundaries, but a request whose answer needs
// I/O is parked on its connection (Connection::Park) while the worker
// serves other clients; the agent fills and releases the slot once the
// answer is known. Answers known at once go to Connection::Output(). The
// agent may move from the requests it is handed. Used only from the
// worker's thread.
class WorkerAgent {
 public:
  virtual ~WorkerAgent();

  virtual void Execute(Request& request, Connection& conn, bool* quit,
                       const ServerConnectionStats* conn_stats) = 0;
  virtual void ExecuteStores(std::vector<Request>& requests,
                             Connection& conn) = 0;
  virtual void ExecuteMetaGets(std::vector<Request>& requests,
                               Connection& conn) = 0;

  // An event on an fd the agent registered through WorkerContext::Watch.
  virtual void OnEvent(int fd, std::uint32_t events) = 0;
  // Once per event-loop pass, after the pass's events: fails the work
  // whose deadline is at or before now_ms.
  virtual void Expire(std::int64_t now_ms) = 0;
  // Once per pass, last: sends what the pass queued.
  virtual void Flush() = 0;
  // Earliest deadline of the work in flight (MonotonicMs), 0 when none:
  // the worker's epoll_wait sleeps no longer than this.
  virtual std::int64_t NextDeadlineMs() const = 0;
};

// The single-process handler: requests run directly against a CacheEngine
// through ExecuteRequest / ExecuteStoreBatch / ExecuteMetaGetBatch.
class EngineHandler : public RequestHandler {
 public:
  explicit EngineHandler(CacheEngine& engine) : engine_(engine) {}

  void Execute(const Request& request, std::string* out, bool* quit,
               const ServerConnectionStats* conn_stats) override;
  void ExecuteStores(const Request* requests, std::size_t count,
                     std::string* out) override;
  void ExecuteMetaGets(const Request* requests, std::size_t count,
                       std::string* out) override;

 private:
  CacheEngine& engine_;
};

class Connection {
 public:
  // Takes ownership of the (non-blocking) fd. agent, when set, is the
  // handler's side on this connection's worker and receives every request
  // (RequestHandler::AttachWorker). counters may be null (then `stats`
  // omits the connection gauges); when set, `current` and `total` were
  // already incremented by the acceptor and the destructor decrements
  // `current`.
  Connection(int fd, RequestHandler& handler, WorkerAgent* agent,
             std::size_t write_high_water, ConnectionCounters* counters);
  ~Connection();  // abandons parked requests, closes the fd

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd() const { return fd_; }

  // Readiness handlers. Return false when the connection is done and must
  // be destroyed: peer closed, fatal socket error, or a quit whose
  // buffered responses have been fully flushed.
  bool OnReadable();
  bool OnWritable();
  // After WorkerContext::Wake: flushes released responses and runs the
  // requests that parking held back. Same return contract.
  bool Resume();

  // A parked request's place in the response order. Its owner appends
  // the response to `bytes`, then calls Release.
  struct Slot {
    std::string bytes;
    ParkedRequest* owner = nullptr;  // null once released
  };
  // For a WorkerAgent. Where a response known now goes: the output
  // buffer, or, behind parked requests, a released slot of its own.
  std::string* Output();
  // Reserves the response position of a request answered later. If the
  // connection is destroyed first, owner->Abandon() is called instead.
  Slot* Park(ParkedRequest* owner);
  // The slot's response is complete; every released slot at the front of
  // the order moves to the output buffer.
  void Release(Slot* slot);
  // Requests parked and not yet released: the connection is not done, and
  // idle eviction leaves it alone.
  bool has_parked() const { return parked_ != 0; }

  // Epoll interest wanted after the last event. Reads pause while the
  // output buffer is above the high-water mark (backpressure) or the
  // parked responses reach their bound, and stop for good once a quit has
  // been parsed or the peer sent EOF.
  bool wants_read() const {
    return !close_after_flush_ && !peer_eof_ && !reads_paused_ &&
           slots_.size() < kMaxSlots;
  }
  bool wants_write() const { return pending_output() > 0; }

  // The event mask currently registered with epoll; bookkeeping owned by
  // the server so it can skip redundant epoll_ctl calls.
  std::uint32_t registered_events() const { return registered_events_; }
  void set_registered_events(std::uint32_t events) {
    registered_events_ = events;
  }

  std::int64_t last_active_ms() const { return last_active_ms_; }

 private:
  // Parses and executes complete buffered requests in order, appending
  // responses to out_, until the output buffer crosses the high-water
  // mark (returns true: deferred work remains — resume once the peer
  // drains some output) or no complete request is left (returns false).
  // On quit, stops executing (remaining pipelined requests are dropped
  // per protocol) but keeps earlier responses so they flush before close.
  bool ExecuteBuffered();
  // Executes the pending store burst (if any) as one ExecuteStores call, a
  // lone store included. Called whenever the burst ends — a non-store
  // request, a parse error, a backpressure pause, the batch cap, or the
  // end of buffered input — so responses always leave in request order.
  void FlushStoreBatch();
  // Same contract for the pending mg burst (one ExecuteMetaGetBatch). At
  // most one of the two batches is ever non-empty — each flushes the
  // other before collecting — so responses stay in request order.
  void FlushMetaGetBatch();
  // Alternates flushing and executing backpressure-deferred requests
  // until the socket stops taking bytes or no deferred work remains.
  // False = fatal socket error.
  bool Pump();
  // Deferred requests must wait: output over the high-water mark, or the
  // parked responses at their bound.
  bool stalled() const {
    return pending_output() > write_high_water_ || slots_.size() >= kMaxSlots;
  }
  // Writes as much of out_ as the socket accepts. False = fatal error.
  bool FlushOutput();
  void UpdateBackpressure();
  std::size_t pending_output() const { return out_.size() - out_sent_; }
  // Done: everything the protocol still owes this peer has been flushed.
  // After quit, deferred requests are dropped by contract; after a plain
  // EOF they must still run (the blocking server answered everything it
  // had read before noticing the close, and clients that shutdown(WR)
  // and read — `printf ... | nc` — depend on that).
  bool finished() const {
    return (close_after_flush_ || (peer_eof_ && !deferred_work_)) &&
           pending_output() == 0 && slots_.empty();
  }

  const int fd_;
  RequestHandler& handler_;
  WorkerAgent* const agent_;
  const std::size_t write_high_water_;
  ConnectionCounters* const counters_;

  // Largest store burst handed to one StoreMany call. Bounds the batch
  // buffer (and each engine lock hold) while staying well past the depth
  // a pipelined client keeps in flight.
  static constexpr std::size_t kMaxStoreBatch = 64;
  // Bound on the slots waiting to leave (parked requests and the answers
  // queued behind them); reads and execution pause at it.
  static constexpr std::size_t kMaxSlots = 64;

  RequestParser parser_;
  std::vector<Request> store_batch_;     // pending pipelined store burst
  std::vector<Request> meta_get_batch_;  // pending pipelined mg burst
  std::string out_;        // response bytes not yet handed to the kernel
  std::size_t out_sent_ = 0;  // prefix of out_ already written
  // Responses that must leave after out_, in order; the front one is
  // still parked. Empty unless an agent parked a request.
  std::deque<Slot> slots_;
  std::size_t parked_ = 0;  // slots with an owner
  bool close_after_flush_ = false;  // quit seen: flush, then close
  bool peer_eof_ = false;           // peer sent EOF: answer, flush, close
  bool reads_paused_ = false;       // over the write high-water mark
  bool deferred_work_ = false;      // parsed requests held by backpressure
  std::uint32_t registered_events_ = 0;
  std::int64_t last_active_ms_;
};

}  // namespace rp::memcache

#endif  // RP_MEMCACHE_CONNECTION_H_
