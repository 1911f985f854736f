// Event-driven TCP server speaking the memcached text protocol.
//
// The network front-end for the mini-memcached: a configurable pool of
// epoll event-loop workers multiplexes every connection over non-blocking
// sockets. Each worker registers the listening socket with EPOLLEXCLUSIVE,
// so accepted connections live and die on the worker that accepted them —
// no cross-thread handoff, no locks on the data path. Per-connection
// input/output buffering, pipelining and write backpressure live in
// Connection (connection.h); this class owns the sockets, the workers,
// idle eviction, the connection cap, and graceful eventfd shutdown.
//
// A handler that answers some requests only after I/O of its own (the
// cluster proxy) attaches an agent to each worker
// (RequestHandler::AttachWorker). The agent's sockets live in the same
// epoll, its events and deadlines run on the worker's thread, and a
// request waiting on them is parked on its connection, so the worker
// never blocks on the handler's I/O.
#ifndef RP_MEMCACHE_SERVER_H_
#define RP_MEMCACHE_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/memcache/connection.h"
#include "src/memcache/engine.h"
#include "src/memcache/protocol.h"

namespace rp::memcache {

struct ServerOptions {
  // Event-loop worker threads. Each runs its own epoll instance; incoming
  // connections spread across workers via EPOLLEXCLUSIVE accept.
  std::size_t num_workers = 1;
  // Server-wide cap on concurrently open connections. Connections beyond
  // the cap are told "SERVER_ERROR too many open connections" and closed
  // without ever entering an event loop.
  std::size_t max_connections = 1024;
  // Connections idle longer than this are evicted. Zero = never.
  std::chrono::milliseconds idle_timeout{0};
  // Backpressure: a connection whose un-flushed output exceeds this many
  // bytes stops being read until the peer drains it below half the mark.
  // (A single response — e.g. one huge multi-get — still buffers whole.)
  std::size_t write_high_water = 1 << 20;
  int listen_backlog = 128;
};

class Server {
 public:
  // Binds to 127.0.0.1:port (port 0 = ephemeral; see port()). The engine
  // form serves a local cache; the handler form serves any RequestHandler
  // (the cluster proxy rides the same epoll front end this way). The
  // engine/handler must outlive the server.
  Server(CacheEngine& engine, std::uint16_t port, ServerOptions options = {});
  Server(RequestHandler& handler, std::uint16_t port,
         ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Starts the event-loop workers. Returns false (with a reason in
  // error()) if binding or event-loop setup failed.
  bool Start();
  // Graceful shutdown: wakes every worker via its eventfd, joins them, and
  // closes all connections. Idempotent; also run by the destructor.
  void Stop();

  std::uint16_t port() const { return port_; }
  const std::string& error() const { return error_; }

  // Total connections ever accepted (the `stats` total_connections).
  std::uint64_t connections_handled() const {
    return counters_.total.load(std::memory_order_relaxed);
  }
  // Currently open connections (the `stats` curr_connections).
  std::uint64_t current_connections() const {
    return counters_.current.load(std::memory_order_relaxed);
  }

 private:
  struct Worker final : WorkerContext {
    void Watch(int fd, std::uint32_t events) override;
    void Wake(Connection& conn) override { woken.push_back(conn.fd()); }

    int epoll_fd = -1;
    int wake_fd = -1;  // eventfd: Stop() pokes it to break epoll_wait
    std::thread thread;
    // The handler's side on this worker; null for a synchronous handler.
    // Declared before `connections`, so it outlives them.
    std::unique_ptr<WorkerAgent> agent;
    // fd → connection; touched only by this worker's thread.
    std::unordered_map<int, std::unique_ptr<Connection>> connections;
    // Non-zero while the listen fd is muted in this worker's epoll after
    // an un-retryable accept failure (fd exhaustion); re-armed at this
    // monotonic-ms deadline instead of spinning on the ready event.
    std::int64_t relisten_at_ms = 0;
    std::int64_t next_sweep_ms = 0;  // idle sweeps run at most once per wait
    std::vector<int> woken;  // fds of connections that released responses
  };

  void WorkerLoop(Worker& worker);
  void AcceptReady(Worker& worker);
  void UpdateInterest(Worker& worker, Connection& conn);
  void SweepIdle(Worker& worker);
  void ResumeWoken(Worker& worker);
  bool FailStart(const std::string& what);

  std::unique_ptr<EngineHandler> owned_handler_;  // engine-ctor form only
  RequestHandler* handler_;
  std::uint16_t port_;
  const ServerOptions options_;
  int listen_fd_ = -1;
  std::string error_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  ConnectionCounters counters_;
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace rp::memcache

#endif  // RP_MEMCACHE_SERVER_H_
