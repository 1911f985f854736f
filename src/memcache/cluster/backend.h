// One cluster member as the proxy sees it, and the pipelined connection
// that carries requests to it.
//
// A Backend is the member's shared state: its loopback address, its
// health and its counters. A Channel is one non-blocking connection to it
// with a write buffer and a FIFO of sub-requests awaiting responses. Each
// response is framed by its request's grammar (FrameResponse) and handed
// to the sub-request's ResponseSink, in submission order.
//
// Every proxy worker keeps one long-lived Channel per backend, registered
// in the worker's own epoll and shared by all of that worker's clients.
// Callers outside a Server borrow an idle Channel from the Backend and
// drive it with poll() (DriveChannels). Both run the same framing, retry
// and mark-dead code:
//
// - every sub-request must be answered within io_timeout of its
//   submission, and a connect must finish within connect_timeout;
// - a failed connection (EOF, socket error, malformed or unasked-for
//   bytes, a passed deadline) is retried once on a fresh connection,
//   which re-sends every sub-request still unanswered;
// - a second failure marks the backend dead until dead_retry_ms passes
//   and fails everything queued. The proxy fails a dead backend's requests
//   at once; the first one after the window is the half-open probe, and a
//   restarted backend rejoins the ring by answering it.
//
// So a dead, slow or half-open backend delays a request by at most
// connect_timeout + 2 × io_timeout, and only the requests routed to it.
#ifndef RP_MEMCACHE_CLUSTER_BACKEND_H_
#define RP_MEMCACHE_CLUSTER_BACKEND_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/memcache/connection.h"  // MonotonicMs, WorkerContext
#include "src/memcache/protocol.h"

namespace rp::memcache::cluster {

struct BackendOptions {
  int connect_timeout_ms = 250;
  // Ceiling on the wait for each sub-request's response, from submission.
  int io_timeout_ms = 2000;
  // How long a marked-dead backend stays unprobed.
  int dead_retry_ms = 1000;
};

class Backend;

// Receives the outcome of the sub-requests it submitted to Channels.
class ResponseSink {
 public:
  // Sub-request `part`'s framed response, or nullptr when the backend
  // failed it. The bytes are valid only during the call.
  virtual void Deliver(std::uint32_t part,
                       const std::string_view* response) = 0;

 protected:
  ~ResponseSink() = default;
};

class Channel {
 public:
  // context, when set, is the worker whose epoll the socket registers
  // with; without one, DriveChannels polls it.
  Channel(Backend& backend, WorkerContext* context);
  ~Channel();  // fails what is still queued, closes the socket

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  int fd() const { return fd_; }
  bool idle() const { return pending_.empty(); }

  // Queues `request` for sink->Deliver(part, ...), re-serialized with
  // q/noreply stripped so a response always comes; its io deadline runs
  // from now_ms. `request` must stay valid until then. Nothing is sent
  // before Flush.
  void Submit(const Request& request, ResponseSink* sink, std::uint32_t part,
              std::int64_t now_ms);
  // Connects if needed and sends what is queued, as far as the socket
  // takes it.
  void Flush();
  // Socket readiness: EPOLLIN/EPOLLOUT/EPOLLERR/EPOLLHUP bits.
  void OnEvent(std::uint32_t events);
  // Earliest deadline of the work in flight (MonotonicMs); 0 = none.
  std::int64_t deadline() const;
  // Handles a failed connection or a deadline at or before now_ms.
  void Expire(std::int64_t now_ms);
  // The readiness the socket waits for.
  std::uint32_t events() const { return armed_; }

 private:
  struct Pending {
    const Request* request;
    ResponseSink* sink;
    std::uint32_t part;
    std::uint32_t wire_size;  // this sub-request's bytes in wire_
    std::int64_t deadline_ms;
    bool retried;  // already re-sent once on a fresh connection
  };

  // Frames and delivers the complete responses in in_. False = the
  // connection is unusable.
  bool FrameResponses();
  // The connection failed: retry what is unanswered once, or mark the
  // backend dead and fail it all.
  void Recover();
  void FailAll();
  void Close();
  void Arm(std::uint32_t events);

  Backend& backend_;
  WorkerContext* const context_;
  int fd_ = -1;
  bool connecting_ = false;
  bool broken_ = false;  // failed inside Flush; Expire recovers it
  std::int64_t connect_deadline_ms_ = 0;
  std::uint32_t armed_ = 0;  // events the socket is registered for
  std::deque<Pending> pending_;
  // Wire bytes of every unanswered sub-request from wire_head_ on, kept
  // for the retry; [wire_sent_, size) is not yet sent.
  std::string wire_;
  std::size_t wire_head_ = 0;
  std::size_t wire_sent_ = 0;
  std::string in_;  // received bytes, framed up to in_head_
  std::size_t in_head_ = 0;
};

// Drives `channels` with poll() until `outstanding` reaches zero: the
// synchronous driver for callers outside an event loop.
void DriveChannels(Channel* const* channels, std::size_t count,
                   const std::uint32_t& outstanding);

class Backend {
 public:
  Backend(std::string name, std::uint16_t port, BackendOptions options);
  ~Backend();

  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  const std::string& name() const { return name_; }
  std::uint16_t port() const { return port_; }
  const BackendOptions& options() const { return options_; }

  // Health, for routing, stats and tests.
  bool IsDead(std::int64_t now_ms) const {
    return now_ms < dead_until_ms_.load(std::memory_order_relaxed);
  }
  std::uint64_t errors() const {
    return errors_.load(std::memory_order_relaxed);
  }
  std::uint64_t retries() const {
    return retries_.load(std::memory_order_relaxed);
  }
  void CountError() { errors_.fetch_add(1, std::memory_order_relaxed); }

  // An idle poll-driven Channel for a synchronous caller, and its return.
  std::unique_ptr<Channel> Borrow();
  void Return(std::unique_ptr<Channel> channel);

 private:
  friend class Channel;

  // Starts a non-blocking connect. Returns the fd (*in_progress set while
  // the handshake runs), or -1.
  int Connect(bool* in_progress) const;
  void MarkDead();
  void MarkAlive() {
    if (dead_until_ms_.load(std::memory_order_relaxed) != 0) {
      dead_until_ms_.store(0, std::memory_order_relaxed);
    }
  }

  const std::string name_;
  const std::uint16_t port_;
  const BackendOptions options_;

  std::atomic<std::int64_t> dead_until_ms_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> retries_{0};

  std::mutex idle_mutex_;
  std::vector<std::unique_ptr<Channel>> idle_;
};

}  // namespace rp::memcache::cluster

#endif  // RP_MEMCACHE_CLUSTER_BACKEND_H_
