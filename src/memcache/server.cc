#include "src/memcache/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>

namespace rp::memcache {

namespace {

constexpr std::string_view kTooManyConnections =
    "SERVER_ERROR too many open connections\r\n";

}  // namespace

Server::Server(CacheEngine& engine, std::uint16_t port, ServerOptions options)
    : owned_handler_(std::make_unique<EngineHandler>(engine)),
      handler_(owned_handler_.get()),
      port_(port),
      options_(options) {}

Server::Server(RequestHandler& handler, std::uint16_t port,
               ServerOptions options)
    : handler_(&handler), port_(port), options_(options) {}

Server::~Server() { Stop(); }

bool Server::FailStart(const std::string& what) {
  error_ = what + ": " + std::strerror(errno);
  for (auto& worker : workers_) {
    if (worker->epoll_fd >= 0) {
      ::close(worker->epoll_fd);
    }
    if (worker->wake_fd >= 0) {
      ::close(worker->wake_fd);
    }
  }
  workers_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  return false;
}

bool Server::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return FailStart("socket");
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port_);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(listen_fd_, options_.listen_backlog) < 0) {
    return FailStart("bind/listen");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }

  const std::size_t num_workers = std::max<std::size_t>(1, options_.num_workers);
  workers_.reserve(num_workers);
  for (std::size_t i = 0; i < num_workers; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    worker->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    workers_.push_back(std::move(worker));
    Worker& w = *workers_.back();
    if (w.epoll_fd < 0 || w.wake_fd < 0) {
      return FailStart("epoll_create1/eventfd");
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = w.wake_fd;
    if (::epoll_ctl(w.epoll_fd, EPOLL_CTL_ADD, w.wake_fd, &ev) < 0) {
      return FailStart("epoll_ctl(wake)");
    }
    // EPOLLEXCLUSIVE: the kernel wakes one worker per accept burst instead
    // of thundering all of them; each worker accepts on its own.
    ev.events = EPOLLIN | EPOLLEXCLUSIVE;
    ev.data.fd = listen_fd_;
    if (::epoll_ctl(w.epoll_fd, EPOLL_CTL_ADD, listen_fd_, &ev) < 0) {
      return FailStart("epoll_ctl(listen)");
    }
  }
  for (auto& worker : workers_) {
    worker->agent = handler_->AttachWorker(*worker);
  }
  stopping_.store(false, std::memory_order_release);
  for (auto& worker : workers_) {
    Worker& w = *worker;
    w.thread = std::thread([this, &w] { WorkerLoop(w); });
  }
  started_ = true;
  return true;
}

void Server::Stop() {
  if (!started_) {
    return;
  }
  started_ = false;
  stopping_.store(true, std::memory_order_release);
  for (auto& worker : workers_) {
    const std::uint64_t one = 1;
    // A failed write (impossible for a fresh eventfd) would only delay the
    // worker until its next epoll timeout; ignore it.
    (void)!::write(worker->wake_fd, &one, sizeof(one));
  }
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) {
      worker->thread.join();
    }
    // The worker cleared its connections on exit; release its fds here.
    ::close(worker->wake_fd);
    ::close(worker->epoll_fd);
  }
  workers_.clear();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void Server::WorkerLoop(Worker& worker) {
  std::array<epoll_event, 64> events;
  // With idle eviction on, cap the wait so sweeps happen even on a quiet
  // loop; otherwise sleep until an event or a Stop() wakeup.
  const int wait_ms =
      options_.idle_timeout.count() > 0
          ? static_cast<int>(std::max<std::int64_t>(
                1, options_.idle_timeout.count() / 4))
          : -1;
  while (!stopping_.load(std::memory_order_acquire)) {
    int timeout = wait_ms;
    if (worker.relisten_at_ms != 0) {
      const std::int64_t now = MonotonicMs();
      if (now >= worker.relisten_at_ms) {
        epoll_event ev{};
        ev.events = EPOLLIN | EPOLLEXCLUSIVE;
        ev.data.fd = listen_fd_;
        if (::epoll_ctl(worker.epoll_fd, EPOLL_CTL_ADD, listen_fd_, &ev) == 0) {
          worker.relisten_at_ms = 0;
        }
      }
      if (worker.relisten_at_ms != 0) {
        const int until = static_cast<int>(worker.relisten_at_ms - MonotonicMs());
        timeout = timeout < 0 ? std::max(1, until)
                              : std::min(timeout, std::max(1, until));
      }
    }
    if (worker.agent != nullptr) {
      const std::int64_t deadline = worker.agent->NextDeadlineMs();
      if (deadline != 0) {
        const int until = static_cast<int>(
            std::max<std::int64_t>(0, deadline - MonotonicMs()));
        timeout = timeout < 0 ? until : std::min(timeout, until);
      }
    }
    const int n =
        ::epoll_wait(worker.epoll_fd, events.data(), events.size(), timeout);
    if (stopping_.load(std::memory_order_acquire)) {
      break;
    }
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;  // epoll fd gone: shutting down
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == worker.wake_fd) {
        std::uint64_t drain = 0;
        (void)!::read(worker.wake_fd, &drain, sizeof(drain));
        continue;
      }
      if (fd == listen_fd_) {
        AcceptReady(worker);
        continue;
      }
      auto it = worker.connections.find(fd);
      if (it == worker.connections.end()) {
        if (worker.agent != nullptr) {
          worker.agent->OnEvent(fd, events[i].events);  // ignores strangers
        }
        continue;  // else closed earlier in this same batch
      }
      Connection& conn = *it->second;
      bool alive = true;
      if (events[i].events & EPOLLERR) {
        alive = false;
      } else {
        if (events[i].events & EPOLLOUT) {
          alive = conn.OnWritable();
        }
        if (alive && (events[i].events & (EPOLLIN | EPOLLHUP))) {
          alive = conn.OnReadable();
        }
      }
      if (!alive) {
        worker.connections.erase(it);  // dtor closes fd, drops the gauge
      } else {
        UpdateInterest(worker, conn);
      }
    }
    if (worker.agent != nullptr) {
      worker.agent->Expire(MonotonicMs());
      ResumeWoken(worker);
      worker.agent->Flush();
    }
    if (options_.idle_timeout.count() > 0) {
      SweepIdle(worker);
    }
  }
  // Graceful shutdown: closing each connection here, on the owning thread,
  // keeps the single-threaded ownership invariant to the very end. The
  // connections abandon their parked requests before the agent goes.
  worker.connections.clear();
  worker.agent.reset();
}

void Server::AcceptReady(Worker& worker) {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return;  // backlog drained (or another EPOLLEXCLUSIVE worker won)
      }
      // EMFILE/ENFILE and friends: accepting is impossible right now, and
      // with a level-triggered listen event an immediate retry would spin
      // this loop at 100% CPU. Mute the listen fd in this worker's epoll
      // and re-arm it shortly; other workers (and the backlog) carry on.
      ::epoll_ctl(worker.epoll_fd, EPOLL_CTL_DEL, listen_fd_, nullptr);
      worker.relisten_at_ms = MonotonicMs() + 50;
      return;
    }
    // Claim a slot first, then check: a load-then-increment would let
    // concurrent AcceptReady calls on different workers both pass the
    // check and overshoot the server-wide cap.
    const std::uint64_t live =
        counters_.current.fetch_add(1, std::memory_order_relaxed) + 1;
    if (live > options_.max_connections) {
      counters_.current.fetch_sub(1, std::memory_order_relaxed);
      // Over the cap: best-effort error, then close. The socket never
      // enters an event loop, so a connect flood can't grow state.
      (void)!::send(fd, kTooManyConnections.data(), kTooManyConnections.size(),
                    MSG_NOSIGNAL);
      ::close(fd);
      continue;
    }
    counters_.total.fetch_add(1, std::memory_order_relaxed);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>(fd, *handler_, worker.agent.get(),
                                             options_.write_high_water,
                                             &counters_);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(worker.epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) {
      continue;  // conn dtor closes the fd and restores the gauge
    }
    conn->set_registered_events(EPOLLIN);
    worker.connections.emplace(fd, std::move(conn));
  }
}

void Server::Worker::Watch(int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, fd, &ev) < 0 && errno == ENOENT) {
    ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev);
  }
}

void Server::ResumeWoken(Worker& worker) {
  // Resume never releases parked responses itself, so nothing joins the
  // list while it is walked. A connection closed since it woke is gone
  // from the map; one that woke twice resumes twice, harmlessly.
  for (const int fd : worker.woken) {
    const auto it = worker.connections.find(fd);
    if (it == worker.connections.end()) {
      continue;
    }
    if (!it->second->Resume()) {
      worker.connections.erase(it);
    } else {
      UpdateInterest(worker, *it->second);
    }
  }
  worker.woken.clear();
}

void Server::UpdateInterest(Worker& worker, Connection& conn) {
  const std::uint32_t want = (conn.wants_read() ? EPOLLIN : 0u) |
                             (conn.wants_write() ? EPOLLOUT : 0u);
  if (want == conn.registered_events()) {
    return;
  }
  epoll_event ev{};
  ev.events = want;
  ev.data.fd = conn.fd();
  if (::epoll_ctl(worker.epoll_fd, EPOLL_CTL_MOD, conn.fd(), &ev) == 0) {
    conn.set_registered_events(want);
  }
}

void Server::SweepIdle(Worker& worker) {
  const std::int64_t now = MonotonicMs();
  if (now < worker.next_sweep_ms) {
    return;  // busy loops return from epoll_wait constantly; sweep at most
             // once per wait interval, not once per event batch
  }
  worker.next_sweep_ms =
      now + std::max<std::int64_t>(1, options_.idle_timeout.count() / 4);
  const std::int64_t limit = options_.idle_timeout.count();
  for (auto it = worker.connections.begin();
       it != worker.connections.end();) {
    // A connection with parked requests is waiting on the handler, not
    // idle; the handler's own deadlines bound that wait.
    if (now - it->second->last_active_ms() >= limit &&
        !it->second->has_parked()) {
      it = worker.connections.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace rp::memcache
