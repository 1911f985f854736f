#include "src/memcache/cluster/backend.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include "src/memcache/cluster/wire.h"

namespace rp::memcache::cluster {

namespace {

// poll() and epoll share their readiness bits on Linux, so a Channel takes
// either.
static_assert(POLLIN == EPOLLIN && POLLOUT == EPOLLOUT &&
              POLLERR == EPOLLERR && POLLHUP == EPOLLHUP);

// Buffers whose consumed prefix grows past this are compacted.
constexpr std::size_t kCompactBytes = 64 * 1024;

void Compact(std::string* buf, std::size_t* head, std::size_t* also) {
  if (*head == buf->size()) {
    buf->clear();
  } else if (*head >= kCompactBytes && *head >= buf->size() / 2) {
    buf->erase(0, *head);
  } else {
    return;
  }
  if (also != nullptr) {
    *also -= *head;
  }
  *head = 0;
}

}  // namespace

Channel::Channel(Backend& backend, WorkerContext* context)
    : backend_(backend), context_(context) {}

Channel::~Channel() {
  Close();
  FailAll();
}

void Channel::Submit(const Request& request, ResponseSink* sink,
                     std::uint32_t part, std::int64_t now_ms) {
  const std::size_t before = wire_.size();
  AppendRequestWire(&wire_, request, /*strip_quiet=*/true);
  pending_.push_back(
      Pending{&request, sink, part,
              static_cast<std::uint32_t>(wire_.size() - before),
              now_ms + backend_.options().io_timeout_ms, false});
}

void Channel::Arm(std::uint32_t events) {
  if (context_ != nullptr && events != armed_) {
    context_->Watch(fd_, events);
  }
  armed_ = events;
}

void Channel::Flush() {
  if (broken_ || connecting_ || wire_sent_ == wire_.size()) {
    return;
  }
  if (fd_ < 0) {
    fd_ = backend_.Connect(&connecting_);
    if (fd_ < 0) {
      broken_ = true;
      return;
    }
    if (connecting_) {
      connect_deadline_ms_ =
          MonotonicMs() + backend_.options().connect_timeout_ms;
      Arm(EPOLLIN | EPOLLOUT);
      return;
    }
  }
  while (wire_sent_ < wire_.size()) {
    const ssize_t n = ::send(fd_, wire_.data() + wire_sent_,
                             wire_.size() - wire_sent_, MSG_NOSIGNAL);
    if (n > 0) {
      wire_sent_ += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      Arm(EPOLLIN | EPOLLOUT);  // EPOLLOUT only while a write would block
      return;
    }
    broken_ = true;
    return;
  }
  Arm(EPOLLIN);
}

void Channel::OnEvent(std::uint32_t events) {
  if (fd_ < 0) {
    return;
  }
  if (connecting_) {
    if ((events & (EPOLLOUT | EPOLLERR | EPOLLHUP)) == 0) {
      return;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len) < 0 || err != 0) {
      Recover();
      return;
    }
    connecting_ = false;
    Flush();
    return;
  }
  if ((events & EPOLLOUT) != 0) {
    Flush();
  }
  if ((events & (EPOLLIN | EPOLLHUP | EPOLLERR)) == 0) {
    return;
  }
  char buf[16 * 1024];
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      in_.append(buf, static_cast<std::size_t>(n));
      if (!FrameResponses()) {
        Recover();
        return;
      }
      if (static_cast<std::size_t>(n) < sizeof(buf)) {
        return;  // drained; a level-triggered wait reports any rest
      }
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    }
    Recover();  // EOF or a socket error: the backend went away under us
    return;
  }
}

bool Channel::FrameResponses() {
  while (!pending_.empty()) {
    const std::string_view rest(in_.data() + in_head_, in_.size() - in_head_);
    std::size_t frame_len = 0;
    const FrameStatus status =
        FrameResponse(*pending_.front().request, rest, &frame_len);
    if (status == FrameStatus::kNeedMore) {
      break;
    }
    if (status == FrameStatus::kMalformed) {
      return false;
    }
    // Pop before delivering: the sink may free the request.
    const Pending done = pending_.front();
    pending_.pop_front();
    wire_head_ += done.wire_size;
    in_head_ += frame_len;
    backend_.MarkAlive();
    const std::string_view response = rest.substr(0, frame_len);
    done.sink->Deliver(done.part, &response);
  }
  // Bytes past the last awaited response answer nothing we asked: the
  // connection is out of step with its FIFO.
  if (pending_.empty() && in_head_ != in_.size()) {
    return false;
  }
  Compact(&in_, &in_head_, nullptr);
  Compact(&wire_, &wire_head_, &wire_sent_);
  return true;
}

std::int64_t Channel::deadline() const {
  if (broken_) {
    return 1;  // long past: recover on the next pass
  }
  std::int64_t deadline = pending_.empty() ? 0 : pending_.front().deadline_ms;
  if (connecting_ && (deadline == 0 || connect_deadline_ms_ < deadline)) {
    deadline = connect_deadline_ms_;
  }
  return deadline;
}

void Channel::Expire(std::int64_t now_ms) {
  const std::int64_t due = deadline();
  if (due != 0 && due <= now_ms) {
    Recover();
  }
}

void Channel::Recover() {
  Close();
  if (pending_.empty()) {
    return;  // an idle connection closed: nothing is owed
  }
  if (pending_.front().retried) {
    // The fresh connection failed too.
    backend_.MarkDead();
    backend_.CountError();
    FailAll();
    return;
  }
  // Retry once on a fresh connection (a long-lived one may simply have
  // been closed by a backend restart): the next Flush reconnects and
  // re-sends every unanswered sub-request.
  backend_.retries_.fetch_add(1, std::memory_order_relaxed);
  const std::int64_t deadline =
      MonotonicMs() + backend_.options().io_timeout_ms;
  for (Pending& pending : pending_) {
    pending.retried = true;
    pending.deadline_ms = deadline;
  }
  wire_sent_ = wire_head_;
}

void Channel::FailAll() {
  wire_.clear();
  wire_head_ = 0;
  wire_sent_ = 0;
  while (!pending_.empty()) {
    const Pending failed = pending_.front();
    pending_.pop_front();
    failed.sink->Deliver(failed.part, nullptr);
  }
}

void Channel::Close() {
  if (fd_ >= 0) {
    ::close(fd_);  // also drops its epoll registration
  }
  fd_ = -1;
  connecting_ = false;
  broken_ = false;
  armed_ = 0;
  in_.clear();
  in_head_ = 0;
}

void DriveChannels(Channel* const* channels, std::size_t count,
                   const std::uint32_t& outstanding) {
  std::vector<pollfd> fds;
  std::vector<Channel*> polled;
  while (outstanding != 0) {
    for (std::size_t i = 0; i < count; ++i) {
      channels[i]->Flush();
    }
    const std::int64_t now = MonotonicMs();
    std::int64_t deadline = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const std::int64_t due = channels[i]->deadline();
      if (due != 0 && (deadline == 0 || due < deadline)) {
        deadline = due;
      }
    }
    if (deadline != 0 && deadline <= now) {
      for (std::size_t i = 0; i < count; ++i) {
        channels[i]->Expire(now);
      }
      continue;
    }
    fds.clear();
    polled.clear();
    for (std::size_t i = 0; i < count; ++i) {
      if (channels[i]->fd() >= 0 && channels[i]->events() != 0) {
        fds.push_back(pollfd{channels[i]->fd(),
                             static_cast<short>(channels[i]->events()), 0});
        polled.push_back(channels[i]);
      }
    }
    const int timeout = deadline == 0 ? -1 : static_cast<int>(deadline - now);
    if (::poll(fds.data(), fds.size(), timeout) <= 0) {
      continue;  // timeout or EINTR: the deadline check above runs again
    }
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents != 0) {
        polled[i]->OnEvent(static_cast<std::uint16_t>(fds[i].revents));
      }
    }
  }
}

Backend::Backend(std::string name, std::uint16_t port, BackendOptions options)
    : name_(std::move(name)), port_(port), options_(options) {}

Backend::~Backend() = default;

int Backend::Connect(bool* in_progress) const {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port_);
  *in_progress = false;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    if (errno != EINPROGRESS) {
      ::close(fd);
      return -1;
    }
    *in_progress = true;
  }
  return fd;
}

void Backend::MarkDead() {
  dead_until_ms_.store(MonotonicMs() + options_.dead_retry_ms,
                       std::memory_order_relaxed);
}

std::unique_ptr<Channel> Backend::Borrow() {
  {
    std::lock_guard<std::mutex> lock(idle_mutex_);
    if (!idle_.empty()) {
      std::unique_ptr<Channel> channel = std::move(idle_.back());
      idle_.pop_back();
      return channel;
    }
  }
  return std::make_unique<Channel>(*this, nullptr);
}

void Backend::Return(std::unique_ptr<Channel> channel) {
  std::lock_guard<std::mutex> lock(idle_mutex_);
  idle_.push_back(std::move(channel));
}

}  // namespace rp::memcache::cluster
