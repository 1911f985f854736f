#include "perfbench/src/loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <ctime>
#include <deque>
#include <string_view>
#include <thread>

namespace pb {

namespace {

constexpr std::uint64_t kResponseTimeoutNs = 2'000'000'000;
// Each generator connection is replaced this often (when it has nothing
// outstanding). The server's epoll workers share the listening socket, and
// which worker accepts a connection is a race; with two connections that
// one draw moves closed-loop throughput by a third. Reconnecting averages
// a run over many draws.
constexpr std::uint64_t kConnectionEpochNs = 250'000'000;

class Conn {
 public:
  explicit Conn(std::uint16_t port) : port_(port) {}
  ~Conn() { Close(); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool Open() {
    Close();
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
      return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      Close();
      return false;
    }
    int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    fcntl(fd_, F_SETFL, fcntl(fd_, F_GETFL) | O_NONBLOCK);
    return true;
  }

  // Reopens after a failure, retrying briefly; false if the server is gone.
  bool Reopen() {
    for (int attempt = 0; attempt < 50; ++attempt) {
      if (Open()) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return false;
  }

  void Close() {
    if (fd_ >= 0) {
      close(fd_);
      fd_ = -1;
    }
    in.clear();
    pos = 0;
  }

  // While the socket is full, keeps taking in responses: a server that
  // stops reading until its output drains must never deadlock the sender.
  bool Send(std::string_view data) {
    while (!data.empty()) {
      const ssize_t n = send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
      if (n > 0) {
        data.remove_prefix(static_cast<std::size_t>(n));
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        pollfd p{fd_, POLLOUT | POLLIN, 0};
        if (poll(&p, 1, 2000) <= 0 || ((p.revents & POLLIN) && Recv() < 0)) {
          return false;
        }
      } else if (!(n < 0 && errno == EINTR)) {
        return false;
      }
    }
    return true;
  }

  // >0: bytes appended to `in`; 0: nothing available; -1: closed or failed.
  int Recv() {
    constexpr std::size_t kChunk = 64 * 1024;
    const std::size_t old = in.size();
    in.resize(old + kChunk);
    const ssize_t n = recv(fd_, in.data() + old, kChunk, MSG_DONTWAIT);
    in.resize(old + (n > 0 ? static_cast<std::size_t>(n) : 0));
    if (n > 0) {
      return static_cast<int>(n);
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      return 0;
    }
    return -1;
  }

  void WaitReadable(std::uint64_t ns) {
    pollfd p{fd_, POLLIN, 0};
    const timespec ts{static_cast<time_t>(ns / 1'000'000'000),
                      static_cast<long>(ns % 1'000'000'000)};
    ppoll(&p, 1, &ts, nullptr);
  }

  void Compact() {
    if (pos == in.size()) {
      in.clear();
      pos = 0;
    } else if (pos > (1 << 16)) {
      in.erase(0, pos);
      pos = 0;
    }
  }

  std::string in;
  std::size_t pos = 0;

 private:
  const std::uint16_t port_;
  int fd_ = -1;
};

enum class Parse { kNeedMore, kDone, kDesync };

struct Outcome {
  std::uint32_t answered = 0;
  Failures failures;
};

bool TakeLine(std::string_view buf, std::size_t* cur, std::string_view* line) {
  const std::size_t eol = buf.find("\r\n", *cur);
  if (eol == std::string_view::npos) {
    return false;
  }
  *line = buf.substr(*cur, eol - *cur);
  *cur = eol + 2;
  return true;
}

// A well-framed reply that reports a failed operation.
bool IsErrorLine(std::string_view line) {
  return line.starts_with("SERVER_ERROR") || line.starts_with("CLIENT_ERROR") ||
         line == "ERROR" || line == "NOT_STORED" || line == "EXISTS" ||
         line == "NOT_FOUND" || line.starts_with("NS") ||
         line.starts_with("EX") || line.starts_with("NF");
}

bool ParseSize(std::string_view token, std::size_t* out) {
  const auto res = std::from_chars(token.data(), token.data() + token.size(), *out);
  return res.ec == std::errc() && res.ptr == token.data() + token.size();
}

// Checks one value block answering `key` and takes the next matching key
// slot of the request. False when the block answers a key that was not
// asked for (in order): the stream is out of step with the requests.
bool TakeValue(const Shared& sh, const VersionTable& versions, const Pending& p,
               std::string_view key, std::string_view data,
               std::uint32_t* next_key, Outcome* out) {
  while (*next_key < p.nkeys && sh.key_names[p.keys[*next_key]] != key) {
    ++*next_key;
  }
  if (*next_key == p.nkeys) {
    return false;
  }
  switch (sh.codec.Verify(data, p.keys[*next_key], versions)) {
    case ValueCodec::Check::kOk:
      break;
    case ValueCodec::Check::kWrongValue:
      ++out->failures.wrong_value;
      break;
    case ValueCodec::Check::kCorrupt:
      ++out->failures.corrupt;
      break;
  }
  ++*next_key;
  ++out->answered;
  return true;
}

// Parses the complete response to `p` at *pos, checking every value.
// Advances *pos only when the whole response is present.
Parse ParseOne(const Shared& sh, const VersionTable& versions,
               std::string_view buf, std::size_t* pos, const Pending& p,
               Outcome* result) {
  std::size_t cur = *pos;
  std::string_view line;
  std::uint32_t next_key = 0;
  Outcome out;
  for (;;) {
    if (!TakeLine(buf, &cur, &line)) {
      return Parse::kNeedMore;
    }
    if (p.kind == ReqKind::kSet) {
      if (line != "STORED") {
        if (!IsErrorLine(line)) {
          return Parse::kDesync;
        }
        ++out.failures.error_reply;
      }
      break;
    }
    const bool classic = p.kind == ReqKind::kGet || p.kind == ReqKind::kMGet;
    if (line == (classic ? "END" : "MN")) {
      break;
    }
    if (IsErrorLine(line)) {
      ++out.failures.error_reply;
      if (classic) {
        break;  // a failed get answers with the error line alone
      }
      continue;
    }
    // "VALUE <key> <flags> <bytes>" or "VA <bytes> k<key>".
    std::string_view key;
    std::string_view size_token;
    if (classic && line.starts_with("VALUE ")) {
      line.remove_prefix(6);
      const std::size_t k_end = line.find(' ');
      const std::size_t f_end =
          k_end == std::string_view::npos ? k_end : line.find(' ', k_end + 1);
      if (f_end == std::string_view::npos) {
        return Parse::kDesync;
      }
      key = line.substr(0, k_end);
      size_token = line.substr(f_end + 1);
      size_token = size_token.substr(0, size_token.find(' '));
    } else if (p.kind == ReqKind::kMetaGets && line.starts_with("VA ")) {
      line.remove_prefix(3);
      const std::size_t s_end = line.find(' ');
      if (s_end == std::string_view::npos || line.substr(s_end + 1, 1) != "k") {
        return Parse::kDesync;
      }
      size_token = line.substr(0, s_end);
      key = line.substr(s_end + 2);
      key = key.substr(0, key.find(' '));
    } else if (line == "HD" || line == "EN") {
      continue;  // not sent under q, harmless if it were
    } else {
      return Parse::kDesync;
    }
    std::size_t size = 0;
    if (!ParseSize(size_token, &size)) {
      return Parse::kDesync;
    }
    if (buf.size() < cur + size + 2) {
      return Parse::kNeedMore;
    }
    if (buf.substr(cur + size, 2) != "\r\n" ||
        !TakeValue(sh, versions, p, key, buf.substr(cur, size), &next_key, &out)) {
      return Parse::kDesync;
    }
    cur += size + 2;
  }
  if (p.IsRead() && sh.spec.all_present) {
    out.failures.impossible_miss += p.nkeys - out.answered;
  }
  *pos = cur;
  *result = out;
  return Parse::kDone;
}

void Account(const Pending& p, const Outcome& o, ClientStats* st) {
  st->failures.Add(o.failures);
  st->completed += p.nkeys;
  if (p.IsRead()) {
    st->keys_read += p.nkeys;
    st->hits += o.answered;
  }
}

// Blocks until the response to `p` is complete. On timeout or a broken
// stream the request's keys count as failed and the caller reopens.
bool AwaitResponse(const Shared& sh, const VersionTable& versions, Conn& conn,
                   const Pending& p, std::uint64_t deadline, ClientStats* st) {
  for (;;) {
    Outcome o;
    const Parse r = ParseOne(sh, versions, conn.in, &conn.pos, p, &o);
    if (r == Parse::kDone) {
      Account(p, o, st);
      conn.Compact();
      return true;
    }
    if (r == Parse::kDesync) {
      st->failures.disconnect += p.nkeys;
      return false;
    }
    const std::uint64_t now = NowNs();
    if (now >= deadline) {
      st->failures.timeout += p.nkeys;
      return false;
    }
    conn.WaitReadable(std::min<std::uint64_t>(deadline - now, 10'000'000));
    if (conn.Recv() < 0) {
      st->failures.disconnect += p.nkeys;
      return false;
    }
  }
}

void AppendUint(std::string* out, std::uint64_t v) {
  char buf[24];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

}  // namespace

Shared::Shared(const WorkloadSpec& s, std::uint64_t sd)
    : spec(s),
      seed(sd),
      zipf(s.keys, s.theta),
      codec(s.value_min, s.value_max) {
  key_names.reserve(s.keys);
  for (std::uint32_t k = 0; k < s.keys; ++k) {
    key_names.push_back(KeyName(k));
  }
}

void RequestGen::Next(Pending* p) {
  const WorkloadSpec& spec = shared_.spec;
  *p = Pending{};
  if (spec.meta) {
    p->kind = rng_.Unit() < 0.5 ? ReqKind::kMetaSets : ReqKind::kMetaGets;
    p->nkeys = kRunLength;
  } else {
    const double u = rng_.Unit();
    p->kind = u < 0.90 ? ReqKind::kGet : u < 0.95 ? ReqKind::kMGet : ReqKind::kSet;
    p->nkeys = p->kind == ReqKind::kMGet ? kRunLength : 1;
  }
  for (std::uint32_t i = 0; i < p->nkeys; ++i) {
    p->keys[i] = shared_.zipf.Next(rng_);
  }
  if (!p->IsRead() && spec.ttl_share > 0) {
    for (std::uint32_t i = 0; i < p->nkeys; ++i) {
      if (rng_.Unit() < spec.ttl_share) {
        p->ttl_mask |= 1u << i;
      }
    }
  }
}

void Encode(const Shared& sh, const Pending& p, VersionTable* versions,
            std::string* w) {
  auto version = [versions](std::uint32_t key) {
    return versions != nullptr ? versions->Bump(key) : 0u;
  };
  switch (p.kind) {
    case ReqKind::kGet:
    case ReqKind::kMGet:
      w->append("get");
      for (std::uint32_t i = 0; i < p.nkeys; ++i) {
        w->push_back(' ');
        w->append(sh.key_names[p.keys[i]]);
      }
      w->append("\r\n");
      break;
    case ReqKind::kSet: {
      const std::uint32_t key = p.keys[0];
      const std::uint32_t v = version(key);
      w->append("set ");
      w->append(sh.key_names[key]);
      w->append(" 0 0 ");
      AppendUint(w, sh.codec.Length(key, v));
      w->append("\r\n");
      sh.codec.Append(w, key, v);
      w->append("\r\n");
      break;
    }
    case ReqKind::kMetaSets:
      for (std::uint32_t i = 0; i < p.nkeys; ++i) {
        const std::uint32_t key = p.keys[i];
        const std::uint32_t v = version(key);
        w->append("ms ");
        w->append(sh.key_names[key]);
        w->push_back(' ');
        AppendUint(w, sh.codec.Length(key, v));
        if ((p.ttl_mask >> i) & 1) {
          w->append(" T");
          AppendUint(w, static_cast<std::uint64_t>(sh.spec.ttl_seconds));
        }
        w->append(" q\r\n");
        sh.codec.Append(w, key, v);
        w->append("\r\n");
      }
      w->append("mn\r\n");
      break;
    case ReqKind::kMetaGets:
      for (std::uint32_t i = 0; i < p.nkeys; ++i) {
        w->append("mg ");
        w->append(sh.key_names[p.keys[i]]);
        w->append(" v k q\r\n");
      }
      w->append("mn\r\n");
      break;
  }
}

void ClientStats::Merge(const ClientStats& o) {
  read_us.insert(read_us.end(), o.read_us.begin(), o.read_us.end());
  write_us.insert(write_us.end(), o.write_us.begin(), o.write_us.end());
  lag_us.insert(lag_us.end(), o.lag_us.begin(), o.lag_us.end());
  rtt_sum_us += o.rtt_sum_us;
  round_trips += o.round_trips;
  attempted += o.attempted;
  completed += o.completed;
  keys_read += o.keys_read;
  hits += o.hits;
  failures.Add(o.failures);
}

void Drive(const Shared& sh, VersionTable& versions, const PhaseSpec& ph,
           std::uint64_t stream, ClientStats* st) {
  Conn conn(ph.port);
  if (!conn.Reopen()) {
    ++st->attempted;
    ++st->failures.disconnect;
    return;
  }
  RequestGen gen(sh, stream);
  Rng arrivals(sh.seed, stream + 1000);
  const bool open = ph.rate_per_thread > 0;
  const double mean_gap_ns = open ? 1e9 / ph.rate_per_thread : 0;
  const double end = static_cast<double>(ph.end_ns);
  double next_due = static_cast<double>(ph.start_ns) +
                    (open ? arrivals.Exponential(mean_gap_ns) : 0);
  std::deque<Pending> queue;
  std::string wire;
  auto fail_queue = [&](bool timed_out) {
    for (const Pending& q : queue) {
      (timed_out ? st->failures.timeout : st->failures.disconnect) += q.nkeys;
    }
    queue.clear();
  };
  std::uint64_t opened_ns = NowNs();
  for (;;) {
    const std::uint64_t now = NowNs();
    if (queue.empty() && (next_due >= end || now >= ph.end_ns)) {
      break;
    }
    if (queue.empty() && now - opened_ns > kConnectionEpochNs) {
      if (!conn.Reopen()) {
        return;
      }
      opened_ns = NowNs();
    }
    if (!queue.empty() && now > queue.front().due_ns + kResponseTimeoutNs) {
      fail_queue(true);
      if (!conn.Reopen()) {
        return;
      }
      continue;
    }
    // Send what is due: on schedule (open loop), or the next request once
    // the last one is answered (closed loop).
    wire.clear();
    while (open ? next_due <= static_cast<double>(now) && next_due < end
                : now < ph.end_ns && queue.empty()) {
      Pending p;
      gen.Next(&p);
      p.due_ns = open ? static_cast<std::uint64_t>(next_due) : now;
      Encode(sh, p, &versions, &wire);
      if (open) {
        st->lag_us.push_back(static_cast<double>(now - p.due_ns) / 1e3);
        next_due += arrivals.Exponential(mean_gap_ns);
      }
      st->attempted += p.nkeys;
      queue.push_back(p);
    }
    if (!wire.empty() && !conn.Send(wire)) {
      fail_queue(false);
      if (!conn.Reopen()) {
        return;
      }
      continue;
    }
    const int n = conn.Recv();
    if (n < 0) {
      fail_queue(false);
      if (!conn.Reopen()) {
        return;
      }
      continue;
    }
    if (n == 0) {
      // Nothing to read: sleep until input arrives or the next request is
      // due, at most a millisecond.
      std::uint64_t wait = 1'000'000;
      if (open && next_due < end) {
        const double gap = next_due - static_cast<double>(now);
        wait = std::min<std::uint64_t>(wait, gap > 0 ? static_cast<std::uint64_t>(gap) : 0);
      }
      if (wait > 0) {
        conn.WaitReadable(wait);
      }
      continue;
    }
    const std::uint64_t t = NowNs();
    while (!queue.empty()) {
      const Pending& p = queue.front();
      Outcome o;
      const Parse r = ParseOne(sh, versions, conn.in, &conn.pos, p, &o);
      if (r == Parse::kNeedMore) {
        break;
      }
      if (r == Parse::kDesync) {
        fail_queue(false);
        if (!conn.Reopen()) {
          return;
        }
        break;
      }
      Account(p, o, st);
      const double us = static_cast<double>(t - p.due_ns) / 1e3;
      if (open) {
        (p.IsRead() ? st->read_us : st->write_us).push_back(us);
      } else {
        st->rtt_sum_us += us;
        ++st->round_trips;
      }
      queue.pop_front();
    }
    conn.Compact();
  }
}

void Prepopulate(const Shared& sh, const VersionTable& versions,
                 std::uint16_t port, std::uint32_t first, std::uint32_t last,
                 ClientStats* st) {
  constexpr std::uint32_t kBatch = 64;
  Conn conn(port);
  if (!conn.Reopen()) {
    st->attempted += last - first;
    st->failures.disconnect += last - first;
    return;
  }
  std::string wire;
  Pending batch[kBatch];
  for (std::uint32_t k = first; k < last; k += kBatch) {
    const std::uint32_t n = std::min(kBatch, last - k);
    wire.clear();
    for (std::uint32_t i = 0; i < n; ++i) {
      batch[i] = Pending{};
      batch[i].kind = ReqKind::kSet;
      batch[i].nkeys = 1;
      batch[i].keys[0] = k + i;
      Encode(sh, batch[i], nullptr, &wire);
    }
    st->attempted += n;
    const std::uint64_t deadline = NowNs() + kResponseTimeoutNs;
    const bool sent = conn.Send(wire);
    std::uint32_t answered = 0;
    while (sent && answered < n &&
           AwaitResponse(sh, versions, conn, batch[answered], deadline, st)) {
      ++answered;
    }
    if (answered < n) {
      // A failed wait has already counted the request it gave up on.
      st->failures.disconnect += n - answered - (sent ? 1 : 0);
      if (!conn.Reopen()) {
        return;
      }
    }
  }
}

}  // namespace pb
