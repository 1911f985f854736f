#include "src/memcache/workload.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "src/memcache/locked_engine.h"
#include "src/memcache/protocol.h"
#include "src/memcache/rp_engine.h"
#include "src/memcache/server.h"
#include "src/util/affinity.h"
#include "src/util/rng.h"
#include "src/util/spin_barrier.h"
#include "src/util/stopwatch.h"
#include "src/util/zipf.h"

namespace rp::memcache {

std::string WorkloadKey(std::size_t i) {
  return "memtier-" + std::to_string(i);
}

std::unique_ptr<CacheEngine> MakeEngine(std::string_view name,
                                        const EngineConfig& config) {
  if (name == "rp") {
    return std::make_unique<RpEngine>(config);
  }
  if (name == "locked") {
    return std::make_unique<LockedEngine>(config);
  }
  return nullptr;
}

namespace {

struct ClientTotals {
  std::uint64_t requests = 0;
  std::uint64_t gets = 0;
  std::uint64_t sets = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

// Backing store for workload values: one buffer of the largest size the
// config can draw; per-op values are prefixes of it.
std::string ValueBuffer(const WorkloadConfig& config) {
  return std::string(std::max(config.value_size, config.value_size_max), 'v');
}

// The value for one SET: a fixed value_size, or (when value_size_max
// extends the range) a size drawn uniformly from [value_size,
// value_size_max] — which walks stores across slab size classes, the
// workload the allocator tuning cares about.
std::string_view NextValue(const WorkloadConfig& config, Xoshiro256& rng,
                           const std::string& buffer) {
  if (config.value_size_max <= config.value_size) {
    return {buffer.data(), config.value_size};
  }
  const std::size_t span = config.value_size_max - config.value_size + 1;
  return {buffer.data(), config.value_size + rng.NextBounded(span)};
}

// Formats one random round trip in wire form into *wire (replacing its
// contents). Returns whether it is a GET. Shared by the in-process and
// socket client loops so both benchmark modes drive the same workload.
// GETs carry config.keys_per_get keys ("get k1 k2 ...", each drawn
// independently) to exercise the batched multi-get path; SET round trips
// carry config.sets_per_request stores — all but the last noreply, so
// exactly one STORED comes back per round trip — to exercise the batched
// store path.
bool NextRequestWire(const WorkloadConfig& config, Xoshiro256& rng,
                     ZipfGenerator& zipf, const std::string& value_buffer,
                     std::string* wire) {
  const bool is_get = rng.NextDouble() < config.get_ratio;
  wire->clear();
  if (config.use_meta) {
    // Meta quiet runs: k quiet requests bounded by an mn barrier. The
    // server batches the whole run into one engine call; only hits (mg v)
    // and the MN answer come back.
    if (is_get) {
      const std::size_t keys = std::max<std::size_t>(config.keys_per_get, 1);
      for (std::size_t k = 0; k < keys; ++k) {
        *wire += "mg ";
        *wire += WorkloadKey(zipf.Next(rng));
        *wire += " v q\r\n";
      }
    } else {
      const std::size_t sets =
          std::max<std::size_t>(config.sets_per_request, 1);
      for (std::size_t s = 0; s < sets; ++s) {
        const std::string_view value = NextValue(config, rng, value_buffer);
        *wire += "ms ";
        *wire += WorkloadKey(zipf.Next(rng));
        *wire += ' ';
        *wire += std::to_string(value.size());
        *wire += " q\r\n";
        *wire += value;
        *wire += "\r\n";
      }
    }
    *wire += "mn\r\n";
    return is_get;
  }
  if (is_get) {
    *wire += "get";
    const std::size_t keys = std::max<std::size_t>(config.keys_per_get, 1);
    for (std::size_t k = 0; k < keys; ++k) {
      *wire += ' ';
      *wire += WorkloadKey(zipf.Next(rng));
    }
    *wire += "\r\n";
  } else {
    const std::size_t sets = std::max<std::size_t>(config.sets_per_request, 1);
    for (std::size_t s = 0; s < sets; ++s) {
      const std::string_view value = NextValue(config, rng, value_buffer);
      *wire += "set ";
      *wire += WorkloadKey(zipf.Next(rng));
      *wire += " 0 0 ";
      *wire += std::to_string(value.size());
      if (s + 1 < sets) {
        *wire += " noreply";
      }
      *wire += "\r\n";
      *wire += value;
      *wire += "\r\n";
    }
  }
  return is_get;
}

// Hits in a (multi-)get response = its value-bearing result lines:
// "VALUE " classically, "VA " for meta (mg v answers). Workload values are
// runs of 'v' with no spaces or CRLFs, so a data block can never contain
// either token.
std::uint64_t CountToken(const std::string& response, std::string_view token) {
  std::uint64_t count = 0;
  for (std::size_t pos = response.find(token); pos != std::string::npos;
       pos = response.find(token, pos + token.size())) {
    ++count;
  }
  return count;
}

std::uint64_t CountHitLines(const WorkloadConfig& config,
                            const std::string& response) {
  return CountToken(response, config.use_meta ? "VA " : "VALUE ");
}

// One client's inner loop, protocol round trip included.
void RunProtocolClient(CacheEngine& engine, const WorkloadConfig& config,
                       std::size_t id, const std::atomic<bool>& stop,
                       ClientTotals& totals) {
  Xoshiro256 rng(config.seed + id * 0x9E37);
  ZipfGenerator zipf(config.num_keys, config.zipf_theta);
  const std::string value = ValueBuffer(config);
  RequestParser parser;
  std::string wire;
  std::string response;
  std::vector<Request> requests;

  while (!stop.load(std::memory_order_relaxed)) {
    const bool is_get = NextRequestWire(config, rng, zipf, value, &wire);
    parser.Feed(wire);
    // A round trip may carry several pipelined requests (a noreply SET
    // burst); drain them all before answering, like the server does.
    requests.clear();
    for (;;) {
      Request request;
      if (parser.Next(&request) != ParseStatus::kOk) {
        break;
      }
      requests.push_back(std::move(request));
    }
    if (requests.empty()) {
      continue;  // unreachable for well-formed generated traffic
    }
    bool quit = false;
    response.clear();
    // Grouped dispatch, exactly the server connection's batching: runs of
    // mg become one ExecuteMetaGetBatch, runs of batchable stores (set
    // bursts, quiet ms/md runs) one ExecuteStoreBatch, everything else
    // (the mn barrier included) the per-request path.
    std::uint64_t stores_executed = 0;
    std::size_t i = 0;
    while (i < requests.size()) {
      std::size_t j = i;
      if (requests[i].op == Op::kMetaGet) {
        while (j < requests.size() && requests[j].op == Op::kMetaGet) {
          ++j;
        }
        ExecuteMetaGetBatch(engine, requests.data() + i, j - i, &response);
      } else if (IsBatchableStore(requests[i])) {
        while (j < requests.size() && IsBatchableStore(requests[j])) {
          ++j;
        }
        stores_executed += j - i;
        ExecuteStoreBatch(engine, requests.data() + i, j - i, &response);
      } else {
        ExecuteRequest(engine, requests[i], &response, &quit);
        ++j;
      }
      i = j;
    }
    ++totals.requests;
    if (is_get) {
      const std::uint64_t keys =
          std::max<std::size_t>(config.keys_per_get, 1);
      const std::uint64_t hits = CountHitLines(config, response);
      totals.gets += keys;
      totals.hits += hits;
      totals.misses += keys - hits;
    } else {
      totals.sets += stores_executed;
    }
  }
}

// Direct-call variant (no codec): isolates raw engine throughput.
void RunDirectClient(CacheEngine& engine, const WorkloadConfig& config,
                     std::size_t id, const std::atomic<bool>& stop,
                     ClientTotals& totals) {
  Xoshiro256 rng(config.seed + id * 0x9E37);
  ZipfGenerator zipf(config.num_keys, config.zipf_theta);
  const std::string value_buffer = ValueBuffer(config);
  const std::size_t keys_per_get =
      std::max<std::size_t>(config.keys_per_get, 1);
  std::vector<std::string> batch_keys(keys_per_get);
  std::vector<std::string_view> batch_views(keys_per_get);
  std::vector<ScratchGetResult> batch_results(keys_per_get);
  std::string batch_scratch;
  const std::size_t sets_per_request =
      std::max<std::size_t>(config.sets_per_request, 1);
  std::vector<std::string> store_keys(sets_per_request);
  std::vector<StoreOp> store_ops(sets_per_request);
  std::vector<StoreResult> store_results(sets_per_request);
  StoredValue out;

  while (!stop.load(std::memory_order_relaxed)) {
    const bool is_get = rng.NextDouble() < config.get_ratio;
    if (is_get && keys_per_get > 1) {
      for (std::size_t k = 0; k < keys_per_get; ++k) {
        batch_keys[k] = WorkloadKey(zipf.Next(rng));
        batch_views[k] = batch_keys[k];
      }
      batch_scratch.clear();
      engine.GetManyScratch(batch_views.data(), keys_per_get,
                            batch_results.data(), &batch_scratch);
      totals.gets += keys_per_get;
      for (const ScratchGetResult& result : batch_results) {
        if (result.hit) {
          ++totals.hits;
        } else {
          ++totals.misses;
        }
      }
    } else if (is_get) {
      const std::string key = WorkloadKey(zipf.Next(rng));
      ++totals.gets;
      if (engine.Get(key, &out)) {
        ++totals.hits;
      } else {
        ++totals.misses;
      }
    } else if (sets_per_request > 1) {
      for (std::size_t s = 0; s < sets_per_request; ++s) {
        store_keys[s] = WorkloadKey(zipf.Next(rng));
        StoreOp& op = store_ops[s];
        op.kind = StoreKind::kSet;
        op.key = store_keys[s];
        op.data = NextValue(config, rng, value_buffer);
      }
      engine.StoreMany(store_ops.data(), sets_per_request,
                       store_results.data());
      totals.sets += sets_per_request;
    } else {
      engine.Set(WorkloadKey(zipf.Next(rng)),
                 NextValue(config, rng, value_buffer), 0, 0);
      ++totals.sets;
    }
    ++totals.requests;
  }
}

// Blocking loopback client used by the socket workload.
class SocketClient {
 public:
  explicit SocketClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
      return;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
      return;
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~SocketClient() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }

  bool connected() const { return fd_ >= 0; }

  bool SendAll(std::string_view wire) {
    std::size_t sent = 0;
    while (sent < wire.size()) {
      const ssize_t n =
          ::send(fd_, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) {
        return false;
      }
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  // Appends socket bytes to *acc until it ends with `terminator`.
  bool ReadUntil(std::string_view terminator, std::string* acc) {
    char buf[16 * 1024];
    for (;;) {
      if (acc->size() >= terminator.size() &&
          acc->compare(acc->size() - terminator.size(), terminator.size(),
                       terminator.data(), terminator.size()) == 0) {
        return true;
      }
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) {
        return false;
      }
      acc->append(buf, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
};

// One socket client's inner loop: one blocking round trip per operation.
void RunSocketClient(std::uint16_t port, const WorkloadConfig& config,
                     std::size_t id, const std::atomic<bool>& stop,
                     ClientTotals& totals) {
  SocketClient client(port);
  if (!client.connected()) {
    return;
  }
  Xoshiro256 rng(config.seed + id * 0x9E37);
  ZipfGenerator zipf(config.num_keys, config.zipf_theta);
  const std::string value = ValueBuffer(config);
  std::string wire;
  std::string response;

  while (!stop.load(std::memory_order_relaxed)) {
    const bool is_get = NextRequestWire(config, rng, zipf, value, &wire);
    response.clear();
    // Classic GET responses end with END\r\n and every other classic
    // response is a single line; meta round trips always end with the mn
    // barrier's MN\r\n (quiet runs suppress everything else on success).
    // The workload values never contain protocol framing.
    const std::string_view terminator =
        config.use_meta ? "MN\r\n" : (is_get ? "END\r\n" : "\r\n");
    if (!client.SendAll(wire) || !client.ReadUntil(terminator, &response)) {
      return;  // server went away mid-run; partial totals still count
    }
    ++totals.requests;
    if (is_get) {
      const std::uint64_t keys =
          std::max<std::size_t>(config.keys_per_get, 1);
      const std::uint64_t hits = CountHitLines(config, response);
      totals.gets += keys;
      totals.hits += hits;
      totals.misses += keys - hits;
    } else {
      // One STORED answers the whole burst (earlier stores are noreply).
      totals.sets += std::max<std::size_t>(config.sets_per_request, 1);
    }
  }
}

// Loads every key through one connection with pipelined noreply sets.
bool PrepopulateOverSocket(std::uint16_t port, const WorkloadConfig& config) {
  SocketClient client(port);
  if (!client.connected()) {
    return false;
  }
  const std::string value(config.value_size, 'v');
  std::string wire;
  for (std::size_t i = 0; i < config.num_keys; ++i) {
    wire += "set ";
    wire += WorkloadKey(i);
    wire += " 0 0 ";
    wire += std::to_string(value.size());
    wire += " noreply\r\n";
    wire += value;
    wire += "\r\n";
    if (wire.size() >= 256 * 1024) {
      if (!client.SendAll(wire)) {
        return false;
      }
      wire.clear();
    }
  }
  // The version round trip doubles as a barrier: when it answers, every
  // pipelined set before it has been executed.
  wire += "version\r\n";
  std::string response;
  return client.SendAll(wire) && client.ReadUntil("\r\n", &response);
}

}  // namespace

WorkloadResult RunSocketWorkload(std::uint16_t port,
                                 const WorkloadConfig& config) {
  if (config.prepopulate && !PrepopulateOverSocket(port, config)) {
    return {};
  }

  std::atomic<bool> stop{false};
  SpinBarrier barrier(config.num_clients + 1);
  std::vector<ClientTotals> totals(config.num_clients);
  std::vector<std::thread> clients;
  clients.reserve(config.num_clients);

  for (std::size_t id = 0; id < config.num_clients; ++id) {
    clients.emplace_back([&, id] {
      PinThisThreadToCpu(id);
      barrier.ArriveAndWait();
      RunSocketClient(port, config, id, stop, totals[id]);
    });
  }

  barrier.ArriveAndWait();
  Stopwatch watch;
  while (watch.ElapsedSeconds() < config.duration_seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& client : clients) {
    client.join();
  }
  const double elapsed = watch.ElapsedSeconds();

  WorkloadResult result;
  result.duration_seconds = elapsed;
  for (const ClientTotals& t : totals) {
    result.total_requests += t.requests;
    result.gets += t.gets;
    result.sets += t.sets;
    result.hits += t.hits;
    result.misses += t.misses;
  }
  result.requests_per_second =
      static_cast<double>(result.total_requests) / elapsed;
  return result;
}

WorkloadResult RunWorkload(CacheEngine& engine, const WorkloadConfig& config) {
  if (config.prepopulate) {
    const std::string value(config.value_size, 'v');
    for (std::size_t i = 0; i < config.num_keys; ++i) {
      engine.Set(WorkloadKey(i), value, 0, 0);
    }
  }

  std::atomic<bool> stop{false};
  SpinBarrier barrier(config.num_clients + 1);
  std::vector<ClientTotals> totals(config.num_clients);
  std::vector<std::thread> clients;
  clients.reserve(config.num_clients);

  for (std::size_t id = 0; id < config.num_clients; ++id) {
    clients.emplace_back([&, id] {
      PinThisThreadToCpu(id);
      barrier.ArriveAndWait();
      if (config.use_protocol) {
        RunProtocolClient(engine, config, id, stop, totals[id]);
      } else {
        RunDirectClient(engine, config, id, stop, totals[id]);
      }
    });
  }

  barrier.ArriveAndWait();
  Stopwatch watch;
  while (watch.ElapsedSeconds() < config.duration_seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& client : clients) {
    client.join();
  }
  const double elapsed = watch.ElapsedSeconds();

  WorkloadResult result;
  result.duration_seconds = elapsed;
  for (const ClientTotals& t : totals) {
    result.total_requests += t.requests;
    result.gets += t.gets;
    result.sets += t.sets;
    result.hits += t.hits;
    result.misses += t.misses;
  }
  result.requests_per_second =
      static_cast<double>(result.total_requests) / elapsed;
  return result;
}

}  // namespace rp::memcache
