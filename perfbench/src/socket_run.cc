// The socket workloads (cache-read, cache-write, cluster-read): start the
// server process, prepopulate and warm it, then run the open-loop latency
// phase and the closed-loop throughput phase from two generator threads.
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <poll.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <atomic>
#include <bit>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/loadgen.h"
#include "perfbench/src/run.h"
#include "perfbench/src/util.h"
#include "src/core/rp_hash_map.h"
#include "src/memcache/cluster/proxy.h"
#include "src/memcache/protocol.h"

extern char** environ;

namespace pb {

namespace {

constexpr int kGenThreads = 2;
// The untraced run's timed part is this many rounds, each an open-loop
// window (60% of the round) followed by a closed-loop window (40%). Both
// loops thus sample the whole run, and a host stall lands in a minority
// of rounds, which the median over rounds passes over. A round's p99
// alone varied by a third between rounds of one run; the median of 20
// such values moves far less.
constexpr int kRounds = 20;

// The server side, as a child process driven over its stdin/stdout.
class ServerProc {
 public:
  ServerProc() = default;
  ServerProc(const ServerProc&) = delete;
  ServerProc& operator=(const ServerProc&) = delete;
  ~ServerProc() { Quit(); }

  bool Start(const RunArgs& a) {
    int to_child[2];
    int from_child[2];
    if (pipe(to_child) != 0) {
      return false;
    }
    if (pipe(from_child) != 0) {
      close(to_child[0]);
      close(to_child[1]);
      return false;
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, to_child[0], 0);
    posix_spawn_file_actions_adddup2(&actions, from_child[1], 1);
    posix_spawn_file_actions_addclose(&actions, to_child[1]);
    posix_spawn_file_actions_addclose(&actions, from_child[0]);
    std::vector<std::string> args = {a.exe,
                                     "--serve",
                                     a.spec->name,
                                     "--trace",
                                     a.trace ? "1" : "0",
                                     "--inject-faults",
                                     a.inject_faults ? "1" : "0"};
    std::vector<char*> argv;
    for (auto& s : args) {
      argv.push_back(s.data());
    }
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, a.exe.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(to_child[0]);
    close(from_child[1]);
    to_ = to_child[1];
    from_ = from_child[0];
    if (rc != 0) {
      pid_ = -1;
      return false;
    }
    std::string line;
    if (!ReadLine(&line, 60'000) || !line.starts_with("ready ")) {
      std::fprintf(stderr, "perfbench: server did not start (%s)\n", line.c_str());
      return false;
    }
    port_ = static_cast<std::uint16_t>(std::stoi(line.substr(6)));
    return true;
  }

  std::uint16_t port() const { return port_; }

  bool Command(const std::string& cmd, std::string* reply = nullptr) {
    const std::string msg = cmd + "\n";
    std::string line;
    if (write(to_, msg.data(), msg.size()) != static_cast<ssize_t>(msg.size()) ||
        !ReadLine(&line, 30'000)) {
      return false;
    }
    if (reply != nullptr) {
      *reply = line;
    }
    return line == "ok" || line.starts_with("report");
  }

  // The window's deltas since the last "mark", by name.
  std::map<std::string, double> Report() {
    std::map<std::string, double> out;
    std::string line;
    if (!Command("report", &line)) {
      return out;
    }
    std::size_t pos = line.find(' ');
    while (pos != std::string::npos) {
      const std::size_t next = line.find(' ', pos + 1);
      const std::string field = line.substr(pos + 1, next - pos - 1);
      const std::size_t eq = field.find('=');
      if (eq != std::string::npos) {
        out[field.substr(0, eq)] = std::strtod(field.c_str() + eq + 1, nullptr);
      }
      pos = next;
    }
    return out;
  }

  // Asks the server to exit, and kills it if it has not within 20 s.
  void Quit() {
    if (to_ >= 0) {
      const char msg[] = "quit\n";
      (void)!write(to_, msg, sizeof(msg) - 1);
      close(to_);
      to_ = -1;
    }
    if (pid_ > 0) {
      int status = 0;
      bool exited = false;
      for (int i = 0; i < 2000 && !exited; ++i) {
        exited = waitpid(pid_, &status, WNOHANG) != 0;
        if (!exited) {
          usleep(10'000);
        }
      }
      if (!exited) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
      }
      pid_ = -1;
    }
    if (from_ >= 0) {
      close(from_);
      from_ = -1;
    }
  }

 private:
  bool ReadLine(std::string* line, int timeout_ms) {
    const std::uint64_t deadline = NowNs() + std::uint64_t(timeout_ms) * 1'000'000;
    for (;;) {
      const std::size_t eol = buf_.find('\n');
      if (eol != std::string::npos) {
        *line = buf_.substr(0, eol);
        buf_.erase(0, eol + 1);
        return true;
      }
      const std::uint64_t now = NowNs();
      if (now >= deadline) {
        return false;
      }
      pollfd p{from_, POLLIN, 0};
      if (poll(&p, 1, static_cast<int>((deadline - now) / 1'000'000) + 1) <= 0) {
        continue;
      }
      char chunk[4096];
      const ssize_t n = read(from_, chunk, sizeof(chunk));
      if (n <= 0) {
        return false;
      }
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  pid_t pid_ = -1;
  int to_ = -1;
  int from_ = -1;
  std::uint16_t port_ = 0;
  std::string buf_;
};

// Runs fn(thread index, stats) on kGenThreads threads and merges the stats.
ClientStats RunThreads(const std::function<void(int, ClientStats*)>& fn) {
  std::vector<ClientStats> per(kGenThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kGenThreads; ++i) {
    threads.emplace_back(fn, i, &per[i]);
  }
  for (auto& t : threads) {
    t.join();
  }
  ClientStats merged;
  for (const auto& p : per) {
    merged.Merge(p);
  }
  return merged;
}

// One phase of `seconds` on every generator thread: open loop at the
// workload's offered rate when `open`, else closed loop.
ClientStats Phase(const Shared& sh, VersionTable& v, std::uint16_t port,
                  double seconds, std::uint64_t stream, bool open) {
  PhaseSpec ph;
  ph.port = port;
  ph.start_ns = NowNs();
  ph.end_ns = ph.start_ns + static_cast<std::uint64_t>(seconds * 1e9);
  ph.rate_per_thread = open ? sh.spec.open_rate / kGenThreads : 0;
  return RunThreads([&](int i, ClientStats* st) {
    Drive(sh, v, ph, stream + static_cast<std::uint64_t>(i), st);
  });
}

// Key operations per second over all closed-loop windows. (Not a median
// of rounds: cache-write alternates fast and stalled half-seconds, and a
// median would flip between the two.)
double ClosedOpsPerSecond(const ClientStats& st, double seconds) {
  return static_cast<double>(st.completed) / seconds;
}

double HitRatio(const ClientStats& a, const ClientStats& b) {
  const double asked = static_cast<double>(a.keys_read + b.keys_read);
  return asked == 0 ? 0 : static_cast<double>(a.hits + b.hits) / asked;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// Replays the parser over the workload's own wire bytes.
double ParseNsPerRequest(const Shared& sh) {
  RequestGen gen(sh, 500);
  VersionTable versions(sh.spec.keys);
  std::string wire;
  Pending p;
  for (int i = 0; i < 20000; ++i) {
    gen.Next(&p);
    Encode(sh, p, &versions, &wire);
  }
  constexpr std::size_t kChunk = 16 * 1024;  // about one socket read
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    rp::memcache::RequestParser parser;
    rp::memcache::Request request;
    std::size_t parsed = 0;
    const std::uint64_t t0 = NowNs();
    for (std::size_t off = 0; off < wire.size(); off += kChunk) {
      parser.Feed(std::string_view(wire).substr(off, kChunk));
      while (parser.Next(&request) == rp::memcache::ParseStatus::kOk) {
        ++parsed;
      }
    }
    samples.push_back(static_cast<double>(NowNs() - t0) /
                      static_cast<double>(std::max<std::size_t>(parsed, 1)));
  }
  return Median(samples);
}

// Replays ring routing over the workload's key sequence.
double RouteNsPerKey(const Shared& sh) {
  rp::memcache::cluster::ClusterProxy proxy(
      {{"node0", 1}, {"node1", 2}, {"node2", 3}});
  RequestGen gen(sh, 600);
  std::vector<std::string_view> keys;
  Pending p;
  while (keys.size() < 50000) {
    gen.Next(&p);
    for (std::uint32_t i = 0; i < p.nkeys; ++i) {
      keys.push_back(sh.key_names[p.keys[i]]);
    }
  }
  std::vector<double> samples;
  std::size_t sink = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const std::uint64_t t0 = NowNs();
    for (std::string_view k : keys) {
      sink += proxy.NodeNameForKey(k).size();
    }
    samples.push_back(static_cast<double>(NowNs() - t0) /
                      static_cast<double>(keys.size()));
  }
  return sink == 0 ? 0 : Median(samples);
}

// Replays the core table over the workload's keys: one thread looks up the
// workload's key sequence in an RpHashMap<std::string, uint64_t> holding
// every key, first on a fixed table and then while a second thread resizes
// it to twice its size and back, continuously. Every lookup is checked.
void CoreReplay(const Shared& sh, RunResult* r) {
  using Map = rp::core::RpHashMap<std::string, std::uint64_t>;
  rp::core::RpHashMapOptions options;
  options.auto_resize = false;
  const std::size_t small = std::bit_ceil(sh.spec.keys) / 2;
  Map map(small, options);
  for (std::uint32_t k = 0; k < sh.spec.keys; ++k) {
    map.Insert(sh.key_names[k], k);
  }
  RequestGen gen(sh, 700);
  std::vector<std::uint32_t> keys;
  Pending p;
  while (keys.size() < 100000) {
    gen.Next(&p);
    keys.insert(keys.end(), p.keys, p.keys + p.nkeys);
  }
  auto read_ns = [&](double seconds) {
    const std::uint64_t end = NowNs() + static_cast<std::uint64_t>(seconds * 1e9);
    const std::uint64_t t0 = NowNs();
    std::uint64_t n = 0;
    while (NowNs() < end) {
      for (std::size_t i = 0; i < 1024; ++i, ++n) {
        const std::uint32_t k = keys[n % keys.size()];
        const std::optional<std::uint64_t> v = map.Get(sh.key_names[k]);
        if (!v || *v != k) {
          ++r->failures.wrong_value;
        }
      }
    }
    r->attempted += n;
    return static_cast<double>(NowNs() - t0) / static_cast<double>(n);
  };
  read_ns(0.1);  // warm the caches
  const double fixed_ns = read_ns(0.25);
  std::atomic<bool> stop{false};
  std::vector<double> resize_ms;
  std::uint64_t grace_periods = 0, unzip_passes = 0, pointer_swings = 0;
  std::thread resizer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const std::size_t target : {2 * small, small}) {
        const std::uint64_t t0 = NowNs();
        map.Resize(target);
        resize_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
        const rp::core::ResizeStats s = map.LastResizeStats();
        grace_periods += s.grace_periods;
        unzip_passes += s.unzip_passes;  // 0 on shrinks
        pointer_swings += s.pointer_swings;
      }
    }
  });
  const double resizing_ns = read_ns(0.5);
  stop.store(true);
  resizer.join();
  const double resizes = static_cast<double>(resize_ms.size());
  auto& m = r->metrics;
  m["core.lookup_ns_fixed"] = fixed_ns;
  m["core.lookup_ns_resizing"] = resizing_ns;
  m["core.resize_ms_p50"] = Percentile(resize_ms, 50);
  m["core.resize_ms_p99"] = Percentile(resize_ms, 99);
  m["core.grace_periods_per_resize"] = static_cast<double>(grace_periods) / resizes;
  m["core.unzip_passes_per_expand"] = static_cast<double>(unzip_passes) / (resizes / 2);
  m["core.pointer_swings_per_expand"] = static_cast<double>(pointer_swings) / (resizes / 2);
}

void AddStats(const ClientStats& st, RunResult* r) {
  r->attempted += st.attempted;
  r->failures.Add(st.failures);
}

// Per-layer metrics of the traced closed-loop window `rep`.
void LayerMetrics(const WorkloadSpec& spec, const std::map<std::string, double>& rep,
                  const ClientStats& closed, RunResult* r) {
  auto get = [&rep](const std::string& k) {
    const auto it = rep.find(k);
    return it == rep.end() ? 0.0 : it->second;
  };
  auto family = [&get](const std::string& prefix, double* total_ns,
                       double* self_ns, double* calls, double* requests) {
    static const char* kKinds[] = {"get", "mget", "set", "other", "stores", "metagets"};
    for (int k = 0; k < 6; ++k) {
      const std::string base = prefix + "." + kKinds[k];
      *total_ns += get(base + ".total_ns");
      *self_ns += get(base + ".self_ns");
      *calls += get(base + ".calls");
      // A batched call carries many requests; a singleton call one.
      *requests += k >= 4 ? get(base + ".items") : get(base + ".calls");
    }
  };
  auto& m = r->metrics;
  auto per_call = [&get](const std::string& kind) {
    return Ratio(get(kind + ".total_ns"), get(kind + ".calls"));
  };
  auto per_item = [&get](const std::string& kind) {
    return Ratio(get(kind + ".total_ns"), get(kind + ".items"));
  };
  m["handler.get_ns"] = per_call("handler.get");
  m["handler.mget_ns_per_key"] = per_item("handler.mget");
  m["handler.set_ns"] = per_call("handler.set");
  m["handler.stores_ns_per_op"] = per_item("handler.stores");
  m["handler.metagets_ns_per_key"] = per_item("handler.metagets");
  m["engine.get_ns"] = per_call("engine.get");
  m["engine.getmany_ns_per_key"] = per_item("engine.getmany");
  m["engine.getmanyscratch_ns_per_key"] = per_item("engine.getmanyscratch");
  m["engine.set_ns"] = per_call("engine.set");
  m["engine.storemany_ns_per_op"] = per_item("engine.storemany");

  double h_total = 0, h_self = 0, h_calls = 0, h_reqs = 0;
  family("handler", &h_total, &h_self, &h_calls, &h_reqs);
  m["handler.self_ns_per_req"] = Ratio(h_self, h_reqs);
  double outer_total = h_total, outer_calls = h_calls, outer_reqs = h_reqs;
  if (spec.cluster) {
    double p_total = 0, p_self = 0, p_calls = 0, p_reqs = 0;
    family("proxy", &p_total, &p_self, &p_calls, &p_reqs);
    outer_total = p_total;
    outer_calls = p_calls;
    outer_reqs = p_reqs;
    m["cluster.proxy_exec_ns_per_req"] = Ratio(p_total, p_reqs);
    m["cluster.proxy_get_ns"] = per_call("proxy.get");
    m["cluster.proxy_mget_ns"] = per_call("proxy.mget");
    m["cluster.proxy_set_ns"] = per_call("proxy.set");
    m["cluster.backend_exec_ns_per_req"] = Ratio(h_total, p_reqs);
    m["cluster.hop_self_us_per_req"] = Ratio(p_total - h_total, p_reqs) / 1e3;
    m["cluster.fanout_per_mget"] =
        Ratio(get("scatter_batches"), get("scatter_gets"));
    const double kops = static_cast<double>(closed.completed) / 1e3;
    m["cluster.backend_retries_per_kop"] = Ratio(get("backend_retries"), kops);
    m["cluster.backend_errors_per_kop"] = Ratio(get("backend_errors"), kops);
  }
  m["server.reqs_per_handler_call"] = Ratio(outer_reqs, outer_calls);
  m["server.self_us_per_req"] =
      Ratio(closed.rtt_sum_us - outer_total / 1e3,
            static_cast<double>(closed.round_trips));

  const double engine_kops =
      (get("get_hits") + get("get_misses") + get("sets")) / 1e3;
  m["engine.front_hit_share"] = Ratio(get("front_cache_hits"), get("get_hits"));
  m["engine.set_combine_share"] = Ratio(get("set_combines"), get("sets"));
  m["engine.slab_fallback_share"] = Ratio(get("slab_fallbacks"), get("sets"));
  m["engine.evictions_per_kop"] = Ratio(get("evictions"), engine_kops);
  m["engine.bytes_wasted_share"] = Ratio(get("bytes_wasted"), get("bytes"));
  m["engine.crawler_reclaims_per_s"] =
      Ratio(get("crawler_reclaims"), get("window_s"));
  m["engine.store_batch_size"] =
      Ratio(get("store_batched_ops"), get("store_batches"));
  m["rcu.grace_period_p50_us"] = get("gp_p50_us");
  m["rcu.grace_period_p99_us"] = get("gp_p99_us");
  m["rcu.reclaimer_wakeups_per_kop"] = Ratio(get("reclaimer_wakeups"), engine_kops);
  m["rcu.inline_pump_share"] =
      Ratio(get("reclaimer_inline_pumps"),
            get("reclaimer_inline_pumps") + get("reclaimer_wakeups"));
  m["rcu.pending_max"] = get("reclaimer_pending_max");
  r->details["spans_dropped"] = get("spans_dropped");
  r->details["gp_samples"] = get("gp_samples");
}

}  // namespace

RunResult RunSocket(const RunArgs& a) {
  const WorkloadSpec& spec = *a.spec;
  const Shared shared(spec, a.seed);
  RunResult result;
  std::unique_ptr<ServerProc> server;
  std::unique_ptr<VersionTable> versions;
  std::vector<double> setup_s;

  // Set-up: start the server, store every key once, warm up with the
  // workload's own traffic. Repeated on fresh servers; the last is measured.
  for (int rep = 0; rep < (a.trace ? 1 : kSetupReps); ++rep) {
    server.reset();
    const std::uint64_t t0 = NowNs();
    server = std::make_unique<ServerProc>();
    if (!server->Start(a)) {
      result.completed = false;
      return result;
    }
    versions = std::make_unique<VersionTable>(spec.keys);
    const std::uint16_t port = server->port();
    const auto keys = static_cast<std::uint32_t>(spec.keys);
    AddStats(RunThreads([&](int i, ClientStats* st) {
               const auto half = keys / kGenThreads;
               const std::uint32_t first = half * static_cast<std::uint32_t>(i);
               const std::uint32_t last = i + 1 == kGenThreads ? keys : first + half;
               Prepopulate(shared, *versions, port, first, last, st);
             }),
             &result);
    AddStats(Phase(shared, *versions, port, spec.warmup_seconds, 10, false),
             &result);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  const std::uint16_t port = server->port();
  const double s = a.seconds;
  auto& m = result.metrics;

  if (!a.trace) {
    ClientStats open;
    ClientStats closed;
    std::vector<std::vector<double>> reads;  // latency samples by round
    std::vector<std::vector<double>> writes;
    double open_cpu_s = 0, closed_cpu_s = 0, bucket_changes = 0, rss_mb = 0;
    bool reported = true;
    for (int r = 0; r < kRounds && reported; ++r) {
      const auto stream = static_cast<std::uint64_t>(100 + 10 * r);
      server->Command("mark");
      const ClientStats o =
          Phase(shared, *versions, port, 0.6 * s / kRounds, stream, true);
      const std::map<std::string, double> open_rep = server->Report();
      server->Command("mark");
      closed.Merge(
          Phase(shared, *versions, port, 0.4 * s / kRounds, stream + 200, false));
      const std::map<std::string, double> closed_rep = server->Report();
      reads.push_back(o.read_us);
      writes.push_back(o.write_us);
      open.Merge(o);
      reported = !open_rep.empty() && !closed_rep.empty();
      if (reported) {
        open_cpu_s += open_rep.at("cpu_s");
        closed_cpu_s += closed_rep.at("cpu_s");
        bucket_changes += open_rep.at("bucket_changes") + closed_rep.at("bucket_changes");
        rss_mb = closed_rep.at("rss_mb");
      }
    }
    server.reset();
    AddStats(open, &result);
    AddStats(closed, &result);
    if (!reported) {
      result.completed = false;
      return result;
    }
    m["ops_per_s"] = ClosedOpsPerSecond(closed, 0.4 * s);
    for (const double p : {50, 90, 99}) {
      const std::string q = std::to_string(static_cast<int>(p));
      m["get_p" + q + "_us"] = WindowedPercentile(reads, p);
      m["set_p" + q + "_us"] = WindowedPercentile(writes, p);
    }
    // Server CPU per op at the open loop's fixed offered rate: the closed
    // loop's figure swings with how often workers sleep between round
    // trips (details: cpu_us_per_op_closed).
    m["cpu_us_per_op"] = open_cpu_s * 1e6 / static_cast<double>(open.completed);
    m["hit_ratio"] = HitRatio(open, closed);
    m["peak_rss_mb"] = rss_mb;
    m["setup_s"] = Median(setup_s);
    auto& d = result.details;
    std::vector<double> lag = open.lag_us;
    d["get_samples"] = static_cast<double>(open.read_us.size());
    d["set_samples"] = static_cast<double>(open.write_us.size());
    d["get_p50_us_pooled"] = Percentile(open.read_us, 50);
    d["get_p99_us_pooled"] = Percentile(open.read_us, 99);
    d["set_p50_us_pooled"] = Percentile(open.write_us, 50);
    d["set_p99_us_pooled"] = Percentile(open.write_us, 99);
    d["open_offered_per_s"] = spec.open_rate;
    d["open_lag_p99_us"] = Percentile(lag, 99);
    d["closed_round_trips"] = static_cast<double>(closed.round_trips);
    d["cpu_us_per_op_closed"] =
        closed_cpu_s * 1e6 / static_cast<double>(closed.completed);
    d["resizes_in_window"] = bucket_changes;
    return result;
  }

  // Traced run: an untraced closed-loop window (the overhead baseline),
  // then spans on for an open-loop window and a closed-loop window.
  server->Command("mark");
  const ClientStats plain = Phase(shared, *versions, port, 0.3 * s, 40, false);
  const std::map<std::string, double> plain_rep = server->Report();
  server->Command("trace 1");
  server->Command("mark");
  const ClientStats open = Phase(shared, *versions, port, 0.3 * s, 50, true);
  const std::map<std::string, double> open_rep = server->Report();
  server->Command("mark");
  const ClientStats traced = Phase(shared, *versions, port, 0.4 * s, 60, false);
  const std::map<std::string, double> traced_rep = server->Report();
  server->Command("trace 0");
  server.reset();
  AddStats(plain, &result);
  AddStats(open, &result);
  AddStats(traced, &result);
  if (plain_rep.empty() || open_rep.empty() || traced_rep.empty()) {
    result.completed = false;
    return result;
  }
  LayerMetrics(spec, traced_rep, traced, &result);
  std::vector<double> lag = open.lag_us;
  m["loadgen.lag_p99_us"] = Percentile(lag, 99);
  m["protocol.parse_ns_per_req"] = ParseNsPerRequest(shared);
  if (spec.cluster) {
    m["cluster.route_ns_per_key"] = RouteNsPerKey(shared);
  }
  CoreReplay(shared, &result);
  m["core.resizes_in_window"] = plain_rep.at("bucket_changes") +
                                open_rep.at("bucket_changes") +
                                traced_rep.at("bucket_changes");
  const double plain_ops = ClosedOpsPerSecond(plain, 0.3 * s);
  const double traced_ops = ClosedOpsPerSecond(traced, 0.4 * s);
  m["trace.ops_per_s_untraced"] = plain_ops;
  m["trace.ops_per_s_traced"] = traced_ops;
  m["trace.overhead_share"] = 1.0 - Ratio(traced_ops, plain_ops);
  result.details["setup_s"] = Median(setup_s);
  result.details["hit_ratio"] = HitRatio(open, traced);
  return result;
}

}  // namespace pb
