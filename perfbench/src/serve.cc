// Server side of a socket workload, run in its own process so its CPU time
// and RSS are measured alone. It assembles the topology from the
// library's public pieces, prints "ready <port>", then answers line
// commands on stdin:
//
//   mark       start a measurement window (CPU, stats and span baselines)
//   trace 0|1  stop/start span recording and the grace-period probe
//   report     one line "report k=v ..." with the window's deltas
//   quit       stop every server and exit (so does EOF)
//
// With --trace 1 timing wrappers sit at each public seam: a RequestHandler
// wrapper handed to Server (around EngineHandler, around ClusterProxy, and
// around each backend's handler) and a CacheEngine wrapper around RpEngine,
// which EngineHandler takes by reference. Without it the servers run the
// library's handlers unwrapped.
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/probe.h"
#include "perfbench/src/serve.h"
#include "perfbench/src/trace.h"
#include "perfbench/src/util.h"
#include "src/memcache/cluster/proxy.h"
#include "src/memcache/connection.h"
#include "src/memcache/rp_engine.h"
#include "src/memcache/server.h"

namespace pb {

namespace mc = rp::memcache;

namespace {

// Times every call into a CacheEngine.
class TracingEngine final : public mc::CacheEngine {
 public:
  explicit TracingEngine(mc::CacheEngine& inner) : inner_(inner) {}

  bool Get(const std::string& key, mc::StoredValue* out) override {
    trace::Span span(trace::kEngineGet, 1);
    return inner_.Get(key, out);
  }
  void GetMany(const std::string_view* keys, std::size_t count,
               mc::MultiGetResult* out) override {
    trace::Span span(trace::kEngineGetMany, static_cast<std::uint32_t>(count));
    inner_.GetMany(keys, count, out);
  }
  void GetManyScratch(const std::string_view* keys, std::size_t count,
                      mc::ScratchGetResult* out, std::string* scratch) override {
    trace::Span span(trace::kEngineGetManyScratch,
                     static_cast<std::uint32_t>(count));
    inner_.GetManyScratch(keys, count, out, scratch);
  }
  mc::StoreResult Set(const std::string& key, std::string_view data,
                      std::uint32_t flags, std::int64_t exptime) override {
    trace::Span span(trace::kEngineSet, 1);
    return inner_.Set(key, data, flags, exptime);
  }
  void StoreMany(const mc::StoreOp* ops, std::size_t count,
                 mc::StoreResult* results) override {
    trace::Span span(count == 1 ? trace::kEngineSet : trace::kEngineStoreMany,
                     static_cast<std::uint32_t>(count));
    inner_.StoreMany(ops, count, results);
  }
  mc::StoreResult Add(const std::string& key, std::string_view data,
                      std::uint32_t flags, std::int64_t exptime) override {
    trace::Span span(trace::kEngineOther, 1);
    return inner_.Add(key, data, flags, exptime);
  }
  mc::StoreResult Replace(const std::string& key, std::string_view data,
                          std::uint32_t flags, std::int64_t exptime) override {
    trace::Span span(trace::kEngineOther, 1);
    return inner_.Replace(key, data, flags, exptime);
  }
  mc::StoreResult Append(const std::string& key, std::string_view data) override {
    trace::Span span(trace::kEngineOther, 1);
    return inner_.Append(key, data);
  }
  mc::StoreResult Prepend(const std::string& key, std::string_view data) override {
    trace::Span span(trace::kEngineOther, 1);
    return inner_.Prepend(key, data);
  }
  mc::StoreResult CheckAndSet(const std::string& key, std::string_view data,
                              std::uint32_t flags, std::int64_t exptime,
                              std::uint64_t expected_cas) override {
    trace::Span span(trace::kEngineOther, 1);
    return inner_.CheckAndSet(key, data, flags, exptime, expected_cas);
  }
  bool Delete(const std::string& key) override {
    trace::Span span(trace::kEngineOther, 1);
    return inner_.Delete(key);
  }
  mc::ArithResult Incr(const std::string& key, std::uint64_t delta) override {
    trace::Span span(trace::kEngineOther, 1);
    return inner_.Incr(key, delta);
  }
  mc::ArithResult Decr(const std::string& key, std::uint64_t delta) override {
    trace::Span span(trace::kEngineOther, 1);
    return inner_.Decr(key, delta);
  }
  bool Touch(const std::string& key, std::int64_t exptime) override {
    trace::Span span(trace::kEngineOther, 1);
    return inner_.Touch(key, exptime);
  }
  using mc::CacheEngine::FlushAll;
  void FlushAll(std::int64_t delay_seconds) override {
    inner_.FlushAll(delay_seconds);
  }
  std::size_t ItemCount() const override { return inner_.ItemCount(); }
  mc::EngineStats Stats() const override { return inner_.Stats(); }
  const char* Name() const override { return inner_.Name(); }

 private:
  mc::CacheEngine& inner_;
};

// Times every call into a RequestHandler, classified by request kind.
// `family` is the family's first kind (get, mget, set, other, stores,
// metagets follow in that order).
class TracingHandler final : public mc::RequestHandler {
 public:
  TracingHandler(mc::RequestHandler& inner, trace::Kind family)
      : inner_(inner), family_(family) {}

  void Execute(const mc::Request& request, std::string* out, bool* quit,
               const mc::ServerConnectionStats* conn_stats) override {
    int offset = 3;  // other
    std::uint32_t items = 1;
    if (request.op == mc::Op::kGet || request.op == mc::Op::kGets) {
      items = static_cast<std::uint32_t>(request.keys.size());
      offset = items > 1 ? 1 : 0;
    } else if (request.op == mc::Op::kSet) {
      offset = 2;
    }
    trace::Span span(static_cast<trace::Kind>(family_ + offset), items);
    inner_.Execute(request, out, quit, conn_stats);
  }
  // Every store reaches the handler here, singletons included; a
  // one-request call counts as a set, a longer one as a batch.
  void ExecuteStores(const mc::Request* requests, std::size_t count,
                     std::string* out) override {
    trace::Span span(static_cast<trace::Kind>(family_ + (count == 1 ? 2 : 4)),
                     static_cast<std::uint32_t>(count));
    inner_.ExecuteStores(requests, count, out);
  }
  void ExecuteMetaGets(const mc::Request* requests, std::size_t count,
                       std::string* out) override {
    trace::Span span(static_cast<trace::Kind>(family_ + 5),
                     static_cast<std::uint32_t>(count));
    inner_.ExecuteMetaGets(requests, count, out);
  }

 private:
  mc::RequestHandler& inner_;
  const trace::Kind family_;
};

// Self-test fault injection: corrupts one byte of the value of one
// singleton GET response and swallows the response of a later one.
class FaultHandler final : public mc::RequestHandler {
 public:
  explicit FaultHandler(mc::RequestHandler& inner) : inner_(inner) {}

  void Execute(const mc::Request& request, std::string* out, bool* quit,
               const mc::ServerConnectionStats* conn_stats) override {
    const bool single_get =
        request.op == mc::Op::kGet && request.keys.size() == 1;
    const std::uint64_t n =
        single_get ? gets_.fetch_add(1, std::memory_order_relaxed) + 1 : 0;
    if (n == kDropAt) {
      std::string swallowed;
      inner_.Execute(request, &swallowed, quit, conn_stats);
      return;
    }
    const std::size_t before = out->size();
    inner_.Execute(request, out, quit, conn_stats);
    constexpr std::string_view kTail = "\r\nEND\r\n";
    if (n == kCorruptAt &&
        std::string_view(*out).substr(before).starts_with("VALUE ") &&
        std::string_view(*out).ends_with(kTail)) {
      (*out)[out->size() - kTail.size() - 1] ^= 0x01;  // last value byte
    }
  }
  void ExecuteStores(const mc::Request* requests, std::size_t count,
                     std::string* out) override {
    inner_.ExecuteStores(requests, count, out);
  }
  void ExecuteMetaGets(const mc::Request* requests, std::size_t count,
                       std::string* out) override {
    inner_.ExecuteMetaGets(requests, count, out);
  }

 private:
  static constexpr std::uint64_t kCorruptAt = 2000;
  static constexpr std::uint64_t kDropAt = 4000;
  mc::RequestHandler& inner_;
  std::atomic<std::uint64_t> gets_{0};
};

mc::EngineStats SumStats(const std::vector<std::unique_ptr<mc::RpEngine>>& engines) {
  mc::EngineStats sum;
  for (const auto& e : engines) {
    const mc::EngineStats s = e->Stats();
    sum.get_hits += s.get_hits;
    sum.get_misses += s.get_misses;
    sum.sets += s.sets;
    sum.evictions += s.evictions;
    sum.bytes += s.bytes;
    sum.bytes_wasted += s.bytes_wasted;
    sum.slab_fallbacks += s.slab_fallbacks;
    sum.store_batches += s.store_batches;
    sum.store_batched_ops += s.store_batched_ops;
    sum.front_cache_hits += s.front_cache_hits;
    sum.set_combines += s.set_combines;
    sum.crawler_reclaims += s.crawler_reclaims;
    // Reclaimer figures come from the process-global RCU domain: every
    // engine reports the same numbers, so take them once.
    sum.reclaimer_pending = s.reclaimer_pending;
    sum.reclaimer_wakeups = s.reclaimer_wakeups;
    sum.reclaimer_inline_pumps = s.reclaimer_inline_pumps;
  }
  return sum;
}

std::size_t SumBuckets(const std::vector<std::unique_ptr<mc::RpEngine>>& engines) {
  std::size_t sum = 0;
  for (const auto& e : engines) {
    sum += e->BucketCount();
  }
  return sum;
}

}  // namespace

int ServeMain(const WorkloadSpec& spec, bool traced, bool inject_faults) {
  std::vector<std::unique_ptr<mc::RpEngine>> engines;
  std::vector<std::unique_ptr<mc::CacheEngine>> engine_wrappers;
  std::vector<std::unique_ptr<mc::RequestHandler>> handlers;
  std::vector<std::unique_ptr<mc::Server>> servers;  // front server last
  std::unique_ptr<mc::cluster::ClusterProxy> proxy;

  // One engine behind its EngineHandler, wrapped when traced.
  auto engine_stack = [&](const mc::EngineConfig& config) {
    engines.push_back(std::make_unique<mc::RpEngine>(config));
    mc::CacheEngine* engine = engines.back().get();
    if (traced) {
      engine_wrappers.push_back(std::make_unique<TracingEngine>(*engine));
      engine = engine_wrappers.back().get();
    }
    handlers.push_back(std::make_unique<mc::EngineHandler>(*engine));
    if (traced) {
      handlers.push_back(std::make_unique<TracingHandler>(
          *handlers.back(), trace::kHandlerFamily));
    }
    return handlers.back().get();
  };
  auto start_server = [&](mc::RequestHandler& handler, std::size_t workers) {
    mc::ServerOptions options;
    options.num_workers = workers;
    servers.push_back(std::make_unique<mc::Server>(handler, 0, options));
    if (!servers.back()->Start()) {
      std::fprintf(stderr, "perfbench: server start failed: %s\n",
                   servers.back()->error().c_str());
      return false;
    }
    return true;
  };

  mc::EngineConfig config;  // shipped defaults
  config.max_bytes = spec.max_bytes;
  mc::RequestHandler* front = nullptr;
  std::size_t front_workers = 2;
  if (spec.cluster) {
    std::vector<mc::cluster::BackendAddress> addresses;
    for (int i = 0; i < 3; ++i) {
      if (!start_server(*engine_stack(config), 1)) {
        return 1;
      }
      addresses.push_back({"node" + std::to_string(i), servers.back()->port()});
    }
    proxy = std::make_unique<mc::cluster::ClusterProxy>(addresses);
    front = proxy.get();
    if (traced) {
      handlers.push_back(
          std::make_unique<TracingHandler>(*front, trace::kProxyFamily));
      front = handlers.back().get();
    }
    front_workers = 1;
  } else {
    front = engine_stack(config);
  }
  if (inject_faults) {
    handlers.push_back(std::make_unique<FaultHandler>(*front));
    front = handlers.back().get();
  }
  if (!start_server(*front, front_workers)) {
    return 1;
  }
  std::printf("ready %u\n", static_cast<unsigned>(servers.back()->port()));
  std::fflush(stdout);

  GracePeriodProbe probe;
  bool window_open = false;
  std::uint64_t mark_ns = NowNs();
  double mark_cpu = ProcessCpuSeconds();
  mc::EngineStats mark_stats = SumStats(engines);
  mc::cluster::ClusterStats mark_cluster;
  std::size_t last_buckets = SumBuckets(engines);
  std::uint64_t bucket_changes = 0;
  std::uint64_t pending_max = 0;
  std::uint64_t last_pending_sample = 0;

  std::string line_buf;
  for (;;) {
    pollfd pfd{0, POLLIN, 0};
    const int ready = poll(&pfd, 1, 5);
    if (window_open) {
      const std::size_t buckets = SumBuckets(engines);
      if (buckets != last_buckets) {
        ++bucket_changes;
        last_buckets = buckets;
      }
      if (traced && NowNs() - last_pending_sample > 20'000'000) {
        last_pending_sample = NowNs();
        pending_max = std::max(pending_max, SumStats(engines).reclaimer_pending);
      }
    }
    if (ready <= 0) {
      continue;
    }
    char chunk[256];
    const ssize_t n = read(0, chunk, sizeof(chunk));
    if (n <= 0) {
      break;  // EOF: the generator is gone
    }
    line_buf.append(chunk, static_cast<std::size_t>(n));
    std::size_t eol;
    bool quit = false;
    while ((eol = line_buf.find('\n')) != std::string::npos) {
      const std::string cmd = line_buf.substr(0, eol);
      line_buf.erase(0, eol + 1);
      std::string reply = "ok";
      if (cmd == "mark") {
        window_open = true;
        mark_ns = NowNs();
        mark_cpu = ProcessCpuSeconds();
        mark_stats = SumStats(engines);
        if (proxy) {
          mark_cluster = proxy->Stats();
        }
        last_buckets = SumBuckets(engines);
        bucket_changes = 0;
        pending_max = mark_stats.reclaimer_pending;
        trace::Mark();
        probe.Take();
      } else if (cmd == "trace 1" || cmd == "trace 0") {
        const bool on = cmd == "trace 1" && traced;
        trace::SetEnabled(on);
        if (on) {
          probe.Start();
        } else {
          probe.Stop();
        }
      } else if (cmd == "report") {
        const mc::EngineStats s = SumStats(engines);
        const mc::EngineStats& b = mark_stats;
        std::vector<double> gp = probe.Take();
        reply = "report";
        auto add = [&reply](const std::string& k, double v) {
          reply += " " + k + "=" + Num(v);
        };
        add("window_s", static_cast<double>(NowNs() - mark_ns) / 1e9);
        add("cpu_s", ProcessCpuSeconds() - mark_cpu);
        add("rss_mb", PeakRssMb());
        add("get_hits", static_cast<double>(s.get_hits - b.get_hits));
        add("get_misses", static_cast<double>(s.get_misses - b.get_misses));
        add("sets", static_cast<double>(s.sets - b.sets));
        add("evictions", static_cast<double>(s.evictions - b.evictions));
        add("slab_fallbacks",
            static_cast<double>(s.slab_fallbacks - b.slab_fallbacks));
        add("store_batches", static_cast<double>(s.store_batches - b.store_batches));
        add("store_batched_ops",
            static_cast<double>(s.store_batched_ops - b.store_batched_ops));
        add("front_cache_hits",
            static_cast<double>(s.front_cache_hits - b.front_cache_hits));
        add("set_combines", static_cast<double>(s.set_combines - b.set_combines));
        add("crawler_reclaims",
            static_cast<double>(s.crawler_reclaims - b.crawler_reclaims));
        add("reclaimer_wakeups",
            static_cast<double>(s.reclaimer_wakeups - b.reclaimer_wakeups));
        add("reclaimer_inline_pumps", static_cast<double>(
                                          s.reclaimer_inline_pumps -
                                          b.reclaimer_inline_pumps));
        add("reclaimer_pending_max",
            static_cast<double>(std::max(pending_max, s.reclaimer_pending)));
        add("bytes", static_cast<double>(s.bytes));
        add("bytes_wasted", static_cast<double>(s.bytes_wasted));
        add("bucket_changes", static_cast<double>(bucket_changes));
        if (proxy) {
          const mc::cluster::ClusterStats c = proxy->Stats();
          const mc::cluster::ClusterStats& cb = mark_cluster;
          add("forwards", static_cast<double>(c.forwards - cb.forwards));
          add("scatter_gets", static_cast<double>(c.scatter_gets - cb.scatter_gets));
          add("scatter_batches",
              static_cast<double>(c.scatter_batches - cb.scatter_batches));
          add("backend_errors",
              static_cast<double>(c.backend_errors - cb.backend_errors));
          add("backend_retries",
              static_cast<double>(c.backend_retries - cb.backend_retries));
        }
        add("gp_samples", static_cast<double>(gp.size()));
        add("gp_p50_us", Percentile(gp, 50));
        add("gp_p99_us", Percentile(gp, 99));
        const std::vector<trace::KindTotals> totals = trace::Collect();
        for (int k = 0; k < trace::kKindCount; ++k) {
          const std::string name = trace::KindName(static_cast<trace::Kind>(k));
          add(name + ".calls", static_cast<double>(totals[k].calls));
          add(name + ".items", static_cast<double>(totals[k].items));
          add(name + ".total_ns", static_cast<double>(totals[k].total_ns));
          add(name + ".self_ns", static_cast<double>(totals[k].self_ns));
        }
        add("spans_dropped", static_cast<double>(trace::Dropped()));
        window_open = false;
      } else if (cmd == "quit") {
        quit = true;
        break;
      } else {
        reply = "error unknown command";
      }
      std::printf("%s\n", reply.c_str());
      std::fflush(stdout);
    }
    if (quit) {
      break;
    }
  }
  probe.Stop();
  trace::SetEnabled(false);
  // Stop the front server first, so no request is in flight while the
  // backends behind it shut down.
  for (auto it = servers.rbegin(); it != servers.rend(); ++it) {
    (*it)->Stop();
  }
  return 0;
}

}  // namespace pb
