// Differential cluster conformance: the proxy is supposed to be
// transparent, so the same byte stream sent to a direct single-engine
// server and to a LocalCluster's proxy port must come back byte-identical
// (cas tokens normalized — separate engines allocate them at different
// rates). The op × item-state matrix from the engine conformance suite
// replays over real TCP against both deployments, as do meta transcripts
// (verbose and quiet-flag), and MixedPipelineOrderMatchesDirect pins the
// invariant ARCHITECTURE.md names: the proxy never reorders responses
// within one connection's pipeline.
//
// Reads use a version barrier: every probe is "<ops> version\r\n" and the
// client reads until the VERSION line, so response framing never depends
// on the proxy's timing.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/memcache/cluster/local_cluster.h"
#include "src/memcache/item.h"
#include "src/memcache/server.h"
#include "src/memcache/workload.h"

namespace rp::memcache::cluster {
namespace {

constexpr const char* kVersionBarrier = "VERSION rp-memcache 1.0\r\n";

// Minimal blocking loopback client (same shape as test_memcache_server).
class TestClient {
 public:
  explicit TestClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~TestClient() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }

  bool connected() const { return connected_; }

  void Send(const std::string& wire) {
    std::size_t sent = 0;
    while (sent < wire.size()) {
      const ssize_t n = ::send(fd_, wire.data() + sent, wire.size() - sent, 0);
      ASSERT_GT(n, 0);
      sent += static_cast<std::size_t>(n);
    }
  }

  std::string ReadUntil(const std::string& terminator) {
    std::string acc;
    char buf[16 * 1024];
    while (acc.size() < 8u << 20) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) {
        break;
      }
      acc.append(buf, static_cast<std::size_t>(n));
      if (acc.size() >= terminator.size() &&
          acc.compare(acc.size() - terminator.size(), terminator.size(),
                      terminator) == 0) {
        break;
      }
    }
    return acc;
  }

  // Sends `wire` plus a version barrier and returns everything that came
  // back before the VERSION line.
  std::string RoundTrip(const std::string& wire) {
    Send(wire + "version\r\n");
    std::string response = ReadUntil(kVersionBarrier);
    EXPECT_GE(response.size(), std::strlen(kVersionBarrier)) << wire;
    response.resize(response.size() - std::strlen(kVersionBarrier));
    return response;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

// Replaces the cas token of VALUE lines with "X" (as in the engine
// conformance matrix): the two deployments' engines allocate cas values
// independently.
std::string NormalizeCas(const std::string& response) {
  std::string out;
  std::size_t pos = 0;
  while (pos < response.size()) {
    std::size_t eol = response.find("\r\n", pos);
    if (eol == std::string::npos) {
      eol = response.size();
    }
    std::string line = response.substr(pos, eol - pos);
    if (line.rfind("VALUE ", 0) == 0) {
      std::size_t spaces = 0;
      std::size_t cas_at = std::string::npos;
      for (std::size_t i = 0; i < line.size(); ++i) {
        if (line[i] == ' ' && ++spaces == 4) {
          cas_at = i + 1;
        }
      }
      if (cas_at != std::string::npos) {
        line.resize(cas_at);
        line += 'X';
      }
    }
    out += line;
    if (eol < response.size()) {
      out += "\r\n";
    }
    pos = eol + 2;
  }
  return out;
}

// Current cas token of `key` on one deployment, via gets ("42" if absent).
std::string FetchCas(TestClient& client, const std::string& key) {
  const std::string response = client.RoundTrip("gets " + key + "\r\n");
  const std::size_t line_end = response.find("\r\n");
  if (response.rfind("VALUE ", 0) != 0 || line_end == std::string::npos) {
    return "42";
  }
  const std::size_t cas_at = response.rfind(' ', line_end);
  return response.substr(cas_at + 1, line_end - cas_at - 1);
}

// Both deployments under test: a direct single-engine server and a
// 3-backend cluster, each talked to over real TCP.
class Deployments {
 public:
  void Start() {
    engine_ = MakeEngine("rp", EngineConfig{});
    ASSERT_NE(engine_, nullptr);
    direct_server_ = std::make_unique<Server>(*engine_, 0, ServerOptions{});
    ASSERT_TRUE(direct_server_->Start()) << direct_server_->error();

    LocalClusterOptions options;
    options.backends = 3;
    cluster_ = std::make_unique<LocalCluster>(options);
    ASSERT_TRUE(cluster_->Start()) << cluster_->error();

    direct_ = std::make_unique<TestClient>(direct_server_->port());
    proxy_ = std::make_unique<TestClient>(cluster_->proxy_port());
    ASSERT_TRUE(direct_->connected());
    ASSERT_TRUE(proxy_->connected());
  }

  TestClient& direct() { return *direct_; }
  TestClient& proxy() { return *proxy_; }
  LocalCluster& cluster() { return *cluster_; }

  // Sends the same probe to both and expects byte-identical (normalized)
  // responses.
  void ExpectSame(const std::string& wire) {
    EXPECT_EQ(NormalizeCas(direct_->RoundTrip(wire)),
              NormalizeCas(proxy_->RoundTrip(wire)))
        << "diverged on: " << wire;
  }

 private:
  std::unique_ptr<CacheEngine> engine_;
  std::unique_ptr<Server> direct_server_;
  std::unique_ptr<LocalCluster> cluster_;
  std::unique_ptr<TestClient> direct_;
  std::unique_ptr<TestClient> proxy_;
};

struct OpProbe {
  const char* name;
  // Builds the probe wire for `key`; `cas` is the deployment-local token.
  std::string (*build)(const std::string& key, const std::string& cas);
};

const OpProbe kOps[] = {
    {"get",
     [](const std::string& k, const std::string&) {
       return "get " + k + "\r\n";
     }},
    {"gets",
     [](const std::string& k, const std::string&) {
       return "gets " + k + "\r\n";
     }},
    {"set",
     [](const std::string& k, const std::string&) {
       return "set " + k + " 1 0 3\r\n200\r\n";
     }},
    {"add",
     [](const std::string& k, const std::string&) {
       return "add " + k + " 0 0 3\r\n201\r\n";
     }},
    {"replace",
     [](const std::string& k, const std::string&) {
       return "replace " + k + " 0 0 3\r\n202\r\n";
     }},
    {"append",
     [](const std::string& k, const std::string&) {
       return "append " + k + " 0 0 1\r\n9\r\n";
     }},
    {"prepend",
     [](const std::string& k, const std::string&) {
       return "prepend " + k + " 0 0 1\r\n1\r\n";
     }},
    {"cas",
     [](const std::string& k, const std::string& cas) {
       return "cas " + k + " 0 0 3 " + cas + "\r\n203\r\n";
     }},
    {"delete",
     [](const std::string& k, const std::string&) {
       return "delete " + k + "\r\n";
     }},
    {"incr",
     [](const std::string& k, const std::string&) {
       return "incr " + k + " 5\r\n";
     }},
    {"decr",
     [](const std::string& k, const std::string&) {
       return "decr " + k + " 7\r\n";
     }},
    {"touch",
     [](const std::string& k, const std::string&) {
       return "touch " + k + " 500\r\n";
     }},
};

const char* kStates[] = {"live", "expired", "flushed"};

std::string CellKey(const char* state, const char* op) {
  return std::string(state) + "-" + op;
}

// The op × item-state differential matrix over the wire: every classic op
// against live, expired, and flushed items, with a follow-up get so
// divergent state can't hide behind a matching first answer.
TEST(ClusterConformance, OpStateMatrixMatchesDirect) {
  Deployments d;
  d.Start();
  if (HasFatalFailure()) {
    return;
  }

  // Stage the flushed keys, then arm a 1s-delayed flush_all on both
  // deployments (the proxy broadcasts it to every backend).
  for (TestClient* client : {&d.direct(), &d.proxy()}) {
    for (const OpProbe& op : kOps) {
      const std::string key = CellKey("flushed", op.name);
      EXPECT_EQ(client->RoundTrip("set " + key + " 0 0 3\r\n100\r\n"),
                "STORED\r\n");
    }
  }
  const std::int64_t deadline = NowSeconds() + 1;
  EXPECT_EQ(d.direct().RoundTrip("flush_all 1\r\n"), "OK\r\n");
  EXPECT_EQ(d.proxy().RoundTrip("flush_all 1\r\n"), "OK\r\n");
  // Let the deadline pass with slack, so the live/expired keys stored next
  // land strictly after it and survive.
  while (NowSeconds() < deadline + 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  for (TestClient* client : {&d.direct(), &d.proxy()}) {
    for (const OpProbe& op : kOps) {
      EXPECT_EQ(client->RoundTrip("set " + CellKey("live", op.name) +
                                  " 0 0 3\r\n100\r\n"),
                "STORED\r\n");
      EXPECT_EQ(client->RoundTrip("set " + CellKey("expired", op.name) +
                                  " 0 -1 3\r\n100\r\n"),
                "STORED\r\n");
    }
  }

  for (const OpProbe& op : kOps) {
    for (const char* state : kStates) {
      const std::string key = CellKey(state, op.name);
      // cas wants the current token, which is deployment-local.
      const std::string direct_probe = op.build(key, FetchCas(d.direct(), key));
      const std::string proxy_probe = op.build(key, FetchCas(d.proxy(), key));
      EXPECT_EQ(NormalizeCas(d.direct().RoundTrip(direct_probe)),
                NormalizeCas(d.proxy().RoundTrip(proxy_probe)))
          << op.name << " on " << state << " item";
      d.ExpectSame("get " + key + "\r\n");
    }
  }
}

// Meta transcripts — verbose flags, arithmetic, misses, and quiet-flag
// runs (where the proxy must re-apply the suppression it stripped before
// forwarding) — replayed against both deployments.
TEST(ClusterConformance, MetaTranscriptsMatchDirect) {
  Deployments d;
  d.Start();
  if (HasFatalFailure()) {
    return;
  }

  const std::string transcripts[] = {
      // Verbose store + get with value/flag/ttl flags.
      "ms meta-a 5 F7 T100\r\nhello\r\nmg meta-a v f t\r\n",
      // Arithmetic with auto-vivify, then a re-read.
      "ma meta-n N0 J5 D3\r\nmg meta-n v\r\nma meta-n D2\r\nmg meta-n v\r\n",
      // Misses, delete, opaque echo.
      "mg meta-missing v k O42\r\nmd meta-a O7\r\nmg meta-a v\r\n",
      // Quiet run bounded by mn: hits answer, misses and bare successes
      // are suppressed.
      "ms meta-q1 3 q\r\nabc\r\nmg meta-q1 v q\r\nmg meta-nope v q\r\n"
      "md meta-q1 q\r\nmd meta-nope q\r\nmn\r\n",
      // A UTF-8 key: memcached bans only control bytes and whitespace.
      "set caf\xc3\xa9 0 0 3\r\nabc\r\nget caf\xc3\xa9\r\n",
  };
  for (const std::string& transcript : transcripts) {
    d.ExpectSame(transcript);
  }
  // Both sides stored the UTF-8 key rather than refusing it as a bad key.
  for (TestClient* client : {&d.direct(), &d.proxy()}) {
    EXPECT_EQ(client->RoundTrip("get caf\xc3\xa9\r\n"),
              "VALUE caf\xc3\xa9 0 3\r\nabc\r\nEND\r\n");
  }
}

// An 8-key multi-get spanning several owners issues exactly ONE batched
// sub-request per involved backend — pinned by the cluster_scatter_batches
// counter — and reassembles the response in client key order.
TEST(ClusterConformance, ScatterGatherBatchesPerBackend) {
  Deployments d;
  d.Start();
  if (HasFatalFailure()) {
    return;
  }

  std::vector<std::string> keys;
  std::set<std::string> owners;
  std::string mget = "get";
  for (int i = 0; i < 8; ++i) {
    keys.push_back("sg-" + std::to_string(i));
    owners.insert(d.cluster().proxy().NodeNameForKey(keys.back()));
    mget += " " + keys.back();
    EXPECT_EQ(d.proxy().RoundTrip("set " + keys.back() + " 0 0 3\r\nv0" +
                                  std::to_string(i) + "\r\n"),
              "STORED\r\n");
  }
  mget += "\r\n";
  // 8 keys over a 3-node ring: all but astronomically unlucky draws span
  // at least two owners, which is what makes this a scatter.
  ASSERT_GT(owners.size(), 1u);

  const ClusterStats before = d.cluster().proxy().Stats();
  std::string expected;
  for (int i = 0; i < 8; ++i) {
    expected += "VALUE " + keys[i] + " 0 3\r\nv0" + std::to_string(i) + "\r\n";
  }
  expected += "END\r\n";
  EXPECT_EQ(d.proxy().RoundTrip(mget), expected);
  const ClusterStats after = d.cluster().proxy().Stats();
  EXPECT_EQ(after.scatter_gets - before.scatter_gets, 1u);
  EXPECT_EQ(after.scatter_batches - before.scatter_batches, owners.size());
  // Also byte-compatible with the direct deployment.
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(d.direct().RoundTrip("set " + keys[i] + " 0 0 3\r\nv0" +
                                   std::to_string(i) + "\r\n"),
              "STORED\r\n");
  }
  EXPECT_EQ(d.direct().RoundTrip(mget), expected);
}

// A pipelined noreply store burst fans out per owner and rides the batched
// store path (one wire burst per backend), with the single replied store
// answering last.
TEST(ClusterConformance, PipelinedStoreFanout) {
  Deployments d;
  d.Start();
  if (HasFatalFailure()) {
    return;
  }

  std::string burst;
  for (int i = 0; i < 7; ++i) {
    burst += "set ps-" + std::to_string(i) + " 0 0 2 noreply\r\nv" +
             std::to_string(i) + "\r\n";
  }
  burst += "set ps-7 0 0 2\r\nv7\r\n";
  const ClusterStats before = d.cluster().proxy().Stats();
  EXPECT_EQ(d.proxy().RoundTrip(burst), "STORED\r\n");
  const ClusterStats after = d.cluster().proxy().Stats();
  // The whole burst arrived in one read, so the connection handed the
  // proxy at least one multi-store batch (boundaries may split it, but it
  // can't degenerate to all-singletons).
  EXPECT_GT(after.store_batches, before.store_batches);
  EXPECT_GE(after.store_batched_ops - before.store_batched_ops, 2u);
  for (int i = 0; i < 8; ++i) {
    const std::string key = "ps-" + std::to_string(i);
    EXPECT_EQ(d.proxy().RoundTrip("get " + key + "\r\n"),
              "VALUE " + key + " 0 2\r\nv" + std::to_string(i) + "\r\nEND\r\n");
  }
}

// The invariant ARCHITECTURE.md names: the proxy never reorders responses
// within one connection's pipeline. A mixed pipeline — stores, reads,
// arithmetic, deletes, meta ops, misses — whose responses interleave
// across all three backends must come back in exactly the order the
// direct server answers it.
TEST(ClusterConformance, MixedPipelineOrderMatchesDirect) {
  Deployments d;
  d.Start();
  if (HasFatalFailure()) {
    return;
  }

  std::string pipeline;
  for (int i = 0; i < 12; ++i) {
    const std::string k = "mix-" + std::to_string(i);
    pipeline += "set " + k + " 0 0 2\r\nx" + std::to_string(i % 10) + "\r\n";
  }
  for (int i = 0; i < 12; ++i) {
    const std::string k = "mix-" + std::to_string(i);
    switch (i % 6) {
      case 0:
        pipeline += "get " + k + "\r\n";
        break;
      case 1:
        pipeline += "append " + k + " 0 0 1\r\n!\r\n";
        break;
      case 2:
        pipeline += "delete " + k + "\r\nget " + k + "\r\n";
        break;
      case 3:
        pipeline += "mg " + k + " v f\r\n";
        break;
      case 4:
        pipeline += "incr " + k + " 1\r\n";  // CLIENT_ERROR: non-numeric
        break;
      default:
        pipeline += "get mix-missing " + k + "\r\n";
        break;
    }
  }
  pipeline += "mn\r\n";
  d.ExpectSame(pipeline);
}

}  // namespace
}  // namespace rp::memcache::cluster
