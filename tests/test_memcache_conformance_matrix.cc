// Cross-engine op × item-state conformance matrix.
//
// Every protocol op (get/gets/set/add/replace/append/prepend/cas/delete/
// incr/decr/touch) runs against items in each of three states — live,
// expired (TTL lapsed), and flushed-but-present (stored before a delayed
// flush_all deadline that has since passed) — on both engines, through the
// same ExecuteRequest dispatch the server uses. The wire responses must be
// identical (cas numbers in `gets` output normalized: the RP engine
// allocates cas values optimistically, the locked engine only on success),
// and so must a follow-up `get`, so divergent state can't hide behind a
// matching first answer.
//
// cas audit (memcached 1.6 semantics): `cas` on an expired or flushed key
// answers NOT_FOUND — the item counts as absent even while physically
// present awaiting lazy reclamation; both engines assert that explicitly.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/hash.h"
#include "src/memcache/connection.h"
#include "src/memcache/engine.h"
#include "src/memcache/locked_engine.h"
#include "src/memcache/protocol.h"
#include "src/memcache/rp_engine.h"
#include "src/memcache/slab.h"

namespace {

using namespace rp::memcache;

struct OpSpec {
  const char* name;
  Op op;
};

const OpSpec kOps[] = {
    {"get", Op::kGet},         {"gets", Op::kGets},
    {"set", Op::kSet},         {"add", Op::kAdd},
    {"replace", Op::kReplace}, {"append", Op::kAppend},
    {"prepend", Op::kPrepend}, {"cas", Op::kCas},
    {"delete", Op::kDelete},   {"incr", Op::kIncr},
    {"decr", Op::kDecr},       {"touch", Op::kTouch},
};

const char* kStates[] = {"live", "expired", "flushed"};

std::string CellKey(const char* state, const char* op) {
  return std::string(state) + "-" + op;
}

// Replaces the cas token of VALUE lines with "X" so `gets` responses
// compare across engines whose cas allocators run at different rates.
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
      // VALUE <key> <flags> <bytes> [<cas>] — blank out a 5th token.
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

std::string Execute(CacheEngine& engine, const Request& request) {
  std::string response;
  bool quit = false;
  ExecuteRequest(engine, request, &response, &quit);
  return response;
}

// Current cas of `key` on this engine (via gets), or 42 when absent.
std::uint64_t FetchCas(CacheEngine& engine, const std::string& key) {
  Request gets;
  gets.op = Op::kGets;
  gets.keys = {key};
  const std::string response = Execute(engine, gets);
  // VALUE <key> <flags> <bytes> <cas>\r\n...
  std::size_t line_end = response.find("\r\n");
  if (response.rfind("VALUE ", 0) != 0 || line_end == std::string::npos) {
    return 42;
  }
  const std::size_t cas_at = response.rfind(' ', line_end);
  return std::stoull(response.substr(cas_at + 1, line_end - cas_at - 1));
}

Request BuildRequest(const OpSpec& spec, const std::string& key,
                     std::uint64_t cas) {
  Request request;
  request.op = spec.op;
  request.keys = {key};
  switch (spec.op) {
    case Op::kSet:
      request.data = "200";
      request.flags = 1;
      break;
    case Op::kAdd:
      request.data = "201";
      break;
    case Op::kReplace:
      request.data = "202";
      break;
    case Op::kAppend:
      request.data = "9";
      break;
    case Op::kPrepend:
      request.data = "1";
      break;
    case Op::kCas:
      request.data = "203";
      request.cas = cas;
      break;
    case Op::kIncr:
      request.delta = 5;
      break;
    case Op::kDecr:
      request.delta = 7;
      break;
    case Op::kTouch:
      request.exptime = 500;
      break;
    default:
      break;
  }
  return request;
}

// Stores every cell key in its target state. Live and expired items are
// stored after the flush deadline passed, so only the "flushed" keys die
// to it (memcached's oldest_live rule).
void Prepare(CacheEngine& engine, std::int64_t* flush_deadline) {
  for (const OpSpec& spec : kOps) {
    ASSERT_EQ(engine.Set(CellKey("flushed", spec.name), "100", 5, 0),
              StoreResult::kStored);
  }
  const std::int64_t armed_at = NowSeconds();
  engine.FlushAll(1);
  *flush_deadline = armed_at + 1;
}

void FinishPrepare(CacheEngine& engine) {
  for (const OpSpec& spec : kOps) {
    ASSERT_EQ(engine.Set(CellKey("live", spec.name), "100", 5, 0),
              StoreResult::kStored);
    ASSERT_EQ(engine.Set(CellKey("expired", spec.name), "100", 5, -1),
              StoreResult::kStored);
  }
}

TEST(ConformanceMatrix, EveryOpAgreesOnEveryItemState) {
  EngineConfig config;
  config.shards = 4;
  LockedEngine locked{EngineConfig{}};
  RpEngine rp_engine(config);

  std::int64_t deadline_a = 0;
  std::int64_t deadline_b = 0;
  Prepare(locked, &deadline_a);
  Prepare(rp_engine, &deadline_b);

  // Let the delayed flush deadline pass (+1s of slack so items stored next
  // land strictly after it and survive).
  const std::int64_t resume_at = std::max(deadline_a, deadline_b) + 1;
  while (NowSeconds() < resume_at) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  FinishPrepare(locked);
  FinishPrepare(rp_engine);

  for (const OpSpec& spec : kOps) {
    for (const char* state : kStates) {
      const std::string key = CellKey(state, spec.name);
      // cas wants the current value's cas token, which is engine-local.
      const Request locked_request =
          BuildRequest(spec, key, FetchCas(locked, key));
      const Request rp_request =
          BuildRequest(spec, key, FetchCas(rp_engine, key));

      const std::string locked_response = Execute(locked, locked_request);
      const std::string rp_response = Execute(rp_engine, rp_request);
      EXPECT_EQ(NormalizeCas(locked_response), NormalizeCas(rp_response))
          << spec.name << " on " << state << " item";

      if (spec.op == Op::kCas && std::string(state) != "live") {
        // memcached 1.6: cas on an expired or flushed (dead-but-present)
        // item is NOT_FOUND, never EXISTS.
        EXPECT_EQ(locked_response, kResponseNotFound)
            << "locked cas on " << state;
        EXPECT_EQ(rp_response, kResponseNotFound) << "rp cas on " << state;
      }

      // The states the op left behind must agree too.
      Request follow_up;
      follow_up.op = Op::kGet;
      follow_up.keys = {key};
      EXPECT_EQ(Execute(locked, follow_up), Execute(rp_engine, follow_up))
          << "post-" << spec.name << " state on " << state << " item";
    }
  }
}

// The same op × item-state matrix for the storage commands plus delete,
// run two ways on twin instances: every cell alone (EngineHandler::
// ExecuteStores with count 1 — a lone store is a one-op StoreMany) and all
// cells as one pipelined ExecuteStoreBatch burst. The transcripts must be
// byte-identical within each engine and across engines, and so must the
// counters and the state each op leaves behind. Two inputs: an uncapped
// engine whose burst spans several shard groups, and a capped one-shard
// engine whose cells' slab class is dry — the arena is already full of
// other classes' pages, so every cell payload takes the exhaustion path
// (the heap fallback) on both instances.

// Buckets per shard table. The RP maintenance crawler walks 8 buckets per
// tick from bucket 0 and reclaims dead items it meets, which would make
// the expired/flushed cells' counters depend on thread timing. At ~100
// ticks/s it needs tens of seconds to reach kCrawlHorizon, and every key
// the sweep stores is placed beyond it.
constexpr std::size_t kSweepShardBuckets = std::size_t{1} << 18;
constexpr std::size_t kCrawlHorizon = std::size_t{1} << 14;

EngineConfig SweepConfig(std::size_t shards, std::size_t max_bytes) {
  EngineConfig config;
  config.shards = shards;
  config.initial_buckets = kSweepShardBuckets * shards;
  config.max_bytes = max_bytes;
  return config;
}

// First "<base>-<n>" whose table bucket (the hash's low bits, whichever
// shard owns it) lies beyond kCrawlHorizon.
std::string BeyondCrawl(const std::string& base) {
  for (int n = 0;; ++n) {
    std::string key = base + "-" + std::to_string(n);
    const std::size_t bucket =
        rp::core::MixedHash<std::string>{}(key) & (kSweepShardBuckets - 1);
    if (bucket >= kCrawlHorizon) {
      return key;
    }
  }
}

std::string SweepKey(const char* state, const char* op) {
  return BeyondCrawl(CellKey(state, op));
}

// Carves every page of a one-shard engine's value arena with one live item
// of a distinct class (each page stays pinned, so automove cannot hand one
// to another class), leaving no room for the cells' class. A probe
// allocator with the engine's own slab policy replays the same
// allocations to prove it. The fillers die to the sweep's delayed flush
// like the flushed cells, but nothing reclaims them, so their pages stay
// pinned.
void FillArenaAroundCellClass(CacheEngine& engine, const EngineConfig& config,
                              std::size_t cell_size) {
  SlabAllocator probe(SlabPolicyFor(config, 1));
  int filler = 0;
  for (std::size_t size = 3000; size > cell_size; size = size * 4 / 5) {
    if (probe.HasChunksOf(size) || !probe.HasAvailable(size)) {
      continue;  // class already carved, or no room left for one chunk
    }
    probe.Allocate(size);
    ASSERT_EQ(engine.Add(BeyondCrawl("filler-" + std::to_string(filler++)),
                         std::string(size, 'f'), 0, 0),
              StoreResult::kStored);
  }
  ASSERT_FALSE(probe.HasAvailable(cell_size));
  ASSERT_FALSE(probe.HasChunksOf(cell_size));
}

void ExpectSingletonAndPipelinedStoresAgree(const EngineConfig& config,
                                            bool dry_cell_class) {
  const OpSpec kSweepOps[] = {
      {"set", Op::kSet},         {"add", Op::kAdd},
      {"replace", Op::kReplace}, {"append", Op::kAppend},
      {"prepend", Op::kPrepend}, {"cas", Op::kCas},
      {"delete", Op::kDelete},
  };
  LockedEngine locked_single(config);
  LockedEngine locked_piped(config);
  RpEngine rp_single(config);
  RpEngine rp_piped(config);
  CacheEngine* engines[] = {&locked_single, &locked_piped, &rp_single,
                            &rp_piped};

  for (CacheEngine* engine : engines) {
    if (dry_cell_class) {
      FillArenaAroundCellClass(*engine, config, 4);  // "100" + "9", at most
    }
    for (const OpSpec& spec : kSweepOps) {
      ASSERT_EQ(engine->Set(SweepKey("flushed", spec.name), "100", 5, 0),
                StoreResult::kStored);
    }
  }
  const std::int64_t armed_at = NowSeconds();
  for (CacheEngine* engine : engines) {
    engine->FlushAll(1);
  }
  while (NowSeconds() < armed_at + 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  for (CacheEngine* engine : engines) {
    for (const OpSpec& spec : kSweepOps) {
      ASSERT_EQ(engine->Set(SweepKey("live", spec.name), "100", 5, 0),
                StoreResult::kStored);
      ASSERT_EQ(engine->Set(SweepKey("expired", spec.name), "100", 5, -1),
                StoreResult::kStored);
    }
  }

  // Requests per engine (cas tokens are engine-local). Only live cells
  // fetch theirs: a gets on a dead cell would reclaim it first.
  auto build = [&](CacheEngine& engine) {
    std::vector<Request> requests;
    for (const char* state : kStates) {
      for (const OpSpec& spec : kSweepOps) {
        const std::string key = SweepKey(state, spec.name);
        const bool live = std::string(state) == "live";
        requests.push_back(
            BuildRequest(spec, key, live ? FetchCas(engine, key) : 42));
      }
    }
    return requests;
  };
  auto run_singly = [&](CacheEngine& engine) {
    EngineHandler handler(engine);
    std::string out;
    for (const Request& request : build(engine)) {
      handler.ExecuteStores(&request, 1, &out);
    }
    return out;
  };
  auto run_piped = [&](CacheEngine& engine) {
    const std::vector<Request> burst = build(engine);
    std::string out;
    ExecuteStoreBatch(engine, burst.data(), burst.size(), &out);
    return out;
  };
  const std::string locked_single_out = run_singly(locked_single);
  const std::string locked_piped_out = run_piped(locked_piped);
  const std::string rp_single_out = run_singly(rp_single);
  const std::string rp_piped_out = run_piped(rp_piped);

  // Storage responses carry no cas token, so the transcripts compare
  // byte-for-byte within each engine and across them.
  EXPECT_EQ(locked_single_out, locked_piped_out);
  EXPECT_EQ(rp_single_out, rp_piped_out);
  EXPECT_EQ(locked_single_out, rp_single_out);

  const std::pair<CacheEngine*, CacheEngine*> twins[] = {
      {&locked_single, &locked_piped}, {&rp_single, &rp_piped}};
  for (const auto& [single, piped] : twins) {
    const EngineStats a = single->Stats();
    const EngineStats b = piped->Stats();
    const std::string name = single->Name();
    EXPECT_EQ(a.sets, b.sets) << name;
    EXPECT_EQ(a.evictions, b.evictions) << name;
    EXPECT_EQ(a.expired_reclaims, b.expired_reclaims) << name;
    EXPECT_EQ(a.total_items, b.total_items) << name;
    EXPECT_EQ(a.bytes, b.bytes) << name;
    EXPECT_EQ(a.bytes_wasted, b.bytes_wasted) << name;
    EXPECT_EQ(a.slab_fallbacks, b.slab_fallbacks) << name;
    if (dry_cell_class) {
      EXPECT_GT(a.slab_fallbacks, 0u) << name;  // the dry class was hit
    }
    // The crawler never touched a swept key (see kCrawlHorizon).
    EXPECT_EQ(a.crawler_reclaims, 0u) << name;
    EXPECT_EQ(b.crawler_reclaims, 0u) << name;
  }

  // The state left behind agrees on all four instances.
  for (const char* state : kStates) {
    for (const OpSpec& spec : kSweepOps) {
      Request follow_up;
      follow_up.op = Op::kGet;
      follow_up.keys = {SweepKey(state, spec.name)};
      const std::string expected = Execute(locked_single, follow_up);
      for (CacheEngine* engine : {static_cast<CacheEngine*>(&locked_piped),
                                  static_cast<CacheEngine*>(&rp_single),
                                  static_cast<CacheEngine*>(&rp_piped)}) {
        EXPECT_EQ(Execute(*engine, follow_up), expected)
            << "post-" << spec.name << " state on " << state << " item";
      }
    }
  }
}

TEST(ConformanceMatrix, SingletonAndPipelinedStoresAgreeOnEveryItemState) {
  {
    SCOPED_TRACE("uncapped, four shard groups");
    ExpectSingletonAndPipelinedStoresAgree(SweepConfig(4, 0), false);
  }
  {
    SCOPED_TRACE("capped, cells' slab class dry");
    ExpectSingletonAndPipelinedStoresAgree(SweepConfig(1, 32 * 1024), true);
  }
}

// The RP engine's StoreMany combines a SET into the next SET of the same
// key in its batch, with no switch to turn that off. So each burst below
// repeats stores to one initially absent key and must leave exactly the
// state its ops leave when run one at a time: on the RP engine (per-op
// StoreMany calls never combine), and on the locked engine (which never
// combines at all). Every op but the first SET depends on the key being
// present, so folding the first SET into anything but a later SET changes
// its answer. On the capped engine every new key evicts one filler, which
// pins the evictions and the byte gauge to the per-op path too.
void ExpectCombinedBurstsMatchPerOpExecution(const EngineConfig& config,
                                             int fillers) {
  struct BurstOp {
    Op op;
    std::size_t size;  // payload bytes; 0 for delete
  };
  // Sizes cross the 256-byte embed boundary and change between SETs, so
  // a combined SET that left its own value behind would show in `bytes`.
  const std::vector<std::vector<BurstOp>> kBursts = {
      {{Op::kSet, 3}, {Op::kSet, 300}},
      {{Op::kSet, 300}, {Op::kSet, 17}, {Op::kSet, 5}},
      {{Op::kSet, 3}, {Op::kAppend, 2}, {Op::kSet, 7}},
      {{Op::kSet, 3}, {Op::kCas, 4}, {Op::kSet, 7}},
      {{Op::kSet, 3}, {Op::kDelete, 0}, {Op::kSet, 7}},
      {{Op::kSet, 3}, {Op::kAdd, 4}, {Op::kSet, 300}},
  };
  // One request list for every engine: the cas token never matches (the
  // key's cas is whatever its SET drew), so cas answers EXISTS only while
  // the burst's first SET has landed, and NOT_FOUND otherwise.
  std::vector<std::vector<Request>> bursts;
  std::vector<std::string> keys;
  for (std::size_t b = 0; b < kBursts.size(); ++b) {
    keys.push_back("burst-" + std::to_string(b));
    std::vector<Request> burst;
    for (std::size_t i = 0; i < kBursts[b].size(); ++i) {
      Request request;
      request.op = kBursts[b][i].op;
      request.keys = {keys.back()};
      request.flags = static_cast<std::uint32_t>(i + 1);
      request.data.assign(kBursts[b][i].size, static_cast<char>('a' + i));
      request.cas = 999999;
      burst.push_back(std::move(request));
    }
    bursts.push_back(std::move(burst));
  }

  RpEngine rp_piped(config);
  RpEngine rp_single(config);
  LockedEngine locked(config);
  CacheEngine* engines[] = {&rp_piped, &rp_single, &locked};
  for (int f = 0; f < fillers; ++f) {
    keys.push_back("filler-" + std::to_string(f));
    for (CacheEngine* engine : engines) {
      ASSERT_EQ(engine->Set(keys.back(), "f", 0, 0), StoreResult::kStored);
    }
  }

  std::string piped_out;
  std::string single_out;
  std::string locked_out;
  for (const std::vector<Request>& burst : bursts) {
    ExecuteStoreBatch(rp_piped, burst.data(), burst.size(), &piped_out);
    ExecuteStoreBatch(locked, burst.data(), burst.size(), &locked_out);
    for (const Request& request : burst) {
      ExecuteStoreBatch(rp_single, &request, 1, &single_out);
    }
  }
  EXPECT_EQ(piped_out, single_out);
  EXPECT_EQ(piped_out, locked_out);
  // The three SET-SET pairs (one in burst 0, two in burst 1) combined.
  EXPECT_EQ(rp_piped.Stats().set_combines, 3u);
  EXPECT_EQ(rp_single.Stats().set_combines, 0u);

  const EngineStats piped = rp_piped.Stats();
  for (CacheEngine* engine : {static_cast<CacheEngine*>(&rp_single),
                              static_cast<CacheEngine*>(&locked)}) {
    const EngineStats other = engine->Stats();
    const std::string name = engine->Name();
    EXPECT_EQ(piped.sets, other.sets) << name;
    EXPECT_EQ(piped.total_items, other.total_items) << name;
    EXPECT_EQ(piped.bytes, other.bytes) << name;
    EXPECT_EQ(piped.evictions, other.evictions) << name;
  }
  if (fillers != 0) {
    EXPECT_GT(piped.evictions, 0u);
  }

  for (const std::string& key : keys) {
    Request follow_up;
    follow_up.op = Op::kGet;
    follow_up.keys = {key};
    const std::string expected = Execute(locked, follow_up);
    EXPECT_EQ(Execute(rp_piped, follow_up), expected) << key;
    EXPECT_EQ(Execute(rp_single, follow_up), expected) << key;
  }
}

TEST(ConformanceMatrix, CombinedSetBurstsMatchPerOpExecution) {
  {
    SCOPED_TRACE("uncapped, four shards");
    EngineConfig config;
    config.shards = 4;
    ExpectCombinedBurstsMatchPerOpExecution(config, 0);
  }
  {
    SCOPED_TRACE("capped at 8 items, one shard");
    EngineConfig config;
    config.shards = 1;
    config.max_items = 8;
    ExpectCombinedBurstsMatchPerOpExecution(config, 8);
  }
}

// ---- Meta-command matrix ----------------------------------------------------
//
// The meta family (mg/ms/md/ma) runs the same item-state sweep: every op is
// parsed from its real wire form and dispatched through ExecuteRequest (the
// singleton path routes into the same batched ExecuteMetaGetBatch /
// ExecuteStoreBatch code the pipelined connection uses), and the locked and
// RP transcripts must match byte-for-byte — q suppression and opaque echo
// included. Deliberately absent from the byte-compared requests: `c` (cas
// values are engine-local) and `l` (seconds-since-access can race a
// wall-clock second boundary). `t` is safe because live cells are stored
// with exptime 0, which reads back as the constant t-1.
struct MetaOpSpec {
  const char* name;
  // %KEY% / %CAS% are substituted per cell; ms data blocks ride along.
  const char* wire;
};

const MetaOpSpec kMetaOps[] = {
    {"mg", "mg %KEY% v f t k O7\r\n"},
    {"mg_q", "mg %KEY% v q\r\n"},
    {"mg_h", "mg %KEY% h k\r\n"},
    {"ms", "ms %KEY% 3 T0 F9\r\n201\r\n"},
    {"ms_q", "ms %KEY% 3 q Oab\r\n202\r\n"},
    {"ms_add", "ms %KEY% 3 ME\r\n203\r\n"},
    {"ms_cas", "ms %KEY% 3 C%CAS%\r\n204\r\n"},
    {"md", "md %KEY%\r\n"},
    {"md_q", "md %KEY% q Oz\r\n"},
    {"ma", "ma %KEY% v\r\n"},
    {"ma_q", "ma %KEY% q Ok\r\n"},
};

std::string Substitute(std::string wire, const std::string& token,
                       const std::string& value) {
  for (std::size_t at = wire.find(token); at != std::string::npos;
       at = wire.find(token)) {
    wire.replace(at, token.size(), value);
  }
  return wire;
}

Request ParseWire(const std::string& wire) {
  RequestParser parser;
  parser.Feed(wire);
  Request request;
  EXPECT_EQ(parser.Next(&request), ParseStatus::kOk)
      << wire << ": " << parser.error_message();
  return request;
}

Request BuildMetaRequest(const MetaOpSpec& spec, const std::string& key,
                         std::uint64_t cas) {
  return ParseWire(Substitute(Substitute(spec.wire, "%KEY%", key), "%CAS%",
                              std::to_string(cas)));
}

void PrepareMeta(CacheEngine& engine, std::int64_t* flush_deadline) {
  for (const MetaOpSpec& spec : kMetaOps) {
    ASSERT_EQ(engine.Set(CellKey("flushed", spec.name), "100", 5, 0),
              StoreResult::kStored);
  }
  const std::int64_t armed_at = NowSeconds();
  engine.FlushAll(1);
  *flush_deadline = armed_at + 1;
}

void FinishPrepareMeta(CacheEngine& engine) {
  for (const MetaOpSpec& spec : kMetaOps) {
    ASSERT_EQ(engine.Set(CellKey("live", spec.name), "100", 5, 0),
              StoreResult::kStored);
    ASSERT_EQ(engine.Set(CellKey("expired", spec.name), "100", 5, -1),
              StoreResult::kStored);
  }
}

TEST(ConformanceMatrix, MetaOpsAgreeOnEveryItemState) {
  EngineConfig config;
  config.shards = 4;
  LockedEngine locked{EngineConfig{}};
  RpEngine rp_engine(config);

  std::int64_t deadline_a = 0;
  std::int64_t deadline_b = 0;
  PrepareMeta(locked, &deadline_a);
  PrepareMeta(rp_engine, &deadline_b);
  const std::int64_t resume_at = std::max(deadline_a, deadline_b) + 1;
  while (NowSeconds() < resume_at) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  FinishPrepareMeta(locked);
  FinishPrepareMeta(rp_engine);

  for (const MetaOpSpec& spec : kMetaOps) {
    for (const char* state : kStates) {
      const std::string key = CellKey(state, spec.name);
      const Request locked_request =
          BuildMetaRequest(spec, key, FetchCas(locked, key));
      const Request rp_request =
          BuildMetaRequest(spec, key, FetchCas(rp_engine, key));

      EXPECT_EQ(Execute(locked, locked_request), Execute(rp_engine, rp_request))
          << spec.name << " on " << state << " item";

      // The state each meta op left behind must agree too.
      Request follow_up;
      follow_up.op = Op::kGet;
      follow_up.keys = {key};
      EXPECT_EQ(Execute(locked, follow_up), Execute(rp_engine, follow_up))
          << "post-" << spec.name << " state on " << state << " item";
    }
  }
}

// Meta stores and their classic spellings must leave byte-identical cache
// state: a client mixing `ms`/`md`/`ma` with `set`/`delete`/`incr` (or two
// clients speaking different dialects at the same server) may never observe
// a difference. Each pair runs on its own fresh engine instance, then every
// key's classic `get` answer — flags and data included, so the F<flags>
// mapping is covered — is compared across all four instances.
TEST(ConformanceMatrix, MetaAndClassicStoresLeaveIdenticalState) {
  EngineConfig rp_config;
  rp_config.shards = 4;
  LockedEngine locked_meta{EngineConfig{}};
  LockedEngine locked_classic{EngineConfig{}};
  RpEngine rp_meta(rp_config);
  RpEngine rp_classic(rp_config);

  struct Pair {
    const char* key;
    const char* prior;  // nullptr = key starts absent
    const char* meta_wire;
    const char* classic_wire;
  };
  const Pair kPairs[] = {
      {"k-set", nullptr, "ms k-set 3 F7 T0\r\nabc\r\n", "set k-set 7 0 3\r\nabc\r\n"},
      {"k-over", "old", "ms k-over 3 q\r\nnew\r\n", "set k-over 0 0 3 noreply\r\nnew\r\n"},
      {"k-add", nullptr, "ms k-add 2 ME\r\nhi\r\n", "add k-add 0 0 2\r\nhi\r\n"},
      {"k-app", "base", "ms k-app 1 MA\r\nZ\r\n", "append k-app 0 0 1\r\nZ\r\n"},
      {"k-prep", "base", "ms k-prep 1 MP\r\nA\r\n", "prepend k-prep 0 0 1\r\nA\r\n"},
      {"k-repl", "old", "ms k-repl 3 MR\r\nnew\r\n", "replace k-repl 0 0 3\r\nnew\r\n"},
      {"k-del", "gone", "md k-del\r\n", "delete k-del\r\n"},
      {"k-incr", "10", "ma k-incr D5\r\n", "incr k-incr 5\r\n"},
      {"k-decr", "10", "ma k-decr MD D3\r\n", "decr k-decr 3\r\n"},
  };

  CacheEngine* metas[] = {&locked_meta, &rp_meta};
  CacheEngine* classics[] = {&locked_classic, &rp_classic};
  CacheEngine* all[] = {&locked_meta, &locked_classic, &rp_meta, &rp_classic};
  for (const Pair& pair : kPairs) {
    if (pair.prior != nullptr) {
      for (CacheEngine* engine : all) {
        ASSERT_EQ(engine->Set(pair.key, pair.prior, 0, 0),
                  StoreResult::kStored);
      }
    }
    for (CacheEngine* engine : metas) {
      Execute(*engine, ParseWire(pair.meta_wire));
    }
    for (CacheEngine* engine : classics) {
      Execute(*engine, ParseWire(pair.classic_wire));
    }
    Request follow_up;
    follow_up.op = Op::kGet;
    follow_up.keys = {pair.key};
    const std::string expected = Execute(locked_meta, follow_up);
    for (CacheEngine* engine : all) {
      EXPECT_EQ(Execute(*engine, follow_up), expected)
          << pair.key << " diverged";
    }
  }
}

}  // namespace
