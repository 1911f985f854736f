#include "perfbench/src/trace.h"

#include <memory>
#include <mutex>

#include "perfbench/src/util.h"

namespace pb::trace {

namespace {

struct Record {
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::uint64_t child_ns;
  std::uint32_t items;
  std::uint16_t kind;
};

// Per-thread append-only span log. The owning thread writes a record and
// then publishes the new count with release; the reporting thread reads
// the count with acquire and only the records below it, so no record is
// read while it is written. Chunks are allocated once and never moved.
class ThreadLog {
 public:
  static constexpr std::size_t kChunk = 1 << 14;
  static constexpr std::size_t kMaxChunks = 256;

  bool Append(const Record& r) {
    const std::size_t n = count_.load(std::memory_order_relaxed);
    const std::size_t c = n / kChunk;
    if (c >= kMaxChunks) {
      return false;
    }
    Record* chunk = chunks_[c].load(std::memory_order_relaxed);
    if (chunk == nullptr) {
      chunk = new Record[kChunk];
      owned_[c].reset(chunk);
      chunks_[c].store(chunk, std::memory_order_release);
    }
    chunk[n % kChunk] = r;
    count_.store(n + 1, std::memory_order_release);
    return true;
  }

  std::size_t Count() const { return count_.load(std::memory_order_acquire); }
  const Record& At(std::size_t i) const {
    return chunks_[i / kChunk].load(std::memory_order_acquire)[i % kChunk];
  }

  std::size_t mark = 0;  // touched only under the registry mutex

 private:
  std::atomic<std::size_t> count_{0};
  std::atomic<Record*> chunks_[kMaxChunks] = {};
  std::unique_ptr<Record[]> owned_[kMaxChunks];
};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadLog>> logs;
};

Registry& registry() {
  static Registry* r = new Registry();  // outlives every worker thread
  return *r;
}

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_dropped{0};

struct OpenSpan {
  std::uint64_t start_ns;
  std::uint64_t child_ns;
  std::uint32_t items;
  std::uint16_t kind;
};

constexpr int kMaxDepth = 8;
thread_local OpenSpan tls_stack[kMaxDepth];
thread_local int tls_depth = 0;
thread_local ThreadLog* tls_log = nullptr;

ThreadLog* Log() {
  if (tls_log == nullptr) {
    auto log = std::make_unique<ThreadLog>();
    tls_log = log.get();
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    log->mark = 0;
    r.logs.push_back(std::move(log));
  }
  return tls_log;
}

}  // namespace

const char* KindName(Kind kind) {
  static const char* const kNames[kKindCount] = {
      "handler.get",       "handler.mget",    "handler.set",
      "handler.other",     "handler.stores",  "handler.metagets",
      "proxy.get",         "proxy.mget",      "proxy.set",
      "proxy.other",       "proxy.stores",    "proxy.metagets",
      "engine.get",        "engine.getmany",  "engine.getmanyscratch",
      "engine.set",        "engine.storemany", "engine.other",
  };
  return kNames[kind];
}

void SetEnabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

Span::Span(Kind kind, std::uint32_t items)
    : active_(Enabled() && tls_depth < kMaxDepth) {
  if (active_) {
    tls_stack[tls_depth++] = OpenSpan{NowNs(), 0, items, kind};
  }
}

Span::~Span() {
  if (!active_) {
    return;
  }
  const std::uint64_t end = NowNs();
  const OpenSpan open = tls_stack[--tls_depth];
  const std::uint64_t duration = end - open.start_ns;
  if (tls_depth > 0) {
    tls_stack[tls_depth - 1].child_ns += duration;
  }
  if (!Log()->Append(Record{open.start_ns, end, open.child_ns, open.items,
                            open.kind})) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
  }
}

void Mark() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& log : r.logs) {
    log->mark = log->Count();
  }
}

std::vector<KindTotals> Collect() {
  std::vector<KindTotals> totals(kKindCount);
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& log : r.logs) {
    const std::size_t n = log->Count();
    for (std::size_t i = log->mark; i < n; ++i) {
      const Record& rec = log->At(i);
      KindTotals& t = totals[rec.kind];
      const std::uint64_t duration = rec.end_ns - rec.start_ns;
      ++t.calls;
      t.items += rec.items;
      t.total_ns += duration;
      t.self_ns += duration > rec.child_ns ? duration - rec.child_ns : 0;
    }
  }
  return totals;
}

std::uint64_t Dropped() { return g_dropped.load(std::memory_order_relaxed); }

}  // namespace pb::trace
