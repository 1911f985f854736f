// In-memory span recording for the traced run.
//
// A span is one call into a layer's public function: its kind, how many
// keys or ops it carried, its start and end, and how much of it nested
// child spans on the same thread covered. Spans append to per-thread
// buffers that are only read when the run reports; self time is a span's
// duration minus its children's. Recording is off unless SetEnabled(true).
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace pb::trace {

// Span kinds. Each request-handling layer has one family of six kinds.
enum Kind : std::uint16_t {
  kHandlerGet,
  kHandlerMGet,
  kHandlerSet,
  kHandlerOther,
  kHandlerStores,
  kHandlerMetaGets,
  kProxyGet,
  kProxyMGet,
  kProxySet,
  kProxyOther,
  kProxyStores,
  kProxyMetaGets,
  kEngineGet,
  kEngineGetMany,
  kEngineGetManyScratch,
  kEngineSet,
  kEngineStoreMany,
  kEngineOther,
  kKindCount,
};

// First kind of a handler family: get, mget, set, other, stores, metagets.
inline constexpr Kind kHandlerFamily = kHandlerGet;
inline constexpr Kind kProxyFamily = kProxyGet;

const char* KindName(Kind kind);

void SetEnabled(bool on);
bool Enabled();

// RAII span. Whether it records is decided once, at construction.
class Span {
 public:
  Span(Kind kind, std::uint32_t items);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_;
};

struct KindTotals {
  std::uint64_t calls = 0;
  std::uint64_t items = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

// Remembers how many spans every thread has so far; Collect() then folds
// only the spans recorded after the latest Mark().
void Mark();
std::vector<KindTotals> Collect();
// Spans dropped because a thread's buffer was full.
std::uint64_t Dropped();

}  // namespace pb::trace

#endif  // PERFBENCH_TRACE_H_
