// memcached text-protocol codec.
//
// Incremental parser: feed raw bytes (as they arrive from a socket), pull
// complete requests out. Storage commands carry a data block whose length
// comes from the command line, so the parser is a two-state machine
// (command line → data block). Response formatting helpers live here too so
// the server and the in-process workload driver share one codec.
#ifndef RP_MEMCACHE_PROTOCOL_H_
#define RP_MEMCACHE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/memcache/engine.h"  // StoreResult/ArithResult wire mapping
#include "src/memcache/item.h"

namespace rp::memcache {

enum class Op {
  kGet,       // get <key>+
  kGets,      // gets <key>+  (returns cas)
  kSet,
  kAdd,
  kReplace,
  kAppend,
  kPrepend,
  kCas,
  kDelete,
  kIncr,
  kDecr,
  kTouch,
  kFlushAll,
  kVersion,
  kStats,
  kQuit,
  kMetaGet,     // mg <key> <flags>*
  kMetaSet,     // ms <key> <datalen> <flags>*\r\n<data>\r\n
  kMetaDelete,  // md <key> <flags>*
  kMetaArith,   // ma <key> <flags>*
  kMetaNoop,    // mn — pipeline barrier, always answers MN
};

// True for the four meta commands that carry flags (mn excluded).
constexpr bool IsMetaOp(Op op) {
  return op == Op::kMetaGet || op == Op::kMetaSet || op == Op::kMetaDelete ||
         op == Op::kMetaArith;
}

// Parsed meta-command flags. Numeric flag arguments that map onto classic
// request fields land there (T<ttl> → Request::exptime, C<cas> →
// Request::cas, F<flags> → Request::flags, D<delta> → Request::delta) so
// the store/arith execution paths are shared with the classic commands;
// this struct holds what is meta-only.
struct MetaFlags {
  bool want_value = false;        // v: return the value (VA instead of HD)
  bool want_flags = false;        // f: return client flags
  bool want_ttl = false;          // t: return remaining TTL (-1 = forever)
  bool want_last_access = false;  // l: return seconds since last access
  bool want_hit = false;          // h: return 0/1 fetched-since-stored
  bool want_cas = false;          // c: return item cas
  bool want_key = false;          // k: echo the key
  bool quiet = false;             // q: suppress EN (mg) / bare HD (ms/md/ma)
  bool has_opaque = false;        // O<token>: echoed verbatim
  std::string opaque;
  bool has_vivify = false;        // N<ttl>: autovivify on miss (mg/ma)
  std::int64_t vivify_ttl = 0;
  bool has_exptime = false;       // T<ttl> was present (value in exptime)
  bool has_cas_compare = false;   // C<cas> was present (value in cas)
  bool has_init = false;          // J<init>: ma autovivify seed value
  std::uint64_t init_value = 0;
  char mode = 0;                  // M<mode>: ms S/E/A/P/R, ma I/+/D/-
};

struct Request {
  Op op = Op::kGet;
  std::vector<std::string> keys;  // 1+ for get/gets; exactly 1 otherwise
  std::string data;               // storage commands' data block
  std::uint32_t flags = 0;
  std::int64_t exptime = 0;       // storage/touch exptime; flush_all delay
  std::uint64_t delta = 0;        // incr/decr
  std::uint64_t cas = 0;          // cas command
  bool noreply = false;
  MetaFlags meta;                 // meta commands only
};

// Protocol key validity, shared by the classic and meta parsers: non-empty,
// at most kMaxKeyLength (250) bytes, no whitespace or control characters
// (0x00-0x20 and 0x7F). Bytes >= 0x80 are allowed, so UTF-8 keys are
// valid, as in memcached.
// Invalid keys answer CLIENT_ERROR at the parse layer so no engine ever
// sees one.
bool IsValidKey(std::string_view key);

enum class ParseStatus {
  kOk,        // a complete request was produced
  kNeedMore,  // buffer holds only a partial request
  kError,     // protocol error; error_message says why
};

class RequestParser {
 public:
  // Appends raw bytes to the internal buffer.
  void Feed(std::string_view bytes);

  // Attempts to extract the next complete request.
  ParseStatus Next(Request* out);

  const std::string& error_message() const { return error_; }

  // Bytes buffered but not yet consumed (diagnostics / backpressure).
  std::size_t buffered_bytes() const { return buffer_.size() - consumed_; }

  // Protocol limits (from the memcached protocol spec).
  static constexpr std::size_t kMaxKeyLength = 250;
  static constexpr std::size_t kMaxValueLength = 1024 * 1024;
  static constexpr std::size_t kMaxOpaqueLength = 32;  // meta O<token>
  // Longest command line, \r\n excluded: memcached's 2048 bytes. The limit
  // applies to the line, whether or not its \r\n has arrived yet, so a
  // request parses the same however the stream is split.
  static constexpr std::size_t kMaxLineLength = 2048;
  // get/gets/gat/gats lines carry many keys, so memcached reads them past
  // kMaxLineLength; this bound holds kMaxRetrievalKeys maximum-length keys
  // plus the command and a gat exptime.
  static constexpr std::size_t kMaxRetrievalKeys = 256;
  static constexpr std::size_t kMaxRetrievalLineLength = 64 * 1024;
  static_assert(kMaxRetrievalLineLength >=
                    std::string_view("gats ").size() + 21 +
                        kMaxRetrievalKeys * (kMaxKeyLength + 1),
                "a retrieval line must fit kMaxRetrievalKeys keys");

 private:
  enum class State { kCommandLine, kDataBlock };

  ParseStatus ParseCommandLine(std::string_view line, Request* out);
  // mg/ms/md/ma: key, then (for ms) the datalen, then the flag tokens.
  ParseStatus ParseMetaCommand(std::string_view cmd,
                               const std::vector<std::string_view>& tokens,
                               Request* out);
  // Records the error. With resync=true, additionally skips the buffer
  // forward to the next line boundary — needed when the failure happened
  // mid-stream (bad data chunk, overlong line); command-line failures have
  // already consumed their line and must not eat the following one. When
  // the boundary has not arrived yet, the skip continues as bytes do.
  ParseStatus Fail(std::string message, bool resync);
  // Discards input through the next \r\n. Returns false, and keeps
  // skipping on later calls, when the buffer holds no \r\n yet.
  bool SkipLine();
  void Compact();

  std::string buffer_;
  std::size_t consumed_ = 0;
  State state_ = State::kCommandLine;
  bool skipping_line_ = false;  // Fail(resync) is waiting for a \r\n
  Request pending_;          // storage command awaiting its data block
  std::size_t data_needed_ = 0;
  std::string error_;
};

// -- Request re-serialization -------------------------------------------------
//
// Re-encodes a parsed request into wire form — the cluster proxy's
// forwarding serializer. With strip_quiet, classic noreply and the meta q
// flag are dropped so every forwarded request draws a framable response
// (the proxy re-applies the suppression client-side). The bytes are
// semantically identical to the original request but not necessarily
// byte-identical: flag tokens come out in canonical order and parser
// defaults (ms F0, ma D1) are spelled out.
void AppendRequestWire(std::string* out, const Request& request,
                       bool strip_quiet);

// -- Response assembly --------------------------------------------------------
//
// The hot path appends straight into the connection's output buffer: fixed
// responses are string_view constants (one memcpy, no temporary strings),
// numbers go through std::to_chars into a stack buffer.

inline constexpr std::string_view kResponseEnd = "END\r\n";
inline constexpr std::string_view kResponseStored = "STORED\r\n";
inline constexpr std::string_view kResponseNotStored = "NOT_STORED\r\n";
inline constexpr std::string_view kResponseExists = "EXISTS\r\n";
inline constexpr std::string_view kResponseNotFound = "NOT_FOUND\r\n";
inline constexpr std::string_view kResponseDeleted = "DELETED\r\n";
inline constexpr std::string_view kResponseTouched = "TOUCHED\r\n";
inline constexpr std::string_view kResponseOk = "OK\r\n";
inline constexpr std::string_view kResponseMetaNoop = "MN\r\n";

// What `version` answers. The engines and the cluster proxy answer it
// alike, so direct and proxied transcripts stay byte-identical.
inline constexpr std::string_view kServerVersion = "rp-memcache 1.0";

// Protocol-mandated wording for incr/decr on a non-numeric value.
inline constexpr std::string_view kNonNumericMessage =
    "cannot increment or decrement non-numeric value";

// VALUE <key> <flags> <bytes> [<cas>]\r\n<data>\r\n
void AppendValueResponse(std::string* out, std::string_view key,
                         std::string_view data, std::uint32_t flags,
                         std::uint64_t cas, bool with_cas);
void AppendNumberResponse(std::string* out, std::uint64_t n);
void AppendClientError(std::string* out, std::string_view message);
void AppendServerError(std::string* out, std::string_view message);
void AppendVersionResponse(std::string* out, std::string_view version);
// STAT <name> <value>\r\n
void AppendStat(std::string* out, std::string_view name, std::string_view value);
void AppendStat(std::string* out, std::string_view name, std::uint64_t value);

// -- Meta response assembly ---------------------------------------------------
//
// Result lines carry the response flags the request asked for, always in
// the fixed order f t l h c k O (memcached echoes them in request order;
// see the audited-divergences list in docs/PROTOCOL.md). The value for a
// hit arrives as a string_view — on the batched mg path that view points
// into the connection's scratch region, so the only copy is the append
// into the output buffer itself.

// mg response: hit → "VA <size> <flags>*\r\n<data>\r\n" (with v) or
// "HD <flags>*\r\n"; miss → "EN <flags>*\r\n" (k/O only), suppressed
// entirely under q. `now` anchors the t (remaining TTL) and l (seconds
// since last access) response flags.
void AppendMetaGetResponse(std::string* out, std::string_view key,
                           const Request& request,
                           const ScratchGetResult& result,
                           std::string_view value, std::int64_t now);

// ms/md response over the engine's StoreResult: kStored → HD (suppressed
// under q), kNotStored → NS, kExists → EX, kNotFound → NF; failures are
// never suppressed. Echoes k/O flags.
void AppendMetaStoreResponse(std::string* out, std::string_view key,
                             const Request& request, StoreResult result);

// ma response: success → "HD\r\n" (suppressed under q) or, with v,
// "VA <size> <flags>*\r\n<value>\r\n" carrying the post-op number; miss →
// NF; non-numeric value → CLIENT_ERROR (protocol wording).
void AppendMetaArithResponse(std::string* out, std::string_view key,
                             const Request& request, const ArithResult& result);

}  // namespace rp::memcache

#endif  // RP_MEMCACHE_PROTOCOL_H_
