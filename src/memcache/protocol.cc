#include "src/memcache/protocol.h"

#include <algorithm>
#include <charconv>
#include <cstring>

namespace rp::memcache {

namespace {

// Splits a command line into whitespace-separated tokens.
std::vector<std::string_view> Tokenize(std::string_view line) {
  std::vector<std::string_view> tokens;
  std::size_t pos = 0;
  while (pos < line.size()) {
    while (pos < line.size() && line[pos] == ' ') {
      ++pos;
    }
    const std::size_t start = pos;
    while (pos < line.size() && line[pos] != ' ') {
      ++pos;
    }
    if (pos > start) {
      tokens.push_back(line.substr(start, pos - start));
    }
  }
  return tokens;
}

// True when a command line of which `line` has arrived (all of it when
// `complete`) exceeds its command's length limit. The limit depends only on
// the first token, so a partial line is judged only once that token has
// ended; until then only the larger retrieval limit applies.
bool LineTooLong(std::string_view line, bool complete) {
  std::size_t known = line.size();
  if (!complete && !line.empty() && line.back() == '\r') {
    --known;  // may be the first half of the terminator
  }
  if (known <= RequestParser::kMaxLineLength) {
    return false;
  }
  std::size_t limit = RequestParser::kMaxRetrievalLineLength;
  const std::size_t start = std::min(line.find_first_not_of(' '), line.size());
  const std::size_t end = line.find(' ', start);
  if (complete || end != std::string_view::npos) {
    const std::string_view cmd = line.substr(start, end - start);
    if (cmd != "get" && cmd != "gets" && cmd != "gat" && cmd != "gats") {
      limit = RequestParser::kMaxLineLength;
    }
  }
  return known > limit;
}

template <typename Int>
bool ParseInt(std::string_view token, Int* out) {
  const char* first = token.data();
  const char* last = token.data() + token.size();
  auto [ptr, ec] = std::from_chars(first, last, *out);
  return ec == std::errc() && ptr == last;
}

}  // namespace

// One key validator for every parse path — the classic commands, the meta
// commands, and any hand-built request a test feeds through the codec —
// so an oversized or malformed key is always a CLIENT_ERROR at the parse
// layer, never an implicit engine-side behavior.
bool IsValidKey(std::string_view key) {
  if (key.empty() || key.size() > RequestParser::kMaxKeyLength) {
    return false;
  }
  for (char c : key) {
    if (c <= 0x20 || c == 0x7F) {  // no whitespace or control chars
      return false;
    }
  }
  return true;
}

void RequestParser::Feed(std::string_view bytes) {
  buffer_.append(bytes.data(), bytes.size());
}

void RequestParser::Compact() {
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
}

ParseStatus RequestParser::Fail(std::string message, bool resync) {
  error_ = std::move(message);
  state_ = State::kCommandLine;
  if (resync) {
    // Skip to the next line so a malformed stream doesn't wedge the parser.
    SkipLine();
  }
  Compact();
  return ParseStatus::kError;
}

bool RequestParser::SkipLine() {
  const std::size_t eol = buffer_.find("\r\n", consumed_);
  skipping_line_ = eol == std::string::npos;
  if (skipping_line_) {
    // Keep a trailing '\r': it may pair with the next byte fed.
    consumed_ = buffer_.size();
    if (consumed_ > 0 && buffer_.back() == '\r') {
      --consumed_;
    }
    return false;
  }
  consumed_ = eol + 2;
  return true;
}

ParseStatus RequestParser::Next(Request* out) {
  if (skipping_line_ && !SkipLine()) {
    Compact();
    return ParseStatus::kNeedMore;
  }
  if (state_ == State::kDataBlock) {
    // Need data_needed_ bytes plus the trailing \r\n.
    if (buffer_.size() - consumed_ < data_needed_ + 2) {
      return ParseStatus::kNeedMore;
    }
    pending_.data.assign(buffer_, consumed_, data_needed_);
    if (buffer_[consumed_ + data_needed_] != '\r' ||
        buffer_[consumed_ + data_needed_ + 1] != '\n') {
      consumed_ += data_needed_;
      return Fail("bad data chunk", /*resync=*/true);
    }
    consumed_ += data_needed_ + 2;
    state_ = State::kCommandLine;
    *out = std::move(pending_);
    pending_ = Request{};
    Compact();
    return ParseStatus::kOk;
  }

  const std::size_t eol = buffer_.find("\r\n", consumed_);
  const bool complete = eol != std::string::npos;
  const std::string_view line(buffer_.data() + consumed_,
                              (complete ? eol : buffer_.size()) - consumed_);
  if (LineTooLong(line, complete)) {
    return Fail("command line too long", /*resync=*/true);
  }
  if (!complete) {
    return ParseStatus::kNeedMore;
  }
  consumed_ = eol + 2;
  const ParseStatus status = ParseCommandLine(line, out);
  if (status != ParseStatus::kError) {
    Compact();
  }
  return status;
}

ParseStatus RequestParser::ParseCommandLine(std::string_view line, Request* out) {
  const std::vector<std::string_view> tokens = Tokenize(line);
  if (tokens.empty()) {
    return Fail("empty command", /*resync=*/false);
  }
  const std::string_view cmd = tokens[0];
  Request req;

  auto parse_storage = [&](Op op, bool with_cas) -> ParseStatus {
    // <cmd> <key> <flags> <exptime> <bytes> [<cas>] [noreply]
    const std::size_t expected = with_cas ? 6u : 5u;
    if (tokens.size() < expected || tokens.size() > expected + 1) {
      return Fail("bad storage command", /*resync=*/false);
    }
    if (!IsValidKey(tokens[1])) {
      return Fail("bad key", /*resync=*/false);
    }
    req.op = op;
    req.keys.emplace_back(tokens[1]);
    std::size_t bytes = 0;
    if (!ParseInt(tokens[2], &req.flags) || !ParseInt(tokens[3], &req.exptime) ||
        !ParseInt(tokens[4], &bytes)) {
      return Fail("bad storage arguments", /*resync=*/false);
    }
    if (bytes > kMaxValueLength) {
      return Fail("object too large for cache", /*resync=*/false);
    }
    std::size_t next_token = 5;
    if (with_cas) {
      if (!ParseInt(tokens[5], &req.cas)) {
        return Fail("bad cas value", /*resync=*/false);
      }
      next_token = 6;
    }
    if (tokens.size() == next_token + 1) {
      if (tokens[next_token] != "noreply") {
        return Fail("bad storage command", /*resync=*/false);
      }
      req.noreply = true;
    }
    pending_ = std::move(req);
    data_needed_ = bytes;
    state_ = State::kDataBlock;
    return Next(out);  // the data block may already be buffered
  };

  if (cmd == "get" || cmd == "gets") {
    if (tokens.size() < 2) {
      return Fail("get requires a key", /*resync=*/false);
    }
    req.op = cmd == "get" ? Op::kGet : Op::kGets;
    for (std::size_t i = 1; i < tokens.size(); ++i) {
      if (!IsValidKey(tokens[i])) {
        return Fail("bad key", /*resync=*/false);
      }
      req.keys.emplace_back(tokens[i]);
    }
    *out = std::move(req);
    return ParseStatus::kOk;
  }
  if (cmd == "set") {
    return parse_storage(Op::kSet, false);
  }
  if (cmd == "add") {
    return parse_storage(Op::kAdd, false);
  }
  if (cmd == "replace") {
    return parse_storage(Op::kReplace, false);
  }
  if (cmd == "append") {
    return parse_storage(Op::kAppend, false);
  }
  if (cmd == "prepend") {
    return parse_storage(Op::kPrepend, false);
  }
  if (cmd == "cas") {
    return parse_storage(Op::kCas, true);
  }
  if (cmd == "delete") {
    // delete <key> [noreply]
    if (tokens.size() < 2 || tokens.size() > 3 || !IsValidKey(tokens[1])) {
      return Fail("bad delete command", /*resync=*/false);
    }
    req.op = Op::kDelete;
    req.keys.emplace_back(tokens[1]);
    if (tokens.size() == 3) {
      if (tokens[2] != "noreply") {
        return Fail("bad delete command", /*resync=*/false);
      }
      req.noreply = true;
    }
    *out = std::move(req);
    return ParseStatus::kOk;
  }
  if (cmd == "incr" || cmd == "decr") {
    // incr <key> <delta> [noreply]
    if (tokens.size() < 3 || tokens.size() > 4 || !IsValidKey(tokens[1])) {
      return Fail("bad arithmetic command", /*resync=*/false);
    }
    req.op = cmd == "incr" ? Op::kIncr : Op::kDecr;
    req.keys.emplace_back(tokens[1]);
    if (!ParseInt(tokens[2], &req.delta)) {
      return Fail("invalid numeric delta argument", /*resync=*/false);
    }
    if (tokens.size() == 4) {
      if (tokens[3] != "noreply") {
        return Fail("bad arithmetic command", /*resync=*/false);
      }
      req.noreply = true;
    }
    *out = std::move(req);
    return ParseStatus::kOk;
  }
  if (cmd == "touch") {
    // touch <key> <exptime> [noreply]
    if (tokens.size() < 3 || tokens.size() > 4 || !IsValidKey(tokens[1])) {
      return Fail("bad touch command", /*resync=*/false);
    }
    req.op = Op::kTouch;
    req.keys.emplace_back(tokens[1]);
    if (!ParseInt(tokens[2], &req.exptime)) {
      return Fail("bad touch exptime", /*resync=*/false);
    }
    if (tokens.size() == 4) {
      if (tokens[3] != "noreply") {
        return Fail("bad touch command", /*resync=*/false);
      }
      req.noreply = true;
    }
    *out = std::move(req);
    return ParseStatus::kOk;
  }
  if (cmd == "flush_all") {
    // flush_all [delay] [noreply]: the optional delay postpones the flush;
    // items stored before the deadline expire once it passes.
    req.op = Op::kFlushAll;
    std::size_t next_token = 1;
    if (next_token < tokens.size() && tokens[next_token] != "noreply") {
      if (!ParseInt(tokens[next_token], &req.exptime) || req.exptime < 0) {
        return Fail("invalid flush_all delay", /*resync=*/false);
      }
      ++next_token;
    }
    if (next_token < tokens.size()) {
      if (tokens[next_token] != "noreply" || tokens.size() > next_token + 1) {
        return Fail("bad flush_all command", /*resync=*/false);
      }
      req.noreply = true;
    }
    *out = std::move(req);
    return ParseStatus::kOk;
  }
  if (cmd == "version") {
    req.op = Op::kVersion;
    *out = std::move(req);
    return ParseStatus::kOk;
  }
  if (cmd == "stats") {
    req.op = Op::kStats;
    *out = std::move(req);
    return ParseStatus::kOk;
  }
  if (cmd == "quit") {
    req.op = Op::kQuit;
    *out = std::move(req);
    return ParseStatus::kOk;
  }
  if (cmd == "mg" || cmd == "ms" || cmd == "md" || cmd == "ma") {
    return ParseMetaCommand(cmd, tokens, out);
  }
  if (cmd == "mn") {
    // Pipeline barrier: no key, no flags, always answers MN. Quiet runs
    // end with one so the client knows the whole run has been executed.
    if (tokens.size() != 1) {
      return Fail("bad mn command", /*resync=*/false);
    }
    req.op = Op::kMetaNoop;
    *out = std::move(req);
    return ParseStatus::kOk;
  }
  return Fail("unknown command", /*resync=*/false);
}

ParseStatus RequestParser::ParseMetaCommand(
    std::string_view cmd, const std::vector<std::string_view>& tokens,
    Request* out) {
  Request req;
  if (tokens.size() < 2) {
    return Fail("bad meta command", /*resync=*/false);
  }
  if (!IsValidKey(tokens[1])) {
    return Fail("bad key", /*resync=*/false);
  }
  req.keys.emplace_back(tokens[1]);

  // The flag alphabet each command accepts. Everything outside its set —
  // including memcached flags this server does not implement (base64
  // keys, invalidation, stampede control) — answers CLIENT_ERROR rather
  // than being silently ignored; docs/PROTOCOL.md lists the divergences.
  std::string_view allowed;
  std::size_t flag_start = 2;
  std::size_t bytes = 0;
  if (cmd == "mg") {
    req.op = Op::kMetaGet;
    allowed = "vftlhckqONT";
  } else if (cmd == "ms") {
    // ms <key> <datalen> <flags>*
    req.op = Op::kMetaSet;
    allowed = "qOkTCFM";
    if (tokens.size() < 3 || !ParseInt(tokens[2], &bytes)) {
      return Fail("bad ms datalen", /*resync=*/false);
    }
    if (bytes > kMaxValueLength) {
      return Fail("object too large for cache", /*resync=*/false);
    }
    flag_start = 3;
  } else if (cmd == "md") {
    req.op = Op::kMetaDelete;
    allowed = "qOk";
  } else {
    req.op = Op::kMetaArith;
    allowed = "qOkvNJDMT";
    req.delta = 1;  // ma default step; D<delta> overrides
  }

  MetaFlags& mf = req.meta;
  for (std::size_t i = flag_start; i < tokens.size(); ++i) {
    const std::string_view token = tokens[i];
    const char flag = token[0];
    const std::string_view arg = token.substr(1);
    if (allowed.find(flag) == std::string_view::npos) {
      return Fail("unsupported meta flag", /*resync=*/false);
    }
    bool ok = true;
    switch (flag) {
      // Argument-less return/behavior flags.
      case 'v': ok = arg.empty(); mf.want_value = true; break;
      case 'f': ok = arg.empty(); mf.want_flags = true; break;
      case 't': ok = arg.empty(); mf.want_ttl = true; break;
      case 'l': ok = arg.empty(); mf.want_last_access = true; break;
      case 'h': ok = arg.empty(); mf.want_hit = true; break;
      case 'c': ok = arg.empty(); mf.want_cas = true; break;
      case 'k': ok = arg.empty(); mf.want_key = true; break;
      case 'q': ok = arg.empty(); mf.quiet = true; break;
      // Token-carrying flags; numeric arguments land in the classic
      // Request fields their execution paths already read.
      case 'O':
        ok = !arg.empty() && arg.size() <= kMaxOpaqueLength;
        mf.has_opaque = true;
        mf.opaque.assign(arg);
        break;
      case 'N': ok = ParseInt(arg, &mf.vivify_ttl); mf.has_vivify = true; break;
      case 'T': ok = ParseInt(arg, &req.exptime); mf.has_exptime = true; break;
      case 'C': ok = ParseInt(arg, &req.cas); mf.has_cas_compare = true; break;
      case 'F': ok = ParseInt(arg, &req.flags); break;
      case 'D': ok = ParseInt(arg, &req.delta); break;
      case 'J': ok = ParseInt(arg, &mf.init_value); mf.has_init = true; break;
      case 'M': ok = arg.size() == 1; mf.mode = ok ? arg[0] : 0; break;
      default: ok = false; break;
    }
    if (!ok) {
      return Fail("bad meta flag", /*resync=*/false);
    }
  }

  if (req.op == Op::kMetaSet) {
    // Mode selects the store kind; a cas compare implies cas semantics
    // and composes only with the default set mode.
    if (mf.mode != 0 && std::string_view("SEAPR").find(mf.mode) ==
                            std::string_view::npos) {
      return Fail("bad ms mode", /*resync=*/false);
    }
    if (mf.has_cas_compare && mf.mode != 0 && mf.mode != 'S') {
      return Fail("cas compare requires set mode", /*resync=*/false);
    }
    pending_ = std::move(req);
    data_needed_ = bytes;
    state_ = State::kDataBlock;
    return Next(out);  // the data block may already be buffered
  }
  if (req.op == Op::kMetaArith && mf.mode != 0 &&
      std::string_view("I+D-").find(mf.mode) == std::string_view::npos) {
    return Fail("bad ma mode", /*resync=*/false);
  }
  *out = std::move(req);
  return ParseStatus::kOk;
}

namespace {

// Appends an unsigned decimal without allocating a temporary string.
void AppendUint(std::string* out, std::uint64_t n) {
  char digits[20];
  auto [ptr, ec] = std::to_chars(digits, digits + sizeof(digits), n);
  (void)ec;  // cannot fail: the buffer fits any uint64
  out->append(digits, static_cast<std::size_t>(ptr - digits));
}

}  // namespace

void AppendValueResponse(std::string* out, std::string_view key,
                         std::string_view data, std::uint32_t flags,
                         std::uint64_t cas, bool with_cas) {
  out->reserve(out->size() + key.size() + data.size() + 48);
  out->append("VALUE ");
  out->append(key);
  out->push_back(' ');
  AppendUint(out, flags);
  out->push_back(' ');
  AppendUint(out, data.size());
  if (with_cas) {
    out->push_back(' ');
    AppendUint(out, cas);
  }
  out->append("\r\n");
  out->append(data);
  out->append("\r\n");
}

void AppendNumberResponse(std::string* out, std::uint64_t n) {
  AppendUint(out, n);
  out->append("\r\n");
}

void AppendClientError(std::string* out, std::string_view message) {
  out->append("CLIENT_ERROR ");
  out->append(message);
  out->append("\r\n");
}

void AppendServerError(std::string* out, std::string_view message) {
  out->append("SERVER_ERROR ");
  out->append(message);
  out->append("\r\n");
}

void AppendVersionResponse(std::string* out, std::string_view version) {
  out->append("VERSION ");
  out->append(version);
  out->append("\r\n");
}

void AppendStat(std::string* out, std::string_view name,
                std::string_view value) {
  out->append("STAT ");
  out->append(name);
  out->push_back(' ');
  out->append(value);
  out->append("\r\n");
}

void AppendStat(std::string* out, std::string_view name, std::uint64_t value) {
  out->append("STAT ");
  out->append(name);
  out->push_back(' ');
  AppendUint(out, value);
  out->append("\r\n");
}

namespace {

void AppendFlagUint(std::string* out, char flag, std::uint64_t value) {
  out->push_back(' ');
  out->push_back(flag);
  AppendUint(out, value);
}

void AppendFlagInt(std::string* out, char flag, std::int64_t value) {
  out->push_back(' ');
  out->push_back(flag);
  char digits[21];
  auto [ptr, ec] = std::to_chars(digits, digits + sizeof(digits), value);
  (void)ec;  // cannot fail: the buffer fits any int64
  out->append(digits, static_cast<std::size_t>(ptr - digits));
}

// The k/O echoes every meta result line carries when requested.
void AppendKeyOpaqueFlags(std::string* out, std::string_view key,
                          const MetaFlags& mf) {
  if (mf.want_key) {
    out->append(" k");
    out->append(key);
  }
  if (mf.has_opaque) {
    out->append(" O");
    out->append(mf.opaque);
  }
}

}  // namespace

void AppendMetaGetResponse(std::string* out, std::string_view key,
                           const Request& request,
                           const ScratchGetResult& result,
                           std::string_view value, std::int64_t now) {
  const MetaFlags& mf = request.meta;
  if (!result.hit) {
    if (mf.quiet) {
      return;  // the q contract: misses are silent
    }
    out->append("EN");
    AppendKeyOpaqueFlags(out, key, mf);
    out->append("\r\n");
    return;
  }
  if (mf.want_value) {
    out->reserve(out->size() + value.size() + key.size() + 48);
    out->append("VA ");
    AppendUint(out, value.size());
  } else {
    out->append("HD");
  }
  if (mf.want_flags) {
    AppendFlagUint(out, 'f', result.flags);
  }
  if (mf.want_ttl) {
    // -1 = never expires, else seconds remaining (clamped at 0: an item
    // observed alive can race its own deadline between lookup and here).
    const std::int64_t remaining =
        result.expire_at == kNeverExpires
            ? -1
            : (result.expire_at > now ? result.expire_at - now : 0);
    AppendFlagInt(out, 't', remaining);
  }
  if (mf.want_last_access) {
    const std::int64_t since =
        result.last_used < now ? now - result.last_used : 0;
    AppendFlagInt(out, 'l', since);
  }
  if (mf.want_hit) {
    AppendFlagUint(out, 'h', result.fetched ? 1 : 0);
  }
  if (mf.want_cas) {
    AppendFlagUint(out, 'c', result.cas);
  }
  AppendKeyOpaqueFlags(out, key, mf);
  out->append("\r\n");
  if (mf.want_value) {
    out->append(value);
    out->append("\r\n");
  }
}

void AppendMetaStoreResponse(std::string* out, std::string_view key,
                             const Request& request, StoreResult result) {
  const MetaFlags& mf = request.meta;
  std::string_view code;
  switch (result) {
    case StoreResult::kStored:
      if (mf.quiet) {
        return;  // q suppresses success; failures always answer
      }
      code = "HD";
      break;
    case StoreResult::kNotStored:
      code = "NS";
      break;
    case StoreResult::kExists:
      code = "EX";
      break;
    case StoreResult::kNotFound:
      code = "NF";
      break;
  }
  out->append(code);
  AppendKeyOpaqueFlags(out, key, mf);
  out->append("\r\n");
}

void AppendMetaArithResponse(std::string* out, std::string_view key,
                             const Request& request,
                             const ArithResult& result) {
  const MetaFlags& mf = request.meta;
  switch (result.status) {
    case ArithStatus::kNotFound:
      out->append("NF");
      AppendKeyOpaqueFlags(out, key, mf);
      out->append("\r\n");
      return;
    case ArithStatus::kNonNumeric:
      AppendClientError(out, kNonNumericMessage);
      return;
    case ArithStatus::kOk:
      break;
  }
  if (mf.want_value) {
    // An explicit v always answers, quiet or not — same rule as mg.
    char digits[20];
    auto [ptr, ec] = std::to_chars(digits, digits + sizeof(digits),
                                   result.value);
    (void)ec;  // cannot fail: the buffer fits any uint64
    const std::size_t len = static_cast<std::size_t>(ptr - digits);
    out->append("VA ");
    AppendUint(out, len);
    AppendKeyOpaqueFlags(out, key, mf);
    out->append("\r\n");
    out->append(digits, len);
    out->append("\r\n");
    return;
  }
  if (mf.quiet) {
    return;
  }
  out->append("HD");
  AppendKeyOpaqueFlags(out, key, mf);
  out->append("\r\n");
}

std::string FormatValue(std::string_view key, const StoredValue& value,
                        bool with_cas) {
  std::string out;
  AppendValueResponse(&out, key, value.data, value.flags, value.cas, with_cas);
  return out;
}

std::string FormatEnd() { return std::string(kResponseEnd); }
std::string FormatStored() { return std::string(kResponseStored); }
std::string FormatNotStored() { return std::string(kResponseNotStored); }
std::string FormatExists() { return std::string(kResponseExists); }
std::string FormatNotFound() { return std::string(kResponseNotFound); }
std::string FormatDeleted() { return std::string(kResponseDeleted); }
std::string FormatTouched() { return std::string(kResponseTouched); }
std::string FormatOk() { return std::string(kResponseOk); }

std::string FormatNumber(std::uint64_t n) {
  std::string out;
  AppendNumberResponse(&out, n);
  return out;
}

std::string FormatError() { return std::string(kResponseError); }

std::string FormatClientError(std::string_view message) {
  std::string out;
  AppendClientError(&out, message);
  return out;
}

std::string FormatServerError(std::string_view message) {
  std::string out;
  AppendServerError(&out, message);
  return out;
}

std::string FormatVersion(std::string_view version) {
  std::string out;
  AppendVersionResponse(&out, version);
  return out;
}

namespace {

void AppendInt(std::string* out, std::int64_t n) {
  char digits[21];
  auto [ptr, ec] = std::to_chars(digits, digits + sizeof(digits), n);
  (void)ec;  // cannot fail: the buffer fits any int64
  out->append(digits, static_cast<std::size_t>(ptr - digits));
}

// The meta request flags, in one canonical order. The parser accepts them
// in any order, so re-serializing canonically preserves semantics; F and D
// are spelled out even when the original relied on the parser defaults
// (F0 / D1) because the Request no longer records which it was.
void AppendMetaRequestFlags(std::string* out, const Request& request,
                            bool strip_quiet) {
  const MetaFlags& mf = request.meta;
  if (mf.want_value) {
    out->append(" v");
  }
  if (mf.want_flags) {
    out->append(" f");
  }
  if (mf.want_ttl) {
    out->append(" t");
  }
  if (mf.want_last_access) {
    out->append(" l");
  }
  if (mf.want_hit) {
    out->append(" h");
  }
  if (mf.want_cas) {
    out->append(" c");
  }
  if (mf.want_key) {
    out->append(" k");
  }
  if (mf.quiet && !strip_quiet) {
    out->append(" q");
  }
  if (mf.has_opaque) {
    out->append(" O");
    out->append(mf.opaque);
  }
  if (mf.has_vivify) {
    AppendFlagInt(out, 'N', mf.vivify_ttl);
  }
  if (request.op == Op::kMetaSet) {
    AppendFlagUint(out, 'F', request.flags);
  }
  if (mf.has_exptime) {
    AppendFlagInt(out, 'T', request.exptime);
  }
  if (mf.has_cas_compare) {
    AppendFlagUint(out, 'C', request.cas);
  }
  if (request.op == Op::kMetaArith) {
    AppendFlagUint(out, 'D', request.delta);
  }
  if (mf.has_init) {
    AppendFlagUint(out, 'J', mf.init_value);
  }
  if (mf.mode != 0) {
    out->append(" M");
    out->push_back(mf.mode);
  }
}

}  // namespace

void AppendRequestWire(std::string* out, const Request& request,
                       bool strip_quiet) {
  const bool noreply = request.noreply && !strip_quiet;
  switch (request.op) {
    case Op::kGet:
    case Op::kGets:
      out->append(request.op == Op::kGet ? "get" : "gets");
      for (const std::string& key : request.keys) {
        out->push_back(' ');
        out->append(key);
      }
      out->append("\r\n");
      return;
    case Op::kSet:
    case Op::kAdd:
    case Op::kReplace:
    case Op::kAppend:
    case Op::kPrepend:
    case Op::kCas: {
      switch (request.op) {
        case Op::kSet:
          out->append("set ");
          break;
        case Op::kAdd:
          out->append("add ");
          break;
        case Op::kReplace:
          out->append("replace ");
          break;
        case Op::kAppend:
          out->append("append ");
          break;
        case Op::kPrepend:
          out->append("prepend ");
          break;
        default:
          out->append("cas ");
          break;
      }
      out->append(request.keys[0]);
      out->push_back(' ');
      AppendUint(out, request.flags);
      out->push_back(' ');
      AppendInt(out, request.exptime);
      out->push_back(' ');
      AppendUint(out, request.data.size());
      if (request.op == Op::kCas) {
        out->push_back(' ');
        AppendUint(out, request.cas);
      }
      if (noreply) {
        out->append(" noreply");
      }
      out->append("\r\n");
      out->append(request.data);
      out->append("\r\n");
      return;
    }
    case Op::kDelete:
      out->append("delete ");
      out->append(request.keys[0]);
      if (noreply) {
        out->append(" noreply");
      }
      out->append("\r\n");
      return;
    case Op::kIncr:
    case Op::kDecr:
      out->append(request.op == Op::kIncr ? "incr " : "decr ");
      out->append(request.keys[0]);
      out->push_back(' ');
      AppendUint(out, request.delta);
      if (noreply) {
        out->append(" noreply");
      }
      out->append("\r\n");
      return;
    case Op::kTouch:
      out->append("touch ");
      out->append(request.keys[0]);
      out->push_back(' ');
      AppendInt(out, request.exptime);
      if (noreply) {
        out->append(" noreply");
      }
      out->append("\r\n");
      return;
    case Op::kFlushAll:
      out->append("flush_all ");
      AppendInt(out, request.exptime);  // exptime carries the [delay] arg
      if (noreply) {
        out->append(" noreply");
      }
      out->append("\r\n");
      return;
    case Op::kVersion:
      out->append("version\r\n");
      return;
    case Op::kStats:
      out->append("stats\r\n");
      return;
    case Op::kQuit:
      out->append("quit\r\n");
      return;
    case Op::kMetaNoop:
      out->append("mn\r\n");
      return;
    case Op::kMetaGet:
    case Op::kMetaDelete:
    case Op::kMetaArith:
      out->append(request.op == Op::kMetaGet
                      ? "mg "
                      : (request.op == Op::kMetaDelete ? "md " : "ma "));
      out->append(request.keys[0]);
      AppendMetaRequestFlags(out, request, strip_quiet);
      out->append("\r\n");
      return;
    case Op::kMetaSet:
      out->append("ms ");
      out->append(request.keys[0]);
      out->push_back(' ');
      AppendUint(out, request.data.size());
      AppendMetaRequestFlags(out, request, strip_quiet);
      out->append("\r\n");
      out->append(request.data);
      out->append("\r\n");
      return;
  }
}

}  // namespace rp::memcache
