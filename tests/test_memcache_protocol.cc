// Tests for the memcached text-protocol codec.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "src/memcache/protocol.h"
#include "src/util/rng.h"

namespace rp::memcache {
namespace {

Request MustParse(std::string_view wire) {
  RequestParser parser;
  parser.Feed(wire);
  Request request;
  EXPECT_EQ(parser.Next(&request), ParseStatus::kOk) << wire;
  return request;
}

TEST(Protocol, ParsesGetSingleKey) {
  const Request r = MustParse("get foo\r\n");
  EXPECT_EQ(r.op, Op::kGet);
  ASSERT_EQ(r.keys.size(), 1u);
  EXPECT_EQ(r.keys[0], "foo");
}

TEST(Protocol, ParsesGetMultiKey) {
  const Request r = MustParse("get a b c\r\n");
  EXPECT_EQ(r.op, Op::kGet);
  EXPECT_EQ(r.keys, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(Protocol, ParsesGetsWithCas) {
  const Request r = MustParse("gets foo\r\n");
  EXPECT_EQ(r.op, Op::kGets);
}

TEST(Protocol, ParsesSetWithData) {
  const Request r = MustParse("set foo 7 300 5\r\nhello\r\n");
  EXPECT_EQ(r.op, Op::kSet);
  EXPECT_EQ(r.keys[0], "foo");
  EXPECT_EQ(r.flags, 7u);
  EXPECT_EQ(r.exptime, 300);
  EXPECT_EQ(r.data, "hello");
  EXPECT_FALSE(r.noreply);
}

TEST(Protocol, ParsesSetNoreply) {
  const Request r = MustParse("set foo 0 0 2 noreply\r\nhi\r\n");
  EXPECT_TRUE(r.noreply);
}

TEST(Protocol, ParsesEmptyDataBlock) {
  const Request r = MustParse("set foo 0 0 0\r\n\r\n");
  EXPECT_EQ(r.data, "");
}

TEST(Protocol, DataBlockMayContainSpacesAndCr) {
  const Request r = MustParse(std::string("set k 0 0 9\r\nab cd\refg\r\n"));
  EXPECT_EQ(r.data, "ab cd\refg");
}

TEST(Protocol, ParsesCasCommand) {
  const Request r = MustParse("cas foo 1 0 3 42\r\nxyz\r\n");
  EXPECT_EQ(r.op, Op::kCas);
  EXPECT_EQ(r.cas, 42u);
  EXPECT_EQ(r.data, "xyz");
}

TEST(Protocol, ParsesAddReplaceAppendPrepend) {
  EXPECT_EQ(MustParse("add k 0 0 1\r\nx\r\n").op, Op::kAdd);
  EXPECT_EQ(MustParse("replace k 0 0 1\r\nx\r\n").op, Op::kReplace);
  EXPECT_EQ(MustParse("append k 0 0 1\r\nx\r\n").op, Op::kAppend);
  EXPECT_EQ(MustParse("prepend k 0 0 1\r\nx\r\n").op, Op::kPrepend);
}

TEST(Protocol, ParsesDelete) {
  const Request r = MustParse("delete foo\r\n");
  EXPECT_EQ(r.op, Op::kDelete);
  EXPECT_EQ(r.keys[0], "foo");
}

TEST(Protocol, ParsesDeleteNoreply) {
  EXPECT_TRUE(MustParse("delete foo noreply\r\n").noreply);
}

TEST(Protocol, ParsesIncrDecr) {
  const Request incr = MustParse("incr counter 5\r\n");
  EXPECT_EQ(incr.op, Op::kIncr);
  EXPECT_EQ(incr.delta, 5u);
  const Request decr = MustParse("decr counter 3\r\n");
  EXPECT_EQ(decr.op, Op::kDecr);
  EXPECT_EQ(decr.delta, 3u);
}

TEST(Protocol, ParsesTouch) {
  const Request r = MustParse("touch foo 600\r\n");
  EXPECT_EQ(r.op, Op::kTouch);
  EXPECT_EQ(r.exptime, 600);
}

TEST(Protocol, ParsesAdministrative) {
  EXPECT_EQ(MustParse("flush_all\r\n").op, Op::kFlushAll);
  EXPECT_EQ(MustParse("version\r\n").op, Op::kVersion);
  EXPECT_EQ(MustParse("stats\r\n").op, Op::kStats);
  EXPECT_EQ(MustParse("quit\r\n").op, Op::kQuit);
}

TEST(Protocol, ParsesFlushAllVariants) {
  // Bare form: no delay, no noreply.
  Request r = MustParse("flush_all\r\n");
  EXPECT_EQ(r.exptime, 0);
  EXPECT_FALSE(r.noreply);
  // Optional delay rides in exptime.
  r = MustParse("flush_all 30\r\n");
  EXPECT_EQ(r.op, Op::kFlushAll);
  EXPECT_EQ(r.exptime, 30);
  EXPECT_FALSE(r.noreply);
  // noreply with and without a delay.
  r = MustParse("flush_all noreply\r\n");
  EXPECT_EQ(r.exptime, 0);
  EXPECT_TRUE(r.noreply);
  r = MustParse("flush_all 5 noreply\r\n");
  EXPECT_EQ(r.exptime, 5);
  EXPECT_TRUE(r.noreply);
}

TEST(Protocol, RejectsMalformedFlushAll) {
  const auto expect_error = [](std::string_view wire) {
    RequestParser parser;
    parser.Feed(wire);
    Request request;
    EXPECT_EQ(parser.Next(&request), ParseStatus::kError) << wire;
    EXPECT_FALSE(parser.error_message().empty());
  };
  expect_error("flush_all soon\r\n");       // non-numeric delay
  expect_error("flush_all -5\r\n");         // negative delay
  expect_error("flush_all 5 5\r\n");        // duplicate delay
  expect_error("flush_all 5 noreply x\r\n");  // trailing junk
}

TEST(Protocol, IncrementalFeedAcrossBoundaries) {
  RequestParser parser;
  Request request;
  // Split the command at awkward places (mid-token, mid-CRLF, mid-data).
  parser.Feed("se");
  EXPECT_EQ(parser.Next(&request), ParseStatus::kNeedMore);
  parser.Feed("t foo 0 0 5\r");
  EXPECT_EQ(parser.Next(&request), ParseStatus::kNeedMore);
  parser.Feed("\nhel");
  EXPECT_EQ(parser.Next(&request), ParseStatus::kNeedMore);
  parser.Feed("lo\r\n");
  ASSERT_EQ(parser.Next(&request), ParseStatus::kOk);
  EXPECT_EQ(request.data, "hello");
}

TEST(Protocol, PipelinedRequests) {
  RequestParser parser;
  parser.Feed("set a 0 0 1\r\nx\r\nget a\r\ndelete a\r\n");
  Request r1;
  Request r2;
  Request r3;
  ASSERT_EQ(parser.Next(&r1), ParseStatus::kOk);
  ASSERT_EQ(parser.Next(&r2), ParseStatus::kOk);
  ASSERT_EQ(parser.Next(&r3), ParseStatus::kOk);
  EXPECT_EQ(r1.op, Op::kSet);
  EXPECT_EQ(r2.op, Op::kGet);
  EXPECT_EQ(r3.op, Op::kDelete);
  Request r4;
  EXPECT_EQ(parser.Next(&r4), ParseStatus::kNeedMore);
}

TEST(Protocol, RejectsUnknownCommand) {
  RequestParser parser;
  parser.Feed("frobnicate\r\n");
  Request request;
  EXPECT_EQ(parser.Next(&request), ParseStatus::kError);
  EXPECT_FALSE(parser.error_message().empty());
}

TEST(Protocol, RecoversAfterError) {
  RequestParser parser;
  parser.Feed("bogus\r\nget ok\r\n");
  Request request;
  EXPECT_EQ(parser.Next(&request), ParseStatus::kError);
  ASSERT_EQ(parser.Next(&request), ParseStatus::kOk);
  EXPECT_EQ(request.keys[0], "ok");
}

TEST(Protocol, RejectsMissingArguments) {
  for (const char* wire : {"get\r\n", "set foo 0 0\r\n", "incr foo\r\n",
                           "delete\r\n", "touch foo\r\n", "set foo 0 0 abc\r\n"}) {
    RequestParser parser;
    parser.Feed(wire);
    Request request;
    EXPECT_EQ(parser.Next(&request), ParseStatus::kError) << wire;
  }
}

TEST(Protocol, RejectsOversizedKey) {
  RequestParser parser;
  const std::string big(RequestParser::kMaxKeyLength + 1, 'k');
  parser.Feed("get " + big + "\r\n");
  Request request;
  EXPECT_EQ(parser.Next(&request), ParseStatus::kError);
}

TEST(Protocol, RejectsOversizedValue) {
  RequestParser parser;
  parser.Feed("set k 0 0 9999999\r\n");
  Request request;
  EXPECT_EQ(parser.Next(&request), ParseStatus::kError);
}

TEST(Protocol, RejectsControlCharactersInKey) {
  RequestParser parser;
  parser.Feed(std::string("get a\x01b\r\n"));
  Request request;
  EXPECT_EQ(parser.Next(&request), ParseStatus::kError);

  // memcached bans only control bytes and whitespace: 0x00-0x20 and 0x7F.
  for (const char c : {'\x00', '\x01', '\t', '\x1f', ' ', '\x7f'}) {
    EXPECT_FALSE(IsValidKey(std::string("a") + c + "b")) << int(c);
  }
  // Bytes >= 0x80 are not control bytes, so a UTF-8 key is valid.
  EXPECT_TRUE(IsValidKey("caf\xc3\xa9"));
  EXPECT_TRUE(IsValidKey("\x80\xff"));
  EXPECT_EQ(MustParse("get caf\xc3\xa9\r\n").keys,
            std::vector<std::string>{"caf\xc3\xa9"});
}

TEST(Protocol, RejectsBadDataTerminator) {
  RequestParser parser;
  parser.Feed("set k 0 0 2\r\nabXX");  // data not followed by CRLF
  Request request;
  EXPECT_EQ(parser.Next(&request), ParseStatus::kError);
}

TEST(Protocol, FormatsValueResponse) {
  std::string out;
  AppendValueResponse(&out, "hello", "world", 9, 77, /*with_cas=*/false);
  EXPECT_EQ(out, "VALUE hello 9 5\r\nworld\r\n");
  out.clear();
  AppendValueResponse(&out, "hello", "world", 9, 77, /*with_cas=*/true);
  EXPECT_EQ(out, "VALUE hello 9 5 77\r\nworld\r\n");
}

TEST(Protocol, FormatsStatusLines) {
  EXPECT_EQ(kResponseEnd, "END\r\n");
  EXPECT_EQ(kResponseStored, "STORED\r\n");
  EXPECT_EQ(kResponseNotStored, "NOT_STORED\r\n");
  EXPECT_EQ(kResponseExists, "EXISTS\r\n");
  EXPECT_EQ(kResponseNotFound, "NOT_FOUND\r\n");
  EXPECT_EQ(kResponseDeleted, "DELETED\r\n");
  EXPECT_EQ(kResponseTouched, "TOUCHED\r\n");
  EXPECT_EQ(kResponseOk, "OK\r\n");
  std::string out;
  AppendNumberResponse(&out, 42);
  AppendClientError(&out, "oops");
  AppendServerError(&out, "bad");
  AppendVersionResponse(&out, "1.0");
  EXPECT_EQ(out,
            "42\r\nCLIENT_ERROR oops\r\nSERVER_ERROR bad\r\n"
            "VERSION 1.0\r\n");
}

TEST(Protocol, ExptimeResolution) {
  const std::int64_t now = 1000000;
  EXPECT_EQ(ResolveExptime(0, now), kNeverExpires);
  EXPECT_EQ(ResolveExptime(60, now), now + 60);
  EXPECT_EQ(ResolveExptime(-1, now), now - 1);
  const std::int64_t absolute = 60 * 60 * 24 * 31;  // > 30 days: absolute
  EXPECT_EQ(ResolveExptime(absolute, now), absolute);
}

TEST(Protocol, IsExpiredSemantics) {
  EXPECT_FALSE(IsExpired(kNeverExpires, 500));
  EXPECT_TRUE(IsExpired(499, 500));
  EXPECT_TRUE(IsExpired(500, 500));
  EXPECT_FALSE(IsExpired(501, 500));
}

TEST(Protocol, BufferedBytesShrinkAfterConsumption) {
  RequestParser parser;
  parser.Feed("get aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
  Request request;
  ASSERT_EQ(parser.Next(&request), ParseStatus::kOk);
  EXPECT_EQ(parser.buffered_bytes(), 0u);
}

// ---- Meta protocol (mg/ms/md/ma/mn) ---------------------------------------

Request MustParseError(std::string_view wire, std::string_view message) {
  RequestParser parser;
  parser.Feed(wire);
  Request request;
  EXPECT_EQ(parser.Next(&request), ParseStatus::kError) << wire;
  EXPECT_EQ(parser.error_message(), message) << wire;
  return request;
}

TEST(Protocol, ParsesMetaGetFlags) {
  const Request r = MustParse("mg foo v f t l h c k q Oabc N30 T60\r\n");
  EXPECT_EQ(r.op, Op::kMetaGet);
  ASSERT_EQ(r.keys.size(), 1u);
  EXPECT_EQ(r.keys[0], "foo");
  EXPECT_TRUE(r.meta.want_value);
  EXPECT_TRUE(r.meta.want_flags);
  EXPECT_TRUE(r.meta.want_ttl);
  EXPECT_TRUE(r.meta.want_last_access);
  EXPECT_TRUE(r.meta.want_hit);
  EXPECT_TRUE(r.meta.want_cas);
  EXPECT_TRUE(r.meta.want_key);
  EXPECT_TRUE(r.meta.quiet);
  EXPECT_TRUE(r.meta.has_opaque);
  EXPECT_EQ(r.meta.opaque, "abc");
  EXPECT_TRUE(r.meta.has_vivify);
  EXPECT_EQ(r.meta.vivify_ttl, 30);
  EXPECT_TRUE(r.meta.has_exptime);
  EXPECT_EQ(r.exptime, 60);
}

TEST(Protocol, ParsesBareMetaGet) {
  const Request r = MustParse("mg foo\r\n");
  EXPECT_EQ(r.op, Op::kMetaGet);
  EXPECT_FALSE(r.meta.want_value);
  EXPECT_FALSE(r.meta.quiet);
}

TEST(Protocol, ParsesMetaSetWithData) {
  const Request r = MustParse("ms foo 5 q F7 T300 C42 MS Oxy\r\nhello\r\n");
  EXPECT_EQ(r.op, Op::kMetaSet);
  EXPECT_EQ(r.keys[0], "foo");
  EXPECT_EQ(r.data, "hello");
  EXPECT_TRUE(r.meta.quiet);
  EXPECT_EQ(r.flags, 7u);
  EXPECT_TRUE(r.meta.has_exptime);
  EXPECT_EQ(r.exptime, 300);
  EXPECT_TRUE(r.meta.has_cas_compare);
  EXPECT_EQ(r.cas, 42u);
  EXPECT_EQ(r.meta.mode, 'S');
  EXPECT_EQ(r.meta.opaque, "xy");
}

TEST(Protocol, MetaSetDataBlockIncremental) {
  RequestParser parser;
  Request request;
  parser.Feed("ms k 4 q\r\nab");
  EXPECT_EQ(parser.Next(&request), ParseStatus::kNeedMore);
  parser.Feed("cd\r\n");
  ASSERT_EQ(parser.Next(&request), ParseStatus::kOk);
  EXPECT_EQ(request.op, Op::kMetaSet);
  EXPECT_EQ(request.data, "abcd");
}

TEST(Protocol, ParsesMetaDelete) {
  const Request r = MustParse("md foo q k Oz\r\n");
  EXPECT_EQ(r.op, Op::kMetaDelete);
  EXPECT_TRUE(r.meta.quiet);
  EXPECT_TRUE(r.meta.want_key);
  EXPECT_EQ(r.meta.opaque, "z");
}

TEST(Protocol, ParsesMetaArith) {
  // Bare ma defaults to increment-by-1.
  Request r = MustParse("ma ctr\r\n");
  EXPECT_EQ(r.op, Op::kMetaArith);
  EXPECT_EQ(r.delta, 1u);
  EXPECT_EQ(r.meta.mode, '\0');
  // Decrement mode, explicit delta, vivify seed.
  r = MustParse("ma ctr v MD D5 N0 J100\r\n");
  EXPECT_EQ(r.meta.mode, 'D');
  EXPECT_EQ(r.delta, 5u);
  EXPECT_TRUE(r.meta.has_vivify);
  EXPECT_EQ(r.meta.vivify_ttl, 0);
  EXPECT_TRUE(r.meta.has_init);
  EXPECT_EQ(r.meta.init_value, 100u);
  EXPECT_TRUE(r.meta.want_value);
}

TEST(Protocol, ParsesMetaNoop) {
  EXPECT_EQ(MustParse("mn\r\n").op, Op::kMetaNoop);
  MustParseError("mn x\r\n", "bad mn command");
}

TEST(Protocol, RejectsUnsupportedMetaFlags) {
  // Flags real memcached accepts but this server does not implement
  // (base64 keys, invalidation, stampede control) answer CLIENT_ERROR
  // instead of being silently ignored.
  MustParseError("mg foo b\r\n", "unsupported meta flag");
  MustParseError("mg foo E1\r\n", "unsupported meta flag");
  MustParseError("ms foo 2 I\r\nhi\r\n", "unsupported meta flag");
  MustParseError("md foo T30\r\n", "unsupported meta flag");
  // Flags valid elsewhere in the meta family are still per-command.
  MustParseError("mg foo M1\r\n", "unsupported meta flag");
  MustParseError("ma foo C5\r\n", "unsupported meta flag");
}

TEST(Protocol, RejectsMalformedMetaFlags) {
  MustParseError("mg foo v1\r\n", "bad meta flag");   // single-char flag + arg
  MustParseError("mg foo q9\r\n", "bad meta flag");
  MustParseError("mg foo O\r\n", "bad meta flag");    // opaque needs a token
  MustParseError("mg foo Nx\r\n", "bad meta flag");   // non-numeric ttl
  MustParseError("ms foo 2 Cx\r\nhi\r\n", "bad meta flag");
  const std::string long_opaque(RequestParser::kMaxOpaqueLength + 1, 'o');
  MustParseError("mg foo O" + long_opaque + "\r\n", "bad meta flag");
}

TEST(Protocol, RejectsBadMetaModes) {
  MustParseError("ms foo 2 MX\r\nhi\r\n", "bad ms mode");
  MustParseError("ms foo 2 C5 MA\r\nhi\r\n", "cas compare requires set mode");
  MustParseError("ma foo MX\r\n", "bad ma mode");
  MustParseError("ms foo zz\r\n", "bad ms datalen");
  MustParseError("ms foo 9999999\r\n", "object too large for cache");
}

TEST(Protocol, FormatsMetaGetResponse) {
  Request req = MustParse("mg foo v f t c k Oab\r\n");
  ScratchGetResult result;
  result.hit = true;
  result.flags = 9;
  result.cas = 77;
  result.expire_at = 1060;
  std::string out;
  AppendMetaGetResponse(&out, "foo", req, result, "world", /*now=*/1000);
  // Response flags come back in the fixed order f,t,c then k,O regardless
  // of request order (a documented divergence from memcached's echo).
  EXPECT_EQ(out, "VA 5 f9 t60 c77 kfoo Oab\r\nworld\r\n");

  // Without v a hit answers HD; unlimited TTL reads t-1.
  req = MustParse("mg foo t\r\n");
  result.expire_at = kNeverExpires;
  out.clear();
  AppendMetaGetResponse(&out, "foo", req, result, "world", /*now=*/1000);
  EXPECT_EQ(out, "HD t-1\r\n");
}

TEST(Protocol, MetaGetMissAndQuietSuppression) {
  ScratchGetResult miss;  // hit defaults to false
  std::string out;
  AppendMetaGetResponse(&out, "foo", MustParse("mg foo k Oz\r\n"), miss, "",
                        /*now=*/0);
  EXPECT_EQ(out, "EN kfoo Oz\r\n");
  out.clear();
  AppendMetaGetResponse(&out, "foo", MustParse("mg foo v q\r\n"), miss, "",
                        /*now=*/0);
  EXPECT_EQ(out, "");  // q: misses are silent
}

TEST(Protocol, MetaGetLastAccessAndHitFlags) {
  const Request req = MustParse("mg foo l h\r\n");
  ScratchGetResult result;
  result.hit = true;
  result.last_used = 940;
  result.fetched = true;
  std::string out;
  AppendMetaGetResponse(&out, "foo", req, result, "", /*now=*/1000);
  EXPECT_EQ(out, "HD l60 h1\r\n");
}

TEST(Protocol, FormatsMetaStoreResponse) {
  const Request plain = MustParse("ms foo 2\r\nhi\r\n");
  const Request quiet = MustParse("ms foo 2 q Oab\r\nhi\r\n");
  std::string out;
  AppendMetaStoreResponse(&out, "foo", plain, StoreResult::kStored);
  EXPECT_EQ(out, "HD\r\n");
  out.clear();
  AppendMetaStoreResponse(&out, "foo", quiet, StoreResult::kStored);
  EXPECT_EQ(out, "");  // q suppresses success...
  AppendMetaStoreResponse(&out, "foo", quiet, StoreResult::kNotStored);
  AppendMetaStoreResponse(&out, "foo", quiet, StoreResult::kExists);
  AppendMetaStoreResponse(&out, "foo", quiet, StoreResult::kNotFound);
  EXPECT_EQ(out, "NS Oab\r\nEX Oab\r\nNF Oab\r\n");  // ...but never failure
}

TEST(Protocol, FormatsMetaArithResponse) {
  const Request want_value = MustParse("ma ctr v q\r\n");
  ArithResult result;
  result.status = ArithStatus::kOk;
  result.value = 43;
  std::string out;
  // An explicit v always answers, quiet or not — same rule as mg.
  AppendMetaArithResponse(&out, "ctr", want_value, result);
  EXPECT_EQ(out, "VA 2\r\n43\r\n");
  out.clear();
  AppendMetaArithResponse(&out, "ctr", MustParse("ma ctr q\r\n"), result);
  EXPECT_EQ(out, "");  // quiet success without v is silent
  AppendMetaArithResponse(&out, "ctr", MustParse("ma ctr\r\n"), result);
  EXPECT_EQ(out, "HD\r\n");
  out.clear();
  result.status = ArithStatus::kNotFound;
  AppendMetaArithResponse(&out, "ctr", MustParse("ma ctr q Ok\r\n"), result);
  EXPECT_EQ(out, "NF Ok\r\n");  // failures always answer
}

// ---- Split invariance ------------------------------------------------------
//
// A request must parse the same however recv() splits the stream: the line
// limits apply to the line, not to the bytes buffered so far.

// Everything the parser yields for `stream` fed in pieces that end at
// `cuts` (ascending offsets), draining Next() after every piece: each
// request re-serialized, each error as "ERROR <message>".
std::string Transcript(std::string_view stream,
                       const std::vector<std::size_t>& cuts) {
  RequestParser parser;
  std::string transcript;
  std::size_t fed = 0;
  for (std::size_t i = 0; i <= cuts.size(); ++i) {
    const std::size_t end = i < cuts.size() ? cuts[i] : stream.size();
    parser.Feed(stream.substr(fed, end - fed));
    fed = end;
    Request request;
    for (ParseStatus status; (status = parser.Next(&request)) !=
                             ParseStatus::kNeedMore;) {
      if (status == ParseStatus::kOk) {
        AppendRequestWire(&transcript, request, /*strip_quiet=*/false);
      } else {
        transcript += "ERROR " + parser.error_message() + "\n";
      }
    }
  }
  return transcript;
}

void ExpectSplitInvariant(std::string_view stream, std::string_view whole) {
  std::vector<std::size_t> bytewise;
  for (std::size_t k = 1; k < stream.size(); ++k) {
    bytewise.push_back(k);
    EXPECT_EQ(Transcript(stream, {k}), whole) << "split at " << k;
  }
  EXPECT_EQ(Transcript(stream, bytewise), whole) << "one byte at a time";
}

TEST(ProtocolSplits, LongMultiGetParsesAtEverySplitPoint) {
  // A 20-key, 575-byte classic multi-get, then ordinary traffic.
  std::string line = "get";
  for (int i = 0; i < 20; ++i) {
    std::string key = "split-key-" + std::to_string(i) + "-";
    key.resize(i < 10 ? 27 : 28, 'k');
    line += " " + key;
  }
  line += "\r\n";
  ASSERT_EQ(line.size(), 575u);
  const std::string stream = line + "set k 0 0 5\r\nhello\r\nget k\r\n";
  const std::string whole = Transcript(stream, {});
  EXPECT_EQ(whole, line + "set k 0 0 5\r\nhello\r\nget k\r\n");
  ExpectSplitInvariant(stream, whole);
}

TEST(ProtocolSplits, OverlongLineFailsOnceAtEverySplitPoint) {
  // A 3000-byte non-retrieval line is past kMaxLineLength whether or not
  // its \r\n has arrived: one error, and the next line still parses.
  const std::string line = "delete " + std::string(2991, 'k') + "\r\n";
  ASSERT_EQ(line.size(), 3000u);
  const std::string stream = line + "get k\r\n";
  const std::string whole = Transcript(stream, {});
  EXPECT_EQ(whole, "ERROR command line too long\nget k\r\n");
  ExpectSplitInvariant(stream, whole);
}

TEST(ProtocolSplits, RetrievalLinesHoldTheirKeyBound) {
  // kMaxRetrievalKeys maximum-length keys parse; a non-retrieval line of
  // kMaxLineLength parses and one byte more fails.
  std::string get = "gets";
  for (std::size_t i = 0; i < RequestParser::kMaxRetrievalKeys; ++i) {
    std::string key = std::to_string(i) + "-";
    key.resize(RequestParser::kMaxKeyLength, 'k');
    get += " " + key;
  }
  EXPECT_EQ(MustParse(get + "\r\n").keys.size(),
            RequestParser::kMaxRetrievalKeys);

  const std::string at_limit =
      "touch k " + std::string(RequestParser::kMaxLineLength - 8, '1');
  ASSERT_EQ(at_limit.size(), RequestParser::kMaxLineLength);
  MustParseError(at_limit + "\r\n", "bad touch exptime");
  MustParseError(at_limit + "1\r\n", "command line too long");
}


// ---- Re-serializer round trip ---------------------------------------------
//
// The cluster proxy forwards what AppendRequestWire writes, so a parsed
// request re-serialized and parsed again must come back unchanged:
// parse(AppendRequestWire(parse(x))) == parse(x), for whatever of a hostile
// stream parses at all.

// Every field of a request on one line, so a mismatch prints what differs.
std::string Describe(const Request& r) {
  std::string out = "op=" + std::to_string(static_cast<int>(r.op)) + " keys=";
  for (const std::string& key : r.keys) {
    out += "[" + key + "]";
  }
  const MetaFlags& m = r.meta;
  out += " data=[" + r.data + "] flags=" + std::to_string(r.flags) +
         " exptime=" + std::to_string(r.exptime) +
         " delta=" + std::to_string(r.delta) + " cas=" + std::to_string(r.cas) +
         " noreply=" + std::to_string(r.noreply) + " meta=";
  for (const bool bit : {m.want_value, m.want_flags, m.want_ttl,
                         m.want_last_access, m.want_hit, m.want_cas,
                         m.want_key, m.quiet, m.has_opaque, m.has_vivify,
                         m.has_exptime, m.has_cas_compare, m.has_init}) {
    out += bit ? '1' : '0';
  }
  out += " opaque=[" + m.opaque + "] vivify_ttl=" +
         std::to_string(m.vivify_ttl) +
         " init=" + std::to_string(m.init_value) +
         " mode=" + std::to_string(static_cast<int>(m.mode));
  return out;
}

// Every command the conformance matrix, meta and cluster conformance suites
// send, with their keys folded to a few shapes (a UTF-8 one included).
const char* const kCorpus[] = {
    "get k\r\n",
    "gets k\r\n",
    "get mix-missing mix-5 caf\xc3\xa9\r\n",
    "set k 1 0 3\r\n200\r\n",
    "set k 0 -1 3\r\n100\r\n",
    "set k 0 0 3 noreply\r\nnew\r\n",
    "add k 0 0 3\r\n201\r\n",
    "replace k 0 0 3\r\n202\r\n",
    "append k 0 0 1\r\n9\r\n",
    "prepend k 0 0 1\r\n1\r\n",
    "cas k 0 0 3 42\r\n203\r\n",
    "delete k\r\n",
    "delete k noreply\r\n",
    "incr k 5\r\n",
    "decr k 7\r\n",
    "touch k 500\r\n",
    "flush_all 1\r\n",
    "flush_all noreply\r\n",
    "version\r\n",
    "stats\r\n",
    "quit\r\n",
    "mg k v f t k O7\r\n",
    "mg k v q\r\n",
    "mg k h k\r\n",
    "mg k f c q O12\r\n",
    "mg viv v N300\r\n",
    "mg k v f t l h c k q Oabc N30 T60\r\n",
    "ms k 3 T0 F9\r\n201\r\n",
    "ms k 3 q Oab\r\n202\r\n",
    "ms k 3 ME\r\n203\r\n",
    "ms k 3 C42\r\n204\r\n",
    "ms k 5 F7 T100\r\nhello\r\n",
    "ms k 1 MA\r\nZ\r\n",
    "ms k 1 MP\r\nA\r\n",
    "ms k 3 MR\r\nnew\r\n",
    "ms caf\xc3\xa9 3 k\r\nabc\r\n",
    "md k\r\n",
    "md k q Oz\r\n",
    "ma k v\r\n",
    "ma k q Ok\r\n",
    "ma k D5\r\n",
    "ma k MD D3\r\n",
    "ma ctr v N300 J100 D5\r\n",
    "mn\r\n",
};

// One seeded hostile variant of `command`: truncated, a length or number
// made bad, noreply or q dropped in at a wrong place, the line made
// oversized, or a byte replaced (control and high bytes included).
std::string Mutate(std::string command, rp::Xoshiro256& rng) {
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.NextBounded(n));
  };
  const std::size_t line_end = command.find("\r\n");
  switch (pick(5)) {
    case 0:  // truncated anywhere, terminator included
      command.resize(pick(command.size()));
      break;
    case 1: {  // a bad number: the first digit run rewritten
      const char* const kBad[] = {"-1", "99999999999999999999", "x", "",
                                  "0", "1048577", "4294967296"};
      const std::size_t at = command.find_first_of("0123456789");
      if (at < line_end) {
        const std::size_t end = command.find_first_not_of("0123456789", at);
        command.replace(at, end - at, kBad[pick(std::size(kBad))]);
      }
      break;
    }
    case 2: {  // noreply or q inserted before a random space of the line
      const std::size_t at = command.find(' ', pick(line_end));
      command.insert(at < line_end ? at : line_end,
                     pick(2) == 0 ? " noreply" : " q");
      break;
    }
    case 3:  // an oversized line: past kMaxKeyLength, or past 2048 bytes
      command.insert(pick(line_end + 1),
                     std::string(pick(2) == 0 ? 251 : 2100, 'x'));
      break;
    default:
      command[pick(command.size())] = static_cast<char>(rng.NextBounded(256));
      break;
  }
  return command;
}

TEST(ProtocolRoundTrip, ReserializedRequestsParseUnchanged) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    rp::Xoshiro256 rng(seed);
    std::string stream;
    for (const char* command : kCorpus) {
      stream += command;
    }
    for (int i = 0; i < 400; ++i) {
      stream += Mutate(kCorpus[rng.NextBounded(std::size(kCorpus))], rng);
    }

    RequestParser parser;
    parser.Feed(stream);
    Request request;
    std::size_t parsed = 0;
    for (ParseStatus status; (status = parser.Next(&request)) !=
                             ParseStatus::kNeedMore;) {
      if (status != ParseStatus::kOk) {
        continue;
      }
      ++parsed;
      std::string wire;
      AppendRequestWire(&wire, request, /*strip_quiet=*/false);
      RequestParser again;
      again.Feed(wire);
      Request reparsed;
      ASSERT_EQ(again.Next(&reparsed), ParseStatus::kOk)
          << "seed " << seed << ": " << wire << again.error_message();
      EXPECT_EQ(Describe(reparsed), Describe(request))
          << "seed " << seed << ": " << wire;
      EXPECT_EQ(again.buffered_bytes(), 0u) << "seed " << seed << ": " << wire;
    }
    // Every unmutated command parses, and so do some of the variants.
    EXPECT_GT(parsed, std::size(kCorpus)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace rp::memcache
