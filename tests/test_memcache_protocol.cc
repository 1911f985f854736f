// Tests for the memcached text-protocol codec.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "src/memcache/protocol.h"

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
}

TEST(Protocol, RejectsBadDataTerminator) {
  RequestParser parser;
  parser.Feed("set k 0 0 2\r\nabXX");  // data not followed by CRLF
  Request request;
  EXPECT_EQ(parser.Next(&request), ParseStatus::kError);
}

TEST(Protocol, FormatsValueResponse) {
  StoredValue value;
  value.data = "world";
  value.flags = 9;
  value.cas = 77;
  EXPECT_EQ(FormatValue("hello", value, false),
            "VALUE hello 9 5\r\nworld\r\n");
  EXPECT_EQ(FormatValue("hello", value, true),
            "VALUE hello 9 5 77\r\nworld\r\n");
}

TEST(Protocol, FormatsStatusLines) {
  EXPECT_EQ(FormatEnd(), "END\r\n");
  EXPECT_EQ(FormatStored(), "STORED\r\n");
  EXPECT_EQ(FormatNotStored(), "NOT_STORED\r\n");
  EXPECT_EQ(FormatExists(), "EXISTS\r\n");
  EXPECT_EQ(FormatNotFound(), "NOT_FOUND\r\n");
  EXPECT_EQ(FormatDeleted(), "DELETED\r\n");
  EXPECT_EQ(FormatTouched(), "TOUCHED\r\n");
  EXPECT_EQ(FormatOk(), "OK\r\n");
  EXPECT_EQ(FormatNumber(42), "42\r\n");
  EXPECT_EQ(FormatError(), "ERROR\r\n");
  EXPECT_EQ(FormatClientError("oops"), "CLIENT_ERROR oops\r\n");
  EXPECT_EQ(FormatServerError("bad"), "SERVER_ERROR bad\r\n");
  EXPECT_EQ(FormatVersion("1.0"), "VERSION 1.0\r\n");
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

}  // namespace
}  // namespace rp::memcache
