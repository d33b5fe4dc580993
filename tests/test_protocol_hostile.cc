// Hostile-input limits for the NDJSON protocol (src/service/protocol.*):
// oversized fields, duplicate keys, non-UTF8 bytes smuggled through valid
// JSON, and register/load_cache/recover_session pointed at crafted or
// corrupt files. The contract under attack is always the same —
// connection-stays-alive: every request gets exactly one well-formed
// single-line JSON object back (ok:false + code on rejection), and the
// service keeps answering normal traffic afterwards. The fuzz harness
// fuzz/fuzz_protocol.cc explores this surface with coverage guidance;
// these tests pin the specific shapes it must never regress on.

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/json.h"
#include "src/common/metrics.h"
#include "src/common/metrics_history.h"
#include "src/service/explain_service.h"
#include "src/service/protocol.h"
#include "src/service/watchdog.h"
#include "src/table/csv_reader.h"

namespace tsexplain {
namespace {

std::string TempPath(const std::string& tag) {
  const char* tmpdir = std::getenv("TMPDIR");
  static int counter = 0;
  return std::string(tmpdir && *tmpdir ? tmpdir : "/tmp") +
         "/tsx_hostile_" + tag + "_" + std::to_string(::getpid()) + "_" +
         std::to_string(++counter);
}

void WriteRawFile(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

class HostileProtocolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string error;
    CsvOptions options;
    options.time_column = "time";
    options.measure_columns = {"value"};
    ASSERT_TRUE(service_.registry().RegisterCsvText(
        "ds",
        "time,region,value\nd0,east,1\nd0,west,2\nd1,east,3\nd1,west,1\n"
        "d2,east,2\nd2,west,5\nd3,east,4\nd3,west,2\n",
        options, &error))
        << error;
  }

  // Transport loop in miniature: parse-or-parse-error, then Handle. Also
  // asserts the connection-alive contract on every response.
  std::string Roundtrip(const std::string& line) {
    JsonValue request;
    std::string parse_error;
    std::string response;
    if (ParseJson(line, &request, &parse_error)) {
      response = handler_.Handle(request);
    } else {
      response = handler_.MakeParseError(parse_error);
    }
    EXPECT_FALSE(response.empty());
    EXPECT_EQ(response.find('\n'), std::string::npos) << response;
    JsonValue parsed;
    std::string error;
    EXPECT_TRUE(ParseJson(response, &parsed, &error))
        << error << " in " << response.substr(0, 200);
    EXPECT_TRUE(parsed.IsObject()) << response.substr(0, 200);
    return response;
  }

  // The liveness probe run after each attack: normal traffic must still
  // be served.
  void ExpectStillServing() {
    const std::string ok = Roundtrip(
        R"({"op":"explain","id":99,"dataset":"ds","measure":"value",)"
        R"("explain_by":["region"]})");
    EXPECT_NE(ok.find("\"ok\":true"), std::string::npos) << ok;
  }

  ExplainService service_;
  ProtocolHandler handler_{service_};
};

TEST_F(HostileProtocolTest, OversizedFieldsGetStructuredErrors) {
  // A multi-megabyte dataset name: rejected (or at worst not found) —
  // never a crash, never a connection drop.
  const std::string huge_name(4u << 20, 'x');
  const std::string by_name = Roundtrip(
      R"({"op":"explain","id":1,"dataset":")" + huge_name +
      R"(","measure":"value","explain_by":["region"]})");
  EXPECT_NE(by_name.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(by_name.find("\"code\":"), std::string::npos);

  // 100k explain_by entries: the dimension validator must reject this
  // without building a 100k-attribute cube.
  std::string many_dims = R"({"op":"explain","id":2,"dataset":"ds",)"
                          R"("measure":"value","explain_by":[)";
  for (int i = 0; i < 100000; ++i) {
    many_dims += i ? ",\"d\"" : "\"d\"";
  }
  many_dims += "]}";
  const std::string by_dims = Roundtrip(many_dims);
  EXPECT_NE(by_dims.find("\"ok\":false"), std::string::npos);

  // k far past any real segment count: the DP clamps it to the bucket
  // count — the response must succeed with a SMALL k, proving the
  // hostile value never sized an allocation.
  const std::string by_k = Roundtrip(
      R"({"op":"explain","id":3,"dataset":"ds","measure":"value",)"
      R"("explain_by":["region"],"k":1000000000})");
  JsonValue k_response;
  std::string k_error;
  ASSERT_TRUE(ParseJson(by_k, &k_response, &k_error));
  EXPECT_TRUE(k_response.GetBool("ok")) << by_k;
  const JsonValue* result = k_response.Find("result");
  ASSERT_NE(result, nullptr) << by_k;
  EXPECT_LE(result->GetInt("k", 0), 20) << by_k;

  // order far past the attribute count: the registry clamps it to the
  // number of explain-by attributes, so the answer is an ordinary one.
  const std::string by_order = Roundtrip(
      R"({"op":"explain","id":5,"dataset":"ds","measure":"value",)"
      R"("explain_by":["region"],"order":2147483647})");
  EXPECT_NE(by_order.find("\"ok\":true"), std::string::npos) << by_order;
  EXPECT_NE(by_order.find("\"result\":{"), std::string::npos) << by_order;

  // Negative counts are rejected up front with a structured error.
  const std::string by_neg = Roundtrip(
      R"({"op":"explain","id":4,"dataset":"ds","measure":"value",)"
      R"("explain_by":["region"],"max_k":-5})");
  EXPECT_NE(by_neg.find("\"ok\":false"), std::string::npos) << by_neg;
  EXPECT_NE(by_neg.find("\"code\":\"invalid_query\""), std::string::npos)
      << by_neg;

  ExpectStillServing();
}

TEST_F(HostileProtocolTest, DuplicateKeysAreDeterministicNotCrashy) {
  // Duplicate "op" and duplicate "dataset": RFC 8259 leaves the behavior
  // open; the handler must pick one deterministically and answer once.
  const std::string line =
      R"({"op":"explain","op":"state","id":1,"dataset":"ds",)"
      R"("dataset":"ghost","measure":"value","explain_by":["region"]})";
  const std::string dup = Roundtrip(line);
  // First key wins in this handler: the request runs as explain on "ds"
  // (not state, not the nonexistent "ghost") — and does so on every
  // repetition, so duplicate keys cannot flip the dispatched op between
  // retries.
  EXPECT_NE(dup.find("\"op\":\"explain\""), std::string::npos) << dup;
  EXPECT_NE(dup.find("\"dataset\":\"ds\""), std::string::npos) << dup;
  EXPECT_NE(dup.find("\"ok\":true"), std::string::npos) << dup;
  const std::string again = Roundtrip(line);
  EXPECT_NE(again.find("\"op\":\"explain\""), std::string::npos) << again;
  EXPECT_NE(again.find("\"dataset\":\"ds\""), std::string::npos) << again;
  ExpectStillServing();
}

TEST_F(HostileProtocolTest, NonUtf8BytesInValidJsonStayContained) {
  // Raw 0xFF/0xC0 bytes inside JSON strings: the parser is byte-oriented
  // so the document may parse; whatever happens the response is one
  // well-formed line and the service survives.
  std::string line = R"({"op":"explain","id":1,"dataset":")";
  line += '\xff';
  line += '\xc0';
  line += '\x80';
  line += R"(","measure":"value","explain_by":["region"]})";
  const std::string response = Roundtrip(line);
  EXPECT_NE(response.find("\"ok\":false"), std::string::npos);

  // Non-UTF8 in a registered CSV body: either rejected at registration
  // or registered verbatim — not a crash either way.
  std::string csv_line = R"({"op":"register","id":2,"name":"bin","csv":)";
  csv_line += R"("time,region,value\nd0,e)";
  csv_line += '\xfe';
  csv_line += R"(,1\n","time_column":"time","measures":["value"]})";
  Roundtrip(csv_line);
  ExpectStillServing();
}

TEST_F(HostileProtocolTest, LoadCacheOnCraftedFilesIsStructured) {
  // Arbitrary bytes, a truncated frame, and a wrong-magic file — the
  // exact classes the snapshot fuzzers mutate. Each must come back as a
  // structured error with the connection alive.
  const std::string garbage = TempPath("garbage");
  WriteRawFile(garbage, "this is not a cache snapshot");
  const std::string r1 = Roundtrip(
      R"({"op":"load_cache","id":1,"path":")" + garbage + R"("})");
  EXPECT_NE(r1.find("\"ok\":false"), std::string::npos) << r1;
  EXPECT_NE(r1.find("\"code\":"), std::string::npos) << r1;
  std::remove(garbage.c_str());

  // A real snapshot truncated mid-payload.
  const std::string warm = TempPath("warm");
  const std::string save = Roundtrip(
      R"({"op":"save_cache","id":2,"path":")" + warm + R"("})");
  EXPECT_NE(save.find("\"ok\":true"), std::string::npos) << save;
  std::string bytes;
  {
    std::FILE* f = std::fopen(warm.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      bytes.append(buf, n);
    }
    std::fclose(f);
  }
  ASSERT_GT(bytes.size(), 4u);
  WriteRawFile(warm, bytes.substr(0, bytes.size() - 3));
  const std::string r2 = Roundtrip(
      R"({"op":"load_cache","id":3,"path":")" + warm + R"("})");
  EXPECT_NE(r2.find("\"ok\":false"), std::string::npos) << r2;
  std::remove(warm.c_str());

  // recover_session on a non-log file: structured rejection.
  const std::string fake_log = TempPath("fakelog");
  WriteRawFile(fake_log, std::string(64, '\xab'));
  const std::string r3 = Roundtrip(
      R"({"op":"recover_session","id":4,"path":")" + fake_log + R"("})");
  EXPECT_NE(r3.find("\"ok\":false"), std::string::npos) << r3;
  std::remove(fake_log.c_str());

  ExpectStillServing();
}

TEST_F(HostileProtocolTest, RegisterFromCraftedCsvPathIsStructured) {
  // csv_path pointed at binary garbage (a "snapshot-looking" file): the
  // CSV reader must reject it structurally, not crash or hang.
  const std::string binary = TempPath("binary");
  std::string bytes = "TSXSNAP1";
  for (int i = 0; i < 1024; ++i) bytes.push_back(static_cast<char>(i));
  WriteRawFile(binary, bytes);
  const std::string response = Roundtrip(
      R"({"op":"register","id":1,"name":"b","csv_path":")" + binary +
      R"(","time_column":"time","measures":["value"]})");
  EXPECT_NE(response.find("\"ok\":false"), std::string::npos) << response;
  std::remove(binary.c_str());
  ExpectStillServing();
}

TEST_F(HostileProtocolTest, ThrowingRequestAnswersOnceAndLeavesNoStuckQuery) {
  // A metrics_history tick whose sample prologue throws: the exception
  // escapes the op's handler. The handler catches it at its one boundary:
  // each such request gets exactly one structured `internal` answer, its
  // watchdog entry is released, a counter records it, and the next
  // request is served.
  QueryWatchdog::Options watchdog_options;
  watchdog_options.stuck_after_ms = 50.0;
  QueryWatchdog watchdog(watchdog_options);
  MetricRegistry registry;
  MetricsHistory history(registry, MetricsHistory::Options{});
  history.SetSamplePrologue(
      [] { throw std::runtime_error("sample prologue failed"); });
  ProtocolHandler::Introspection introspection;
  introspection.watchdog = &watchdog;
  introspection.history = &history;
  handler_.set_introspection(introspection);
  const auto internal_errors = [] {
    const MetricsSnapshot snapshot = MetricRegistry::Global().Snapshot();
    const uint64_t* value = snapshot.FindCounter("protocol.internal_errors");
    return value ? *value : 0;
  };
  const uint64_t errors_before = internal_errors();

  for (int id = 7; id <= 8; ++id) {
    const std::string response =
        Roundtrip(R"({"op":"metrics_history","id":)" + std::to_string(id) +
                  R"(,"sample":true})");
    EXPECT_EQ(response.find("{\"id\":" + std::to_string(id) +
                            ",\"ok\":false"),
              0u)
        << response;
    EXPECT_NE(response.find("\"code\":\"internal\""), std::string::npos)
        << response;
    EXPECT_NE(response.find("sample prologue failed"), std::string::npos)
        << response;
    EXPECT_EQ(internal_errors(), errors_before + static_cast<uint64_t>(id - 6));
  }

  ExpectStillServing();
  // Past the stuck deadline, only healthz itself is in flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const std::string health = Roundtrip(R"({"op":"healthz","id":9})");
  EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos) << health;
  EXPECT_NE(health.find("\"inflight\":1,"), std::string::npos) << health;
  EXPECT_NE(health.find("\"stuck\":0"), std::string::npos) << health;
}

TEST_F(HostileProtocolTest, HugeMIsRejectedBeforeAnyEngineRuns) {
  // `m` above kMaxTopM is invalid_query, answered at validation: no engine
  // runs, nothing is cached and nothing throws. The dataset is explained
  // by one attribute, so an admitted run would take the flat pass, whose
  // Best list holds m + 1 values (16 GiB at INT_MAX - 1). Guess-and-verify
  // on and off; each answer comes back at once.
  const auto internal_errors = [] {
    const MetricsSnapshot snapshot = MetricRegistry::Global().Snapshot();
    const uint64_t* value = snapshot.FindCounter("protocol.internal_errors");
    return value ? *value : 0;
  };
  const uint64_t errors_before = internal_errors();
  const ServiceStats before = service_.Stats();
  int id = 20;
  for (const long long m :
       {static_cast<long long>(kMaxTopM) + 1, 100000LL, 1000000LL,
        2147483646LL, 2147483647LL}) {
    for (const char* guess_verify : {"false", "true"}) {
      const std::string line =
          R"({"op":"explain","id":)" + std::to_string(id) +
          R"(,"dataset":"ds","measure":"value","explain_by":["region"],)"
          R"("guess_verify":)" +
          guess_verify + R"(,"m":)" + std::to_string(m) + "}";
      const auto start = std::chrono::steady_clock::now();
      const std::string response = Roundtrip(line);
      const double seconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
      EXPECT_LT(seconds, 5.0) << line;
      EXPECT_EQ(response.find("{\"id\":" + std::to_string(id) +
                              ",\"ok\":false"),
                0u)
          << response;
      EXPECT_NE(response.find("\"code\":\"invalid_query\""),
                std::string::npos)
          << response;
      EXPECT_NE(response.find("m must be <= " + std::to_string(kMaxTopM)),
                std::string::npos)
          << response;
      ++id;
    }
  }
  EXPECT_EQ(internal_errors(), errors_before);
  const ServiceStats after = service_.Stats();
  EXPECT_EQ(after.cache.entries, before.cache.entries);
  EXPECT_EQ(after.hot_engines, before.hot_engines);

  // The cap itself is served.
  const std::string at_cap = Roundtrip(
      R"({"op":"explain","id":40,"dataset":"ds","measure":"value",)"
      R"("explain_by":["region"],"m":)" +
      std::to_string(kMaxTopM) + "}");
  EXPECT_EQ(at_cap.find("{\"id\":40,\"ok\":true"), 0u) << at_cap;
  ExpectStillServing();
}

TEST_F(HostileProtocolTest, StructurallyWrongRequestsAnswerOnce) {
  // Non-object roots, wrong-typed fields, null op, array op.
  for (const std::string& line : {
           std::string("[1,2,3]"),
           std::string("\"just a string\""),
           std::string("{\"op\":null,\"id\":1}"),
           std::string("{\"op\":[\"explain\"],\"id\":2}"),
           std::string("{\"op\":\"append\",\"id\":3,\"session\":\"x\","
                       "\"rows\":7}"),
           std::string("{\"op\":\"explain\",\"id\":4,\"dataset\":\"ds\","
                       "\"measure\":42,\"explain_by\":\"region\"}"),
       }) {
    const std::string response = Roundtrip(line);
    EXPECT_NE(response.find("\"ok\":false"), std::string::npos)
        << line << " -> " << response;
  }

  // A present field of the wrong JSON type, a fraction in an integer
  // field, or an integer outside int range is a bad_request naming the
  // field. Each request is otherwise valid: read with a default instead,
  // it would run some other query (or escape its tenant's quota).
  const std::string session_line = Roundtrip(
      R"({"op":"open_session","id":5,"dataset":"ds","measure":"value",)"
      R"("explain_by":["region"]})");
  JsonValue opened;
  std::string error;
  ASSERT_TRUE(ParseJson(session_line, &opened, &error)) << error;
  const int session = opened.GetInt("session");
  ASSERT_GT(session, 0) << session_line;
  const std::string explain =
      R"({"op":"explain","id":6,"dataset":"ds","measure":"value",)"
      R"("explain_by":["region"],)";
  const std::string open =
      R"({"op":"open_session","id":7,"dataset":"ds","measure":"value",)"
      R"("explain_by":["region"],)";
  const std::string explain_session =
      R"({"op":"explain_session","id":8,"session":)" +
      std::to_string(session) + ",";
  const std::string recommend =
      R"({"op":"recommend","id":10,"dataset":"ds",)";
  const std::string history = R"({"op":"metrics_history","id":11,)";
  const std::string register_csv =
      R"({"op":"register","id":12,"name":"typed","time_column":"time",)"
      R"("csv":"time,region,value\nd0,east,1\n",)";
  const std::vector<std::pair<std::string, std::string>> typed = {
      {"k", explain + R"("k":"5"})"},
      {"k", explain + R"("k":5.9})"},
      {"k", explain + R"("k":3e9})"},
      {"m", explain + R"("m":1e10})"},
      {"m", explain + R"("m":-1e300})"},
      {"max_k", explain + R"("max_k":2.5})"},
      {"order", explain + R"("order":"2"})"},
      {"smooth", explain + R"("smooth":1.5})"},
      {"threads", explain + R"("threads":true})"},
      {"initial_guess", explain + R"("initial_guess":[3]})"},
      {"sketch", explain + R"("sketch":"yes"})"},
      {"fast", explain + R"("fast":1})"},
      {"filter", explain + R"("filter":"true"})"},
      {"guess_verify", explain + R"("guess_verify":0})"},
      {"dedupe", explain + R"("dedupe":null})"},
      {"filter_ratio", explain + R"("filter_ratio":"0.1"})"},
      {"agg", explain + R"("agg":1})"},
      {"diff_metric", explain + R"("diff_metric":5})"},
      {"variance_metric", explain + R"("variance_metric":null})"},
      {"measure",
       R"({"op":"explain","id":9,"dataset":"ds","measure":42,)"
       R"("explain_by":["region"]})"},
      {"tenant", explain + R"("tenant":7})"},
      {"trendlines", explain + R"("trendlines":1})"},
      {"k_curve", explain + R"("k_curve":"false"})"},
      {"trace", explain + R"("trace":"yes"})"},
      {"k", open + R"("k":"5"})"},
      {"tenant", explain_session + R"("tenant":7})"},
      {"trendlines", explain_session + R"("trendlines":"yes"})"},
      {"k_curve", explain_session + R"("k_curve":0})"},
      {"trace", explain_session + R"("trace":{}})"},
      {"m", recommend + R"("m":2.5})"},
      {"m", recommend + R"("m":"x"})"},
      {"agg", recommend + R"("agg":7})"},
      {"measure", recommend + R"("measure":1})"},
      {"format", history + R"("format":1})"},
      {"last_n", history + R"("last_n":2.5})"},
      {"prefix", history + R"("prefix":["a"]})"},
      {"sample", history + R"("sample":"yes"})"},
      {"export_as", history + R"("export_as":5})"},
      {"sort_time", register_csv + R"("sort_time":"no"})"},
      {"format", R"({"op":"metrics","id":13,"format":2})"},
  };
  for (const auto& [field, line] : typed) {
    const std::string response = Roundtrip(line);
    EXPECT_NE(response.find("\"code\":\"bad_request\""), std::string::npos)
        << line << " -> " << response;
    EXPECT_NE(response.find("'" + field + "'"), std::string::npos)
        << line << " -> " << response;
  }
  ExpectStillServing();
}

}  // namespace
}  // namespace tsexplain
