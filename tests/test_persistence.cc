// Service-level persistence (the warm-start + crash-recovery story):
// ExplainService::SaveCache / LoadCache with content-fingerprint fencing, the
// per-tenant stats surface, snapshot-backed dataset registration, and
// streaming-session recovery through the append log — i.e. everything a
// `tsexplain_serve` restart leans on (docs/SERVICE.md, "Warm starts").

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/common/metrics.h"
#include "src/service/explain_service.h"
#include "src/service/protocol.h"
#include "src/service/quota.h"
#include "src/storage/cache_snapshot.h"
#include "src/storage/table_snapshot.h"

namespace tsexplain {
namespace {

std::string TempPath(const std::string& tag) {
  static int counter = 0;
  const std::string path = testing::TempDir() + "/tsx_persist_" +
                           std::to_string(::getpid()) + "_" + tag + "_" +
                           std::to_string(++counter);
  std::remove(path.c_str());
  return path;
}

// Two distinct inline datasets; `MakeCsv(0)` != `MakeCsv(1)` so fencing
// tests can swap content under a fixed name.
std::string MakeCsv(int variant) {
  std::string csv = "date,region,sales\n";
  for (int t = 0; t < 10; ++t) {
    csv += std::to_string(t) + ",east," + std::to_string(10 + t + variant) +
           "\n";
    csv += std::to_string(t) + ",west," + std::to_string(20 - t) + "\n";
  }
  return csv;
}

void RegisterSales(ExplainService& service, int variant = 0) {
  CsvOptions options;
  options.time_column = "date";
  options.measure_columns = {"sales"};
  std::string error;
  ASSERT_TRUE(service.registry().RegisterCsvText("sales", MakeCsv(variant),
                                                 options, &error))
      << error;
}

// The wire JSON embeds a timing block (wall clock, not results); masking
// it lets separately computed responses be compared byte for byte.
std::string MaskTiming(std::string json) {
  const size_t begin = json.find("\"timing_ms\":{");
  EXPECT_NE(begin, std::string::npos);
  const size_t end = json.find('}', begin);
  EXPECT_NE(end, std::string::npos);
  json.erase(begin, end - begin + 1);
  return json;
}

ExplainRequest SalesRequest(const std::string& tenant = std::string()) {
  ExplainRequest request;
  request.dataset = "sales";
  request.config.measure = "sales";
  request.config.explain_by_names = {"region"};
  request.config.fixed_k = 2;
  request.tenant = tenant;
  return request;
}

TEST(CachePersistence, WarmStartServesByteIdenticalHits) {
  const std::string path = TempPath("warm");
  std::string cold_json;
  {
    ExplainService service;
    RegisterSales(service);
    const ExplainResponse cold = service.Explain(SalesRequest());
    ASSERT_TRUE(cold.ok) << cold.error;
    EXPECT_FALSE(cold.cache_hit);
    cold_json = cold.json;
    std::string error;
    size_t saved = 0;
    ASSERT_TRUE(service.SaveCache(path, &error, &saved)) << error;
    EXPECT_EQ(saved, 1u);
  }

  // "Restart": a brand-new service re-registers the same data and loads
  // the snapshot. The first query must be a hit, byte-identical to the
  // pre-restart response.
  ExplainService restarted;
  RegisterSales(restarted);
  std::string error;
  size_t restored = 0;
  size_t fenced = 0;
  ASSERT_TRUE(restarted.LoadCache(path, &error, &restored, &fenced)) << error;
  EXPECT_EQ(restored, 1u);
  EXPECT_EQ(fenced, 0u);

  const ExplainResponse warm = restarted.Explain(SalesRequest());
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.json, cold_json);
}

TEST(CachePersistence, WarmStartRestoresKeysVerbatim) {
  const std::string path = TempPath("verbatim");
  ExplainResponse cold;
  {
    ExplainService service;
    RegisterSales(service);
    cold = service.Explain(SalesRequest());
    ASSERT_TRUE(cold.ok) << cold.error;
    std::string error;
    ASSERT_TRUE(service.SaveCache(path, &error)) << error;
  }

  // The restarted service registers another dataset first, so nothing
  // about the order of registrations matches the saved process: a key
  // that names its dataset by content is restored as saved.
  ExplainService restarted;
  CsvOptions options;
  options.time_column = "date";
  options.measure_columns = {"sales"};
  std::string error;
  ASSERT_TRUE(restarted.registry().RegisterCsvText("other", MakeCsv(1),
                                                   options, &error))
      << error;
  RegisterSales(restarted);
  size_t restored = 0;
  ASSERT_TRUE(restarted.LoadCache(path, &error, &restored)) << error;
  EXPECT_EQ(restored, 1u);

  const ExplainResponse warm = restarted.Explain(SalesRequest());
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.query_key, cold.query_key);
  EXPECT_EQ(warm.json, cold.json);
}

TEST(CacheSnapshot, Version1FileIsRejected) {
  // A version 1 file stamped each dataset with a registration uid that
  // dies with its process; this build reads none of it.
  const std::string path = TempPath("v1");
  ExplainService service;
  RegisterSales(service);
  const uint64_t fingerprint =
      service.registry().GetRef("sales").fingerprint;
  storage::ByteWriter w;
  w.WriteU32(1);             // version
  w.WriteU32(1);             // one dataset stamp
  w.WriteString("sales");
  w.WriteU64(1);             // registration uid
  w.WriteU64(fingerprint);
  w.WriteU64(1);             // one entry
  w.WriteString("v1|ds=sales|agg=sum|measure=sales|uid=1|rep=t0c1");
  w.WriteString("{\"ok\":true}");
  ASSERT_TRUE(
      storage::WriteFramedFile(path, storage::kCacheSnapshotMagic, w.buffer())
          .ok());

  storage::CacheSnapshot snapshot;
  EXPECT_EQ(storage::ReadCacheSnapshot(path, &snapshot).code,
            storage::StorageErrorCode::kBadVersion);

  std::string error;
  EXPECT_FALSE(service.LoadCache(path, &error));
  EXPECT_EQ(error.rfind("bad_version:", 0), 0u) << error;
  EXPECT_EQ(service.Stats().cache.entries, 0u);
  const ExplainResponse response = service.Explain(SalesRequest());
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_FALSE(response.cache_hit);
  std::remove(path.c_str());
}

TEST(CachePersistence, ChangedDatasetIsFencedOut) {
  const std::string path = TempPath("fence");
  {
    ExplainService service;
    RegisterSales(service, /*variant=*/0);
    ASSERT_TRUE(service.Explain(SalesRequest()).ok);
    std::string error;
    ASSERT_TRUE(service.SaveCache(path, &error)) << error;
  }

  // Same name, different content: the fingerprint mismatch fences every
  // entry — a stale explanation must never be served for new data.
  ExplainService restarted;
  RegisterSales(restarted, /*variant=*/1);
  std::string error;
  size_t restored = 0;
  size_t fenced = 0;
  ASSERT_TRUE(restarted.LoadCache(path, &error, &restored, &fenced)) << error;
  EXPECT_EQ(restored, 0u);
  EXPECT_EQ(fenced, 1u);
  const ExplainResponse response = restarted.Explain(SalesRequest());
  ASSERT_TRUE(response.ok);
  EXPECT_FALSE(response.cache_hit);
}

TEST(CachePersistence, UnregisteredDatasetIsFencedOut) {
  const std::string path = TempPath("unreg");
  {
    ExplainService service;
    RegisterSales(service);
    ASSERT_TRUE(service.Explain(SalesRequest()).ok);
    std::string error;
    ASSERT_TRUE(service.SaveCache(path, &error)) << error;
  }
  ExplainService restarted;  // nothing registered
  std::string error;
  size_t restored = 0;
  size_t fenced = 0;
  ASSERT_TRUE(restarted.LoadCache(path, &error, &restored, &fenced)) << error;
  EXPECT_EQ(restored, 0u);
  EXPECT_EQ(fenced, 1u);
}

TEST(CachePersistence, SessionEntriesAreNeverPersisted) {
  const std::string path = TempPath("session");
  {
    ExplainService service;
    RegisterSales(service);
    std::string error;
    const uint64_t session =
        service.OpenSession("sales", SalesRequest().config, &error);
    ASSERT_NE(session, 0u) << error;
    ASSERT_TRUE(service.ExplainSession(session).ok);  // caches session/1/...
    ASSERT_TRUE(service.Explain(SalesRequest()).ok);  // caches dataset entry
    size_t saved = 0;
    ASSERT_TRUE(service.SaveCache(path, &error, &saved)) << error;
    // Only the dataset-level entry: session ids restart after a crash, so
    // a persisted session entry could alias a NEW session's key.
    EXPECT_EQ(saved, 1u);
  }
}

TEST(CachePersistence, TenantEntriesRestoreIntoTheirNamespace) {
  const std::string path = TempPath("tenant");
  std::string acme_json;
  {
    ExplainService service;
    RegisterSales(service);
    const ExplainResponse acme = service.Explain(SalesRequest("acme"));
    ASSERT_TRUE(acme.ok) << acme.error;
    acme_json = acme.json;
    ASSERT_TRUE(service.Explain(SalesRequest()).ok);  // shared namespace
    std::string error;
    size_t saved = 0;
    ASSERT_TRUE(service.SaveCache(path, &error, &saved)) << error;
    EXPECT_EQ(saved, 2u);
  }

  ServiceOptions options;
  options.tenant_cache_budget_bytes = 1 << 20;
  ExplainService restarted(options);
  RegisterSales(restarted);
  std::string error;
  size_t restored = 0;
  ASSERT_TRUE(restarted.LoadCache(path, &error, &restored)) << error;
  EXPECT_EQ(restored, 2u);

  // The warm entry lands in acme's namespace (budgeted at Put like a
  // fresh one), and the stats surface shows whose bytes the cache holds.
  const ServiceStats stats = restarted.Stats();
  EXPECT_EQ(stats.tenants, 1u);
  ASSERT_EQ(stats.tenant_bytes.size(), 1u);
  EXPECT_EQ(stats.tenant_bytes[0].first, "acme");
  EXPECT_GT(stats.tenant_bytes[0].second, 0u);

  const ExplainResponse warm = restarted.Explain(SalesRequest("acme"));
  ASSERT_TRUE(warm.ok);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.json, acme_json);
}

TEST(CachePersistence, CorruptSnapshotIsAStructuredError) {
  const std::string path = TempPath("corrupt");
  {
    ExplainService service;
    RegisterSales(service);
    ASSERT_TRUE(service.Explain(SalesRequest()).ok);
    std::string error;
    ASSERT_TRUE(service.SaveCache(path, &error)) << error;
  }
  // Flip one payload byte.
  std::string contents;
  ASSERT_TRUE(storage::ReadFileToString(path, &contents).ok());
  contents[contents.size() - 1] ^= 0x01;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(contents.data(), 1, contents.size(), f);
  std::fclose(f);

  ExplainService restarted;
  RegisterSales(restarted);
  std::string error;
  EXPECT_FALSE(restarted.LoadCache(path, &error));
  EXPECT_EQ(error.rfind("checksum_mismatch:", 0), 0u) << error;
  // And the failed load left the cache cold but the service serving.
  EXPECT_TRUE(restarted.Explain(SalesRequest()).ok);
}

TEST(CachePersistence, SaveAndLoadCacheDoZeroAdditionalTableHashes) {
  // The fingerprint is computed exactly once, at registration; the cache
  // save/load fencing reuses the registry's cached value. A regression
  // that re-serializes the table per save/load/explain shows up as extra
  // "storage.fingerprint_computes" ticks.
  Counter& computes =
      MetricRegistry::Global().GetCounter("storage.fingerprint_computes");
  const std::string path = TempPath("nohash");
  {
    ExplainService service;
    RegisterSales(service);
    const uint64_t after_register = computes.Value();
    ASSERT_TRUE(service.Explain(SalesRequest()).ok);
    std::string error;
    ASSERT_TRUE(service.SaveCache(path, &error)) << error;
    EXPECT_EQ(computes.Value(), after_register)
        << "explain + save_cache must not re-hash the table";
  }

  ExplainService restarted;
  RegisterSales(restarted);
  const uint64_t after_register = computes.Value();
  std::string error;
  size_t restored = 0;
  ASSERT_TRUE(restarted.LoadCache(path, &error, &restored)) << error;
  EXPECT_EQ(restored, 1u);
  const ExplainResponse warm = restarted.Explain(SalesRequest());
  ASSERT_TRUE(warm.ok);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(computes.Value(), after_register)
      << "load_cache + a warm hit must not re-hash the table";
}

TEST(CachePersistence, StatsReportsPerTenantBytes) {
  ExplainService service;
  RegisterSales(service);
  ASSERT_TRUE(service.Explain(SalesRequest("acme")).ok);
  ASSERT_TRUE(service.Explain(SalesRequest("globex")).ok);
  ASSERT_TRUE(service.Explain(SalesRequest()).ok);
  const ServiceStats stats = service.Stats();
  ASSERT_EQ(stats.tenant_bytes.size(), 2u);
  EXPECT_EQ(stats.tenant_bytes[0].first, "acme");
  EXPECT_EQ(stats.tenant_bytes[1].first, "globex");
  EXPECT_GT(stats.tenant_bytes[0].second, 0u);
  EXPECT_GT(stats.tenant_bytes[1].second, 0u);
  // Namespaced bytes are a strict subset of the cache total (the shared
  // namespace holds the tenant-less entry).
  EXPECT_LT(stats.tenant_bytes[0].second + stats.tenant_bytes[1].second,
            stats.cache.bytes_used);
}

TEST(SnapshotRegistration, SnapshotBackedDatasetServesIdenticalResults) {
  // Register the same data twice — once parsed from CSV, once loaded from
  // a binary snapshot — and require byte-identical responses.
  ExplainService service;
  RegisterSales(service);
  const std::shared_ptr<const Table> table = service.registry().Get("sales");
  ASSERT_NE(table, nullptr);
  const std::string path = TempPath("snapreg");
  ASSERT_TRUE(storage::WriteTableSnapshot(*table, path).ok());

  std::string error;
  DatasetInfo info;
  ASSERT_TRUE(service.registry().RegisterSnapshotFile("sales2", path, &error,
                                                      &info))
      << error;
  EXPECT_EQ(info.rows, 20u);
  EXPECT_EQ(info.time_buckets, 10u);
  EXPECT_EQ(info.source, path);

  ExplainRequest on_snapshot = SalesRequest();
  on_snapshot.dataset = "sales2";
  const ExplainResponse a = service.Explain(SalesRequest());
  const ExplainResponse b = service.Explain(on_snapshot);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(MaskTiming(a.json), MaskTiming(b.json));

  // A corrupt snapshot registers nothing and reports the structured code.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, -1, SEEK_END);
  std::fputc('!', f);
  std::fclose(f);
  EXPECT_FALSE(
      service.registry().RegisterSnapshotFile("sales3", path, &error));
  EXPECT_EQ(error.rfind("checksum_mismatch:", 0), 0u) << error;
  EXPECT_EQ(service.registry().Get("sales3"), nullptr);
}

// --- Streaming-session recovery -------------------------------------------

std::vector<StreamRow> Bucket(int t) {
  return {{{"east"}, {30.0 + t}}, {{"west"}, {11.0 - t}}};
}

TEST(SessionRecovery, RecoveredSessionExplainsIdentically) {
  const std::string dir = testing::TempDir();
  std::string log_path;
  std::string crashed_json;
  {
    ServiceOptions options;
    options.session_log_dir = dir;
    ExplainService service(options);
    RegisterSales(service);
    std::string error;
    ExplainService::SessionState state;
    const uint64_t session =
        service.OpenSession("sales", SalesRequest().config, &error, &state);
    ASSERT_NE(session, 0u) << error;
    log_path = state.log_path;  // pid-scoped: never guess
    ASSERT_FALSE(log_path.empty());
    ASSERT_TRUE(service.Append(session, "b1", Bucket(1), &error)) << error;
    ASSERT_TRUE(service.Append(session, "b2", Bucket(2), &error)) << error;
    const ExplainResponse response = service.ExplainSession(session);
    ASSERT_TRUE(response.ok) << response.error;
    crashed_json = response.json;
    // No CloseSession: the service dies here — the crash being simulated.
  }

  ServiceOptions options;
  options.session_log_dir = dir;
  ExplainService restarted(options);
  RegisterSales(restarted);
  std::string error;
  bool torn = true;
  int replayed = -1;
  ExplainService::SessionState state;
  // Recovery fences on the fingerprint the registry cached at
  // registration: it never re-serializes the table.
  Counter& computes =
      MetricRegistry::Global().GetCounter("storage.fingerprint_computes");
  const uint64_t computes_before = computes.Value();
  const uint64_t recovered =
      restarted.RecoverSession(log_path, &error, &torn, &replayed, &state);
  ASSERT_NE(recovered, 0u) << error;
  EXPECT_EQ(computes.Value(), computes_before)
      << "recover_session must not re-hash the registered table";
  EXPECT_FALSE(torn);
  EXPECT_EQ(replayed, 2);
  EXPECT_EQ(state.n, 12);

  const ExplainResponse response = restarted.ExplainSession(recovered);
  ASSERT_TRUE(response.ok) << response.error;
  // Everything except the (wall-clock) timing block must match byte for
  // byte: the replayed session IS the crashed session.
  EXPECT_EQ(MaskTiming(response.json), MaskTiming(crashed_json));

  // The recovered session logs onward: a further append + crash would
  // recover to THIS state (header + replayed appends are re-logged).
  const std::string new_log = state.log_path;
  ASSERT_FALSE(new_log.empty());
  // The recovered session's log must NOT clobber the crashed process's
  // (same pid here, but a new id; across processes the pid differs too).
  EXPECT_NE(new_log, log_path);
  ASSERT_TRUE(restarted.Append(recovered, "b3", Bucket(3), &error)) << error;
  storage::SessionLogContents contents;
  ASSERT_TRUE(storage::ReadSessionLog(new_log, &contents).ok());
  EXPECT_EQ(contents.appends.size(), 3u);
  EXPECT_EQ(contents.appends[2].label, "b3");

  // Clean close removes the log.
  ASSERT_TRUE(restarted.CloseSession(recovered));
  std::string probe;
  EXPECT_FALSE(storage::ReadFileToString(new_log, &probe).ok());
  std::remove(log_path.c_str());
}

TEST(SessionRecovery, FailsStructurallyWhenBaseChangedOrMissing) {
  const std::string dir = testing::TempDir();
  std::string log_path;
  {
    ServiceOptions options;
    options.session_log_dir = dir;
    ExplainService service(options);
    RegisterSales(service, /*variant=*/0);
    std::string error;
    ExplainService::SessionState state;
    const uint64_t session =
        service.OpenSession("sales", SalesRequest().config, &error, &state);
    ASSERT_NE(session, 0u) << error;
    log_path = state.log_path;
    ASSERT_FALSE(log_path.empty());
    ASSERT_TRUE(service.Append(session, "b1", Bucket(1), &error)) << error;
  }

  {
    // Dataset not registered: structured "unknown dataset".
    ExplainService restarted;
    std::string error;
    EXPECT_EQ(restarted.RecoverSession(log_path, &error), 0u);
    EXPECT_EQ(error.rfind("unknown dataset", 0), 0u) << error;
  }
  {
    // Dataset re-registered with DIFFERENT content: fingerprint fence.
    ExplainService restarted;
    RegisterSales(restarted, /*variant=*/1);
    std::string error;
    EXPECT_EQ(restarted.RecoverSession(log_path, &error), 0u);
    EXPECT_EQ(error.rfind("format_error:", 0), 0u) << error;
    EXPECT_NE(error.find("fingerprint"), std::string::npos);
  }
  {
    // Garbage file: structured, never an abort.
    ExplainService restarted;
    RegisterSales(restarted);
    std::string error;
    EXPECT_EQ(restarted.RecoverSession(TempPath("absent"), &error), 0u);
    EXPECT_EQ(error.rfind("io_error:", 0), 0u) << error;
  }
  std::remove(log_path.c_str());
}

// --- Protocol surface ------------------------------------------------------

TEST(ProtocolPersistence, SaveLoadRecoverOpsRoundTrip) {
  const std::string dir = testing::TempDir();
  const std::string cache_path = TempPath("proto_cache");
  std::string log_path;

  ServiceOptions options;
  options.session_log_dir = dir;
  ExplainService service(options);
  RegisterSales(service);
  ProtocolHandler handler(service);

  auto handle = [&](const std::string& line) {
    JsonValue request;
    std::string parse_error;
    EXPECT_TRUE(ParseJson(line, &request, &parse_error)) << parse_error;
    return handler.Handle(request);
  };
  auto log_of = [](const std::string& response) {
    JsonValue parsed;
    std::string parse_error;
    EXPECT_TRUE(ParseJson(response, &parsed, &parse_error)) << parse_error;
    return parsed.GetString("log");
  };

  const std::string explain_line =
      "{\"op\":\"explain\",\"id\":1,\"dataset\":\"sales\","
      "\"measure\":\"sales\",\"explain_by\":[\"region\"],\"k\":2}";
  EXPECT_NE(handle(explain_line).find("\"ok\":true"), std::string::npos);

  std::string response =
      handle("{\"op\":\"save_cache\",\"id\":2,\"path\":\"" + cache_path +
             "\"}");
  EXPECT_NE(response.find("\"saved\":1"), std::string::npos) << response;

  response = handle(
      "{\"op\":\"open_session\",\"id\":3,\"dataset\":\"sales\","
      "\"measure\":\"sales\",\"explain_by\":[\"region\"],\"k\":2}");
  EXPECT_NE(response.find("\"session\":1"), std::string::npos) << response;
  // The response exposes the (pid-scoped) log path; clients never guess.
  log_path = log_of(response);
  ASSERT_FALSE(log_path.empty()) << response;

  // Ops without a path are bad requests; a bad path is a structured error.
  EXPECT_NE(handle("{\"op\":\"load_cache\",\"id\":4}")
                .find("\"code\":\"bad_request\""),
            std::string::npos);
  EXPECT_NE(handle("{\"op\":\"recover_session\",\"id\":5,\"path\":\"/no/"
                   "such/file\"}")
                .find("\"code\":\"bad_request\""),
            std::string::npos);

  response = handle("{\"op\":\"load_cache\",\"id\":6,\"path\":\"" +
                    cache_path + "\"}");
  EXPECT_NE(response.find("\"restored\":1"), std::string::npos) << response;
  EXPECT_NE(response.find("\"fenced\":0"), std::string::npos) << response;

  // The warm entry serves the next explain as a hit.
  response = handle(explain_line);
  EXPECT_NE(response.find("\"cache_hit\":true"), std::string::npos)
      << response;

  response = handle("{\"op\":\"recover_session\",\"id\":7,\"path\":\"" +
                    log_path + "\"}");
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos) << response;
  EXPECT_NE(response.find("\"session\":2"), std::string::npos) << response;
  EXPECT_NE(response.find("\"torn\":false"), std::string::npos) << response;
  const std::string recovered_log = log_of(response);
  EXPECT_FALSE(recovered_log.empty()) << response;

  // Persistence ops are barriers (they mutate / snapshot global state).
  EXPECT_EQ(ProtocolHandler::DispatchOf("save_cache"),
            ProtocolHandler::Dispatch::kBarrier);
  EXPECT_EQ(ProtocolHandler::DispatchOf("load_cache"),
            ProtocolHandler::Dispatch::kBarrier);
  EXPECT_EQ(ProtocolHandler::DispatchOf("recover_session"),
            ProtocolHandler::Dispatch::kBarrier);

  // state carries the tenant_bytes object.
  response = handle("{\"op\":\"state\",\"id\":8}");
  EXPECT_NE(response.find("\"tenant_bytes\":{"), std::string::npos)
      << response;

  std::remove(log_path.c_str());
  std::remove(recovered_log.c_str());
  std::remove(cache_path.c_str());
}

}  // namespace
}  // namespace tsexplain
