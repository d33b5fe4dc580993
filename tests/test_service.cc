// End-to-end coverage of the explanation service (src/service/): dataset
// registry, cached + concurrent explains bit-identical to direct
// TSExplain::Run, single-flight behavior at the service level, and
// streaming sessions with scoped cache invalidation.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/metrics.h"
#include "src/datagen/sp500_sim.h"
#include "src/datagen/synthetic.h"
#include "src/service/explain_service.h"
#include "src/service/protocol.h"

namespace tsexplain {
namespace {

std::shared_ptr<const Table> MakeTable(uint64_t seed, int length = 72) {
  SyntheticConfig config;
  config.length = length;
  config.num_categories = 4;
  config.snr_db = 30.0;
  config.num_interior_cuts = 3;
  config.seed = seed;
  SyntheticDataset ds = GenerateSynthetic(config);
  return std::shared_ptr<const Table>(std::move(ds.table));
}

TSExplainConfig BaseConfig() {
  TSExplainConfig config;
  config.measure = "value";
  config.explain_by_names = {"category"};
  config.max_order = 1;
  return config;
}

void ExpectIdenticalResults(const TSExplainResult& a,
                            const TSExplainResult& b) {
  EXPECT_EQ(a.segmentation.cuts, b.segmentation.cuts);
  EXPECT_EQ(a.chosen_k, b.chosen_k);
  EXPECT_EQ(a.k_variance_curve, b.k_variance_curve);
  EXPECT_EQ(a.epsilon, b.epsilon);
  EXPECT_EQ(a.filtered_epsilon, b.filtered_epsilon);
  ASSERT_EQ(a.segments.size(), b.segments.size());
  for (size_t s = 0; s < a.segments.size(); ++s) {
    EXPECT_EQ(a.segments[s].begin, b.segments[s].begin);
    EXPECT_EQ(a.segments[s].end, b.segments[s].end);
    EXPECT_EQ(a.segments[s].variance, b.segments[s].variance);
    ASSERT_EQ(a.segments[s].top.size(), b.segments[s].top.size());
    for (size_t r = 0; r < a.segments[s].top.size(); ++r) {
      EXPECT_EQ(a.segments[s].top[r].id, b.segments[s].top[r].id);
      EXPECT_EQ(a.segments[s].top[r].gamma, b.segments[s].top[r].gamma);
      EXPECT_EQ(a.segments[s].top[r].tau, b.segments[s].top[r].tau);
    }
  }
}

TEST(DatasetRegistryTest, RegisterLookupDropAndDuplicates) {
  DatasetRegistry registry;
  std::string error;
  ASSERT_TRUE(registry.RegisterTable("a", MakeTable(1), "<table>", &error));
  EXPECT_FALSE(registry.RegisterTable("a", MakeTable(2), "<table>", &error));
  EXPECT_NE(error.find("already registered"), std::string::npos);
  EXPECT_NE(registry.Get("a"), nullptr);
  EXPECT_EQ(registry.Get("missing"), nullptr);

  const std::vector<DatasetInfo> list = registry.List();
  ASSERT_EQ(list.size(), 1u);
  EXPECT_EQ(list[0].name, "a");
  EXPECT_EQ(list[0].dimensions, std::vector<std::string>{"category"});

  EXPECT_TRUE(registry.Drop("a"));
  EXPECT_FALSE(registry.Drop("a"));
  EXPECT_EQ(registry.Get("a"), nullptr);
}

TEST(DatasetRegistryTest, CsvTextRegistration) {
  DatasetRegistry registry;
  CsvOptions options;
  options.time_column = "date";
  options.measure_columns = {"sales"};
  std::string error;
  ASSERT_TRUE(registry.RegisterCsvText(
      "sales", "date,region,sales\n0,east,1\n1,east,2\n2,east,3\n", options,
      &error))
      << error;
  EXPECT_EQ(registry.Get("sales")->num_time_buckets(), 3u);
  EXPECT_FALSE(registry.RegisterCsvText("bad", "nope", options, &error));
}

TEST(DatasetRegistryTest, EngineReuseAcrossSegmentationKnobs) {
  DatasetRegistry registry;
  std::string error;
  ASSERT_TRUE(
      registry.RegisterTable("ds", MakeTable(3), "<table>", &error));
  TSExplainConfig config = BaseConfig();
  const DatasetRegistry::TableRef ref = registry.GetRef("ds");
  ASSERT_NE(ref.table, nullptr);
  EngineHandle h1 = registry.GetOrBuildEngine("ds", "engine-key", config,
                                              ref.table.get(), &error);
  ASSERT_TRUE(h1.ok());
  config.fixed_k = 4;  // same engine key: segmentation-only change
  EngineHandle h2 = registry.GetOrBuildEngine("ds", "engine-key", config,
                                              ref.table.get(), &error);
  ASSERT_TRUE(h2.ok());
  EXPECT_EQ(h1.engine.get(), h2.engine.get());
  EXPECT_EQ(registry.NumEngines(), 1u);
  EngineHandle h3 = registry.GetOrBuildEngine("ds", "other-key", config,
                                              ref.table.get(), &error);
  ASSERT_TRUE(h3.ok());
  EXPECT_NE(h1.engine.get(), h3.engine.get());
  EXPECT_EQ(registry.NumEngines(), 2u);

  // Dropping the dataset is safe while handles are out.
  EXPECT_TRUE(registry.Drop("ds"));
  EngineHandle h4 = registry.GetOrBuildEngine("ds", "engine-key", config,
                                              ref.table.get(), &error);
  EXPECT_FALSE(h4.ok());

  // Re-register under the same name: an engine build that still carries
  // the OLD table pointer is refused (the config was never validated
  // against the new schema).
  ASSERT_TRUE(
      registry.RegisterTable("ds", MakeTable(43), "<table>", &error));
  EngineHandle h5 = registry.GetOrBuildEngine("ds", "engine-key", config,
                                              ref.table.get(), &error);
  EXPECT_FALSE(h5.ok());
  EXPECT_NE(error.find("changed during query"), std::string::npos);
  MutexLock lock(*h1.mu);
  const TSExplainResult still_works = h1.engine->Run();
  EXPECT_GT(still_works.chosen_k, 0);
}

TEST(ExplainServiceTest, DropDatasetInvalidatesItsCachedResults) {
  ExplainService service;
  std::string error;
  ASSERT_TRUE(service.registry().RegisterTable("ds", MakeTable(29),
                                               "<table>", &error));
  ASSERT_TRUE(service.registry().RegisterTable("other", MakeTable(31),
                                               "<table>", &error));
  ExplainRequest request;
  request.dataset = "ds";
  request.config = BaseConfig();
  const ExplainResponse v1 = service.Explain(request);
  ASSERT_TRUE(v1.ok);
  ExplainRequest other_request;
  other_request.dataset = "other";
  other_request.config = BaseConfig();
  ASSERT_TRUE(service.Explain(other_request).ok);

  // Drop + re-register the same name with DIFFERENT data: the old cached
  // result must not survive as a hit.
  EXPECT_TRUE(service.DropDataset("ds"));
  EXPECT_FALSE(service.DropDataset("ds"));
  ASSERT_TRUE(service.registry().RegisterTable("ds", MakeTable(37),
                                               "<table>", &error));
  const ExplainResponse v2 = service.Explain(request);
  ASSERT_TRUE(v2.ok);
  EXPECT_FALSE(v2.cache_hit);
  // Unrelated datasets keep their entries.
  EXPECT_TRUE(service.Explain(other_request).cache_hit);
}

// A wire report without the timing_ms block it ends with (wall clock,
// not results): separately computed answers compare byte for byte.
std::string Untimed(const std::string& report) {
  return report.substr(0, report.rfind(",\"timing_ms\":{"));
}

TEST(ExplainServiceTest, ReRegisteredIdenticalDataKeepsItsKeys) {
  // The dataset's content is its identity in cache keys: the same bytes
  // registered again compute under the same key, other bytes under
  // another.
  ExplainService service;
  std::string error;
  ASSERT_TRUE(service.registry().RegisterTable("ds", MakeTable(29),
                                               "<table>", &error));
  ExplainRequest request;
  request.dataset = "ds";
  request.config = BaseConfig();
  const ExplainResponse before = service.Explain(request);
  ASSERT_TRUE(before.ok) << before.error;

  // Byte-identical data: the drop invalidated the entry, so this is a
  // miss, but it computes the same answer under the same key.
  ASSERT_TRUE(service.DropDataset("ds"));
  ASSERT_TRUE(service.registry().RegisterTable("ds", MakeTable(29),
                                               "<table>", &error));
  const ExplainResponse same = service.Explain(request);
  ASSERT_TRUE(same.ok) << same.error;
  EXPECT_FALSE(same.cache_hit);
  EXPECT_EQ(same.query_key, before.query_key);
  EXPECT_EQ(Untimed(same.json), Untimed(before.json));
  EXPECT_TRUE(service.Explain(request).cache_hit);

  // Different data under the name: another key, and nothing hits.
  ASSERT_TRUE(service.DropDataset("ds"));
  ASSERT_TRUE(service.registry().RegisterTable("ds", MakeTable(37),
                                               "<table>", &error));
  const ExplainResponse changed = service.Explain(request);
  ASSERT_TRUE(changed.ok) << changed.error;
  EXPECT_FALSE(changed.cache_hit);
  EXPECT_NE(changed.query_key, before.query_key);
}

TEST(ExplainServiceTest, ErrorResponsesInsteadOfAborts) {
  ExplainService service;
  std::string error;
  ASSERT_TRUE(service.registry().RegisterTable("ds", MakeTable(5),
                                               "<table>", &error));
  ExplainRequest request;
  request.dataset = "nope";
  request.config = BaseConfig();
  EXPECT_EQ(service.Explain(request).error_code, error_code::kNotFound);

  request.dataset = "ds";
  request.config.measure = "no_such_measure";
  EXPECT_EQ(service.Explain(request).error_code,
            error_code::kInvalidQuery);

  request.config = BaseConfig();
  request.config.explain_by_names = {"no_such_dim"};
  EXPECT_EQ(service.Explain(request).error_code,
            error_code::kInvalidQuery);

  request.config = BaseConfig();
  request.config.m = 0;
  EXPECT_EQ(service.Explain(request).error_code,
            error_code::kInvalidQuery);
}

TEST(ExplainServiceTest, CachedExplainMatchesDirectRunBitExactly) {
  const std::shared_ptr<const Table> table = MakeTable(7);
  ExplainService service;
  std::string error;
  ASSERT_TRUE(
      service.registry().RegisterTable("ds", table, "<table>", &error));

  ExplainRequest request;
  request.dataset = "ds";
  request.config = BaseConfig();

  const ExplainResponse cold = service.Explain(request);
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_FALSE(cold.cache_hit);
  const ExplainResponse hot = service.Explain(request);
  ASSERT_TRUE(hot.ok);
  EXPECT_TRUE(hot.cache_hit);
  EXPECT_EQ(hot.json, cold.json);
  EXPECT_EQ(hot.result.get(), cold.result.get());

  TSExplain direct(*table, request.config);
  ExpectIdenticalResults(*cold.result, direct.Run());
}

TEST(ExplainServiceTest, ExplainByOrderInvariantAndMatchesCanonicalRun) {
  // Results can depend on explain-by attribute order (top-m ties break by
  // attribute position), so the service must build its engine from the
  // SAME canonical spelling the cache key uses: both spellings get one
  // entry, and that entry equals a direct run with the sorted order.
  ExplainService service;
  std::string csv = "date,region,channel,sales\n";
  for (int t = 0; t < 12; ++t) {
    for (const char* region : {"east", "west"}) {
      for (const char* channel : {"web", "store"}) {
        csv += std::to_string(t) + "," + region + "," + channel + "," +
               std::to_string((t * 7 + (region[0] + channel[0]) % 13) %
                              23) +
               "\n";
      }
    }
  }
  CsvOptions options;
  options.time_column = "date";
  options.measure_columns = {"sales"};
  std::string error;
  ASSERT_TRUE(
      service.registry().RegisterCsvText("sales", csv, options, &error))
      << error;

  ExplainRequest forward;
  forward.dataset = "sales";
  forward.config.measure = "sales";
  forward.config.explain_by_names = {"region", "channel"};
  forward.config.max_order = 2;
  forward.config.fixed_k = 3;
  ExplainRequest backward = forward;
  backward.config.explain_by_names = {"channel", "region"};

  const ExplainResponse first = service.Explain(forward);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_FALSE(first.cache_hit);
  const ExplainResponse second = service.Explain(backward);
  ASSERT_TRUE(second.ok);
  EXPECT_TRUE(second.cache_hit);  // same canonical query
  EXPECT_EQ(second.json, first.json);

  // The shared entry equals a direct run with the canonical (sorted)
  // spelling — NOT first-arrival spelling luck.
  TSExplainConfig canonical = forward.config;
  canonical.explain_by_names = {"channel", "region"};  // sorted
  TSExplain direct(*service.registry().Get("sales"), canonical);
  ExpectIdenticalResults(*first.result, direct.Run());
}

TEST(ExplainServiceTest, ConcurrentMixedQueriesBitIdenticalToSerial) {
  // The ISSUE acceptance check: >= 4 client threads, mixed cached and
  // uncached queries, all responses bit-identical to serial
  // TSExplain::Run on the same table.
  const std::shared_ptr<const Table> table = MakeTable(11);
  ExplainService service;
  std::string error;
  ASSERT_TRUE(
      service.registry().RegisterTable("ds", table, "<table>", &error));

  // Six query variants: same engine for the k-variants, distinct engines
  // for the m/metric variants.
  std::vector<TSExplainConfig> variants;
  for (int k : {0, 3, 5}) {
    TSExplainConfig config = BaseConfig();
    config.fixed_k = k;
    variants.push_back(config);
  }
  {
    TSExplainConfig config = BaseConfig();
    config.m = 2;
    variants.push_back(config);
    config = BaseConfig();
    config.diff_metric = DiffMetricKind::kRelativeChange;
    variants.push_back(config);
    config = BaseConfig();
    config.threads = 4;  // same key as variants[0]: results identical
    variants.push_back(config);
  }

  // Serial ground truth through the raw pipeline.
  std::vector<TSExplainResult> expected;
  expected.reserve(variants.size());
  for (const TSExplainConfig& config : variants) {
    TSExplain engine(*table, config);
    expected.push_back(engine.Run());
  }

  // Warm a subset so the concurrent phase mixes cache hits and misses.
  for (size_t v = 0; v < 2; ++v) {
    ExplainRequest request;
    request.dataset = "ds";
    request.config = variants[v];
    ASSERT_TRUE(service.Explain(request).ok);
  }

  // Gather responses on worker threads; assert on the main thread (gtest
  // assertions are not guaranteed thread-safe).
  constexpr int kThreads = 6;
  constexpr int kRounds = 8;
  std::vector<std::thread> clients;
  std::vector<std::vector<std::pair<size_t, ExplainResponse>>> collected(
      kThreads);
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        const size_t v =
            (static_cast<size_t>(t) + static_cast<size_t>(round)) %
            variants.size();
        ExplainRequest request;
        request.dataset = "ds";
        request.config = variants[v];
        collected[static_cast<size_t>(t)].emplace_back(
            v, service.Explain(request));
      }
    });
  }
  for (std::thread& client : clients) client.join();
  for (const auto& per_thread : collected) {
    ASSERT_EQ(per_thread.size(), static_cast<size_t>(kRounds));
    for (const auto& [v, response] : per_thread) {
      ASSERT_TRUE(response.ok) << response.error;
      ExpectIdenticalResults(*response.result, expected[v]);
    }
  }

  // One admitted computation per distinct query key (5 distinct keys
  // among 6 variants); every other request was a hit or was batched onto
  // a leader by admission.
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.admission.admitted, 5u);
  EXPECT_GE(stats.cache.hits + stats.admission.coalesced,
            static_cast<size_t>(kThreads * kRounds + 2 - 5));
  // The k-variants shared one hot engine; m/diff-metric got their own.
  EXPECT_EQ(stats.hot_engines, 3u);
}

TEST(ExplainServiceTest, SessionAppendInvalidatesOnlyThatSession) {
  const std::shared_ptr<const Table> table = MakeTable(17, 48);
  ExplainService service;
  std::string error;
  ASSERT_TRUE(
      service.registry().RegisterTable("ds", table, "<table>", &error));

  const TSExplainConfig config = BaseConfig();
  // Each session op reports the state it left, read under its own lock.
  ExplainService::SessionState state;
  const uint64_t s1 = service.OpenSession("ds", config, &error, &state);
  ASSERT_NE(s1, 0u) << error;
  EXPECT_EQ(state.n, 48);
  EXPECT_EQ(state.log_path, "");  // session logging is off
  const uint64_t s2 = service.OpenSession("ds", config, &error);
  ASSERT_NE(s2, 0u) << error;

  // Also warm a dataset-level cache entry: it must survive appends.
  ExplainRequest request;
  request.dataset = "ds";
  request.config = config;
  ASSERT_TRUE(service.Explain(request).ok);

  ExplainResponse r1 = service.ExplainSession(s1);
  ASSERT_TRUE(r1.ok) << r1.error;
  EXPECT_FALSE(r1.cache_hit);
  EXPECT_TRUE(service.ExplainSession(s1).cache_hit);
  ExplainResponse r2 = service.ExplainSession(s2);
  ASSERT_TRUE(r2.ok);
  EXPECT_FALSE(r2.cache_hit);
  EXPECT_TRUE(service.ExplainSession(s2).cache_hit);

  // Append one bucket to session 1 (category values already known, so no
  // rebuild) — only session 1's cache entries drop.
  std::vector<StreamRow> rows;
  for (int c = 1; c <= 4; ++c) {
    StreamRow row;
    row.dims = {"a" + std::to_string(c)};
    row.measures = {42.0 + c};
    rows.push_back(row);
  }
  ASSERT_TRUE(service.Append(s1, "t_new", rows, &error, &state)) << error;
  EXPECT_EQ(state.n, 49);
  EXPECT_FALSE(state.rebuilt);

  const ExplainResponse after =
      service.ExplainSession(s1, false, true, "", false, &state);
  ASSERT_TRUE(after.ok);
  EXPECT_FALSE(after.cache_hit);  // invalidated by the append
  EXPECT_EQ(state.n, 49);
  EXPECT_TRUE(service.ExplainSession(s2, false, true, "", false, &state)
                  .cache_hit);  // other session kept, at its own length
  EXPECT_EQ(state.n, 48);
  EXPECT_TRUE(service.Explain(request).cache_hit);  // dataset kept

  // Row-shape validation surfaces as an error, not an abort.
  StreamRow bad;
  bad.dims = {"a1", "extra"};
  bad.measures = {1.0};
  EXPECT_FALSE(service.Append(s1, "t_bad", {bad}, &error));
  EXPECT_NE(error.find("row shape mismatch"), std::string::npos);

  // A never-seen category forces a rebuild, and the append says so.
  StreamRow fresh;
  fresh.dims = {"a_new"};
  fresh.measures = {7.0};
  ASSERT_TRUE(service.Append(s1, "t_fresh", {fresh}, &error, &state))
      << error;
  EXPECT_EQ(state.n, 50);
  EXPECT_TRUE(state.rebuilt);
  ASSERT_TRUE(
      service.ExplainSession(s1, false, true, "", false, &state).ok);
  EXPECT_EQ(state.n, 50);

  EXPECT_TRUE(service.CloseSession(s1));
  EXPECT_FALSE(service.CloseSession(s1));
  EXPECT_EQ(service.ExplainSession(s1).error_code, error_code::kNotFound);
}

TEST(ExplainServiceTest, SessionExplainMatchesStreamingEngine) {
  const std::shared_ptr<const Table> table = MakeTable(19, 48);
  ExplainService service;
  std::string error;
  ASSERT_TRUE(
      service.registry().RegisterTable("ds", table, "<table>", &error));
  const TSExplainConfig config = BaseConfig();
  const uint64_t session = service.OpenSession("ds", config, &error);
  ASSERT_NE(session, 0u);

  StreamingTSExplain reference(*table, config);

  std::vector<StreamRow> rows;
  for (int c = 1; c <= 4; ++c) {
    StreamRow row;
    row.dims = {"a" + std::to_string(c)};
    row.measures = {10.0 * c};
    rows.push_back(row);
  }

  const ExplainResponse first = service.ExplainSession(session);
  ASSERT_TRUE(first.ok);
  ExpectIdenticalResults(*first.result, reference.Explain());

  ASSERT_TRUE(service.Append(session, "t_a", rows, &error)) << error;
  reference.AppendBucket("t_a", rows);
  const ExplainResponse second = service.ExplainSession(session);
  ASSERT_TRUE(second.ok);
  ExpectIdenticalResults(*second.result, reference.Explain());
}

TEST(ExplainServiceTest, OverloadShedsColdButNeverHotQueries) {
  ServiceOptions options;
  options.admission.max_concurrent = 1;
  options.admission.queue_depth = 0;
  ExplainService service(options);
  std::string error;
  ASSERT_TRUE(service.registry().RegisterTable("ds", MakeTable(41),
                                               "<table>", &error));

  ExplainRequest hot;
  hot.dataset = "ds";
  hot.config = BaseConfig();
  ASSERT_TRUE(service.Explain(hot).ok);  // warm the cache

  // Occupy the single admission slot directly (deterministic pressure —
  // no racing threads needed).
  auto blocker = std::make_unique<AdmissionController::Ticket>(
      service.admission().Admit("blocker", "", 1));
  ASSERT_TRUE(blocker->admitted());

  // A COLD query is shed with a structured overloaded error + hint.
  ExplainRequest cold = hot;
  cold.config.fixed_k = 4;
  const ExplainResponse shed = service.Explain(cold);
  EXPECT_FALSE(shed.ok);
  EXPECT_EQ(shed.error_code, error_code::kOverloaded);
  EXPECT_GT(shed.retry_after_ms, 0.0);

  // The HOT query still serves from cache under full overload.
  const ExplainResponse served = service.Explain(hot);
  EXPECT_TRUE(served.ok);
  EXPECT_TRUE(served.cache_hit);

  // Releasing the slot lets the cold query through, bit-identical to a
  // serial run (shedding never corrupts later executions).
  blocker.reset();
  const ExplainResponse after = service.Explain(cold);
  ASSERT_TRUE(after.ok) << after.error;
  TSExplain direct(*service.registry().Get("ds"), cold.config);
  ExpectIdenticalResults(*after.result, direct.Run());

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.admission.shed_overload, 1u);
  EXPECT_GE(stats.admission.admitted, 2u);
}

TEST(ExplainServiceTest, TenantQuotasShedAndNamespaceTheCache) {
  ServiceOptions options;
  // Roomy global capacity (independent of this box's pool size), so the
  // per-tenant cap below is the only binding constraint.
  options.admission.max_concurrent = 4;
  options.admission.per_tenant_inflight = 1;
  ExplainService service(options);
  std::string error;
  ASSERT_TRUE(service.registry().RegisterTable("ds", MakeTable(43),
                                               "<table>", &error));

  ExplainRequest request;
  request.dataset = "ds";
  request.config = BaseConfig();

  // Invalid tenant ids are rejected before any work happens.
  request.tenant = "not ok";
  EXPECT_EQ(service.Explain(request).error_code, error_code::kBadRequest);

  // Tenants get their own cache namespace: the same query computes once
  // per namespace but yields bit-identical results.
  request.tenant = "acme";
  const ExplainResponse acme = service.Explain(request);
  ASSERT_TRUE(acme.ok) << acme.error;
  EXPECT_FALSE(acme.cache_hit);
  EXPECT_EQ(acme.query_key.rfind("tenant/acme/", 0), 0u);
  request.tenant.clear();
  const ExplainResponse shared = service.Explain(request);
  ASSERT_TRUE(shared.ok);
  EXPECT_FALSE(shared.cache_hit);  // distinct namespace, fresh compute
  ExpectIdenticalResults(*acme.result, *shared.result);
  request.tenant = "acme";
  EXPECT_TRUE(service.Explain(request).cache_hit);

  // Per-tenant in-flight cap: with acme's one slot held, acme's next
  // cold query is shed with quota_exceeded; other tenants are untouched.
  auto held = std::make_unique<AdmissionController::Ticket>(
      service.admission().Admit("held", "acme", 1));
  ASSERT_TRUE(held->admitted());
  ExplainRequest cold = request;
  cold.config.fixed_k = 5;
  const ExplainResponse quota = service.Explain(cold);
  EXPECT_FALSE(quota.ok);
  EXPECT_EQ(quota.error_code, error_code::kQuotaExceeded);
  EXPECT_GT(quota.retry_after_ms, 0.0);
  // acme's HOT query still serves (cache hits bypass admission).
  EXPECT_TRUE(service.Explain(request).cache_hit);
  cold.tenant = "globex";
  EXPECT_TRUE(service.Explain(cold).ok);
  held.reset();
  cold.tenant = "acme";
  EXPECT_TRUE(service.Explain(cold).ok);

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.admission.shed_tenant, 1u);
  EXPECT_EQ(stats.tenants, 2u);
}

TEST(ExplainServiceTest, TenantCacheBudgetBoundsOneTenantsFootprint) {
  ServiceOptions options;
  // A budget too small for even one entry: the budgeted tenant's results
  // are served but never cached, while untenanted queries cache fine.
  options.tenant_cache_budget_bytes = 16;
  ExplainService service(options);
  std::string error;
  ASSERT_TRUE(service.registry().RegisterTable("ds", MakeTable(47),
                                               "<table>", &error));

  ExplainRequest request;
  request.dataset = "ds";
  request.config = BaseConfig();
  request.tenant = "spammy";
  ASSERT_TRUE(service.Explain(request).ok);
  EXPECT_FALSE(service.Explain(request).cache_hit);  // budget kept it out

  request.tenant.clear();
  ASSERT_TRUE(service.Explain(request).ok);
  EXPECT_TRUE(service.Explain(request).cache_hit);  // shared LRU unbudgeted
}

TEST(ExplainServiceTest, DropDatasetInvalidatesTenantNamespacesToo) {
  ExplainService service;
  std::string error;
  ASSERT_TRUE(service.registry().RegisterTable("ds", MakeTable(53),
                                               "<table>", &error));
  ExplainRequest request;
  request.dataset = "ds";
  request.config = BaseConfig();
  request.tenant = "acme";
  ASSERT_TRUE(service.Explain(request).ok);
  EXPECT_TRUE(service.Explain(request).cache_hit);

  EXPECT_TRUE(service.DropDataset("ds"));
  // The tenant's entry went with the dataset, and so did the tenant.
  const ServiceStats dropped = service.Stats();
  EXPECT_EQ(dropped.cache.entries, 0u);
  EXPECT_EQ(dropped.tenants, 0u);
  EXPECT_TRUE(dropped.tenant_bytes.empty());
  ASSERT_TRUE(service.registry().RegisterTable("ds", MakeTable(59),
                                               "<table>", &error));
  const ExplainResponse fresh = service.Explain(request);
  ASSERT_TRUE(fresh.ok);
  EXPECT_FALSE(fresh.cache_hit);  // tenant-namespaced entry went too
}

TEST(ExplainServiceTest, TenantStormLeavesNoTenantBehind) {
  // Far more tenant ids than the cache holds entries: the cache is the
  // only record of a tenant, so tenant state stays bounded by it.
  ServiceOptions options;
  options.cache_capacity_bytes = 64 << 10;
  options.tenant_cache_budget_bytes = 64 << 10;  // admits entries
  ExplainService service(options);
  std::string error;
  ASSERT_TRUE(service.registry().RegisterTable("ds", MakeTable(67),
                                               "<table>", &error));
  ExplainRequest request;
  request.dataset = "ds";
  request.config = BaseConfig();
  for (int t = 0; t < 1000; ++t) {
    request.tenant = "storm-" + std::to_string(t);
    const ExplainResponse response = service.Explain(request);
    ASSERT_TRUE(response.ok) << response.error;
  }

  const ServiceStats stats = service.Stats();
  EXPECT_GT(stats.tenants, 0u);  // the budget admitted tenant entries
  EXPECT_EQ(stats.tenants, stats.tenant_bytes.size());
  EXPECT_LE(stats.tenants, stats.cache.entries);
  size_t tenant_total = 0;
  for (const auto& [tenant, bytes] : stats.tenant_bytes) {
    EXPECT_GT(bytes, 0u) << tenant;
    tenant_total += bytes;
  }
  EXPECT_LE(tenant_total, stats.cache.bytes_used);

  EXPECT_TRUE(service.DropDataset("ds"));
  const ServiceStats dropped = service.Stats();
  EXPECT_EQ(dropped.tenants, 0u);
  EXPECT_TRUE(dropped.tenant_bytes.empty());
}

// ISSUE satellite: streaming-under-load determinism. A session receiving
// appends while concurrent reads hammer the service must produce, at
// every length, results bit-identical to a serial StreamingTSExplain
// replay — whatever thread grants the admission controller hands out
// (config asks for 8 threads).
TEST(ExplainServiceTest, StreamingUnderConcurrentLoadMatchesSerialReplay) {
  const std::shared_ptr<const Table> table = MakeTable(61, 48);
  ExplainService service;
  std::string error;
  ASSERT_TRUE(
      service.registry().RegisterTable("ds", table, "<table>", &error));

  TSExplainConfig config = BaseConfig();
  config.threads = 8;
  const uint64_t session = service.OpenSession("ds", config, &error);
  ASSERT_NE(session, 0u) << error;

  // Background load: concurrent dataset explains + session re-explains.
  std::atomic<bool> stop{false};
  std::atomic<int> background_failures{0};
  constexpr int kReaders = 4;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      int round = 0;
      while (!stop.load()) {
        if ((r + round) % 2 == 0) {
          ExplainRequest request;
          request.dataset = "ds";
          request.config = BaseConfig();
          request.config.threads = 8;
          request.config.fixed_k = 2 + ((r + round) % 3);
          if (!service.Explain(request).ok) background_failures.fetch_add(1);
        } else {
          const ExplainResponse response = service.ExplainSession(session);
          // Sessions race with appends here; only real errors count.
          if (!response.ok &&
              response.error_code != error_code::kNotFound) {
            background_failures.fetch_add(1);
          }
        }
        ++round;
      }
    });
  }

  // Foreground: append + explain, recording every response.
  auto make_rows = [](int salt) {
    std::vector<StreamRow> rows;
    for (int c = 1; c <= 4; ++c) {
      StreamRow row;
      row.dims = {"a" + std::to_string(c)};
      row.measures = {10.0 * c + salt};
      rows.push_back(row);
    }
    return rows;
  };
  constexpr int kAppends = 6;
  std::vector<std::pair<int, ExplainResponse>> recorded;
  {
    const ExplainResponse first = service.ExplainSession(session);
    ASSERT_TRUE(first.ok) << first.error;
    recorded.emplace_back(48, first);
  }
  for (int a = 0; a < kAppends; ++a) {
    ASSERT_TRUE(service.Append(session, "t_load_" + std::to_string(a),
                               make_rows(a), &error))
        << error;
    const ExplainResponse response = service.ExplainSession(session);
    ASSERT_TRUE(response.ok) << response.error;
    recorded.emplace_back(49 + a, response);
  }
  stop.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(background_failures.load(), 0);

  // Serial replay: same table, same config, same append/explain
  // interleaving, no concurrency, default threading.
  StreamingTSExplain replay(*table, config);
  {
    const TSExplainResult expected = replay.Explain();
    ExpectIdenticalResults(*recorded[0].second.result, expected);
  }
  for (int a = 0; a < kAppends; ++a) {
    replay.AppendBucket("t_load_" + std::to_string(a), make_rows(a));
    const TSExplainResult expected = replay.Explain();
    ASSERT_EQ(recorded[static_cast<size_t>(a) + 1].first, 50 + a - 1);
    ExpectIdenticalResults(*recorded[static_cast<size_t>(a) + 1].second.result,
                           expected);
  }
}

// Under concurrent service traffic at threads = 8 every result's phases
// still add up to its run's wall clock, and a run that this request
// admitted and computed fits inside the request's latency. All requests
// share one engine and differ only in K, so exactly one computed result
// ran the variance fill; the others read its table (coalesced followers
// and hits share their leader's result).
TEST(ExplainServiceTest, TimingBreakdownStaysAPartitionUnderConcurrency) {
  ExplainService service;
  std::string error;
  ASSERT_TRUE(service.registry().RegisterTable("ds", MakeTable(67),
                                               "<table>", &error));
  constexpr int kThreads = 6;
  std::vector<std::thread> clients;
  std::vector<std::vector<ExplainResponse>> collected(kThreads);
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int k = 2; k <= 5; ++k) {
        ExplainRequest request;
        request.dataset = "ds";
        request.config = BaseConfig();
        request.config.threads = 8;
        request.config.fixed_k = (t + k) % 4 + 2;
        collected[static_cast<size_t>(t)].push_back(
            service.Explain(request));
      }
    });
  }
  for (std::thread& client : clients) client.join();
  std::set<const TSExplainResult*> filled;
  for (const auto& per_thread : collected) {
    for (const ExplainResponse& response : per_thread) {
      ASSERT_TRUE(response.ok) << response.error;
      const TimingBreakdown& timing = response.result->timing;
      double phase_sum = 0.0;
      for (const auto& [name, ms] : timing.Phases()) {
        EXPECT_GE(ms, 0.0) << name;
        phase_sum += ms;
      }
      if (timing.variance_ms > 0.0) filled.insert(response.result.get());
      EXPECT_NEAR(phase_sum, timing.total_ms, 1e-9 * timing.total_ms);
      if (!response.cache_hit && response.admission_outcome == "admitted") {
        EXPECT_LE(timing.total_ms, response.latency_ms);
      }
    }
  }
  EXPECT_EQ(filled.size(), 1u);
}

// A traced cold explain grafts exactly the phases the engine ran under
// "engine_run", with the result's own durations, and every parent's
// children tile it.
TEST(ExplainServiceTest, TracedRunGraftsTheEnginePhases) {
  ExplainService service;
  std::string error;
  ASSERT_TRUE(service.registry().RegisterTable("ds", MakeTable(73),
                                               "<table>", &error));
  for (const bool sketch : {false, true}) {
    ExplainRequest request;
    request.dataset = "ds";
    request.config = BaseConfig();
    request.config.threads = 4;
    request.config.use_sketch = sketch;
    request.trace = true;
    const ExplainResponse response = service.Explain(request);
    ASSERT_TRUE(response.ok) << response.error;
    ASSERT_FALSE(response.cache_hit);
    const std::vector<TraceSpan>& spans = response.trace;
    int run_span = -1;
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].name == "engine_run") run_span = static_cast<int>(i);
    }
    ASSERT_GE(run_span, 0);
    const TimingBreakdown& timing = response.result->timing;
    EXPECT_DOUBLE_EQ(spans[static_cast<size_t>(run_span)].duration_ms,
                     timing.total_ms);
    std::vector<std::pair<std::string, double>> want;
    for (const auto& [name, ms] : timing.Phases()) {
      if (ms > 0.0) want.emplace_back(name, ms);
    }
    EXPECT_EQ(want.size(), sketch ? 4u : 3u);
    std::vector<std::pair<std::string, double>> got;
    for (const TraceSpan& span : spans) {
      if (span.parent == run_span) {
        got.emplace_back(span.name, span.duration_ms);
      }
    }
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].first, want[i].first);
      EXPECT_NEAR(got[i].second, want[i].second, 1e-9 * timing.total_ms);
    }
    for (size_t p = 0; p < spans.size(); ++p) {
      double child_sum = 0.0;
      bool has_children = false;
      for (const TraceSpan& span : spans) {
        if (span.parent == static_cast<int>(p)) {
          child_sum += span.duration_ms;
          has_children = true;
        }
      }
      if (has_children) {
        EXPECT_NEAR(child_sum, spans[p].duration_ms, 1e-9) << spans[p].name;
      }
    }
  }
}

TEST(ProtocolTest, ParseQueryConfigRoundTrip) {
  JsonValue request;
  std::string error;
  ASSERT_TRUE(ParseJson(
      R"({"op":"explain","dataset":"ds","measure":"value",
          "explain_by":["category"],"k":4,"order":2,"m":5,
          "agg":"avg","smooth":3,"fast":true,"exclude":["category=cat0"],
          "diff_metric":"rel","variance_metric":"dist1"})",
      &request, &error))
      << error;
  TSExplainConfig config;
  ASSERT_TRUE(ParseQueryConfig(request, &config, &error)) << error;
  EXPECT_EQ(config.measure, "value");
  EXPECT_EQ(config.explain_by_names,
            std::vector<std::string>{"category"});
  EXPECT_EQ(config.fixed_k, 4);
  EXPECT_EQ(config.max_order, 2);
  EXPECT_EQ(config.m, 5);
  EXPECT_EQ(config.aggregate, AggregateFunction::kAvg);
  EXPECT_EQ(config.smooth_window, 3);
  EXPECT_TRUE(config.use_filter);
  EXPECT_TRUE(config.use_guess_verify);
  EXPECT_TRUE(config.use_sketch);
  EXPECT_EQ(config.exclude, std::vector<std::string>{"category=cat0"});
  EXPECT_EQ(config.diff_metric, DiffMetricKind::kRelativeChange);
  EXPECT_EQ(config.variance_metric, VarianceMetric::kDist1);

  JsonValue bad;
  ASSERT_TRUE(ParseJson(R"({"agg":"median"})", &bad, &error));
  EXPECT_FALSE(ParseQueryConfig(bad, &config, &error));
  ASSERT_TRUE(ParseJson(R"({"explain_by":[1,2]})", &bad, &error));
  EXPECT_FALSE(ParseQueryConfig(bad, &config, &error));

  // Hostile numeric fields must not UB-cast: an integer field outside
  // int range, or fractional, is rejected naming the field (never read
  // as the default, which would answer a different query).
  for (const auto& [line, field] :
       std::vector<std::pair<std::string, std::string>>{
           {R"({"k":1e300})", "'k'"},
           {R"({"m":-1e300})", "'m'"},
           {R"({"order":1e999})", "'order'"},
           {R"({"k":2.5})", "'k'"}}) {
    JsonValue huge;
    ASSERT_TRUE(ParseJson(line, &huge, &error)) << line;
    TSExplainConfig parsed;
    EXPECT_FALSE(ParseQueryConfig(huge, &parsed, &error)) << line;
    EXPECT_NE(error.find(field), std::string::npos) << error;
  }
  // An absent field keeps its default; a present in-range one is read.
  JsonValue edge;
  ASSERT_TRUE(ParseJson(R"({"k":-2147483648,"m":2147483647})", &edge,
                        &error));
  TSExplainConfig parsed;
  ASSERT_TRUE(ParseQueryConfig(edge, &parsed, &error)) << error;
  EXPECT_EQ(parsed.fixed_k, -2147483647 - 1);
  EXPECT_EQ(parsed.m, 2147483647);
  EXPECT_EQ(parsed.max_order, TSExplainConfig().max_order);
}

// One counter from a `metrics` op response (-1 when absent).
int MetricsCounter(const std::string& response, const std::string& name) {
  JsonValue parsed;
  std::string error;
  if (!ParseJson(response, &parsed, &error)) return -1;
  const JsonValue* metrics = parsed.Find("metrics");
  const JsonValue* counters = metrics ? metrics->Find("counters") : nullptr;
  const JsonValue* value = counters ? counters->Find(name) : nullptr;
  return value ? value->AsInt(-1) : -1;
}

TEST(ProtocolTest, HandlerEndToEnd) {
  // The metrics op reads the process-global metrics registry; zero it so
  // the counter assertions below see only this test's traffic.
  MetricRegistry::Global().ResetForTest();
  ExplainService service;
  ProtocolHandler handler(service);
  std::string error;

  auto handle = [&](const std::string& line) {
    JsonValue request;
    std::string parse_error;
    EXPECT_TRUE(ParseJson(line, &request, &parse_error)) << parse_error;
    return handler.Handle(request);
  };

  // register (inline CSV) -> list -> explain -> cache hit -> metrics.
  std::string csv = "date,region,sales\\n";
  for (int t = 0; t < 10; ++t) {
    csv += std::to_string(t) + ",east," + std::to_string(10 + t) + "\\n";
    csv += std::to_string(t) + ",west," + std::to_string(20 - t) + "\\n";
  }
  const std::string reg = handle(
      R"({"op":"register","id":1,"name":"sales","csv":")" + csv +
      R"(","time_column":"date","measures":["sales"]})");
  EXPECT_NE(reg.find("\"ok\":true"), std::string::npos) << reg;
  EXPECT_NE(reg.find("\"time_buckets\":10"), std::string::npos) << reg;

  const std::string list = handle(R"({"op":"list_datasets","id":2})");
  EXPECT_NE(list.find("\"name\":\"sales\""), std::string::npos) << list;

  const std::string explain_line =
      R"({"op":"explain","id":3,"dataset":"sales","measure":"sales",
          "explain_by":["region"],"k":2})";
  const std::string cold = handle(explain_line);
  EXPECT_NE(cold.find("\"ok\":true"), std::string::npos) << cold;
  EXPECT_NE(cold.find("\"cache_hit\":false"), std::string::npos) << cold;
  EXPECT_NE(cold.find("\"result\":{"), std::string::npos) << cold;
  const std::string hot = handle(explain_line);
  EXPECT_NE(hot.find("\"cache_hit\":true"), std::string::npos) << hot;

  const std::string metrics = handle(R"({"op":"metrics","id":4})");
  EXPECT_EQ(MetricsCounter(metrics, "cache.misses"), 1) << metrics;
  EXPECT_EQ(MetricsCounter(metrics, "cache.hits"), 1) << metrics;

  // Errors carry stable codes and echo the id.
  const std::string unknown = handle(R"({"op":"nope","id":"x"})");
  EXPECT_NE(unknown.find("\"code\":\"unknown_op\""), std::string::npos);
  EXPECT_NE(unknown.find("\"id\":\"x\""), std::string::npos);
  const std::string missing =
      handle(R"({"op":"explain","id":5,"dataset":"ghost"})");
  EXPECT_NE(missing.find("\"code\":\"not_found\""), std::string::npos);
  EXPECT_EQ(handler.MakeParseError("bad").find(
                "{\"id\":null,\"ok\":false"),
            0u);

  // Session lifecycle through the protocol.
  const std::string open = handle(
      R"({"op":"open_session","id":6,"dataset":"sales",
          "measure":"sales","explain_by":["region"],"k":2})");
  EXPECT_NE(open.find("\"session\":1"), std::string::npos) << open;
  const std::string append = handle(
      R"({"op":"append","id":7,"session":1,"label":"zz",
          "rows":[{"dims":["east"],"measures":[30]},
                  {"dims":["west"],"measures":[11]}]})");
  EXPECT_NE(append.find("\"n\":11"), std::string::npos) << append;
  const std::string session_explain =
      handle(R"({"op":"explain_session","id":8,"session":1})");
  EXPECT_NE(session_explain.find("\"ok\":true"), std::string::npos)
      << session_explain;
  const std::string close =
      handle(R"({"op":"close_session","id":9,"session":1})");
  EXPECT_NE(close.find("\"ok\":true"), std::string::npos);
  const std::string gone =
      handle(R"({"op":"explain_session","id":10,"session":1})");
  EXPECT_NE(gone.find("\"code\":\"not_found\""), std::string::npos);
}

// The wire report of an explain / explain_session envelope without its
// timing_ms block: the envelope ends with "result":<report>}, and the
// report ends with its timing_ms object.
std::string UntimedResult(const std::string& envelope) {
  const size_t at = envelope.find("\"result\":");
  if (at == std::string::npos) return "no result in " + envelope;
  return Untimed(envelope.substr(at + 9, envelope.size() - at - 10));
}

TEST(ProtocolTest, SessionAnswersLikeExplainWithExclude) {
  // A session is asked the same question as explain: before any append
  // it must give the same answer, honoring every field explain honors.
  ExplainService service;
  ProtocolHandler handler(service);
  std::string error;
  ASSERT_TRUE(service.registry().RegisterTable(
      "sp500", std::shared_ptr<const Table>(MakeSp500Table()), "<table>",
      &error))
      << error;
  auto handle = [&](const std::string& line) {
    JsonValue request;
    std::string parse_error;
    EXPECT_TRUE(ParseJson(line, &request, &parse_error)) << parse_error;
    return handler.Handle(request);
  };
  const std::string fields =
      R"("dataset":"sp500","measure":"weighted_price",)"
      R"("explain_by":["category","stock","subcategory"],"filter":true,)"
      R"("guess_verify":true,"sketch":true,)"
      R"("exclude":["category=technology"])";
  const std::string open =
      handle(R"({"op":"open_session","id":1,)" + fields + "}");
  ASSERT_NE(open.find("\"session\":1"), std::string::npos) << open;
  const std::string session =
      handle(R"({"op":"explain_session","id":2,"session":1})");
  const std::string batch = handle(R"({"op":"explain","id":3,)" + fields + "}");
  ASSERT_NE(session.find("\"ok\":true"), std::string::npos) << session;
  ASSERT_NE(batch.find("\"ok\":true"), std::string::npos) << batch;
  EXPECT_EQ(UntimedResult(session), UntimedResult(batch));
  // No explanation names the excluded predicate, alone or in a
  // conjunction ("subcategory=technology sub1" is a different slice).
  for (const char* banned :
       {"\"description\":\"category=technology", "& category=technology"}) {
    EXPECT_EQ(session.find(banned), std::string::npos) << banned;
  }
}

TEST(ProtocolTest, EveryTableOpHasAHandler) {
  // The op table is the one list of op names: each entry must reach a
  // handler (a bare request may fail validation, but never as unknown_op).
  ExplainService service;
  ProtocolHandler handler(service);
  const std::vector<ProtocolHandler::OpInfo> ops = ProtocolHandler::Ops();
  ASSERT_FALSE(ops.empty());
  for (const ProtocolHandler::OpInfo& op : ops) {
    EXPECT_NE(op.handle, nullptr) << op.name;
    JsonValue request;
    std::string error;
    ASSERT_TRUE(ParseJson(std::string(R"({"op":")") + op.name + "\"}",
                          &request, &error))
        << error;
    const std::string reply = handler.Handle(request);
    EXPECT_EQ(reply.find("\"code\":\"unknown_op\""), std::string::npos)
        << op.name << ": " << reply;
  }
  // Every row's dispatch class (docs/SERVICE.md, "Protocol").
  using Dispatch = ProtocolHandler::Dispatch;
  const std::map<std::string, Dispatch> want = {
      {"healthz", Dispatch::kInline},
      {"register", Dispatch::kBarrier},
      {"drop_dataset", Dispatch::kBarrier},
      {"open_session", Dispatch::kBarrier},
      {"append", Dispatch::kBarrier},
      {"close_session", Dispatch::kBarrier},
      {"save_cache", Dispatch::kBarrier},
      {"load_cache", Dispatch::kBarrier},
      {"recover_session", Dispatch::kBarrier},
      {"state", Dispatch::kBarrier},
      {"metrics", Dispatch::kBarrier},
      {"metrics_history", Dispatch::kBarrier},
      {"list_datasets", Dispatch::kRead},
      {"recommend", Dispatch::kRead},
      {"explain", Dispatch::kAdmittedRead},
      {"explain_session", Dispatch::kAdmittedRead},
      {"shutdown", Dispatch::kShutdown},
  };
  ASSERT_EQ(ops.size(), want.size());
  for (const ProtocolHandler::OpInfo& op : ops) {
    ASSERT_EQ(want.count(op.name), 1u) << op.name;
    EXPECT_EQ(op.dispatch, want.at(op.name)) << op.name;
    EXPECT_EQ(ProtocolHandler::DispatchOf(op.name), op.dispatch) << op.name;
  }
  // An op outside the table is a barrier, answered inline.
  EXPECT_EQ(ProtocolHandler::DispatchOf("no_such_op"), Dispatch::kBarrier);
  EXPECT_EQ(ProtocolHandler::DispatchOf(""), Dispatch::kBarrier);
  // The retired `stats` op is not in the table: `state` and `metrics`
  // serve everything it printed.
  JsonValue stats;
  std::string error;
  ASSERT_TRUE(ParseJson(R"({"op":"stats","id":1})", &stats, &error));
  EXPECT_NE(handler.Handle(stats).find("\"code\":\"unknown_op\""),
            std::string::npos);
}

TEST(ProtocolTest, OverloadAndTenantWireShapes) {
  // Shed counters come from the process-global metrics registry.
  MetricRegistry::Global().ResetForTest();
  ServiceOptions options;
  options.admission.max_concurrent = 1;
  options.admission.queue_depth = 0;
  ExplainService service(options);
  ProtocolHandler handler(service);
  std::string error;
  ASSERT_TRUE(service.registry().RegisterTable("ds", MakeTable(71),
                                               "<table>", &error));

  auto handle = [&](const std::string& line) {
    JsonValue request;
    std::string parse_error;
    EXPECT_TRUE(ParseJson(line, &request, &parse_error)) << parse_error;
    return handler.Handle(request);
  };

  // Tenant field flows through explain and namespaces the cache.
  const std::string tenant_line =
      R"({"op":"explain","id":1,"dataset":"ds","measure":"value",
          "explain_by":["category"],"k":3,"tenant":"acme"})";
  EXPECT_NE(handle(tenant_line).find("\"ok\":true"), std::string::npos);
  EXPECT_NE(handle(tenant_line).find("\"cache_hit\":true"),
            std::string::npos);

  // A shed explain carries code + retry_after_ms inside the error object.
  auto blocker = std::make_unique<AdmissionController::Ticket>(
      service.admission().Admit("blocker", "", 1));
  ASSERT_TRUE(blocker->admitted());
  const std::string shed = handle(
      R"({"op":"explain","id":2,"dataset":"ds","measure":"value",
          "explain_by":["category"],"k":4})");
  EXPECT_NE(shed.find("\"code\":\"overloaded\""), std::string::npos) << shed;
  EXPECT_NE(shed.find("\"retry_after_ms\":"), std::string::npos) << shed;
  blocker.reset();

  // Transport-level shed helper: same shape, id echoed.
  JsonValue request;
  std::string parse_error;
  ASSERT_TRUE(ParseJson(R"({"op":"explain","id":7,"dataset":"ds"})",
                        &request, &parse_error));
  const std::string transport_shed = handler.MakeOverloaded(request);
  EXPECT_EQ(transport_shed.find("{\"id\":7,\"ok\":false"), 0u)
      << transport_shed;
  EXPECT_NE(transport_shed.find("\"code\":\"overloaded\""),
            std::string::npos);
  EXPECT_NE(transport_shed.find("\"retry_after_ms\":"), std::string::npos);

  // Admitted-read classification for the transport's backlog bounding.
  using Dispatch = ProtocolHandler::Dispatch;
  EXPECT_EQ(ProtocolHandler::DispatchOf("explain"), Dispatch::kAdmittedRead);
  EXPECT_EQ(ProtocolHandler::DispatchOf("explain_session"),
            Dispatch::kAdmittedRead);
  EXPECT_NE(ProtocolHandler::DispatchOf("recommend"),
            Dispatch::kAdmittedRead);
  EXPECT_NE(ProtocolHandler::DispatchOf("state"), Dispatch::kAdmittedRead);

  // state exposes admission occupancy and the tenants; metrics the shed
  // and cache-budget counters.
  const std::string state = handle(R"({"op":"state","id":3})");
  EXPECT_NE(state.find("\"admission\":{"), std::string::npos) << state;
  EXPECT_NE(state.find("\"tenants\":1"), std::string::npos) << state;
  const std::string metrics = handle(R"({"op":"metrics","id":4})");
  EXPECT_EQ(MetricsCounter(metrics, "admission.shed_overload"), 1) << metrics;
  EXPECT_GE(MetricsCounter(metrics, "cache.budget_evictions"), 0) << metrics;
}

}  // namespace
}  // namespace tsexplain
