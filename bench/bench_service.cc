// Service-layer throughput: what the explanation service buys over the
// one-cold-query-per-process CLI workflow.
//
// Measurements on the covid-daily workload (plus k-variants that share
// one hot engine):
//   service.cold.per_query_ms   — first-touch queries: engine build + full
//                                 pipeline run per distinct query key
//   service.hot.per_query_ms    — the same queries again: pure cache hits
//   service.hot.p50_ms / p99_ms — cache-hit latency percentiles (the
//                                 overload acceptance bar tracks p50)
//   service.concurrent.per_query_ms
//                               — 8 client threads, mixed hot/cold traffic
//                                 against a fresh service
//   service.hot.speedup_x       — cold / hot per-query time; the ISSUE
//                                 acceptance bar is >= 10x
//   service.metrics.overhead_pct
//                               — the hot path's metric op pair (one
//                                 Counter::Inc + one Histogram::Observe)
//                                 as a percentage of hot p50; the
//                                 observability acceptance bar is < 5%
//   service.history.per_tick_us / overhead_pct
//                               — one metrics-history sampling tick over
//                                 the full service registry, and its duty
//                                 cycle at the 100 ms default interval;
//                                 the self-observation bar is < 1% of
//                                 hot-path time
//   service.hot.sampled_p50_ms  — hot p50 re-measured with the sampler
//                                 live at 100 ms (informational)
//
// Overload scenario (admission control, synthetic dataset): clients at
// TSE_OVERLOAD_X times the admission capacity (max_inflight +
// queue_depth; default 4x, CI --quick sets 2x) fire a cold+hot mix at a
// small service. Asserts that excess load is SHED with structured
// `overloaded` responses carrying retry_after_ms, that the admission
// queue never exceeded its bound (no unbounded queue growth), and that
// every ACCEPTED response is bit-identical to a serial TSExplain::Run of
// the same query. Emits:
//   service.overload.shed_rate_pct
//   service.overload.accepted_p50_ms / accepted_p99_ms
//
// Emits BENCH_RESULT lines for tools/run_benches.sh (values in ms except
// the explicitly-suffixed speedup ratio / shed rate).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "src/common/metrics.h"
#include "src/common/metrics_history.h"
#include "src/common/timer.h"
#include "src/datagen/synthetic.h"
#include "src/service/explain_service.h"

namespace tsexplain {
namespace {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  return values[static_cast<size_t>(rank + 0.5)];
}

bool IdenticalResults(const TSExplainResult& a, const TSExplainResult& b) {
  if (a.segmentation.cuts != b.segmentation.cuts) return false;
  if (a.chosen_k != b.chosen_k) return false;
  if (a.k_variance_curve != b.k_variance_curve) return false;
  if (a.segments.size() != b.segments.size()) return false;
  for (size_t s = 0; s < a.segments.size(); ++s) {
    const SegmentExplanation& sa = a.segments[s];
    const SegmentExplanation& sb = b.segments[s];
    if (sa.begin != sb.begin || sa.end != sb.end ||
        sa.variance != sb.variance || sa.top.size() != sb.top.size()) {
      return false;
    }
    for (size_t r = 0; r < sa.top.size(); ++r) {
      if (sa.top[r].id != sb.top[r].id ||
          sa.top[r].gamma != sb.top[r].gamma ||
          sa.top[r].tau != sb.top[r].tau) {
        return false;
      }
    }
  }
  return true;
}

std::vector<ExplainRequest> MakeQueryMix(const TSExplainConfig& base) {
  // Distinct query keys: k variants (one shared engine) + m / smoothing
  // variants (their own engines). Mirrors an analyst sweeping parameters.
  std::vector<ExplainRequest> requests;
  for (int k : {0, 3, 4, 5, 6}) {
    ExplainRequest request;
    request.dataset = "covid_daily";
    request.config = base;
    request.config.fixed_k = k;
    requests.push_back(request);
  }
  for (int m : {1, 5}) {
    ExplainRequest request;
    request.dataset = "covid_daily";
    request.config = base;
    request.config.m = m;
    requests.push_back(request);
  }
  ExplainRequest unsmoothed;
  unsmoothed.dataset = "covid_daily";
  unsmoothed.config = base;
  unsmoothed.config.smooth_window = 1;  // base smooths with window 7
  requests.push_back(unsmoothed);
  return requests;
}

// Overload scenario: N-times-capacity concurrent cold+hot mix against a
// deliberately small admission configuration. Returns having asserted
// shedding happened structurally, the queue bound held, and every
// accepted result is bit-identical to its serial execution.
void RunOverload() {
  bench::PrintSubHeader("Overload: admission control under excess load");

  int overload_x = 4;
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read once, single-threaded main
  if (const char* env = std::getenv("TSE_OVERLOAD_X")) {
    const int parsed = std::atoi(env);
    if (parsed >= 1) overload_x = parsed;
  }

  // Small-but-real synthetic workload: cold queries cost milliseconds,
  // so the storm saturates admission without taking minutes on CI.
  SyntheticConfig synth;
  synth.length = 96;
  synth.num_categories = 6;
  synth.snr_db = 25.0;
  synth.num_interior_cuts = 3;
  synth.seed = 1234;
  SyntheticDataset ds = GenerateSynthetic(synth);
  const std::shared_ptr<const Table> table(std::move(ds.table));

  TSExplainConfig base;
  base.measure = "value";
  base.explain_by_names = {"category"};
  base.max_order = 1;
  base.threads = 0;  // auto; the admission grant caps it anyway

  // Query variants: k-sweep (one shared engine) + m-variants (their own
  // engines). Variant 0 is pre-warmed and serves as the hot traffic.
  std::vector<TSExplainConfig> variants;
  for (int k : {2, 3, 4, 5, 6, 7}) {
    TSExplainConfig config = base;
    config.fixed_k = k;
    variants.push_back(config);
  }
  for (int m : {1, 2, 4, 5}) {
    TSExplainConfig config = base;
    config.m = m;
    variants.push_back(config);
  }

  // Serial ground truth (the determinism bar): one engine per variant,
  // run outside any service.
  std::vector<TSExplainResult> expected;
  expected.reserve(variants.size());
  for (const TSExplainConfig& config : variants) {
    TSExplain engine(*table, config);
    expected.push_back(engine.Run());
  }

  AdmissionOptions admission;
  admission.max_concurrent = 2;
  admission.queue_depth = 2;
  const int capacity = admission.max_concurrent + admission.queue_depth;
  const int clients = capacity * overload_x;
  const int queries_per_client = 12;

  // The storm is repeated until shedding is observed (at >= 2x capacity
  // it virtually always is on the first run; the retry guards against a
  // scheduler fluke serializing every client).
  size_t shed = 0, accepted = 0, mismatches = 0, bad_sheds = 0;
  size_t peak_queued = 0;
  std::vector<double> accepted_latencies;
  for (int attempt = 0; attempt < 3 && shed == 0; ++attempt) {
    ServiceOptions service_options;
    service_options.admission = admission;
    ExplainService service(service_options);
    std::string error;
    if (!service.registry().RegisterTable("synthetic", table, "<synthetic>",
                                          &error)) {
      std::fprintf(stderr, "register failed: %s\n", error.c_str());
      std::exit(1);
    }
    {
      ExplainRequest warm;
      warm.dataset = "synthetic";
      warm.config = variants[0];
      if (!service.Explain(warm).ok) {
        std::fprintf(stderr, "warmup query failed\n");
        std::exit(1);
      }
    }

    shed = accepted = mismatches = bad_sheds = 0;
    accepted_latencies.clear();
    std::atomic<int> start_gate{0};
    std::vector<std::future<std::vector<std::pair<size_t, ExplainResponse>>>>
        futures;
    futures.reserve(static_cast<size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      futures.push_back(std::async(std::launch::async, [&, c] {
        start_gate.fetch_add(1);
        while (start_gate.load() < clients) {
          std::this_thread::yield();  // all clients fire together
        }
        std::vector<std::pair<size_t, ExplainResponse>> collected;
        for (int q = 0; q < queries_per_client; ++q) {
          // Every third query is hot (variant 0); the rest walk the cold
          // variants, staggered per client.
          const size_t v = (q % 3 == 0)
                               ? 0
                               : (static_cast<size_t>(c + q)) % variants.size();
          ExplainRequest request;
          request.dataset = "synthetic";
          request.config = variants[v];
          collected.emplace_back(v, service.Explain(request));
        }
        return collected;
      }));
    }
    for (auto& future : futures) {
      for (const auto& [v, response] : future.get()) {
        if (response.ok) {
          ++accepted;
          accepted_latencies.push_back(response.latency_ms);
          if (!IdenticalResults(*response.result, expected[v])) {
            ++mismatches;
          }
        } else if (response.error_code == error_code::kOverloaded) {
          ++shed;
          if (response.retry_after_ms <= 0.0) ++bad_sheds;
        } else {
          ++bad_sheds;  // only `overloaded` is acceptable under this storm
        }
      }
    }
    peak_queued = service.Stats().admission.peak_queued;
  }

  const size_t total = accepted + shed;
  const double shed_rate =
      total == 0 ? 0.0 : 100.0 * static_cast<double>(shed) /
                             static_cast<double>(total);
  std::printf(
      "overload: %dx capacity (%d clients x %d queries), %zu accepted, "
      "%zu shed (%.1f%%), peak queue %zu (bound %d)\n",
      overload_x, clients, queries_per_client, accepted, shed, shed_rate,
      peak_queued, admission.queue_depth);
  bench::EmitResult("service.overload.shed_rate_pct", shed_rate);
  bench::EmitResult("service.overload.accepted_p50_ms",
                    Percentile(accepted_latencies, 50));
  bench::EmitResult("service.overload.accepted_p99_ms",
                    Percentile(accepted_latencies, 99));

  if (shed == 0) {
    std::fprintf(stderr, "FAIL: no load was shed at %dx capacity\n",
                 overload_x);
    std::exit(1);
  }
  if (bad_sheds != 0) {
    std::fprintf(stderr,
                 "FAIL: %zu responses were neither ok nor a structured "
                 "`overloaded` with retry_after_ms\n",
                 bad_sheds);
    std::exit(1);
  }
  if (mismatches != 0) {
    std::fprintf(stderr,
                 "FAIL: %zu accepted responses differ from their serial "
                 "execution\n",
                 mismatches);
    std::exit(1);
  }
  if (peak_queued > static_cast<size_t>(admission.queue_depth)) {
    std::fprintf(stderr, "FAIL: admission queue exceeded its bound\n");
    std::exit(1);
  }
}

void Run() {
  bench::PrintHeader("Service layer: cold vs cache-hit vs concurrent");

  bench::Workload workload = bench::MakeCovidDailyWorkload();
  TSExplainConfig base_config = workload.config;
  // Cold queries exercise the parallel core end to end (cube build, TopFor
  // pre-warm, distance fill); 0 = auto = hardware concurrency. Threads are
  // not part of the query key and results are thread-count invariant.
  base_config.threads = 0;
  ExplainService service;
  {
    std::string error;
    if (!service.registry().RegisterTable(
            "covid_daily",
            std::shared_ptr<const Table>(std::move(workload.table)),
            "<simulated>", &error)) {
      std::fprintf(stderr, "register failed: %s\n", error.c_str());
      std::exit(1);
    }
  }
  const std::vector<ExplainRequest> mix = MakeQueryMix(base_config);

  // --- Cold: every query key is a first touch --------------------------
  Timer cold_timer;
  for (const ExplainRequest& request : mix) {
    const ExplainResponse response = service.Explain(request);
    if (!response.ok || response.cache_hit) {
      std::fprintf(stderr, "cold query failed: %s\n",
                   response.error.c_str());
      std::exit(1);
    }
  }
  const double cold_ms =
      cold_timer.ElapsedMs() / static_cast<double>(mix.size());
  bench::EmitResult("service.cold.per_query_ms", cold_ms);

  // --- Hot: identical queries served from the result cache -------------
  constexpr int kHotRounds = 200;
  std::vector<double> hot_latencies;
  hot_latencies.reserve(static_cast<size_t>(kHotRounds) * mix.size());
  Timer hot_timer;
  for (int round = 0; round < kHotRounds; ++round) {
    for (const ExplainRequest& request : mix) {
      Timer query_timer;
      const ExplainResponse response = service.Explain(request);
      if (!response.ok || !response.cache_hit) {
        std::fprintf(stderr, "expected a cache hit\n");
        std::exit(1);
      }
      hot_latencies.push_back(query_timer.ElapsedMs());
    }
  }
  const double hot_ms = hot_timer.ElapsedMs() /
                        static_cast<double>(kHotRounds * mix.size());
  const double hot_p50 = Percentile(hot_latencies, 50);
  bench::EmitResult("service.hot.per_query_ms", hot_ms);
  bench::EmitResult("service.hot.p50_ms", hot_p50);
  bench::EmitResult("service.hot.p99_ms", Percentile(hot_latencies, 99));
  bench::EmitResult("service.hot.speedup_x", cold_ms / hot_ms);

  // --- Metrics overhead on the hot path --------------------------------
  // A cache hit performs exactly one Counter::Inc (cache.hits) plus one
  // Histogram::Observe (query.hot_ms). Time that op pair in isolation and
  // bound it against the hot p50: the observability acceptance bar is
  // < 5% added latency with metrics always on (there is no kill switch).
  {
    Counter& probe_count =
        MetricRegistry::Global().GetCounter("bench.metrics_probe_total");
    Histogram& probe_ms =
        MetricRegistry::Global().GetHistogram("bench.metrics_probe_ms");
    constexpr int kProbeOps = 1'000'000;
    Timer probe_timer;
    for (int i = 0; i < kProbeOps; ++i) {
      probe_count.Inc();
      probe_ms.Observe(0.042);
    }
    const double per_hit_cost_ms =
        probe_timer.ElapsedMs() / static_cast<double>(kProbeOps);
    const double overhead_pct =
        hot_p50 > 0.0 ? per_hit_cost_ms / hot_p50 * 100.0 : 0.0;
    std::printf(
        "metrics hot-path cost: %.1f ns per hit (Inc + Observe), %.3f%% "
        "of hot p50\n",
        per_hit_cost_ms * 1e6, overhead_pct);
    bench::EmitResult("service.metrics.per_hit_cost_us",
                      per_hit_cost_ms * 1e3);
    bench::EmitResult("service.metrics.overhead_pct", overhead_pct);
    if (overhead_pct >= 5.0) {
      std::fprintf(stderr,
                   "FAIL: metrics overhead %.2f%% of hot p50 breaches the "
                   "5%% observability bar\n",
                   overhead_pct);
      std::exit(1);
    }
  }

  // --- Metrics-history sampling overhead -------------------------------
  // The serve binary runs a background sampler snapshotting the whole
  // registry into ring buffers (default interval 100 ms in this gate,
  // 1 s in production). Amortized over any query mix, sampling steals
  // per-tick-cost / interval of one core — so that duty cycle IS the
  // sampled fraction of hot-path time, independent of query duration.
  // Bar: < 1% of hot-path p50, i.e. duty cycle < 1%.
  {
    MetricsHistory::Options history_options;
    history_options.interval_ms = 100;
    history_options.capacity = 600;
    MetricsHistory history(MetricRegistry::Global(), history_options);
    history.TrackHistogramPercentiles("query.hot_ms");
    history.TrackHistogramPercentiles("query.cold_ms");
    history.SampleNow();  // warmup tick: ring allocation + discovery
    constexpr int kTicks = 2000;
    Timer tick_timer;
    for (int i = 0; i < kTicks; ++i) history.SampleNow();
    const double per_tick_ms =
        tick_timer.ElapsedMs() / static_cast<double>(kTicks);
    const double duty_pct =
        per_tick_ms / static_cast<double>(history_options.interval_ms) *
        100.0;

    // Re-measure the hot path with the sampler actually running at the
    // gated interval (informational: wall-clock noise dwarfs a sub-1%
    // effect, so the deterministic duty cycle above is what gates).
    history.Start();
    std::vector<double> sampled_latencies;
    sampled_latencies.reserve(static_cast<size_t>(kHotRounds) * mix.size());
    for (int round = 0; round < kHotRounds; ++round) {
      for (const ExplainRequest& request : mix) {
        Timer query_timer;
        const ExplainResponse response = service.Explain(request);
        if (!response.ok || !response.cache_hit) {
          std::fprintf(stderr, "expected a cache hit under sampling\n");
          std::exit(1);
        }
        sampled_latencies.push_back(query_timer.ElapsedMs());
      }
    }
    history.Stop();

    std::printf(
        "history sampling: %.1f us/tick over %zu metrics, %.4f%% duty "
        "cycle at %d ms; hot p50 %.4f ms bare vs %.4f ms sampled\n",
        per_tick_ms * 1e3, MetricRegistry::Global().NumMetrics(), duty_pct,
        static_cast<int>(history_options.interval_ms), hot_p50,
        Percentile(sampled_latencies, 50));
    bench::EmitResult("service.history.per_tick_us", per_tick_ms * 1e3);
    bench::EmitResult("service.history.overhead_pct", duty_pct);
    bench::EmitResult("service.hot.sampled_p50_ms",
                      Percentile(sampled_latencies, 50));
    if (duty_pct >= 1.0) {
      std::fprintf(stderr,
                   "FAIL: history sampling duty cycle %.3f%% breaches the "
                   "1%% self-observation bar\n",
                   duty_pct);
      std::exit(1);
    }
  }

  // --- Concurrent: 8 clients, mixed hot + cold (fresh service) ---------
  ExplainService concurrent_service;
  {
    bench::Workload w = bench::MakeCovidDailyWorkload();
    std::string error;
    concurrent_service.registry().RegisterTable(
        "covid_daily", std::shared_ptr<const Table>(std::move(w.table)),
        "<simulated>", &error);
  }
  constexpr int kClients = 8;
  constexpr int kQueriesPerClient = 50;
  Timer concurrent_timer;
  std::vector<std::future<void>> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(std::async(std::launch::async, [&, c] {
      for (int q = 0; q < kQueriesPerClient; ++q) {
        const ExplainResponse response = concurrent_service.Explain(
            mix[static_cast<size_t>(c + q) % mix.size()]);
        if (!response.ok) {
          std::fprintf(stderr, "concurrent query failed: %s\n",
                       response.error.c_str());
          std::exit(1);
        }
      }
    }));
  }
  for (std::future<void>& client : clients) client.wait();
  const double concurrent_ms =
      concurrent_timer.ElapsedMs() /
      static_cast<double>(kClients * kQueriesPerClient);
  bench::EmitResult("service.concurrent.per_query_ms", concurrent_ms);

  const ServiceStats stats = concurrent_service.Stats();
  std::printf(
      "\ncold %.3f ms/query, hot %.3f ms/query (%.0fx), concurrent "
      "%.4f ms/query\n",
      cold_ms, hot_ms, cold_ms / hot_ms, concurrent_ms);
  std::printf(
      "concurrent cache: %zu misses, %zu hits, %zu coalesced over %d "
      "queries (%zu hot engines)\n",
      stats.cache.misses, stats.cache.hits, stats.admission.coalesced,
      kClients * kQueriesPerClient, stats.hot_engines);
  if (cold_ms / hot_ms < 10.0) {
    std::fprintf(stderr,
                 "FAIL: cache-hit speedup %.1fx below the 10x bar\n",
                 cold_ms / hot_ms);
    std::exit(1);
  }

  RunOverload();

  // Archive the final registry state next to the timings (the `metrics`
  // object in BENCH_*.json): cache/admission counters and latency
  // histograms accumulated across every scenario above.
  bench::EmitMetricsSnapshot();
}

}  // namespace
}  // namespace tsexplain

int main() {
  tsexplain::Run();
  return 0;
}
