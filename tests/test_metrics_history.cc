// Coverage for the metrics time-series history
// (src/common/metrics_history.h): ring-buffer wraparound, sampler
// start/stop/restart, late metric discovery, concurrent writers during
// sampling, rendering, and the dogfood path — the recorded history
// exported as a dataset and explained by the engine itself, with the
// deliberately perturbed counter showing up as a contributor.
//
// Every test uses an isolated MetricRegistry so nothing here perturbs
// the process-global registry other tests snapshot.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "src/common/json.h"
#include "src/common/metrics.h"
#include "src/common/metrics_history.h"
#include "src/service/explain_service.h"
#include "src/table/table.h"

namespace tsexplain {
namespace {

MetricsHistory::Options SmallOptions(size_t capacity,
                                     int64_t interval_ms = 1000) {
  MetricsHistory::Options options;
  options.capacity = capacity;
  options.interval_ms = interval_ms;
  return options;
}

const HistoryWindow::Series* FindSeries(const HistoryWindow& window,
                                        const std::string& name) {
  for (const HistoryWindow::Series& series : window.series) {
    if (series.name == name) return &series;
  }
  return nullptr;
}

TEST(MetricsHistoryTest, ManualTicksRecordCounterProgress) {
  MetricRegistry registry;
  Counter& events = registry.GetCounter("t.events");
  MetricsHistory history(registry, SmallOptions(8));
  for (int i = 0; i < 4; ++i) {
    events.Inc(3);
    history.SampleNow();
  }
  const HistoryWindow window = history.Window();
  EXPECT_EQ(window.total_ticks, 4u);
  ASSERT_EQ(window.ticks.size(), 4u);
  EXPECT_EQ(window.ticks.front(), 0u);
  const HistoryWindow::Series* series = FindSeries(window, "t.events");
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->kind, "counter");
  EXPECT_EQ(series->values,
            (std::vector<double>{3.0, 6.0, 9.0, 12.0}));
}

TEST(MetricsHistoryTest, RingWrapsKeepingNewestTicks) {
  MetricRegistry registry;
  Gauge& level = registry.GetGauge("t.level");
  MetricsHistory history(registry, SmallOptions(4));
  for (int i = 0; i < 7; ++i) {
    level.Set(i * 10);
    history.SampleNow();
  }
  const HistoryWindow window = history.Window();
  EXPECT_EQ(window.total_ticks, 7u);
  // Only the newest `capacity` ticks survive, absolute ids intact.
  ASSERT_EQ(window.ticks.size(), 4u);
  EXPECT_EQ(window.ticks, (std::vector<uint64_t>{3, 4, 5, 6}));
  const HistoryWindow::Series* series = FindSeries(window, "t.level");
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->values,
            (std::vector<double>{30.0, 40.0, 50.0, 60.0}));
}

TEST(MetricsHistoryTest, WindowLastNAndPrefixFilter) {
  MetricRegistry registry;
  registry.GetCounter("alpha.hits");
  registry.GetCounter("beta.hits");
  MetricsHistory history(registry, SmallOptions(8));
  for (int i = 0; i < 5; ++i) history.SampleNow();

  const HistoryWindow tail = history.Window(/*last_n=*/2);
  EXPECT_EQ(tail.total_ticks, 5u);
  EXPECT_EQ(tail.ticks, (std::vector<uint64_t>{3, 4}));

  const HistoryWindow filtered = history.Window(0, "alpha.");
  ASSERT_EQ(filtered.series.size(), 1u);
  EXPECT_EQ(filtered.series[0].name, "alpha.hits");
}

TEST(MetricsHistoryTest, LateRegisteredMetricIsDiscoveredAndBackfilled) {
  MetricRegistry registry;
  registry.GetCounter("t.early");
  MetricsHistory history(registry, SmallOptions(8));
  history.SampleNow();
  history.SampleNow();
  // Registered after two ticks: must appear on the next tick with its
  // earlier slots backfilled as 0.0 (the metric did not exist yet).
  Counter& late = registry.GetCounter("t.late");
  late.Inc(7);
  history.SampleNow();
  const HistoryWindow window = history.Window();
  const HistoryWindow::Series* series = FindSeries(window, "t.late");
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->values, (std::vector<double>{0.0, 0.0, 7.0}));
}

TEST(MetricsHistoryTest, HistogramSeriesAndTrackedPercentiles) {
  MetricRegistry registry;
  Histogram& ms = registry.GetHistogram("t.ms", {1.0, 10.0, 100.0});
  MetricsHistory history(registry, SmallOptions(8));
  history.TrackHistogramPercentiles("t.ms");
  ms.Observe(0.5);
  ms.Observe(5.0);
  ms.Observe(50.0);
  history.SampleNow();
  const HistoryWindow window = history.Window();
  const HistoryWindow::Series* count = FindSeries(window, "t.ms.count");
  const HistoryWindow::Series* sum = FindSeries(window, "t.ms.sum");
  const HistoryWindow::Series* p50 = FindSeries(window, "t.ms.p50");
  const HistoryWindow::Series* p99 = FindSeries(window, "t.ms.p99");
  ASSERT_NE(count, nullptr);
  ASSERT_NE(sum, nullptr);
  ASSERT_NE(p50, nullptr);
  ASSERT_NE(p99, nullptr);
  EXPECT_EQ(count->kind, "hist_count");
  EXPECT_EQ(count->values, std::vector<double>{3.0});
  EXPECT_NEAR(sum->values[0], 55.5, 1e-9);
  // The p50 estimate must land in the middle bucket (1, 10].
  EXPECT_GT(p50->values[0], 1.0);
  EXPECT_LE(p50->values[0], 10.0);
  EXPECT_LE(p99->values[0], 100.0);
}

TEST(MetricsHistoryTest, UntrackedHistogramGetsNoPercentileSeries) {
  MetricRegistry registry;
  registry.GetHistogram("t.quiet_ms", {1.0, 10.0});
  MetricsHistory history(registry, SmallOptions(4));
  history.SampleNow();
  const HistoryWindow window = history.Window();
  EXPECT_NE(FindSeries(window, "t.quiet_ms.count"), nullptr);
  EXPECT_EQ(FindSeries(window, "t.quiet_ms.p50"), nullptr);
  EXPECT_EQ(FindSeries(window, "t.quiet_ms.p99"), nullptr);
}

TEST(MetricsHistoryTest, SamplerStartStopRestart) {
  MetricRegistry registry;
  registry.GetCounter("t.bg");
  MetricsHistory history(registry, SmallOptions(64, /*interval_ms=*/5));
  EXPECT_FALSE(history.running());
  history.Start();
  EXPECT_TRUE(history.running());
  // Wait (bounded) for the sampler to take at least two ticks.
  for (int i = 0; i < 400 && history.Window().total_ticks < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  history.Stop();
  EXPECT_FALSE(history.running());
  const uint64_t at_stop = history.Window().total_ticks;
  EXPECT_GE(at_stop, 2u);
  // Stopped means stopped: no tick may land after Stop() returns.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(history.Window().total_ticks, at_stop);
  // Restart picks up where it left off (same rings, advancing ticks).
  history.Start();
  for (int i = 0;
       i < 400 && history.Window().total_ticks < at_stop + 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  history.Stop();
  EXPECT_GE(history.Window().total_ticks, at_stop + 2);
}

TEST(MetricsHistoryTest, PrologueRunsBeforeEveryTick) {
  MetricRegistry registry;
  Gauge& computed = registry.GetGauge("t.computed");
  MetricsHistory history(registry, SmallOptions(8));
  std::atomic<int> calls{0};
  history.SetSamplePrologue([&] {
    computed.Set(++calls * 100);
  });
  history.SampleNow();
  history.SampleNow();
  const HistoryWindow window = history.Window();
  const HistoryWindow::Series* series = FindSeries(window, "t.computed");
  ASSERT_NE(series, nullptr);
  // Each tick saw the gauge value its own prologue run had just set.
  EXPECT_EQ(series->values, (std::vector<double>{100.0, 200.0}));
}

TEST(MetricsHistoryTest, ConcurrentWritersDuringSampling) {
  MetricRegistry registry;
  Counter& hits = registry.GetCounter("t.hits");
  Gauge& depth = registry.GetGauge("t.depth");
  Histogram& lat = registry.GetHistogram("t.lat_ms", {1.0, 10.0, 100.0});
  MetricsHistory history(registry, SmallOptions(32));
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&, w] {
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        hits.Inc();
        depth.Set(w * 1000 + i);
        lat.Observe(static_cast<double>(i % 128));
        ++i;
      }
    });
  }
  for (int tick = 0; tick < 200; ++tick) {
    history.SampleNow();
    (void)history.Window(/*last_n=*/8);
  }
  stop.store(true);
  for (std::thread& t : writers) t.join();
  const HistoryWindow window = history.Window();
  EXPECT_EQ(window.total_ticks, 200u);
  // Counter samples must be non-decreasing tick to tick: a snapshot can
  // be mid-update but never go backwards.
  const HistoryWindow::Series* series = FindSeries(window, "t.hits");
  ASSERT_NE(series, nullptr);
  for (size_t k = 1; k < series->values.size(); ++k) {
    EXPECT_LE(series->values[k - 1], series->values[k]);
  }
}

TEST(MetricsHistoryTest, RenderJsonParsesAndCarriesSeries) {
  MetricRegistry registry;
  registry.GetCounter("t.a").Inc(5);
  registry.GetGauge("t.b").Set(-2);
  MetricsHistory history(registry, SmallOptions(8));
  history.SampleNow();
  history.SampleNow();
  const std::string text = RenderHistoryJson(history.Window());
  JsonValue parsed;
  std::string error;
  ASSERT_TRUE(ParseJson(text, &parsed, &error)) << error;
  EXPECT_EQ(parsed.GetInt("total_ticks"), 2);
  const JsonValue* series = parsed.Find("series");
  ASSERT_NE(series, nullptr);
  const JsonValue* a = series->Find("t.a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->GetString("kind"), "counter");
  ASSERT_EQ(a->Find("values")->array().size(), 2u);
  EXPECT_EQ(a->Find("values")->array()[1].AsDouble(), 5.0);
}

TEST(MetricsHistoryTest, JsonRenderersEscapeMetricNames) {
  // RenderMetricsJson and RenderHistoryJson escape names through the one
  // JsonEscape: a quote, a backslash and a control byte come out escaped,
  // and the name parses back to itself.
  const std::string name = std::string("t.odd\"name\\") + '\x01';
  const std::string escaped = "\"t.odd\\\"name\\\\\\u0001\"";
  MetricRegistry registry;
  registry.GetCounter(name).Inc(2);
  MetricsHistory history(registry, SmallOptions(4));
  history.SampleNow();
  const std::string metrics = RenderMetricsJson(registry.Snapshot());
  const std::string window = RenderHistoryJson(history.Window());
  JsonValue parsed;
  std::string error;
  EXPECT_NE(metrics.find(escaped + ":2"), std::string::npos) << metrics;
  ASSERT_TRUE(ParseJson(metrics, &parsed, &error)) << error;
  ASSERT_NE(parsed.Find("counters"), nullptr);
  EXPECT_EQ(parsed.Find("counters")->GetInt(name), 2);
  EXPECT_NE(window.find(escaped + ":{"), std::string::npos) << window;
  ASSERT_TRUE(ParseJson(window, &parsed, &error)) << error;
  ASSERT_NE(parsed.Find("series"), nullptr);
  EXPECT_NE(parsed.Find("series")->Find(name), nullptr);
}

TEST(MetricsHistoryTest, RenderCsvIsLongFormat) {
  MetricRegistry registry;
  registry.GetCounter("t.one").Inc();
  MetricsHistory history(registry, SmallOptions(4));
  history.SampleNow();
  const std::string csv = RenderHistoryCsv(history.Window());
  EXPECT_EQ(csv.rfind("tick,ts_ms,metric,kind,value\n", 0), 0u);
  EXPECT_NE(csv.find(",t.one,counter,1\n"), std::string::npos);
}

TEST(MetricsHistoryTest, ExportNeedsTwoTicks) {
  MetricRegistry registry;
  registry.GetCounter("t.x");
  MetricsHistory history(registry, SmallOptions(4));
  EXPECT_EQ(history.ExportAsTable(), nullptr);
  history.SampleNow();
  EXPECT_EQ(history.ExportAsTable(), nullptr);
  history.SampleNow();
  EXPECT_NE(history.ExportAsTable(), nullptr);
}

TEST(MetricsHistoryTest, ExportedTableShape) {
  MetricRegistry registry;
  registry.GetCounter("t.a").Inc();
  registry.GetGauge("t.b").Set(4);
  MetricsHistory history(registry, SmallOptions(8));
  for (int i = 0; i < 3; ++i) history.SampleNow();
  const std::shared_ptr<const Table> table = history.ExportAsTable();
  ASSERT_NE(table, nullptr);
  // One row per (tick, series); time = tick id, one dimension
  // (metric_name), one measure (value).
  EXPECT_EQ(table->schema().time_name(), "tick");
  EXPECT_EQ(table->num_rows(), 6u);
  EXPECT_EQ(table->num_time_buckets(), 3u);
}

// The dogfood: perturb one counter hard, export the history, register
// it as a dataset, and let the engine explain the "value" series by
// metric_name — the perturbed counter must be named as a contributor.
TEST(MetricsHistoryTest, ExportedHistoryExplainedByEngine) {
  MetricRegistry registry;
  Counter& quiet = registry.GetCounter("calm.background");
  Counter& spike = registry.GetCounter("hot.spiking");
  MetricsHistory history(registry, SmallOptions(32));
  for (int tick = 0; tick < 12; ++tick) {
    quiet.Inc(1);
    // Regime shift halfway: the spiking counter's increments jump by
    // two orders of magnitude, so it dominates the change in total
    // "value" and must surface as the top contributor.
    spike.Inc(tick < 6 ? 2 : 500);
    history.SampleNow();
  }
  const std::shared_ptr<const Table> table = history.ExportAsTable();
  ASSERT_NE(table, nullptr);

  ExplainService service;
  std::string error;
  ASSERT_TRUE(service.registry().RegisterTable("telemetry", table,
                                               "<metrics_history>",
                                               &error))
      << error;
  ExplainRequest request;
  request.dataset = "telemetry";
  request.config.measure = "value";
  request.config.explain_by_names = {"metric_name"};
  request.config.max_order = 1;
  const ExplainResponse response = service.Explain(request);
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_NE(response.json.find("hot.spiking"), std::string::npos)
      << "perturbed counter missing from contributors: " << response.json;
}

}  // namespace
}  // namespace tsexplain
