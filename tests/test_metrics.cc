// Unit coverage for the metrics registry (src/common/metrics.h): bucket
// `le` semantics, percentile interpolation, snapshot consistency while
// writers are running, JSON / Prometheus rendering, and ResetForTest.
// Every test uses an isolated MetricRegistry instance so nothing here
// perturbs the process-global registry other tests snapshot.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/metrics.h"

namespace tsexplain {
namespace {

TEST(MetricsTest, CounterAndGaugeBasics) {
  MetricRegistry registry;
  Counter& counter = registry.GetCounter("test.events");
  EXPECT_EQ(counter.Value(), 0u);
  counter.Inc();
  counter.Inc(5);
  EXPECT_EQ(counter.Value(), 6u);

  Gauge& gauge = registry.GetGauge("test.level");
  gauge.Set(10);
  gauge.Add(-3);
  EXPECT_EQ(gauge.Value(), 7);
  gauge.SetMax(5);  // below current: no-op
  EXPECT_EQ(gauge.Value(), 7);
  gauge.SetMax(42);
  EXPECT_EQ(gauge.Value(), 42);

  // Create-or-fetch returns the same object for the same name.
  EXPECT_EQ(&counter, &registry.GetCounter("test.events"));
  EXPECT_EQ(&gauge, &registry.GetGauge("test.level"));
}

TEST(MetricsTest, HistogramBucketBoundariesAreLeSemantics) {
  MetricRegistry registry;
  Histogram& hist = registry.GetHistogram("test.ms", {1.0, 10.0, 100.0});
  hist.Observe(0.5);    // bucket 0 (le 1)
  hist.Observe(1.0);    // bucket 0: a value exactly on a bound counts there
  hist.Observe(1.0001); // bucket 1 (le 10)
  hist.Observe(10.0);   // bucket 1
  hist.Observe(100.0);  // bucket 2 (le 100)
  hist.Observe(150.0);  // overflow

  const MetricsSnapshot snapshot = registry.Snapshot();
  const HistogramSnapshot* hs = snapshot.FindHistogram("test.ms");
  ASSERT_NE(hs, nullptr);
  ASSERT_EQ(hs->counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(hs->counts[0], 2u);
  EXPECT_EQ(hs->counts[1], 2u);
  EXPECT_EQ(hs->counts[2], 1u);
  EXPECT_EQ(hs->counts[3], 1u);
  EXPECT_EQ(hs->count, 6u);
  EXPECT_NEAR(hs->sum, 0.5 + 1.0 + 1.0001 + 10.0 + 100.0 + 150.0, 1e-9);

  // First registration wins: re-fetching with different bounds returns
  // the existing histogram unchanged.
  Histogram& again = registry.GetHistogram("test.ms", {7.0});
  EXPECT_EQ(&hist, &again);
  EXPECT_EQ(registry.Snapshot().FindHistogram("test.ms")->bounds.size(), 3u);
}

TEST(MetricsTest, PercentileInterpolatesWithinBucket) {
  MetricRegistry registry;
  Histogram& hist = registry.GetHistogram("test.ms", {10.0, 20.0});
  for (int i = 0; i < 10; ++i) hist.Observe(3.0);  // all land in (0, 10]

  const MetricsSnapshot snapshot = registry.Snapshot();
  const HistogramSnapshot* hs = snapshot.FindHistogram("test.ms");
  ASSERT_NE(hs, nullptr);
  // rank = p * count interpolated linearly inside the landing bucket
  // [0, 10]: p50 -> rank 5 of 10 -> halfway up the bucket.
  EXPECT_DOUBLE_EQ(hs->Percentile(0.50), 5.0);
  EXPECT_DOUBLE_EQ(hs->Percentile(1.0), 10.0);
  EXPECT_DOUBLE_EQ(hs->Percentile(0.0), 0.0);

  // Observations in the overflow bucket report its lower bound (the last
  // finite bound) rather than inventing an upper edge.
  MetricRegistry overflow_registry;
  Histogram& tail = overflow_registry.GetHistogram("test.tail_ms", {10.0, 20.0});
  tail.Observe(500.0);
  EXPECT_DOUBLE_EQ(
      overflow_registry.Snapshot().FindHistogram("test.tail_ms")->Percentile(
          0.99),
      20.0);

  // Empty histogram: every percentile is 0.
  MetricRegistry empty_registry;
  empty_registry.GetHistogram("test.empty_ms", {1.0});
  EXPECT_DOUBLE_EQ(
      empty_registry.Snapshot().FindHistogram("test.empty_ms")->Percentile(
          0.99),
      0.0);
}

// The live read (the history sampler's) and the snapshot's percentile are
// one routine: they agree bit for bit, overflow bucket and empty
// histogram included.
TEST(MetricsTest, LiveAndSnapshotPercentilesAgreeBitForBit) {
  MetricRegistry registry;
  Histogram& mixed = registry.GetHistogram("test.mixed_ms", {1.0, 2.5, 10.0});
  for (double v : {0.3, 0.9, 1.7, 2.5, 4.0, 9.99, 500.0}) mixed.Observe(v);
  Histogram& empty = registry.GetHistogram("test.empty_ms", {1.0});
  const MetricsSnapshot snapshot = registry.Snapshot();
  const auto bits = [](double value) {
    uint64_t out = 0;
    std::memcpy(&out, &value, sizeof(out));
    return out;
  };
  for (const auto& [name, live] :
       {std::pair<const char*, const Histogram*>{"test.mixed_ms", &mixed},
        {"test.empty_ms", &empty}}) {
    const HistogramSnapshot* hs = snapshot.FindHistogram(name);
    ASSERT_NE(hs, nullptr);
    for (double p : {0.0, 0.5, 0.9, 0.99, 1.0}) {
      EXPECT_EQ(bits(live->ApproxPercentile(p)), bits(hs->Percentile(p)))
          << name << " p=" << p;
    }
  }
  EXPECT_DOUBLE_EQ(mixed.ApproxPercentile(1.0), 10.0);  // overflow: lower
  EXPECT_DOUBLE_EQ(empty.ApproxPercentile(0.5), 0.0);
}

TEST(MetricsTest, DefaultLatencyBoundsAreAscendingAndWide) {
  const std::vector<double> bounds = MetricRegistry::DefaultLatencyBoundsMs();
  ASSERT_GE(bounds.size(), 2u);
  EXPECT_DOUBLE_EQ(bounds.front(), 0.001);   // 1 microsecond
  EXPECT_DOUBLE_EQ(bounds.back(), 30000.0);  // 30 seconds
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

TEST(MetricsTest, SnapshotDuringWritesStaysConsistent) {
  MetricRegistry registry;
  Counter& counter = registry.GetCounter("test.writes");
  Histogram& hist = registry.GetHistogram("test.write_ms", {1.0, 10.0});

  constexpr int kWrites = 200000;
  std::thread writer([&] {
    for (int i = 0; i < kWrites; ++i) {
      counter.Inc();
      hist.Observe(i % 2 == 0 ? 0.5 : 5.0);
    }
  });

  // Snapshots taken mid-write must be internally consistent (histogram
  // count equals the sum of its buckets by construction) and observe
  // monotonically non-decreasing values across snapshots.
  uint64_t last_counter = 0;
  uint64_t last_hist_count = 0;
  for (int round = 0; round < 50; ++round) {
    const MetricsSnapshot snapshot = registry.Snapshot();
    const uint64_t* writes = snapshot.FindCounter("test.writes");
    const HistogramSnapshot* hs = snapshot.FindHistogram("test.write_ms");
    ASSERT_NE(writes, nullptr);
    ASSERT_NE(hs, nullptr);
    EXPECT_GE(*writes, last_counter);
    EXPECT_GE(hs->count, last_hist_count);
    uint64_t bucket_total = 0;
    for (uint64_t n : hs->counts) bucket_total += n;
    EXPECT_EQ(bucket_total, hs->count);
    last_counter = *writes;
    last_hist_count = hs->count;
  }
  writer.join();

  const MetricsSnapshot final_snapshot = registry.Snapshot();
  EXPECT_EQ(*final_snapshot.FindCounter("test.writes"),
            static_cast<uint64_t>(kWrites));
  const HistogramSnapshot* hs = final_snapshot.FindHistogram("test.write_ms");
  EXPECT_EQ(hs->count, static_cast<uint64_t>(kWrites));
  EXPECT_NEAR(hs->sum, kWrites / 2 * 0.5 + kWrites / 2 * 5.0, 1e-6);
}

TEST(MetricsTest, ResetForTestZeroesInPlace) {
  MetricRegistry registry;
  Counter& counter = registry.GetCounter("test.count");
  Gauge& gauge = registry.GetGauge("test.gauge");
  Histogram& hist = registry.GetHistogram("test.ms", {1.0});
  counter.Inc(9);
  gauge.Set(-4);
  hist.Observe(0.5);

  registry.ResetForTest();

  // The same references stay valid and read zero.
  EXPECT_EQ(counter.Value(), 0u);
  EXPECT_EQ(gauge.Value(), 0);
  const MetricsSnapshot snapshot = registry.Snapshot();
  const HistogramSnapshot* hs = snapshot.FindHistogram("test.ms");
  EXPECT_EQ(hs->count, 0u);
  EXPECT_DOUBLE_EQ(hs->sum, 0.0);

  counter.Inc();
  EXPECT_EQ(counter.Value(), 1u);
}

TEST(MetricsTest, FindHelpersReturnNullForUnknownNames) {
  MetricRegistry registry;
  registry.GetCounter("test.known");
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_NE(snapshot.FindCounter("test.known"), nullptr);
  EXPECT_EQ(snapshot.FindCounter("test.unknown"), nullptr);
  EXPECT_EQ(snapshot.FindGauge("test.unknown"), nullptr);
  EXPECT_EQ(snapshot.FindHistogram("test.unknown"), nullptr);
}

TEST(MetricsTest, JsonRenderShape) {
  MetricRegistry registry;
  registry.GetCounter("test.hits").Inc(3);
  registry.GetGauge("test.depth").Set(-2);
  Histogram& hist = registry.GetHistogram("test.ms", {1.0, 10.0});
  hist.Observe(0.5);
  hist.Observe(99.0);  // overflow

  const std::string json = RenderMetricsJson(registry.Snapshot());
  EXPECT_NE(json.find("\"counters\":{\"test.hits\":3}"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"gauges\":{\"test.depth\":-2}"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"test.ms\":{\"count\":2"), std::string::npos) << json;
  // Bucket list is non-cumulative with a string "+Inf" terminal bound.
  EXPECT_NE(json.find("{\"le\":1,\"count\":1}"), std::string::npos) << json;
  EXPECT_NE(json.find("{\"le\":10,\"count\":0}"), std::string::npos) << json;
  EXPECT_NE(json.find("{\"le\":\"+Inf\",\"count\":1}"), std::string::npos)
      << json;
  // Compact single-line output (the server embeds it in NDJSON responses).
  EXPECT_EQ(json.find('\n'), std::string::npos);
}

TEST(MetricsTest, PrometheusRenderAndNameSanitization) {
  EXPECT_EQ(PrometheusMetricName("query.hot_ms"), "tsexplain_query_hot_ms");
  EXPECT_EQ(PrometheusMetricName("a-b c"), "tsexplain_a_b_c");
  EXPECT_EQ(PrometheusEscapeLabel("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");

  MetricRegistry registry;
  registry.GetCounter("test.hits").Inc(3);
  registry.GetGauge("test.depth").Set(7);
  Histogram& hist = registry.GetHistogram("test.ms", {1.0, 10.0});
  hist.Observe(0.5);
  hist.Observe(5.0);
  hist.Observe(99.0);

  const std::string text = RenderPrometheusText(registry.Snapshot());
  EXPECT_NE(text.find("# TYPE tsexplain_test_hits counter\n"
                      "tsexplain_test_hits 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE tsexplain_test_depth gauge\n"
                      "tsexplain_test_depth 7\n"),
            std::string::npos)
      << text;
  // Histogram buckets are CUMULATIVE in the exposition format.
  EXPECT_NE(text.find("tsexplain_test_ms_bucket{le=\"1\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("tsexplain_test_ms_bucket{le=\"10\"} 2\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("tsexplain_test_ms_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("tsexplain_test_ms_count 3\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("tsexplain_test_ms_sum "), std::string::npos) << text;
}

}  // namespace
}  // namespace tsexplain
