// End-to-end tests for the TSExplain pipeline facade.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "src/common/timer.h"
#include "src/datagen/synthetic.h"
#include "src/eval/segmentation_distance.h"
#include "src/pipeline/report_json.h"
#include "src/pipeline/tsexplain.h"

namespace tsexplain {
namespace {

SyntheticDataset CleanDataset(uint64_t seed, int cuts = 3) {
  SyntheticConfig config;
  config.length = 100;
  config.snr_db = 50.0;
  config.num_interior_cuts = cuts;
  config.seed = seed;
  return GenerateSynthetic(config);
}

TSExplainConfig BaseConfig() {
  TSExplainConfig config;
  config.measure = "value";
  config.explain_by_names = {"category"};
  config.max_order = 1;
  return config;
}

TEST(Pipeline, RecoversGroundTruthOnCleanData) {
  const SyntheticDataset ds = CleanDataset(7);
  TSExplainConfig config = BaseConfig();
  config.fixed_k = ds.ground_truth_k();
  TSExplain engine(*ds.table, config);
  const TSExplainResult result = engine.Run();
  EXPECT_EQ(result.chosen_k, ds.ground_truth_k());
  EXPECT_LT(DistancePercent(result.segmentation.cuts,
                            ds.ground_truth_cuts, 100),
            3.0);
}

TEST(Pipeline, ElbowPicksReasonableK) {
  const SyntheticDataset ds = CleanDataset(11, 4);
  TSExplainConfig config = BaseConfig();  // auto K
  TSExplain engine(*ds.table, config);
  const TSExplainResult result = engine.Run();
  EXPECT_GE(result.chosen_k, 2);
  EXPECT_LE(result.chosen_k, 10);
  EXPECT_EQ(result.k_variance_curve.size(), 20u);
}

TEST(Pipeline, SegmentsCoverTheWholeSeriesInOrder) {
  const SyntheticDataset ds = CleanDataset(13);
  TSExplainConfig config = BaseConfig();
  TSExplain engine(*ds.table, config);
  const TSExplainResult result = engine.Run();
  ASSERT_FALSE(result.segments.empty());
  EXPECT_EQ(result.segments.front().begin, 0);
  EXPECT_EQ(result.segments.back().end, 99);
  for (size_t i = 1; i < result.segments.size(); ++i) {
    EXPECT_EQ(result.segments[i].begin, result.segments[i - 1].end);
  }
  for (const SegmentExplanation& seg : result.segments) {
    EXPECT_LE(seg.top.size(), 3u);
    for (const ExplanationItem& item : seg.top) {
      EXPECT_FALSE(item.description.empty());
      EXPECT_GT(item.gamma, 0.0);
      EXPECT_NE(item.tau, 0);
    }
  }
}

TEST(Pipeline, FixedKOverridesElbow) {
  const SyntheticDataset ds = CleanDataset(17);
  TSExplainConfig config = BaseConfig();
  config.fixed_k = 5;
  TSExplain engine(*ds.table, config);
  EXPECT_EQ(engine.Run().chosen_k, 5);
}

TEST(Pipeline, OptimizationsPreserveQuality) {
  const SyntheticDataset ds = CleanDataset(19, 4);
  TSExplainConfig vanilla = BaseConfig();
  vanilla.fixed_k = ds.ground_truth_k();
  TSExplain vanilla_engine(*ds.table, vanilla);
  const TSExplainResult vanilla_result = vanilla_engine.Run();

  TSExplainConfig optimized = vanilla;
  optimized.use_filter = true;
  optimized.use_guess_verify = true;
  optimized.use_sketch = true;
  TSExplain optimized_engine(*ds.table, optimized);
  const TSExplainResult optimized_result = optimized_engine.Run();

  // Table 7's claim: optimized variance within ~1% of vanilla.
  const double vanilla_var = vanilla_result.segmentation.total_variance;
  const double optimized_var =
      vanilla_engine.EvaluateScheme(optimized_result.segmentation.cuts);
  EXPECT_LE(optimized_var, vanilla_var * 1.10 + 1e-9);
  EXPECT_FALSE(optimized_result.sketch_positions.empty());
}

TEST(Pipeline, GuessVerifyGivesIdenticalSegmentation) {
  const SyntheticDataset ds = CleanDataset(23);
  TSExplainConfig a = BaseConfig();
  a.fixed_k = 4;
  TSExplainConfig b = a;
  b.use_guess_verify = true;
  TSExplain ea(*ds.table, a), eb(*ds.table, b);
  // O1 is exact (Eq. 12): identical cuts, identical variance.
  const TSExplainResult ra = ea.Run();
  const TSExplainResult rb = eb.Run();
  EXPECT_EQ(ra.segmentation.cuts, rb.segmentation.cuts);
  EXPECT_NEAR(ra.segmentation.total_variance,
              rb.segmentation.total_variance, 1e-9);
}

TEST(Pipeline, TimingBreakdownPopulated) {
  const SyntheticDataset ds = CleanDataset(29);
  TSExplainConfig config = BaseConfig();
  TSExplain engine(*ds.table, config);
  const TSExplainResult result = engine.Run();
  const TimingBreakdown& timing = result.timing;
  // No sketch: that phase is skipped and reads 0; every other one ran.
  EXPECT_EQ(timing.sketch_ms, 0.0);
  EXPECT_GT(timing.variance_ms, 0.0);
  EXPECT_GT(timing.dp_ms, 0.0);
  EXPECT_GT(timing.final_explain_ms, 0.0);
  EXPECT_NEAR(timing.sketch_ms + timing.variance_ms + timing.dp_ms +
                  timing.final_explain_ms,
              timing.total_ms, 1e-9 * timing.total_ms);
  EXPECT_GT(timing.score_cpu_ms, 0.0);
  EXPECT_GT(timing.ca_cpu_ms, 0.0);
}

TEST(Pipeline, HotRunReportsOnlyItsOwnTime) {
  // Construction is not part of any run: a second Run on a hot engine
  // reports no more than the wall clock measured around that call.
  const SyntheticDataset ds = CleanDataset(29);
  TSExplain engine(*ds.table, BaseConfig());
  engine.Run();
  SegmentationSpec spec = SegmentationSpec::FromConfig(engine.config());
  spec.fixed_k = 3;
  const Timer wall;
  const TSExplainResult result = engine.Run(spec);
  const double wall_ms = wall.ElapsedMs();
  EXPECT_LE(result.timing.total_ms, wall_ms);
  EXPECT_GT(engine.build_ms(), 0.0);
}

TEST(Pipeline, EpsilonAccounting) {
  const SyntheticDataset ds = CleanDataset(31);
  TSExplainConfig config = BaseConfig();
  config.use_filter = true;
  TSExplain engine(*ds.table, config);
  const TSExplainResult result = engine.Run();
  EXPECT_EQ(result.epsilon, 3u);  // three categories
  EXPECT_LE(result.filtered_epsilon, result.epsilon);
  EXPECT_GE(result.filtered_epsilon, 1u);
}

TEST(Pipeline, CountAggregateWorks) {
  const SyntheticDataset ds = CleanDataset(37);
  TSExplainConfig config = BaseConfig();
  config.aggregate = AggregateFunction::kCount;
  config.measure.clear();  // COUNT(*)
  config.fixed_k = 2;
  TSExplain engine(*ds.table, config);
  const TSExplainResult result = engine.Run();
  EXPECT_EQ(result.chosen_k, 2);  // runs end to end
}

TEST(Pipeline, SmoothingPath) {
  const SyntheticDataset ds = CleanDataset(41);
  TSExplainConfig config = BaseConfig();
  config.smooth_window = 5;
  config.fixed_k = 3;
  TSExplain engine(*ds.table, config);
  const TSExplainResult result = engine.Run();
  EXPECT_EQ(result.segmentation.num_segments(), 3);
}

TEST(Pipeline, RelativeChangeMetricRuns) {
  const SyntheticDataset ds = CleanDataset(43);
  TSExplainConfig config = BaseConfig();
  config.diff_metric = DiffMetricKind::kRelativeChange;
  config.fixed_k = 3;
  TSExplain engine(*ds.table, config);
  EXPECT_EQ(engine.Run().segmentation.num_segments(), 3);
}

TEST(Pipeline, ExplainSegmentMatchesTwoRelationsDiff) {
  const SyntheticDataset ds = CleanDataset(47);
  TSExplainConfig config = BaseConfig();
  TSExplain engine(*ds.table, config);
  const auto items = engine.ExplainSegment(0, 99);
  ASSERT_FALSE(items.empty());
  // gamma must equal the cube's absolute-change on the endpoints.
  for (const ExplanationItem& item : items) {
    const DiffScore s = engine.cube().Score(
        DiffMetricKind::kAbsoluteChange, item.id, 0, 99);
    EXPECT_DOUBLE_EQ(item.gamma, s.gamma);
    EXPECT_EQ(item.tau, s.tau);
  }
}

TEST(Pipeline, ExplanationItemToString) {
  ExplanationItem item;
  item.description = "state=NY";
  item.tau = 1;
  EXPECT_EQ(item.ToString(), "state=NY (+)");
  item.tau = -1;
  EXPECT_EQ(item.ToString(), "state=NY (-)");
  item.tau = 0;
  EXPECT_EQ(item.ToString(), "state=NY (=)");
}

// Everything RenderJsonReport emits except the timing_ms block.
std::string RenderUntimed(const TSExplain& engine, TSExplainResult result) {
  result.timing = TimingBreakdown();
  return RenderJsonReport(engine, result);
}

// Appends one bucket holding the last bucket's rows with new values.
void AppendBucketLikeTheLast(Table& table) {
  const size_t rows = table.num_rows();
  const TimeId last = static_cast<TimeId>(table.num_time_buckets() - 1);
  const TimeId next = table.AddTimeBucket("appended");
  for (size_t row = 0; row < rows; ++row) {
    if (table.time(row) != last) continue;
    table.AppendRowEncoded(next, {table.dim(row, 0)},
                           {1.5 * table.measure(row, 0) + 3.0});
  }
}

// One engine keeps its last run's variance table and reads it when only
// K changes. Every answer it gives must equal a fresh engine's, while
// the kept table is read, replaced (another metric, the sketch toggled,
// another candidate list) and dropped (AppendBucket).
TEST(Pipeline, KVariantsOnOneEngineMatchFreshEngines) {
  SyntheticConfig synth;
  synth.length = 80;  // O2 derives (L, |S|) = (4, 60) at n = 80 and 81
  synth.num_categories = 4;
  synth.snr_db = 30.0;
  synth.num_interior_cuts = 3;
  synth.seed = 23;
  SyntheticDataset ds = GenerateSynthetic(synth);
  Table& table = *ds.table;
  const TSExplainConfig config = BaseConfig();
  TSExplain engine(table, config);

  const auto spec_for = [&config](VarianceMetric metric, bool sketch, int k) {
    SegmentationSpec spec = SegmentationSpec::FromConfig(config);
    spec.variance_metric = metric;
    spec.use_sketch = sketch;
    spec.fixed_k = k;
    return spec;
  };
  const auto expect_fresh = [&](const SegmentationSpec& spec,
                                const std::vector<int>& candidates,
                                const std::string& where) {
    TSExplain fresh(table, config);
    EXPECT_EQ(RenderUntimed(engine, engine.Run(spec, candidates)),
              RenderUntimed(fresh, fresh.Run(spec, candidates)))
        << where << " (" << VarianceMetricName(spec.variance_metric)
        << ", sketch " << spec.use_sketch << ", k " << spec.fixed_k << ")";
  };

  // K in {auto, 2..8} under every metric, sketch off then on.
  for (VarianceMetric metric : kAllVarianceMetrics) {
    for (const bool sketch : {false, true}) {
      for (const int k : {0, 2, 3, 4, 5, 6, 7, 8}) {
        expect_fresh(spec_for(metric, sketch, k), {}, "K sweep");
      }
    }
  }
  // Replace and refill: metric A -> B -> A, sketch on -> off -> on.
  using Step = std::tuple<VarianceMetric, bool, int>;
  for (const auto& [metric, sketch, k] : std::vector<Step>{
           {VarianceMetric::kTse, false, 3},
           {VarianceMetric::kDist1, false, 3},
           {VarianceMetric::kTse, false, 5},
           {VarianceMetric::kTse, true, 3},
           {VarianceMetric::kTse, false, 4},
           {VarianceMetric::kTse, true, 6}}) {
    expect_fresh(spec_for(metric, sketch, k), {}, "replace and refill");
  }
  // Two explicit candidate lists, in turn.
  std::vector<int> every_fifth;
  std::vector<int> every_seventh;
  for (int p = 0; p < 79; p += 5) every_fifth.push_back(p);
  for (int p = 0; p < 79; p += 7) every_seventh.push_back(p);
  every_fifth.push_back(79);
  every_seventh.push_back(79);
  for (const auto& [candidates, k] :
       std::vector<std::pair<std::vector<int>, int>>{
           {every_fifth, 3}, {every_seventh, 3}, {every_fifth, 4}}) {
    expect_fresh(spec_for(VarianceMetric::kTse, false, k), candidates,
                 "explicit candidates");
  }
  // An append between two runs whose sketch key is unchanged: only the
  // dropped table keeps out the old sketch, whose last cut is the old
  // endpoint.
  expect_fresh(spec_for(VarianceMetric::kTse, true, 4), {}, "before append");
  AppendBucketLikeTheLast(table);
  ASSERT_TRUE(engine.AppendBucket());
  expect_fresh(spec_for(VarianceMetric::kTse, true, 4), {}, "after append");
  expect_fresh(spec_for(VarianceMetric::kTse, true, 5), {},
               "K variant after append");
}

TEST(PipelineDeathTest, UnknownColumnsRejected) {
  const SyntheticDataset ds = CleanDataset(53);
  TSExplainConfig config = BaseConfig();
  config.explain_by_names = {"bogus"};
  EXPECT_DEATH(TSExplain(*ds.table, config), "unknown explain-by");
  config = BaseConfig();
  config.measure = "bogus";
  EXPECT_DEATH(TSExplain(*ds.table, config), "unknown measure");
}

}  // namespace
}  // namespace tsexplain
