// End-to-end tests for the TSExplain pipeline facade.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/timer.h"
#include "src/datagen/synthetic.h"
#include "src/eval/segmentation_distance.h"
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
