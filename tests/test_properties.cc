// Parameterized property suites (TEST_P) sweeping SNR levels, variance
// metrics, diff metrics, and aggregate functions.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>

#include "src/baselines/bottom_up.h"
#include "src/datagen/synthetic.h"
#include "src/eval/segmentation_distance.h"
#include "src/pipeline/tsexplain.h"
#include "src/table/group_by.h"

namespace tsexplain {
namespace {

TSExplainConfig SyntheticBaseConfig() {
  TSExplainConfig config;
  config.measure = "value";
  config.explain_by_names = {"category"};
  config.max_order = 1;
  return config;
}

// ---------------------------------------------------------------------
// Sweep 1: SNR levels. TSExplain with the oracle K must stay reasonably
// close to the ground truth even under noise, and on clean data must beat
// the explanation-agnostic Bottom-Up baseline on average (Figure 10).
class SnrSweep : public ::testing::TestWithParam<double> {};

TEST_P(SnrSweep, RecoversGroundTruthWithinTolerance) {
  const double snr = GetParam();
  double total_tse = 0.0;
  double total_bu = 0.0;
  const int datasets = 3;
  for (int d = 0; d < datasets; ++d) {
    SyntheticConfig sconfig;
    sconfig.length = 100;
    sconfig.snr_db = snr;
    sconfig.seed = 1000 + static_cast<uint64_t>(d) * 17 +
                   static_cast<uint64_t>(snr);
    sconfig.num_interior_cuts = 3;
    const SyntheticDataset ds = GenerateSynthetic(sconfig);

    TSExplainConfig config = SyntheticBaseConfig();
    config.fixed_k = ds.ground_truth_k();
    TSExplain engine(*ds.table, config);
    const TSExplainResult result = engine.Run();
    total_tse += DistancePercent(result.segmentation.cuts,
                                 ds.ground_truth_cuts, 100);

    const TimeSeries agg = GroupByTime(*ds.table, AggregateFunction::kSum, 0);
    const std::vector<int> bu =
        BottomUpSegment(agg.values, ds.ground_truth_k());
    total_bu += DistancePercent(bu, ds.ground_truth_cuts, 100);
  }
  const double avg_tse = total_tse / datasets;
  const double avg_bu = total_bu / datasets;
  // Noisier data may degrade accuracy, but the explanation-aware method
  // must stay in a sane band and not lose badly to Bottom-Up.
  EXPECT_LT(avg_tse, snr >= 35 ? 6.0 : 25.0) << "SNR " << snr;
  EXPECT_LE(avg_tse, avg_bu + 8.0) << "SNR " << snr;
}

INSTANTIATE_TEST_SUITE_P(PaperSnrGrid, SnrSweep,
                         ::testing::Values(20.0, 30.0, 40.0, 50.0),
                         [](const auto& param_info) {
                           return "Snr" +
                                  std::to_string(static_cast<int>(
                                      param_info.param));
                         });

// ---------------------------------------------------------------------
// Sweep 2: all eight variance metrics drive a valid end-to-end pipeline.
class VarianceMetricSweep
    : public ::testing::TestWithParam<VarianceMetric> {};

TEST_P(VarianceMetricSweep, PipelineRunsAndIsWellFormed) {
  SyntheticConfig sconfig;
  sconfig.length = 60;
  sconfig.snr_db = 45.0;
  sconfig.seed = 404;
  sconfig.num_interior_cuts = 2;
  const SyntheticDataset ds = GenerateSynthetic(sconfig);

  TSExplainConfig config = SyntheticBaseConfig();
  config.variance_metric = GetParam();
  config.fixed_k = 3;
  TSExplain engine(*ds.table, config);
  const TSExplainResult result = engine.Run();

  EXPECT_EQ(result.segmentation.num_segments(), 3);
  EXPECT_GE(result.segmentation.total_variance, 0.0);
  // Total weight: sum over segments of length = n - 1 = 59 objects; the
  // variance of each segment is in [0,1], so the objective is bounded.
  EXPECT_LE(result.segmentation.total_variance, 59.0);
  // Curve approximately non-increasing where feasible (exact monotonicity
  // is not guaranteed: a split's two new centroids can explain their
  // objects worse than the old one did, but on this low-noise dataset
  // large regressions would signal a DP bug).
  const auto& curve = result.k_variance_curve;
  for (size_t i = 1; i < curve.size(); ++i) {
    if (std::isinf(curve[i]) || std::isinf(curve[i - 1])) continue;
    EXPECT_LE(curve[i], curve[i - 1] * 1.25 + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllEightMetrics, VarianceMetricSweep,
    ::testing::ValuesIn(kAllVarianceMetrics),
    [](const auto& param_info) { return VarianceMetricName(param_info.param); });

// ---------------------------------------------------------------------
// Sweep 3: diff metric x aggregate function combinations all run.
class QuerySweep
    : public ::testing::TestWithParam<
          std::tuple<DiffMetricKind, AggregateFunction>> {};

TEST_P(QuerySweep, PipelineProducesValidSegments) {
  const auto [diff_metric, aggregate] = GetParam();
  SyntheticConfig sconfig;
  sconfig.length = 50;
  sconfig.snr_db = 40.0;
  sconfig.seed = 777;
  sconfig.num_interior_cuts = 2;
  const SyntheticDataset ds = GenerateSynthetic(sconfig);

  TSExplainConfig config = SyntheticBaseConfig();
  config.diff_metric = diff_metric;
  config.aggregate = aggregate;
  if (aggregate == AggregateFunction::kCount) config.measure.clear();
  config.fixed_k = 2;
  TSExplain engine(*ds.table, config);
  const TSExplainResult result = engine.Run();

  EXPECT_EQ(result.segmentation.cuts.front(), 0);
  EXPECT_EQ(result.segmentation.cuts.back(), 49);
  for (const SegmentExplanation& seg : result.segments) {
    for (size_t i = 0; i < seg.top.size(); ++i) {
      for (size_t j = i + 1; j < seg.top.size(); ++j) {
        EXPECT_FALSE(
            engine.registry()
                .explanation(seg.top[i].id)
                .OverlapsWith(engine.registry().explanation(seg.top[j].id)));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DiffByAggregate, QuerySweep,
    ::testing::Combine(::testing::Values(DiffMetricKind::kAbsoluteChange,
                                         DiffMetricKind::kRelativeChange,
                                         DiffMetricKind::kRiskRatio),
                       ::testing::Values(AggregateFunction::kSum,
                                         AggregateFunction::kCount,
                                         AggregateFunction::kAvg)),
    [](const auto& param_info) {
      const DiffMetricKind metric = std::get<0>(param_info.param);
      const AggregateFunction agg = std::get<1>(param_info.param);
      std::string name = DiffMetricName(metric);
      std::replace(name.begin(), name.end(), '-', '_');
      name += agg == AggregateFunction::kSum
                  ? "_sum"
                  : (agg == AggregateFunction::kCount ? "_count" : "_avg");
      return name;
    });

// ---------------------------------------------------------------------
// Sweep 4: optimization combinations preserve segment-count contracts.
class OptimizationSweep
    : public ::testing::TestWithParam<std::tuple<bool, bool, bool>> {};

TEST_P(OptimizationSweep, AllCombinationsRun) {
  const auto [filter, o1, o2] = GetParam();
  SyntheticConfig sconfig;
  sconfig.length = 80;
  sconfig.snr_db = 40.0;
  sconfig.seed = 31337;
  sconfig.num_interior_cuts = 3;
  const SyntheticDataset ds = GenerateSynthetic(sconfig);

  TSExplainConfig config = SyntheticBaseConfig();
  config.use_filter = filter;
  config.use_guess_verify = o1;
  config.use_sketch = o2;
  config.fixed_k = 4;
  TSExplain engine(*ds.table, config);
  const TSExplainResult result = engine.Run();
  EXPECT_EQ(result.segmentation.num_segments(), 4);
  EXPECT_EQ(result.sketch_positions.empty(), !o2);
}

INSTANTIATE_TEST_SUITE_P(
    AllEight, OptimizationSweep,
    ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                       ::testing::Bool()),
    [](const auto& param_info) {
      const bool filter = std::get<0>(param_info.param);
      const bool o1 = std::get<1>(param_info.param);
      const bool o2 = std::get<2>(param_info.param);
      return std::string(filter ? "filter" : "nofilter") +
             (o1 ? "_o1" : "_noo1") + (o2 ? "_o2" : "_noo2");
    });

}  // namespace
}  // namespace tsexplain
