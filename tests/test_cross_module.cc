// Cross-module consistency invariants that no single-module test covers:
// smoothing equivalences, cube-vs-group-by totals under every aggregate,
// pipeline-vs-building-block agreement, and report-vs-result agreement.

#include <gtest/gtest.h>

#include <string>

#include "src/datagen/synthetic.h"
#include "src/pipeline/report.h"
#include "src/pipeline/streaming.h"
#include "src/pipeline/tsexplain.h"
#include "src/table/group_by.h"
#include "src/ts/time_series.h"

namespace tsexplain {
namespace {

class CrossModuleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SyntheticConfig config;
    config.length = 60;
    config.seed = 41;
    config.num_interior_cuts = 2;
    ds_ = GenerateSynthetic(config);
  }
  SyntheticDataset ds_;
};

TEST_F(CrossModuleTest, CubeSmoothingEqualsSeriesSmoothing) {
  // Smoothing the cube's partials then finalizing must equal smoothing the
  // finalized overall series directly (linearity of SUM).
  const auto registry = ExplanationRegistry::Build(*ds_.table, {0}, 1);
  ExplanationCube cube(*ds_.table, registry, AggregateFunction::kSum, 0);
  const TimeSeries raw = cube.OverallSeries();
  cube.SmoothInPlace(4);
  const TimeSeries smoothed_cube = cube.OverallSeries();
  const TimeSeries smoothed_series = MovingAverage(raw, 4);
  for (size_t t = 0; t < raw.size(); ++t) {
    EXPECT_NEAR(smoothed_cube.values[t], smoothed_series.values[t], 1e-9);
  }
}

TEST_F(CrossModuleTest, PipelineSegmentExplanationsMatchFreshEngineDiff) {
  // The per-segment explanations of a run (read from the cache module (c)
  // filled) must equal the two-relations diff a fresh engine computes cold
  // on the same endpoints (same building block; this pins the facade
  // wiring).
  TSExplainConfig config;
  config.measure = "value";
  config.explain_by_names = {"category"};
  config.max_order = 1;
  config.fixed_k = 3;
  TSExplain engine(*ds_.table, config);
  const TSExplainResult result = engine.Run();

  TSExplain fresh(*ds_.table, config);
  for (const SegmentExplanation& seg : result.segments) {
    const std::vector<ExplanationItem> diff =
        fresh.ExplainSegment(seg.begin, seg.end);
    ASSERT_EQ(diff.size(), seg.top.size());
    for (size_t r = 0; r < seg.top.size(); ++r) {
      EXPECT_EQ(diff[r].id, seg.top[r].id);
      EXPECT_EQ(diff[r].description, seg.top[r].description);
      EXPECT_EQ(diff[r].gamma, seg.top[r].gamma);
      EXPECT_EQ(diff[r].tau, seg.top[r].tau);
    }
  }
}

TEST_F(CrossModuleTest, CubeTotalsMatchGroupByForEveryAggregate) {
  const auto registry = ExplanationRegistry::Build(*ds_.table, {0}, 1);
  for (AggregateFunction f : {AggregateFunction::kSum,
                              AggregateFunction::kCount,
                              AggregateFunction::kAvg}) {
    const int measure = f == AggregateFunction::kCount ? -1 : 0;
    const ExplanationCube cube(*ds_.table, registry, f, measure);
    const TimeSeries expected = GroupByTime(*ds_.table, f, measure);
    for (size_t t = 0; t < expected.size(); ++t) {
      EXPECT_NEAR(cube.Overall(t), expected.values[t], 1e-9);
    }
  }
}

TEST_F(CrossModuleTest, JsonReportNumbersMatchResult) {
  TSExplainConfig config;
  config.measure = "value";
  config.explain_by_names = {"category"};
  config.max_order = 1;
  config.fixed_k = 2;
  TSExplain engine(*ds_.table, config);
  const TSExplainResult result = engine.Run();
  const std::string json = RenderJsonReport(engine, result);
  // Spot-check: the rendered k and cut values appear verbatim.
  EXPECT_NE(json.find("\"k\": 2"), std::string::npos);
  for (int cut : result.segmentation.cuts) {
    EXPECT_NE(json.find(std::to_string(cut)), std::string::npos);
  }
  for (const SegmentExplanation& seg : result.segments) {
    for (const ExplanationItem& item : seg.top) {
      EXPECT_NE(json.find(JsonEscape(item.description)),
                std::string::npos);
    }
  }
}

TEST_F(CrossModuleTest, EvaluateSchemeMatchesDpObjective) {
  TSExplainConfig config;
  config.measure = "value";
  config.explain_by_names = {"category"};
  config.max_order = 1;
  config.fixed_k = 4;
  TSExplain engine(*ds_.table, config);
  const TSExplainResult result = engine.Run();
  EXPECT_NEAR(engine.EvaluateScheme(result.segmentation.cuts),
              result.segmentation.total_variance, 1e-9);
}

TEST_F(CrossModuleTest, StreamingAndBatchShareExplanationSemantics) {
  TSExplainConfig config;
  config.measure = "value";
  config.explain_by_names = {"category"};
  config.max_order = 1;
  config.fixed_k = 3;
  TSExplain batch(*ds_.table, config);
  StreamingTSExplain streaming(*ds_.table, config);
  const TSExplainResult a = batch.Run();
  const TSExplainResult b = streaming.Explain();
  ASSERT_EQ(a.segments.size(), b.segments.size());
  for (size_t i = 0; i < a.segments.size(); ++i) {
    ASSERT_EQ(a.segments[i].top.size(), b.segments[i].top.size());
    for (size_t r = 0; r < a.segments[i].top.size(); ++r) {
      EXPECT_EQ(a.segments[i].top[r].description,
                b.segments[i].top[r].description);
    }
  }
}

}  // namespace
}  // namespace tsexplain
