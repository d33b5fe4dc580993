// Unit tests for within-segment variance (Eq. 7, Eq. 10) and the variance
// table used by the DP.

#include <gtest/gtest.h>

#include <cmath>

#include "src/datagen/synthetic.h"
#include "src/seg/variance.h"
#include "src/seg/variance_table.h"

namespace tsexplain {
namespace {

class VarianceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Two clean regimes: a1 drives [0,5], a2 drives [5,10].
    std::vector<std::vector<double>> series(3, std::vector<double>(11));
    for (int t = 0; t <= 10; ++t) {
      series[0][static_cast<size_t>(t)] = t <= 5 ? 100.0 + 20.0 * t : 200.0;
      series[1][static_cast<size_t>(t)] =
          t <= 5 ? 50.0 : 50.0 + 15.0 * (t - 5);
      series[2][static_cast<size_t>(t)] = 80.0;
    }
    std::vector<std::string> labels;
    for (int t = 0; t <= 10; ++t) labels.push_back(std::to_string(t));
    table_ = TableFromCategorySeries(series, {"a1", "a2", "a3"}, labels);
    registry_ = ExplanationRegistry::Build(*table_, {0}, 1);
    cube_ = std::make_unique<ExplanationCube>(*table_, registry_,
                                              AggregateFunction::kSum, 0);
    SegmentExplainer::Options options;
    options.m = 3;
    explainer_ =
        std::make_unique<SegmentExplainer>(*cube_, registry_, options);
  }

  std::unique_ptr<Table> table_;
  ExplanationRegistry registry_;
  std::unique_ptr<ExplanationCube> cube_;
  std::unique_ptr<SegmentExplainer> explainer_;
};

TEST_F(VarianceTest, UnitSegmentHasZeroVariance) {
  for (VarianceMetric metric : kAllVarianceMetrics) {
    VarianceCalculator calc(*explainer_, metric);
    EXPECT_DOUBLE_EQ(calc.SegmentVariance(3, 4), 0.0)
        << VarianceMetricName(metric);
  }
}

TEST_F(VarianceTest, HomogeneousSegmentHasLowVariance) {
  VarianceCalculator calc(*explainer_, VarianceMetric::kTse);
  EXPECT_LT(calc.SegmentVariance(0, 5), 0.05);
  EXPECT_LT(calc.SegmentVariance(5, 10), 0.05);
}

TEST_F(VarianceTest, BoundaryCrossingSegmentHasHigherVariance) {
  VarianceCalculator calc(*explainer_, VarianceMetric::kTse);
  const double within = calc.SegmentVariance(0, 5);
  const double crossing = calc.SegmentVariance(2, 8);
  EXPECT_GT(crossing, within + 0.1);
}

TEST_F(VarianceTest, WeightedVarianceIsLengthTimesVariance) {
  VarianceCalculator calc(*explainer_, VarianceMetric::kTse);
  EXPECT_NEAR(calc.WeightedVariance(2, 8),
              6.0 * calc.SegmentVariance(2, 8), 1e-12);
}

TEST_F(VarianceTest, AllpairMatchesManualAverage) {
  VarianceCalculator calc(*explainer_, VarianceMetric::kAllpair);
  // Manual: average pairwise tse distance between the unit objects.
  const int a = 2, b = 6;
  double sum = 0.0;
  int pairs = 0;
  for (int x = a; x < b; ++x) {
    for (int y = x + 1; y < b; ++y) {
      sum += SegmentDist(*explainer_, VarianceMetric::kAllpair, x, x + 1, y,
                         y + 1);
      ++pairs;
    }
  }
  EXPECT_NEAR(calc.SegmentVariance(a, b), sum / pairs, 1e-12);
}

TEST_F(VarianceTest, TotalObjectiveSumsWeightedVariances) {
  VarianceCalculator calc(*explainer_, VarianceMetric::kTse);
  const std::vector<int> cuts{0, 5, 10};
  EXPECT_NEAR(TotalObjective(calc, cuts),
              calc.WeightedVariance(0, 5) + calc.WeightedVariance(5, 10),
              1e-12);
}

TEST_F(VarianceTest, GroundTruthCutsBeatShiftedCuts) {
  VarianceCalculator calc(*explainer_, VarianceMetric::kTse);
  const double gt = TotalObjective(calc, {0, 5, 10});
  EXPECT_LT(gt, TotalObjective(calc, {0, 2, 10}));
  EXPECT_LT(gt, TotalObjective(calc, {0, 8, 10}));
}

TEST_F(VarianceTest, VarianceTableMatchesCalculator) {
  // The table scores each list on its own segment once per fill (units)
  // or per entry (centroids); the calculator's SegmentDist scores both
  // sides of every NDCG per distance. Both sum the same doubles in the
  // same order, so every centroid metric agrees bit for bit, at unit
  // granularity and on a coarse candidate set (whose objects stay the
  // unit segments). All-pair metrics use coarse objects in the table.
  std::vector<int> all_points;
  for (int i = 0; i <= 10; ++i) all_points.push_back(i);
  const std::vector<int> coarse{0, 5, 10};
  for (VarianceMetric metric : kAllVarianceMetrics) {
    if (IsAllPairMetric(metric)) continue;
    VarianceCalculator calc(*explainer_, metric);
    for (const std::vector<int>& positions : {all_points, coarse}) {
      const VarianceTable table = VarianceTable::Compute(calc, positions);
      for (size_t i = 0; i < positions.size(); ++i) {
        for (size_t j = i + 1; j < positions.size(); ++j) {
          EXPECT_EQ(table.WeightedVar(i, j),
                    calc.WeightedVariance(positions[i], positions[j]))
              << VarianceMetricName(metric) << " [" << positions[i] << ", "
              << positions[j] << "] of " << positions.size()
              << " positions";
        }
      }
    }
  }
}

TEST_F(VarianceTest, VarianceTableSpanCap) {
  VarianceCalculator calc(*explainer_, VarianceMetric::kTse);
  std::vector<int> positions;
  for (int i = 0; i <= 10; ++i) positions.push_back(i);
  const VarianceTable table = VarianceTable::Compute(calc, positions, 3);
  EXPECT_TRUE(std::isinf(table.WeightedVar(0, 5)));
  EXPECT_FALSE(std::isinf(table.WeightedVar(0, 3)));
  EXPECT_EQ(table.MaxReachable(0), 3u);
  EXPECT_EQ(table.MaxReachable(9), 10u);
}

TEST_F(VarianceTest, CoarsePositionsKeepFineObjectSemantics) {
  // Sketch-restricted candidate positions only restrict the CUTS; the
  // objects stay the fine unit segments, so every entry must agree with
  // the plain calculator (this is what keeps Table 7's quality deltas
  // small).
  VarianceCalculator calc(*explainer_, VarianceMetric::kTse);
  const std::vector<int> coarse{0, 5, 10};
  const VarianceTable table = VarianceTable::Compute(calc, coarse);
  EXPECT_NEAR(table.WeightedVar(0, 2), calc.WeightedVariance(0, 10), 1e-12);
  EXPECT_NEAR(table.WeightedVar(0, 1), calc.WeightedVariance(0, 5), 1e-12);
  EXPECT_NEAR(table.WeightedVar(1, 2), calc.WeightedVariance(5, 10), 1e-12);
}

}  // namespace
}  // namespace tsexplain
