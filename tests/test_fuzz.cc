// Failure-injection / fuzz suites: random relations through the full
// pipeline, mutated CSV inputs through the loader. Nothing here asserts
// specific answers -- only that invariants hold and errors are reported
// instead of crashing.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "src/common/rng.h"
#include "src/eval/segmentation_distance.h"
#include "src/pipeline/tsexplain.h"
#include "src/table/csv_reader.h"

namespace tsexplain {
namespace {

// ---------------------------------------------------------------------
// Pipeline fuzz: random small relations with random shapes and configs.
class PipelineFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PipelineFuzz, InvariantsHoldOnRandomRelations) {
  Rng rng(GetParam());
  const int n = static_cast<int>(rng.UniformInt(3, 40));
  const int num_dims = static_cast<int>(rng.UniformInt(1, 3));
  std::vector<std::string> dim_names;
  for (int d = 0; d < num_dims; ++d) {
    dim_names.push_back("d" + std::to_string(d));
  }
  Table table(Schema("t", dim_names, {"v"}));
  for (int t = 0; t < n; ++t) table.AddTimeBucket(std::to_string(t));
  const int rows_per_bucket = static_cast<int>(rng.UniformInt(1, 8));
  for (int t = 0; t < n; ++t) {
    for (int r = 0; r < rows_per_bucket; ++r) {
      std::vector<std::string> dims;
      for (int d = 0; d < num_dims; ++d) {
        dims.push_back("v" + std::to_string(rng.UniformInt(0, 3)));
      }
      // Mix of magnitudes, zeros, and negatives.
      double value = rng.Uniform(-5.0, 50.0);
      if (rng.NextBool(0.1)) value = 0.0;
      table.AppendRow(t, dims, {value});
    }
  }

  TSExplainConfig config;
  config.measure = "v";
  config.explain_by_names = dim_names;
  config.max_order = static_cast<int>(rng.UniformInt(1, num_dims));
  config.m = static_cast<int>(rng.UniformInt(1, 4));
  config.use_filter = rng.NextBool();
  config.use_guess_verify = rng.NextBool();
  config.use_sketch = rng.NextBool();
  config.smooth_window = rng.NextBool(0.3) ? 3 : 1;
  const int aggregate_pick = static_cast<int>(rng.UniformInt(0, 2));
  config.aggregate = aggregate_pick == 0 ? AggregateFunction::kSum
                     : aggregate_pick == 1 ? AggregateFunction::kCount
                                           : AggregateFunction::kAvg;
  if (config.aggregate == AggregateFunction::kCount) config.measure.clear();

  TSExplain engine(table, config);
  const TSExplainResult result = engine.Run();

  // Invariants: valid scheme, coverage, ordering, non-overlap, ranges.
  ASSERT_GE(result.segmentation.cuts.size(), 2u);
  EXPECT_EQ(result.segmentation.cuts.front(), 0);
  EXPECT_EQ(result.segmentation.cuts.back(), n - 1);
  EXPECT_TRUE(std::is_sorted(result.segmentation.cuts.begin(),
                             result.segmentation.cuts.end()));
  EXPECT_GE(result.segmentation.total_variance, -1e-9);
  EXPECT_EQ(result.chosen_k, result.segmentation.num_segments());
  ASSERT_EQ(result.segments.size(),
            static_cast<size_t>(result.chosen_k));
  for (const SegmentExplanation& seg : result.segments) {
    EXPECT_LT(seg.begin, seg.end);
    EXPECT_GE(seg.variance, 0.0);
    EXPECT_LE(seg.variance, 1.0 + 1e-9);
    EXPECT_LE(seg.top.size(), static_cast<size_t>(config.m));
    for (size_t i = 0; i < seg.top.size(); ++i) {
      EXPECT_GT(seg.top[i].gamma, 0.0);
      for (size_t j = i + 1; j < seg.top.size(); ++j) {
        EXPECT_FALSE(
            engine.registry()
                .explanation(seg.top[i].id)
                .OverlapsWith(engine.registry().explanation(seg.top[j].id)));
      }
    }
  }
  // The K-variance curve is finite-then-infeasible and non-negative.
  // NOTE: it is NOT guaranteed monotone -- splitting a segment replaces
  // its centroid with two new ones whose top explanations can describe
  // the objects WORSE under heavy noise (the paper's "decreases
  // monotonically" is stated as intuition, not proven).
  const auto& curve = result.k_variance_curve;
  bool seen_infeasible = false;
  for (double v : curve) {
    if (std::isinf(v)) {
      seen_infeasible = true;
    } else {
      EXPECT_FALSE(seen_infeasible) << "finite after infeasible";
      EXPECT_GE(v, -1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineFuzz,
                         ::testing::Range<uint64_t>(1, 25));

// ---------------------------------------------------------------------
// CSV fuzz: structured corruptions must produce errors, never crashes.
class CsvFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CsvFuzz, MutatedInputNeverCrashes) {
  Rng rng(GetParam());
  const std::string base =
      "t,region,units\n"
      "0,NA,10\n"
      "1,NA,12\n"
      "0,EU,7\n"
      "1,EU,9\n";
  std::string mutated = base;
  const int mutations = static_cast<int>(rng.UniformInt(1, 6));
  for (int i = 0; i < mutations; ++i) {
    const size_t pos =
        static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(
                                                  mutated.size() - 1)));
    switch (rng.UniformInt(0, 3)) {
      case 0:
        mutated[pos] = static_cast<char>(rng.UniformInt(32, 126));
        break;
      case 1:
        mutated.insert(pos, 1, ',');
        break;
      case 2:
        mutated.insert(pos, 1, '"');
        break;
      default:
        mutated.erase(pos, 1);
        break;
    }
  }
  CsvOptions options;
  options.time_column = "t";
  options.measure_columns = {"units"};
  const CsvResult result = ReadCsvFromString(mutated, options);
  // Either a parse error with a message, or a structurally valid table.
  if (!result.ok()) {
    EXPECT_FALSE(result.error.empty());
  } else {
    EXPECT_GT(result.rows, 0u);
    EXPECT_GE(result.table->num_time_buckets(), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvFuzz,
                         ::testing::Range<uint64_t>(100, 140));

// ---------------------------------------------------------------------
// Metric fuzz: precision/recall helper on random cut sets.
TEST(CutPrecisionRecallTest, KnownCases) {
  const std::vector<int> gt{0, 20, 50, 99};
  EXPECT_DOUBLE_EQ(EvaluateCutPrecisionRecall(gt, gt, 0).F1(), 1.0);
  const CutPrecisionRecall near =
      EvaluateCutPrecisionRecall({0, 22, 48, 99}, gt, 3);
  EXPECT_DOUBLE_EQ(near.precision, 1.0);
  EXPECT_DOUBLE_EQ(near.recall, 1.0);
  const CutPrecisionRecall miss =
      EvaluateCutPrecisionRecall({0, 70, 99}, gt, 3);
  EXPECT_DOUBLE_EQ(miss.precision, 0.0);
  EXPECT_DOUBLE_EQ(miss.recall, 0.0);
  // Extra predicted cut: precision drops, recall stays.
  const CutPrecisionRecall extra =
      EvaluateCutPrecisionRecall({0, 20, 50, 70, 99}, gt, 2);
  EXPECT_NEAR(extra.precision, 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(extra.recall, 1.0);
}

TEST(CutPrecisionRecallTest, OneToOneMatching) {
  // Two predicted cuts near ONE ground-truth cut: only one may match.
  const CutPrecisionRecall pr =
      EvaluateCutPrecisionRecall({0, 49, 51, 99}, {0, 50, 99}, 2);
  EXPECT_EQ(pr.matched, 1);
  EXPECT_DOUBLE_EQ(pr.precision, 0.5);
  EXPECT_DOUBLE_EQ(pr.recall, 1.0);
}

std::vector<int> RandomSegmentationForTest(Rng& rng) {
  std::vector<int> cuts{0};
  const int k = static_cast<int>(rng.UniformInt(0, 5));
  std::vector<int> interior;
  for (int i = 0; i < k; ++i) {
    interior.push_back(static_cast<int>(rng.UniformInt(1, 98)));
  }
  std::sort(interior.begin(), interior.end());
  interior.erase(std::unique(interior.begin(), interior.end()),
                 interior.end());
  cuts.insert(cuts.end(), interior.begin(), interior.end());
  cuts.push_back(99);
  return cuts;
}

TEST(CutPrecisionRecallTest, RandomizedBounds) {
  Rng rng(55);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<int> a = RandomSegmentationForTest(rng);
    std::vector<int> b = RandomSegmentationForTest(rng);
    const CutPrecisionRecall pr = EvaluateCutPrecisionRecall(a, b, 5);
    EXPECT_GE(pr.precision, 0.0);
    EXPECT_LE(pr.precision, 1.0);
    EXPECT_GE(pr.recall, 0.0);
    EXPECT_LE(pr.recall, 1.0);
    EXPECT_GE(pr.F1(), 0.0);
    EXPECT_LE(pr.F1(), 1.0);
  }
}

}  // namespace
}  // namespace tsexplain
