// Edge-case and robustness tests across the stack: degenerate data shapes
// (flat, empty slices, minimal sizes), extreme parameters, and cache
// consistency invariants.

#include <gtest/gtest.h>

#include <cmath>

#include "src/common/rng.h"
#include "src/datagen/synthetic.h"
#include "src/pipeline/tsexplain.h"
#include "src/seg/ndcg.h"

namespace tsexplain {
namespace {

TEST(EdgeCases, CompletelyFlatRelation) {
  // Every slice constant: no explanation scores anywhere, every segment is
  // "trivially explained", all variances zero, and the pipeline must still
  // return a valid segmentation with empty top lists.
  Table table(Schema("t", {"cat"}, {"v"}));
  for (int t = 0; t < 12; ++t) table.AddTimeBucket(std::to_string(t));
  for (int t = 0; t < 12; ++t) {
    table.AppendRow(t, {"a"}, {5.0});
    table.AppendRow(t, {"b"}, {7.0});
  }
  TSExplainConfig config;
  config.measure = "v";
  config.explain_by_names = {"cat"};
  TSExplain engine(table, config);
  const TSExplainResult result = engine.Run();
  EXPECT_GE(result.chosen_k, 1);
  EXPECT_DOUBLE_EQ(result.segmentation.total_variance, 0.0);
  for (const SegmentExplanation& seg : result.segments) {
    EXPECT_TRUE(seg.top.empty());
  }
}

TEST(EdgeCases, MinimalThreeBucketSeries) {
  Table table(Schema("t", {"cat"}, {"v"}));
  for (int t = 0; t < 3; ++t) table.AddTimeBucket(std::to_string(t));
  for (int t = 0; t < 3; ++t) {
    table.AppendRow(t, {"a"}, {10.0 * t});
    table.AppendRow(t, {"b"}, {5.0});
  }
  TSExplainConfig config;
  config.measure = "v";
  config.explain_by_names = {"cat"};
  TSExplain engine(table, config);
  const TSExplainResult result = engine.Run();
  EXPECT_GE(result.chosen_k, 1);
  EXPECT_LE(result.chosen_k, 2);
  EXPECT_EQ(result.segmentation.cuts.front(), 0);
  EXPECT_EQ(result.segmentation.cuts.back(), 2);
}

TEST(EdgeCases, TopOneExplanationPerSegment) {
  SyntheticConfig sconfig;
  sconfig.length = 50;
  sconfig.seed = 5;
  sconfig.num_interior_cuts = 2;
  const SyntheticDataset ds = GenerateSynthetic(sconfig);
  TSExplainConfig config;
  config.measure = "value";
  config.explain_by_names = {"category"};
  config.max_order = 1;
  config.m = 1;  // minimal m
  config.fixed_k = 3;
  TSExplain engine(*ds.table, config);
  const TSExplainResult result = engine.Run();
  for (const SegmentExplanation& seg : result.segments) {
    EXPECT_LE(seg.top.size(), 1u);
  }
}

TEST(EdgeCases, LargeMClampsToAvailableExplanations) {
  SyntheticConfig sconfig;
  sconfig.length = 40;
  sconfig.seed = 6;
  sconfig.num_interior_cuts = 1;
  const SyntheticDataset ds = GenerateSynthetic(sconfig);
  TSExplainConfig config;
  config.measure = "value";
  config.explain_by_names = {"category"};
  config.max_order = 1;
  config.m = 50;  // far more than the 3 categories
  config.fixed_k = 2;
  TSExplain engine(*ds.table, config);
  const TSExplainResult result = engine.Run();
  for (const SegmentExplanation& seg : result.segments) {
    EXPECT_LE(seg.top.size(), 3u);  // only 3 non-overlapping cells exist
  }
}

TEST(EdgeCases, SingleRowPerBucket) {
  Table table(Schema("t", {"cat"}, {"v"}));
  Rng rng(8);
  for (int t = 0; t < 20; ++t) {
    table.AddTimeBucket(std::to_string(t));
    table.AppendRow(t, {"only"}, {rng.Uniform(0.0, 10.0)});
  }
  TSExplainConfig config;
  config.measure = "v";
  config.explain_by_names = {"cat"};
  TSExplain engine(table, config);
  const TSExplainResult result = engine.Run();  // must not crash
  EXPECT_GE(result.chosen_k, 1);
}

TEST(EdgeCases, BucketsWithNoRows) {
  // A middle bucket with zero rows: aggregates finalize to zero.
  Table table(Schema("t", {"cat"}, {"v"}));
  for (int t = 0; t < 10; ++t) table.AddTimeBucket(std::to_string(t));
  for (int t = 0; t < 10; ++t) {
    if (t == 4 || t == 5) continue;  // gap
    table.AppendRow(t, {"a"}, {10.0 + t});
  }
  TSExplainConfig config;
  config.measure = "v";
  config.explain_by_names = {"cat"};
  TSExplain engine(table, config);
  const TSExplainResult result = engine.Run();
  EXPECT_EQ(result.segmentation.cuts.back(), 9);
}

TEST(EdgeCases, NegativeMeasureValues) {
  // Profit-and-loss style data: slices may be negative; gammas remain
  // absolute and the pipeline stays well-formed.
  Table table(Schema("t", {"book"}, {"pnl"}));
  for (int t = 0; t < 16; ++t) table.AddTimeBucket(std::to_string(t));
  for (int t = 0; t < 16; ++t) {
    table.AppendRow(t, {"rates"}, {-100.0 - 10.0 * t});
    table.AppendRow(t, {"equities"}, {50.0 + (t < 8 ? 20.0 * t : 160.0)});
  }
  TSExplainConfig config;
  config.measure = "pnl";
  config.explain_by_names = {"book"};
  TSExplain engine(table, config);
  const TSExplainResult result = engine.Run();
  for (const SegmentExplanation& seg : result.segments) {
    for (const auto& item : seg.top) {
      EXPECT_GE(item.gamma, 0.0);
    }
  }
}

TEST(EdgeCases, IdcgCacheMatchesManualDcg) {
  SyntheticConfig sconfig;
  sconfig.length = 30;
  sconfig.seed = 11;
  sconfig.num_interior_cuts = 1;
  const SyntheticDataset ds = GenerateSynthetic(sconfig);
  const auto registry = ExplanationRegistry::Build(*ds.table, {0}, 1);
  const ExplanationCube cube(*ds.table, registry, AggregateFunction::kSum,
                             0);
  SegmentExplainer::Options options;
  options.m = 3;
  SegmentExplainer explainer(cube, registry, options);
  for (int a = 0; a < 29; a += 4) {
    for (int b = a + 1; b < 30; b += 5) {
      const TopExplanations& top = explainer.TopFor(a, b);
      double manual = 0.0;
      for (size_t r = 0; r < top.gammas.size(); ++r) {
        manual += top.gammas[r] / std::log2(static_cast<double>(r) + 2.0);
      }
      EXPECT_NEAR(top.idcg, manual, 1e-12);
    }
  }
}

TEST(EdgeCases, RestrictedCaMatchesMaskedCa) {
  // TopMRestricted must return exactly what the mask-based TopM returns on
  // the same candidate set: the sub-lattice keeps the full lattice's node
  // order, so every knapsack sums in the same order, bit for bit. A solver
  // reused across quotas and lattices must answer like a fresh one.
  Table table(Schema("t", {"A", "B", "C"}, {"m"}));
  table.AddTimeBucket("0");
  Rng data_rng(3);
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      for (int c = 0; c < 3; ++c) {
        table.AppendRow(0,
                        {"a" + std::to_string(a), "b" + std::to_string(b),
                         "c" + std::to_string(c)},
                        {1.0});
      }
    }
  }
  const auto registry = ExplanationRegistry::Build(table, {0, 1, 2}, 3);
  auto expect_same = [](const TopExplanations& got,
                        const TopExplanations& want, const char* what,
                        int trial) {
    EXPECT_EQ(got.ids, want.ids) << what << ", trial " << trial;
    EXPECT_EQ(got.gammas, want.gammas) << what << ", trial " << trial;
    EXPECT_EQ(got.best, want.best) << what << ", trial " << trial;
  };
  CascadingAnalysts solver(registry);
  Rng rng(17);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<double> gamma(registry.num_explanations());
    for (auto& g : gamma) g = rng.Uniform(0.0, 10.0);
    // A random candidate subset.
    std::vector<ExplId> candidates;
    std::vector<bool> mask(registry.num_explanations(), false);
    for (size_t e = 0; e < gamma.size(); ++e) {
      if (rng.NextBool(0.3)) {
        candidates.push_back(static_cast<ExplId>(e));
        mask[e] = true;
      }
    }
    if (candidates.empty()) continue;
    expect_same(solver.TopMRestricted(gamma, 3, candidates),
                CascadingAnalysts(registry).TopM(gamma, 3, &mask),
                "restricted m=3 vs masked", trial);
    expect_same(solver.TopMRestricted(gamma, 2, candidates),
                CascadingAnalysts(registry).TopMRestricted(gamma, 2,
                                                           candidates),
                "reused restricted m=2", trial);
    expect_same(solver.TopM(gamma, 4, &mask),
                CascadingAnalysts(registry).TopM(gamma, 4, &mask),
                "reused masked m=4", trial);
  }
}

TEST(EdgeCases, StepChangeIsolatedExactly) {
  // A single step at t = 14 -> 15: the optimal 3-segmentation isolates the
  // step object [14, 15] (flat / step / flat has total variance 0).
  Table table(Schema("t", {"cat"}, {"v"}));
  for (int t = 0; t < 30; ++t) table.AddTimeBucket(std::to_string(t));
  for (int t = 0; t < 30; ++t) {
    table.AppendRow(t, {"a"}, {t < 15 ? 10.0 : 1000.0});
    table.AppendRow(t, {"b"}, {20.0});
  }
  TSExplainConfig config;
  config.measure = "v";
  config.explain_by_names = {"cat"};
  config.fixed_k = 3;
  TSExplain engine(table, config);
  const TSExplainResult result = engine.Run();
  EXPECT_EQ(result.segmentation.cuts, (std::vector<int>{0, 14, 15, 29}));
  EXPECT_NEAR(result.segmentation.total_variance, 0.0, 1e-9);
  // The step segment is explained by cat=a rising.
  const SegmentExplanation& step = result.segments[1];
  ASSERT_FALSE(step.top.empty());
  EXPECT_EQ(step.top[0].description, "cat=a");
  EXPECT_EQ(step.top[0].tau, 1);
}

}  // namespace
}  // namespace tsexplain
