// Tests for the two-relations diff between two snapshots (paper section
// 3.1), which TSExplain::ExplainSegment answers for any two time buckets,
// plus an exhaustive differential test of the Cascading Analysts
// algorithm against a brute-force enumeration of ALL cascades on small
// instances.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "src/common/rng.h"
#include "src/datagen/covid_sim.h"
#include "src/diff/cascading_analysts.h"
#include "src/pipeline/tsexplain.h"

namespace tsexplain {
namespace {

// Two buckets: a diff, but too short to segment.
Table MakeSalesTable() {
  Table table(Schema("day", {"region", "product"}, {"units"}));
  table.AddTimeBucket("mon");
  table.AddTimeBucket("tue");
  // mon -> tue: NA/widget +40, NA/gadget -10, EU/widget +5, EU/gadget 0.
  table.AppendRow(0, {"NA", "widget"}, {100.0});
  table.AppendRow(1, {"NA", "widget"}, {140.0});
  table.AppendRow(0, {"NA", "gadget"}, {50.0});
  table.AppendRow(1, {"NA", "gadget"}, {40.0});
  table.AppendRow(0, {"EU", "widget"}, {30.0});
  table.AppendRow(1, {"EU", "widget"}, {35.0});
  table.AppendRow(0, {"EU", "gadget"}, {20.0});
  table.AppendRow(1, {"EU", "gadget"}, {20.0});
  return table;
}

// Every dimension, in schema order.
TSExplainConfig SalesConfig(const std::string& measure) {
  TSExplainConfig config;
  config.measure = measure;
  config.explain_by_names = {"region", "product"};
  return config;
}

TEST(TwoRelationsDiff, ExplainsTheDifference) {
  const Table table = MakeSalesTable();
  TSExplainConfig config = SalesConfig("units");
  config.max_order = 2;
  TSExplain engine(table, config);
  EXPECT_DOUBLE_EQ(engine.cube().Overall(0), 200.0);
  EXPECT_DOUBLE_EQ(engine.cube().Overall(1), 235.0);
  const std::vector<ExplanationItem> top = engine.ExplainSegment(0, 1);
  ASSERT_FALSE(top.empty());
  // The dominant contributor is NA widgets (+40).
  EXPECT_EQ(top[0].description, "region=NA & product=widget");
  EXPECT_DOUBLE_EQ(top[0].gamma, 40.0);
  EXPECT_EQ(top[0].tau, 1);
  EXPECT_DOUBLE_EQ(engine.cube().SliceValue(top[0].id, 0), 100.0);
  EXPECT_DOUBLE_EQ(engine.cube().SliceValue(top[0].id, 1), 140.0);
}

TEST(TwoRelationsDiff, NegativeContributorSurfaces) {
  const Table table = MakeSalesTable();
  TSExplainConfig config = SalesConfig("units");
  config.max_order = 2;
  TSExplain engine(table, config);
  bool gadget_decline = false;
  for (const ExplanationItem& item : engine.ExplainSegment(0, 1)) {
    if (item.description == "region=NA & product=gadget" && item.tau < 0) {
      gadget_decline = true;
    }
  }
  EXPECT_TRUE(gadget_decline);
}

TEST(TwoRelationsDiff, ReversedDirection) {
  const Table table = MakeSalesTable();
  TSExplain engine(table, SalesConfig("units"));
  const std::vector<ExplanationItem> forward = engine.ExplainSegment(0, 1);
  const std::vector<ExplanationItem> backward = engine.ExplainSegment(1, 0);
  ASSERT_FALSE(forward.empty());
  ASSERT_FALSE(backward.empty());
  // Reversing control/test flips every change effect.
  EXPECT_EQ(forward[0].tau, -backward[0].tau);
  EXPECT_DOUBLE_EQ(forward[0].gamma, backward[0].gamma);

  // The risk ratio, unlike the absolute change, depends on the direction:
  // each reversed item scores as the cube scores it from bucket 1 to 0.
  TSExplainConfig risk = SalesConfig("units");
  risk.diff_metric = DiffMetricKind::kRiskRatio;
  TSExplain risk_engine(table, risk);
  const std::vector<ExplanationItem> reversed =
      risk_engine.ExplainSegment(1, 0);
  ASSERT_FALSE(reversed.empty());
  for (const ExplanationItem& item : reversed) {
    EXPECT_EQ(item.gamma,
              risk_engine.cube().Score(risk.diff_metric, item.id, 1, 0).gamma)
        << item.description;
  }
}

TEST(TwoRelationsDiff, EqualEndpointsExplainNothing) {
  const Table table = MakeSalesTable();
  TSExplain engine(table, SalesConfig("units"));
  EXPECT_TRUE(engine.ExplainSegment(1, 1).empty());
}

TEST(TwoRelationsDiff, CountOverAllDimensions) {
  const Table table = MakeSalesTable();
  TSExplain engine(table, SalesConfig(""));  // COUNT(*)
  // Row counts are equal on both days: nothing to explain.
  EXPECT_DOUBLE_EQ(engine.cube().Overall(0), 4.0);
  EXPECT_DOUBLE_EQ(engine.cube().Overall(1), 4.0);
  EXPECT_TRUE(engine.ExplainSegment(0, 1).empty());
}

TEST(TwoRelationsDiff, CovidEndpointsMatchPaperExample) {
  // Example 3.1: diffing the year's endpoints yields the big cumulative
  // states (CA/TX/FL in the paper's narrative).
  const auto table = MakeCovidTable();
  TSExplainConfig config;
  config.measure = "total_confirmed_cases";
  config.explain_by_names = {"state"};
  TSExplain engine(*table, config);
  const std::vector<std::string>& labels = table->time_labels();
  const auto bucket = [&labels](const std::string& label) {
    return static_cast<int>(std::find(labels.begin(), labels.end(), label) -
                            labels.begin());
  };
  const std::vector<ExplanationItem> top =
      engine.ExplainSegment(bucket("1-22"), bucket("12-31"));
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].description, "state=CA");
  for (const ExplanationItem& item : top) EXPECT_EQ(item.tau, 1);
}

TEST(TwoRelationsDiffDeathTest, RunNeedsThreeBuckets) {
  const Table table = MakeSalesTable();
  TSExplain engine(table, SalesConfig("units"));
  EXPECT_DEATH(engine.Run(), "at least three time buckets");
}

// ---------------------------------------------------------------------
// Exhaustive cascade enumeration: validates CA's optimality claim on the
// exact search space it optimizes over (all drill-down cascades), not just
// bounds. The enumerator recursively mirrors the cascade semantics:
// at a cell, either select it (if not root), or pick one dimension and
// recurse into each child with a quota split.
double BruteForceCascade(const ExplanationRegistry& reg,
                         const std::vector<double>& gamma, ExplId cell,
                         int quota) {
  if (quota == 0) return 0.0;
  double best = 0.0;
  if (cell != kInvalidExplId) {
    best = std::max(best, gamma[static_cast<size_t>(cell)]);
  }
  const std::vector<ChildGroup>& groups =
      cell == kInvalidExplId
          ? reg.lattice().root
          : reg.lattice().children[static_cast<size_t>(cell)];
  for (const ChildGroup& group : groups) {
    // Exhaustive quota distribution over this dimension's children.
    std::function<double(size_t, int)> distribute =
        [&](size_t idx, int remaining) -> double {
      if (idx == group.children.size() || remaining == 0) return 0.0;
      double value = distribute(idx + 1, remaining);  // give child 0
      for (int q = 1; q <= remaining; ++q) {
        value = std::max(
            value, BruteForceCascade(reg, gamma, group.children[idx], q) +
                       distribute(idx + 1, remaining - q));
      }
      return value;
    };
    best = std::max(best, distribute(0, quota));
  }
  return best;
}

TEST(CascadingAnalystsDifferential, MatchesExhaustiveCascadeSearch) {
  Table table(Schema("t", {"A", "B"}, {"m"}));
  table.AddTimeBucket("0");
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) {
      table.AppendRow(0, {"a" + std::to_string(a), "b" + std::to_string(b)},
                      {1.0});
    }
  }
  const auto reg = ExplanationRegistry::Build(table, {0, 1}, 2);
  CascadingAnalysts solver(reg);
  Rng rng(29);
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<double> gamma(reg.num_explanations());
    for (auto& g : gamma) g = rng.Uniform(0.0, 10.0);
    for (int m = 1; m <= 3; ++m) {
      const double exhaustive =
          BruteForceCascade(reg, gamma, kInvalidExplId, m);
      const TopExplanations got = solver.TopM(gamma, m);
      EXPECT_NEAR(got.TotalScore(), exhaustive, 1e-9)
          << "trial " << trial << " m " << m;
    }
  }
}

TEST(CascadingAnalystsDifferential, ThreeAttributeInstance) {
  Table table(Schema("t", {"A", "B", "C"}, {"m"}));
  table.AddTimeBucket("0");
  for (int a = 0; a < 2; ++a) {
    for (int b = 0; b < 2; ++b) {
      for (int c = 0; c < 2; ++c) {
        table.AppendRow(0,
                        {"a" + std::to_string(a), "b" + std::to_string(b),
                         "c" + std::to_string(c)},
                        {1.0});
      }
    }
  }
  const auto reg = ExplanationRegistry::Build(table, {0, 1, 2}, 3);
  CascadingAnalysts solver(reg);
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> gamma(reg.num_explanations());
    for (auto& g : gamma) g = rng.Uniform(0.0, 10.0);
    const double exhaustive =
        BruteForceCascade(reg, gamma, kInvalidExplId, 3);
    EXPECT_NEAR(solver.TopM(gamma, 3).TotalScore(), exhaustive, 1e-9)
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace tsexplain
