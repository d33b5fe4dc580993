// Tests for the stand-alone two-relations diff API, plus an exhaustive
// differential test of the Cascading Analysts algorithm against a
// brute-force enumeration of ALL cascades on small instances.

#include <gtest/gtest.h>

#include <functional>

#include "src/common/rng.h"
#include "src/datagen/covid_sim.h"
#include "src/diff/snapshot_diff.h"
#include "src/diff/cascading_analysts.h"

namespace tsexplain {
namespace {

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

TEST(SnapshotDiff, ExplainsTheDifference) {
  const Table table = MakeSalesTable();
  SnapshotDiffOptions options;
  options.measure = "units";
  options.max_order = 2;
  const SnapshotDiffResult result = SnapshotDiff(table, "mon", "tue",
                                                 options);
  EXPECT_DOUBLE_EQ(result.control_total, 200.0);
  EXPECT_DOUBLE_EQ(result.test_total, 235.0);
  ASSERT_FALSE(result.top.empty());
  // The dominant contributor is NA widgets (+40).
  EXPECT_EQ(result.top[0].description, "region=NA & product=widget");
  EXPECT_DOUBLE_EQ(result.top[0].gamma, 40.0);
  EXPECT_EQ(result.top[0].tau, 1);
  EXPECT_DOUBLE_EQ(result.top[0].control_value, 100.0);
  EXPECT_DOUBLE_EQ(result.top[0].test_value, 140.0);
}

TEST(SnapshotDiff, NegativeContributorSurfaces) {
  const Table table = MakeSalesTable();
  SnapshotDiffOptions options;
  options.measure = "units";
  options.max_order = 2;
  const SnapshotDiffResult result = SnapshotDiff(table, "mon", "tue",
                                                 options);
  bool gadget_decline = false;
  for (const SnapshotDiffItem& item : result.top) {
    if (item.description == "region=NA & product=gadget" && item.tau < 0) {
      gadget_decline = true;
    }
  }
  EXPECT_TRUE(gadget_decline);
}

TEST(SnapshotDiff, IndexVariantAndReversedDirection) {
  const Table table = MakeSalesTable();
  SnapshotDiffOptions options;
  options.measure = "units";
  const SnapshotDiffResult forward = SnapshotDiffAt(table, 0, 1, options);
  const SnapshotDiffResult backward = SnapshotDiffAt(table, 1, 0, options);
  ASSERT_FALSE(forward.top.empty());
  ASSERT_FALSE(backward.top.empty());
  // Reversing control/test flips every change effect.
  EXPECT_EQ(forward.top[0].tau, -backward.top[0].tau);
  EXPECT_DOUBLE_EQ(forward.top[0].gamma, backward.top[0].gamma);
}

TEST(SnapshotDiff, DefaultsToAllDimensionsAndCount) {
  const Table table = MakeSalesTable();
  SnapshotDiffOptions options;  // COUNT(*), all dimensions
  const SnapshotDiffResult result = SnapshotDiff(table, "mon", "tue",
                                                 options);
  // Row counts are equal on both days: nothing to explain.
  EXPECT_DOUBLE_EQ(result.control_total, 4.0);
  EXPECT_DOUBLE_EQ(result.test_total, 4.0);
  EXPECT_TRUE(result.top.empty());
}

TEST(SnapshotDiff, CovidEndpointsMatchPaperExample) {
  // Example 3.1: diffing the year's endpoints yields the big cumulative
  // states (CA/TX/FL in the paper's narrative).
  const auto table = MakeCovidTable();
  SnapshotDiffOptions options;
  options.measure = "total_confirmed_cases";
  options.explain_by = {"state"};
  const SnapshotDiffResult result =
      SnapshotDiff(*table, "1-22", "12-31", options);
  ASSERT_EQ(result.top.size(), 3u);
  EXPECT_EQ(result.top[0].description, "state=CA");
  for (const auto& item : result.top) EXPECT_EQ(item.tau, 1);
}

TEST(SnapshotDiffDeathTest, UnknownLabelRejected) {
  const Table table = MakeSalesTable();
  EXPECT_DEATH(SnapshotDiff(table, "mon", "nope", {}),
               "unknown time bucket");
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
