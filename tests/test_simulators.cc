// Tests for the real-world dataset simulators, which stand in for the
// paper's datasets so experiments run offline: shapes, cardinalities, and
// the narrative structure each case study needs.

#include <gtest/gtest.h>

#include "src/cube/canonical_mask.h"
#include "src/cube/support_filter.h"
#include "src/datagen/covid_sim.h"
#include "src/datagen/deaths_sim.h"
#include "src/datagen/liquor_sim.h"
#include "src/datagen/sp500_sim.h"
#include "src/table/group_by.h"

namespace tsexplain {
namespace {

TEST(CovidSim, ShapeMatchesPaper) {
  const auto table = MakeCovidTable();
  EXPECT_EQ(table->num_time_buckets(), 345u);  // Table 6: n = 345
  EXPECT_EQ(table->dictionary(0).size(), 58u);  // 58 states
  EXPECT_EQ(table->num_rows(), 58u * 345u);
  EXPECT_EQ(table->time_labels().front(), "1-22");
  EXPECT_EQ(table->time_labels().back(), "12-31");
}

TEST(CovidSim, TotalIsCumulativeSumOfDaily) {
  const auto table = MakeCovidTable();
  // For one state, total[t] - total[t-1] == daily[t].
  const ValueId ny = table->dictionary(0).Lookup("NY");
  ASSERT_NE(ny, kInvalidValueId);
  const TimeSeries daily = GroupByTime(*table, AggregateFunction::kSum, 0,
                                       {DimPredicate{0, ny}});
  const TimeSeries total = GroupByTime(*table, AggregateFunction::kSum, 1,
                                       {DimPredicate{0, ny}});
  for (size_t t = 1; t < total.size(); ++t) {
    EXPECT_NEAR(total.values[t] - total.values[t - 1], daily.values[t],
                1e-6);
  }
}

TEST(CovidSim, NarrativeWaves) {
  const auto table = MakeCovidTable();
  auto daily_of = [&](const char* state, size_t day) {
    const ValueId v = table->dictionary(0).Lookup(state);
    const TimeSeries ts = GroupByTime(*table, AggregateFunction::kSum, 0,
                                      {DimPredicate{0, v}});
    return ts.values[day];
  };
  // NY spring wave dwarfs its summer; CA winter dwarfs its spring.
  EXPECT_GT(daily_of("NY", 73), 5.0 * daily_of("NY", 200));
  EXPECT_GT(daily_of("CA", 330), 5.0 * daily_of("CA", 100));
  // FL peaks in summer vs spring.
  EXPECT_GT(daily_of("FL", 180), 3.0 * daily_of("FL", 80));
  // WA is an early-outbreak state: visible cases by day 42.
  EXPECT_GT(daily_of("WA", 42), 100.0);
}

TEST(CovidSim, DeterministicInSeed) {
  const auto a = MakeCovidTable(7);
  const auto b = MakeCovidTable(7);
  EXPECT_EQ(a->measure_column(0), b->measure_column(0));
}

TEST(Sp500Sim, ShapeMatchesPaper) {
  const auto table = MakeSp500Table();
  EXPECT_EQ(table->num_time_buckets(), 151u);  // Table 6: n = 151
  EXPECT_EQ(table->dictionary(0).size(), 11u);   // categories
  EXPECT_EQ(table->dictionary(1).size(), 96u);   // subcategories
  EXPECT_EQ(table->dictionary(2).size(), 503u);  // stocks
}

TEST(Sp500Sim, EpsilonMatchesTable6AfterDedup) {
  const auto table = MakeSp500Table();
  const auto reg = ExplanationRegistry::Build(*table, {0, 1, 2}, 3);
  const ExplanationCube cube(*table, reg, AggregateFunction::kSum, 0);
  const auto canonical = ComputeCanonicalMask(cube, reg);
  // Paper Table 6: epsilon = 610 = 11 + 96 + 503 (hierarchy deduped).
  EXPECT_EQ(CountActive(canonical), 610u);
}

TEST(Sp500Sim, CrashAndRecoveryShape) {
  const auto table = MakeSp500Table();
  const TimeSeries index = GroupByTime(*table, AggregateFunction::kSum, 0);
  // Pre-crash (day 34) > bottom (day 57); recovery (day 117) > bottom.
  EXPECT_GT(index.values[34], index.values[57] * 1.2);
  EXPECT_GT(index.values[117], index.values[57] * 1.2);
  // September pullback: the end sits below the late-August high.
  EXPECT_LT(index.values[150], index.values[117]);
}

TEST(Sp500Sim, FinancialsDoNotRecover) {
  const auto table = MakeSp500Table();
  const ValueId tech = table->dictionary(0).Lookup("technology");
  const ValueId fin = table->dictionary(0).Lookup("financial");
  const TimeSeries tech_ts = GroupByTime(
      *table, AggregateFunction::kSum, 0, {DimPredicate{0, tech}});
  const TimeSeries fin_ts = GroupByTime(
      *table, AggregateFunction::kSum, 0, {DimPredicate{0, fin}});
  const double tech_recovery = tech_ts.values[117] / tech_ts.values[57];
  const double fin_recovery = fin_ts.values[117] / fin_ts.values[57];
  EXPECT_GT(tech_recovery, 1.3);       // tech bounces back strongly
  EXPECT_LT(fin_recovery, 1.15);       // financials stay flat (Table 4)
}

TEST(LiquorSim, ShapeInPaperBallpark) {
  const auto table = MakeLiquorTable();
  EXPECT_EQ(table->num_time_buckets(), 128u);  // Table 6: n = 128
  EXPECT_EQ(table->schema().num_dimensions(), 4u);
  const auto reg = ExplanationRegistry::Build(*table, {0, 1, 2, 3}, 3);
  // Paper: epsilon = 8197. Same order of magnitude required.
  EXPECT_GT(reg.num_explanations(), 3000u);
  EXPECT_LT(reg.num_explanations(), 20000u);

  const ExplanationCube cube(*table, reg, AggregateFunction::kSum, 0);
  const auto active = ComputeSupportFilter(cube);
  // Paper: 1812 after filtering; require a substantial reduction.
  EXPECT_LT(CountActive(active), reg.num_explanations() / 2);
  EXPECT_GT(CountActive(active), 100u);
}

TEST(LiquorSim, ClosureCrashAndRecoveryOfBv1000) {
  const auto table = MakeLiquorTable();
  const ValueId bv1000 = table->dictionary(0).Lookup("1000");
  ASSERT_NE(bv1000, kInvalidValueId);
  const TimeSeries ts = GroupByTime(*table, AggregateFunction::kSum, 0,
                                    {DimPredicate{0, bv1000}});
  // Crash: 3/6 (day ~45) -> 3/31 (day ~62) drops hard.
  EXPECT_LT(ts.values[62], ts.values[45] * 0.5);
  // Recovery: by 6/10 (day ~112) well above the trough.
  EXPECT_GT(ts.values[112], ts.values[62] * 1.5);
}

TEST(LiquorSim, LargePacksGrowEarlyInPandemic) {
  const auto table = MakeLiquorTable();
  const ValueId p12 = table->dictionary(1).Lookup("12");
  ASSERT_NE(p12, kInvalidValueId);
  const TimeSeries ts = GroupByTime(*table, AggregateFunction::kSum, 0,
                                    {DimPredicate{1, p12}});
  // 1/20 (day ~12) -> 3/6 (day ~45): growth.
  EXPECT_GT(ts.values[45], ts.values[12] * 1.2);
}

TEST(DeathsSim, ShapeAndLabels) {
  const auto table = MakeDeathsTable();
  EXPECT_EQ(table->num_time_buckets(), 39u);  // weeks 14..52
  EXPECT_EQ(table->time_labels().front(), "14");
  EXPECT_EQ(table->time_labels().back(), "52");
  EXPECT_EQ(table->dictionary(0).size(), 2u);  // vaccinated YES/NO
  EXPECT_EQ(table->dictionary(1).size(), 3u);  // age groups
}

TEST(DeathsSim, NarrativeHandoff) {
  const auto table = MakeDeathsTable();
  const ValueId no = table->dictionary(0).Lookup("NO");
  const ValueId old_age = table->dictionary(1).Lookup("50+");
  const TimeSeries unvax = GroupByTime(*table, AggregateFunction::kSum, 0,
                                       {DimPredicate{0, no}});
  const TimeSeries elders = GroupByTime(
      *table, AggregateFunction::kSum, 0, {DimPredicate{1, old_age}});
  const TimeSeries total = GroupByTime(*table, AggregateFunction::kSum, 0);
  // Early (week 18 = index 4): unvaccinated dominate the total.
  EXPECT_GT(unvax.values[4], 0.6 * total.values[4]);
  // Late (week 50 = index 36): elders dominate.
  EXPECT_GT(elders.values[36], 0.6 * total.values[36]);
}

}  // namespace
}  // namespace tsexplain
