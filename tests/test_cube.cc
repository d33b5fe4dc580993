// Unit tests for the explanation cube (module (a)) + canonical mask.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/cube/canonical_mask.h"
#include "src/cube/explanation_cube.h"
#include "src/cube/support_filter.h"
#include "src/table/group_by.h"

namespace tsexplain {
namespace {

Table MakeTable() {
  Table table(Schema("date", {"state", "age"}, {"cases"}));
  for (const char* d : {"d0", "d1", "d2", "d3"}) table.AddTimeBucket(d);
  // state x age slices with distinct trajectories.
  const double ny_young[] = {10, 20, 40, 80};
  const double ny_old[] = {5, 5, 6, 7};
  const double ca_young[] = {8, 7, 6, 5};
  const double ca_old[] = {1, 2, 3, 4};
  for (int t = 0; t < 4; ++t) {
    table.AppendRow(t, {"NY", "young"}, {ny_young[t]});
    table.AppendRow(t, {"NY", "old"}, {ny_old[t]});
    table.AppendRow(t, {"CA", "young"}, {ca_young[t]});
    table.AppendRow(t, {"CA", "old"}, {ca_old[t]});
  }
  return table;
}

// Property: for EVERY candidate cell, the cube slice equals a fresh
// group-by with the same conjunction. Returns the number of mismatched
// slices, reporting the first.
size_t CountSlicesUnlikeGroupBy(const Table& t,
                                const ExplanationRegistry& reg,
                                const ExplanationCube& cube) {
  EXPECT_EQ(cube.num_explanations(), reg.num_explanations());
  size_t mismatches = 0;
  for (ExplId e = 0; e < static_cast<ExplId>(reg.num_explanations()); ++e) {
    std::vector<DimPredicate> conj;
    for (const Predicate& p : reg.explanation(e).predicates()) {
      conj.push_back(DimPredicate{p.attr, p.value});
    }
    const TimeSeries expected =
        GroupByTime(t, AggregateFunction::kSum, 0, conj);
    const TimeSeries actual = cube.SliceSeries(e);
    if (actual.values != expected.values && mismatches++ == 0) {
      ADD_FAILURE() << "first mismatched slice: "
                    << reg.explanation(e).ToString(t);
    }
  }
  return mismatches;
}

TEST(Cube, SliceSeriesMatchesGroupByEngine) {
  const Table t = MakeTable();
  const auto reg = ExplanationRegistry::Build(t, {0, 1}, 2);
  const ExplanationCube cube(t, reg, AggregateFunction::kSum, 0);
  EXPECT_EQ(CountSlicesUnlikeGroupBy(t, reg, cube), 0u);
}

TEST(Cube, WideExplainBy) {
  // 33 explain-by attributes: more than a 32-bit subset mask can hold.
  // Three rows, one per bucket; attribute d takes value r * (d + 1) % 3
  // in row r, so some attributes vary across rows and some do not.
  std::vector<std::string> dims;
  for (int d = 0; d < 33; ++d) dims.push_back("d" + std::to_string(d));
  Table t(Schema("date", dims, {"m"}));
  for (int r = 0; r < 3; ++r) {
    const TimeId time = t.AddTimeBucket("t" + std::to_string(r));
    std::vector<std::string> values;
    for (int d = 0; d < 33; ++d) {
      values.push_back("v" + std::to_string(r * (d + 1) % 3));
    }
    t.AppendRow(time, values, {static_cast<double>(1 << r)});
  }
  std::vector<AttrId> explain_by(33);
  for (int d = 0; d < 33; ++d) explain_by[static_cast<size_t>(d)] = d;
  for (int order : {1, 3}) {
    const auto reg = ExplanationRegistry::Build(t, explain_by, order);
    const ExplanationCube cube(t, reg, AggregateFunction::kSum, 0);
    EXPECT_EQ(CountSlicesUnlikeGroupBy(t, reg, cube), 0u)
        << "order " << order << ", epsilon " << reg.num_explanations();
  }
}

TEST(Cube, OverallEqualsGroupBy) {
  const Table t = MakeTable();
  const auto reg = ExplanationRegistry::Build(t, {0}, 1);
  const ExplanationCube cube(t, reg, AggregateFunction::kSum, 0);
  const TimeSeries expected = GroupByTime(t, AggregateFunction::kSum, 0);
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_DOUBLE_EQ(cube.Overall(i), expected.values[i]);
  }
}

TEST(Cube, OrderOneSlicesPartitionOverall) {
  const Table t = MakeTable();
  const auto reg = ExplanationRegistry::Build(t, {0, 1}, 2);
  const ExplanationCube cube(t, reg, AggregateFunction::kSum, 0);
  for (size_t time = 0; time < cube.n(); ++time) {
    double state_sum = 0.0;
    for (ExplId e = 0; e < static_cast<ExplId>(reg.num_explanations());
         ++e) {
      const Explanation& cell = reg.explanation(e);
      if (cell.order() == 1 && cell.predicates()[0].attr == 0) {
        state_sum += cube.SliceValue(e, time);
      }
    }
    EXPECT_DOUBLE_EQ(state_sum, cube.Overall(time));
  }
}

TEST(Cube, ScoreMatchesManualDefinition) {
  const Table t = MakeTable();
  const auto reg = ExplanationRegistry::Build(t, {0}, 1);
  const ExplanationCube cube(t, reg, AggregateFunction::kSum, 0);
  const ValueId ny = t.dictionary(0).Lookup("NY");
  const ExplId e =
      reg.Lookup(Explanation::FromPredicates({Predicate{0, ny}}));
  ASSERT_NE(e, kInvalidExplId);

  // Segment d0 -> d3. Overall: 24 -> 96; without NY: 9 -> 9.
  const DiffScore s =
      cube.Score(DiffMetricKind::kAbsoluteChange, e, 0, 3);
  // Delta = 72; Delta without NY = 0 -> gamma = 72, tau = +1.
  EXPECT_DOUBLE_EQ(s.gamma, 72.0);
  EXPECT_EQ(s.tau, 1);
}

TEST(Cube, CountAggregateWorksWithoutMeasure) {
  const Table t = MakeTable();
  const auto reg = ExplanationRegistry::Build(t, {0}, 1);
  const ExplanationCube cube(t, reg, AggregateFunction::kCount, -1);
  EXPECT_DOUBLE_EQ(cube.Overall(0), 4.0);  // 4 rows per bucket
}

TEST(Cube, AvgAggregate) {
  const Table t = MakeTable();
  const auto reg = ExplanationRegistry::Build(t, {0}, 1);
  const ExplanationCube cube(t, reg, AggregateFunction::kAvg, 0);
  EXPECT_DOUBLE_EQ(cube.Overall(0), 6.0);  // (10+5+8+1)/4
}

TEST(Cube, SmoothInPlacePreservesDecomposability) {
  const Table t = MakeTable();
  const auto reg = ExplanationRegistry::Build(t, {0}, 1);
  ExplanationCube cube(t, reg, AggregateFunction::kSum, 0);
  cube.SmoothInPlace(2);
  // After smoothing, order-1 slices must still partition the overall.
  for (size_t time = 0; time < cube.n(); ++time) {
    double sum = 0.0;
    for (ExplId e = 0; e < static_cast<ExplId>(reg.num_explanations());
         ++e) {
      sum += cube.SliceValue(e, time);
    }
    EXPECT_NEAR(sum, cube.Overall(time), 1e-9);
  }
  // Smoothed value at t1 is the average of raw t0 and t1: (24+34)/2.
  EXPECT_NEAR(cube.Overall(1), 29.0, 1e-9);
}

// A base table whose buckets' rows are interleaved, with values whose
// sums depend on the order they are added in. Tuples (NY, young) and
// (CA, old) never occur, so at order 2 their cells are absent.
Table MakeInterleavedTable() {
  Table table(Schema("date", {"state", "age"}, {"cases"}));
  for (const char* d : {"d0", "d1", "d2"}) table.AddTimeBucket(d);
  table.AppendRow(1, {"NY", "old"}, {20.1});
  table.AppendRow(2, {"CA", "young"}, {3.3});
  table.AppendRow(0, {"NY", "old"}, {0.7});
  table.AppendRow(1, {"CA", "young"}, {1e16});
  table.AppendRow(0, {"CA", "young"}, {1.1});
  table.AppendRow(2, {"NY", "old"}, {6.6});
  table.AppendRow(1, {"CA", "young"}, {-1e16});
  table.AppendRow(0, {"NY", "old"}, {0.2});
  table.AppendRow(2, {"CA", "young"}, {0.1});
  return table;
}

// Adds bucket t with a few rows; odd buckets bring the tuple (NY, young),
// whose order-1 cells exist.
void AppendBucketRows(Table& table, int t) {
  const TimeId time = table.AddTimeBucket("d" + std::to_string(t));
  table.AppendRow(time, {"CA", "young"}, {0.1 * t});
  table.AppendRow(time, {"NY", "old"}, {1e16});
  table.AppendRow(time, {"CA", "young"}, {0.3});
  table.AppendRow(time, {"NY", "old"}, {-1e16 + t});
  if (t % 2 == 1) table.AppendRow(time, {"NY", "young"}, {2.5 * t});
}

uint64_t Bits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

// Bit-for-bit equality of two cubes over the same registry: labels, the
// overall series and every slice partial.
void ExpectSameCube(const ExplanationCube& got, const ExplanationCube& want) {
  ASSERT_EQ(got.n(), want.n());
  ASSERT_EQ(got.num_explanations(), want.num_explanations());
  const TimeSeries got_overall = got.OverallSeries();
  const TimeSeries want_overall = want.OverallSeries();
  EXPECT_EQ(got_overall.labels, want_overall.labels);
  for (size_t t = 0; t < got.n(); ++t) {
    EXPECT_EQ(Bits(got_overall.values[t]), Bits(want_overall.values[t]))
        << "overall at " << t;
    for (ExplId e = 0; e < static_cast<ExplId>(got.num_explanations());
         ++e) {
      const AggState a = got.SlicePartial(e, t);
      const AggState b = want.SlicePartial(e, t);
      EXPECT_EQ(Bits(a.sum), Bits(b.sum)) << "cell " << e << " at " << t;
      EXPECT_EQ(Bits(a.count), Bits(b.count)) << "cell " << e << " at " << t;
    }
  }
}

TEST(Cube, AppendBucketFromTableRowsMatchesFreshBuild) {
  for (AggregateFunction f : {AggregateFunction::kSum,
                              AggregateFunction::kCount,
                              AggregateFunction::kAvg}) {
    const int measure = f == AggregateFunction::kCount ? -1 : 0;
    Table table = MakeInterleavedTable();
    const auto reg = ExplanationRegistry::Build(table, {0, 1}, 1);
    ExplanationCube cube(table, reg, f, measure);
    for (int t = 3; t < 7; ++t) {
      AppendBucketRows(table, t);
      ASSERT_TRUE(cube.AppendBucket(table, reg)) << "bucket " << t;
      ExpectSameCube(cube, ExplanationCube(table, reg, f, measure));
    }
  }
}

TEST(Cube, AppendBucketRefusalsLeaveTheCubeUntouched) {
  // Each case grows the table in a way the cube must refuse.
  const std::vector<std::pair<const char*, void (*)(Table&)>> cases = {
      {"no new bucket",
       [](Table& t) { t.AppendRow(2, {"NY", "old"}, {1.0}); }},
      {"two new buckets",
       [](Table& t) {
         AppendBucketRows(t, 4);
         AppendBucketRows(t, 6);
       }},
      {"a row in an old bucket",
       [](Table& t) {
         AppendBucketRows(t, 4);
         t.AppendRow(1, {"NY", "old"}, {1.0});
       }},
      {"a cell the registry lacks",
       [](Table& t) { AppendBucketRows(t, 3); }},  // (NY & young)
      {"a never-seen value",
       [](Table& t) {
         const TimeId time = t.AddTimeBucket("d3");
         t.AppendRow(time, {"TX", "old"}, {1.0});
       }},
  };
  for (const auto& [name, grow] : cases) {
    Table table = MakeInterleavedTable();
    const auto reg = ExplanationRegistry::Build(table, {0, 1}, 2);
    ExplanationCube cube(table, reg, AggregateFunction::kSum, 0);
    const ExplanationCube before = cube;
    grow(table);
    EXPECT_FALSE(cube.AppendBucket(table, reg)) << name;
    ExpectSameCube(cube, before);
  }

  // The same cube takes a well-formed bucket, but not after smoothing.
  Table table = MakeInterleavedTable();
  const auto reg = ExplanationRegistry::Build(table, {0, 1}, 2);
  ExplanationCube cube(table, reg, AggregateFunction::kSum, 0);
  ExplanationCube smoothed = cube;
  smoothed.SmoothInPlace(2);
  const ExplanationCube before = smoothed;
  AppendBucketRows(table, 4);
  EXPECT_TRUE(cube.AppendBucket(table, reg));
  EXPECT_FALSE(smoothed.AppendBucket(table, reg));
  ExpectSameCube(smoothed, before);
}

TEST(CanonicalMask, DetectsHierarchicalRedundancy) {
  // B refines A: every A value has exactly one... here b-values determine
  // a-values, so (A,B) pairs are redundant with (B) alone.
  Table table(Schema("t", {"A", "B"}, {"m"}));
  table.AddTimeBucket("0");
  table.AddTimeBucket("1");
  for (int time = 0; time < 2; ++time) {
    table.AppendRow(time, {"a1", "b1"}, {1.0 + time});
    table.AppendRow(time, {"a1", "b2"}, {2.0});
    table.AppendRow(time, {"a2", "b3"}, {3.0 - time});
  }
  const auto reg = ExplanationRegistry::Build(table, {0, 1}, 2);
  const ExplanationCube cube(table, reg, AggregateFunction::kSum, 0);
  const auto mask = ComputeCanonicalMask(cube, reg);

  // Raw cells: a1, a2, b1, b2, b3 + (a1,b1), (a1,b2), (a2,b3) = 8.
  EXPECT_EQ(reg.num_explanations(), 8u);
  // (a1,b1) == b1, (a1,b2) == b2, (a2,b3) == b3 == a2.
  // Canonical: a1, a2, b1, b2 (b3 dupes a2? both sum to the same rows...)
  size_t active = CountActive(mask);
  // a2 and b3 select identical rows, so one of them is masked too.
  EXPECT_EQ(active, 4u);

  // Representatives must be the lowest order: all order-2 cells masked.
  for (ExplId e = 0; e < static_cast<ExplId>(reg.num_explanations()); ++e) {
    if (reg.explanation(e).order() == 2) {
      EXPECT_FALSE(mask[static_cast<size_t>(e)])
          << reg.explanation(e).ToString(table);
    }
  }
}

TEST(CanonicalMask, NoFalsePositives) {
  const Table t = MakeTable();  // all slices genuinely distinct
  const auto reg = ExplanationRegistry::Build(t, {0, 1}, 2);
  const ExplanationCube cube(t, reg, AggregateFunction::kSum, 0);
  const auto mask = ComputeCanonicalMask(cube, reg);
  EXPECT_EQ(CountActive(mask), reg.num_explanations());
}

TEST(AndMasksTest, ElementwiseAnd) {
  const std::vector<bool> a{true, true, false, false};
  const std::vector<bool> b{true, false, true, false};
  EXPECT_EQ(AndMasks(a, b),
            (std::vector<bool>{true, false, false, false}));
}

}  // namespace
}  // namespace tsexplain
