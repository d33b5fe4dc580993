// Unit tests for guess-and-verify (O1): must return EXACTLY the plain CA
// result (Eq. 12 is a sufficient optimality condition).

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "src/common/rng.h"
#include "src/cube/support_filter.h"
#include "src/diff/guess_verify.h"
#include "tests/cascading_analysts_test_peer.h"

namespace tsexplain {
namespace {

Table MakeSingleAttrTable(int cardinality) {
  Table table(Schema("t", {"A"}, {"m"}));
  table.AddTimeBucket("0");
  for (int i = 0; i < cardinality; ++i) {
    table.AppendRow(0, {"v" + std::to_string(i)}, {1.0});
  }
  return table;
}

Table MakeTable(int a_card, int b_card) {
  Table table(Schema("t", {"A", "B"}, {"m"}));
  table.AddTimeBucket("0");
  for (int a = 0; a < a_card; ++a) {
    for (int b = 0; b < b_card; ++b) {
      table.AppendRow(0, {"a" + std::to_string(a), "b" + std::to_string(b)},
                      {1.0});
    }
  }
  return table;
}

TEST(GuessVerify, MatchesPlainCaOnRandomInstances) {
  // Guess-and-verify must return exactly what a fresh solver's TopM returns
  // under the same selectable cells: ids, gammas and Best, bit for bit.
  // Half the trials draw gammas from a few values, so ties straddle every
  // guessed prefix; the rest draw them uniformly. Each trial draws its own
  // selectable list (or none), m and initial guess. One solver serves every
  // guess-and-verify call and, between them, a plain TopM at another m, so
  // no state of one call may leak into the next. The two-attribute
  // registry runs guess rounds; the one-attribute registries (flat
  // lattices, 58 cells as covid total has and 5 cells, fewer than m + 1)
  // take the flat pass, which must also match the general DP and report
  // one exact round over its positive cells.
  const Table two_attr = MakeTable(8, 6);
  const Table flat_58 = MakeSingleAttrTable(58);
  const Table flat_5 = MakeSingleAttrTable(5);
  const int kMs[] = {1, 2, 3, 5};
  const int kGuesses[] = {1, 2, 30};
  const double kTiedValues[] = {0.0, 1.0, 2.0, 2.0, 5.0, 8.0};
  Rng rng(101);
  int doubled_twice = 0;
  for (const auto& [table, explain_by, order, trials] :
       {std::make_tuple(&two_attr, std::vector<AttrId>{0, 1}, 2, 240),
        std::make_tuple(&flat_58, std::vector<AttrId>{0}, 1, 120),
        std::make_tuple(&flat_5, std::vector<AttrId>{0}, 1, 60)}) {
    const auto reg = ExplanationRegistry::Build(*table, explain_by, order);
    const size_t epsilon = reg.num_explanations();
    CascadingAnalysts reused(reg);
    const bool flat = reused.flat();
    ASSERT_EQ(flat, explain_by.size() == 1);
    for (int trial = 0; trial < trials; ++trial) {
      const int m = kMs[trial % 4];
      const int initial_guess = kGuesses[(trial / 4) % 3];
      const bool tied = trial % 2 == 0;
      std::vector<double> gamma(epsilon);
      for (auto& g : gamma) {
        g = tied ? kTiedValues[rng.UniformInt(0, 5)]
                 : rng.Uniform(0.0, 100.0);
      }
      std::vector<bool> mask(epsilon, true);
      const bool masked = trial % 3 != 0;
      if (masked) {
        for (size_t e = 0; e < epsilon; ++e) mask[e] = rng.NextBool(0.7);
      }
      const std::vector<ExplId> ids = ActiveIds(mask);
      const std::string where = "epsilon " + std::to_string(epsilon) +
                                " trial " + std::to_string(trial) + " m " +
                                std::to_string(m) + " guess " +
                                std::to_string(initial_guess);

      GuessVerifyStats stats;
      const TopExplanations actual = GuessVerifyTopM(
          reused, gamma, m, masked ? &ids : nullptr, initial_guess, &stats);
      const TopExplanations expected =
          CascadingAnalysts(reg).TopM(gamma, m, &mask);
      EXPECT_EQ(actual.ids, expected.ids) << where;
      EXPECT_EQ(actual.gammas, expected.gammas) << where;
      EXPECT_EQ(actual.best, expected.best) << where;
      if (stats.iterations >= 3) ++doubled_twice;
      if (flat) {
        CascadingAnalysts general(reg);
        const TopExplanations reference =
            CascadingAnalystsTestPeer::GeneralTopM(general, gamma, m, &mask);
        EXPECT_EQ(actual.ids, reference.ids) << where;
        EXPECT_EQ(actual.gammas, reference.gammas) << where;
        EXPECT_EQ(actual.best, reference.best) << where;
        size_t positive = 0;
        for (ExplId e : ids) positive += gamma[static_cast<size_t>(e)] > 1e-12;
        EXPECT_EQ(stats.iterations, 1) << where;
        EXPECT_TRUE(stats.exact_fallback) << where;
        EXPECT_EQ(stats.final_guess_size, static_cast<int>(positive))
            << where;
      }

      const int other_m = kMs[(trial + 1) % 4];
      const TopExplanations plain = reused.TopM(gamma, other_m, &mask);
      const TopExplanations fresh =
          CascadingAnalysts(reg).TopM(gamma, other_m, &mask);
      EXPECT_EQ(plain.ids, fresh.ids) << where;
      EXPECT_EQ(plain.best, fresh.best) << where;
    }
  }
  // Some trials must have doubled their guess at least twice.
  EXPECT_GT(doubled_twice, 0);
}

TEST(GuessVerify, FlatLatticeThrowsOnIntMaxQuota) {
  // The flat pass keeps the solver's guard: m = INT_MAX throws
  // std::length_error with or without a selectable list.
  const Table t = MakeSingleAttrTable(4);
  const auto reg = ExplanationRegistry::Build(t, {0}, 1);
  CascadingAnalysts ca(reg);
  const std::vector<double> gamma{1.0, 4.0, 2.0, 3.0};
  const std::vector<ExplId> ids{1, 3};
  constexpr int kMax = std::numeric_limits<int>::max();
  EXPECT_THROW(GuessVerifyTopM(ca, gamma, kMax), std::length_error);
  EXPECT_THROW(GuessVerifyTopM(ca, gamma, kMax, &ids), std::length_error);
}

TEST(GuessVerify, DrillDownLatticeThrowsOnIntMaxQuota) {
  // On a two-attribute lattice the rounds run: the prefix bound guess + m
  // must not overflow on the way to the solver's guard, which throws
  // std::length_error, at the default first guess and at INT_MAX.
  const Table t = MakeTable(6, 4);
  const auto reg = ExplanationRegistry::Build(t, {0, 1}, 2);
  CascadingAnalysts ca(reg);
  ASSERT_FALSE(ca.flat());
  std::vector<double> gamma(reg.num_explanations());
  for (size_t e = 0; e < gamma.size(); ++e) {
    gamma[e] = 1.0 + static_cast<double>(e);
  }
  constexpr int kMax = std::numeric_limits<int>::max();
  EXPECT_THROW(GuessVerifyTopM(ca, gamma, kMax), std::length_error);
  EXPECT_THROW(GuessVerifyTopM(ca, gamma, kMax, nullptr, kMax),
               std::length_error);
}

TEST(GuessVerify, HeavyTailTerminatesEarly) {
  // One dominant explanation and a sea of negligible, distinct ones: the
  // first guess must already verify, with the plain solve's answer.
  const Table t = MakeTable(20, 5);
  const auto reg = ExplanationRegistry::Build(t, {0, 1}, 2);
  CascadingAnalysts ca(reg);
  std::vector<double> gamma(reg.num_explanations());
  for (size_t e = 0; e < gamma.size(); ++e) {
    gamma[e] = 0.001 * (1.0 + 1e-3 * static_cast<double>(e));
  }
  gamma[0] = 1000.0;
  gamma[1] = 900.0;
  gamma[2] = 800.0;
  GuessVerifyStats stats;
  const TopExplanations top =
      GuessVerifyTopM(ca, gamma, 3, nullptr, 30, &stats);
  EXPECT_EQ(stats.iterations, 1);
  EXPECT_EQ(top.ids, CascadingAnalysts(reg).TopM(gamma, 3).ids);

  // An EQUAL sea ties the prefix's picks with the cells after it, and the
  // full lattice's drill-down order may prefer one of those: a tie must not
  // verify. The guess grows, and the answer stays the plain solve's.
  std::fill(gamma.begin() + 3, gamma.end(), 0.001);
  const TopExplanations tied =
      GuessVerifyTopM(ca, gamma, 3, nullptr, 30, &stats);
  EXPECT_GT(stats.iterations, 1);
  const TopExplanations plain = CascadingAnalysts(reg).TopM(gamma, 3);
  EXPECT_EQ(tied.ids, plain.ids);
  EXPECT_EQ(tied.best, plain.best);
}

TEST(GuessVerify, UniformScoresForceGrowth) {
  // Near-uniform positive scores make Eq. 12 hard to satisfy with a tiny
  // prefix, forcing doubling rounds.
  const Table t = MakeTable(10, 6);
  const auto reg = ExplanationRegistry::Build(t, {0, 1}, 2);
  CascadingAnalysts ca(reg);
  Rng rng(7);
  std::vector<double> gamma(reg.num_explanations());
  for (auto& g : gamma) g = 10.0 + rng.Uniform(0.0, 0.01);
  GuessVerifyStats stats;
  const TopExplanations viaGv =
      GuessVerifyTopM(ca, gamma, 3, nullptr, /*initial_guess=*/2, &stats);
  EXPECT_GT(stats.iterations, 1);
  CascadingAnalysts plain(reg);
  EXPECT_NEAR(viaGv.TotalScore(), plain.TopM(gamma, 3).TotalScore(), 1e-9);
}

TEST(GuessVerify, RespectsSelectableMask) {
  const Table t = MakeTable(6, 4);
  const auto reg = ExplanationRegistry::Build(t, {0, 1}, 2);
  CascadingAnalysts ca(reg);
  Rng rng(3);
  std::vector<double> gamma(reg.num_explanations());
  for (auto& g : gamma) g = rng.Uniform(0.0, 10.0);
  std::vector<bool> mask(reg.num_explanations(), false);
  for (size_t e = 0; e < mask.size(); e += 2) mask[e] = true;

  CascadingAnalysts plain(reg);
  const TopExplanations expected = plain.TopM(gamma, 3, &mask);
  const std::vector<ExplId> ids = ActiveIds(mask);
  const TopExplanations actual = GuessVerifyTopM(ca, gamma, 3, &ids, 4);
  EXPECT_NEAR(actual.TotalScore(), expected.TotalScore(), 1e-9);
  for (ExplId id : actual.ids) {
    EXPECT_TRUE(mask[static_cast<size_t>(id)]);
  }
}

TEST(GuessVerify, AllZeroScoresReturnEmpty) {
  const Table t = MakeTable(4, 3);
  const auto reg = ExplanationRegistry::Build(t, {0, 1}, 2);
  CascadingAnalysts ca(reg);
  GuessVerifyStats stats;
  const TopExplanations top = GuessVerifyTopM(
      ca, std::vector<double>(reg.num_explanations(), 0.0), 3, nullptr, 30,
      &stats);
  EXPECT_TRUE(top.ids.empty());
  EXPECT_DOUBLE_EQ(top.TotalScore(), 0.0);
}

TEST(GuessVerify, GuessLargerThanCandidatesIsExact) {
  const Table t = MakeTable(3, 2);
  const auto reg = ExplanationRegistry::Build(t, {0, 1}, 2);
  CascadingAnalysts ca(reg);
  std::vector<double> gamma(reg.num_explanations(), 1.0);
  GuessVerifyStats stats;
  GuessVerifyTopM(ca, gamma, 2, nullptr, 10000, &stats);
  EXPECT_TRUE(stats.exact_fallback);
  EXPECT_EQ(stats.iterations, 1);
}

}  // namespace
}  // namespace tsexplain
