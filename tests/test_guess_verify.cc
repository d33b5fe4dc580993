// Unit tests for guess-and-verify (O1): must return EXACTLY the plain CA
// result (Eq. 12 is a sufficient optimality condition).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/cube/support_filter.h"
#include "src/diff/guess_verify.h"

namespace tsexplain {
namespace {

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
  // no state of one call may leak into the next.
  const Table t = MakeTable(8, 6);
  const auto reg = ExplanationRegistry::Build(t, {0, 1}, 2);
  const size_t epsilon = reg.num_explanations();
  const int kMs[] = {1, 2, 3, 5};
  const int kGuesses[] = {1, 2, 30};
  const double kTiedValues[] = {0.0, 1.0, 2.0, 2.0, 5.0, 8.0};
  CascadingAnalysts reused(reg);
  Rng rng(101);
  int doubled_twice = 0;
  for (int trial = 0; trial < 240; ++trial) {
    const int m = kMs[trial % 4];
    const int initial_guess = kGuesses[(trial / 4) % 3];
    const bool tied = trial % 2 == 0;
    std::vector<double> gamma(epsilon);
    for (auto& g : gamma) {
      g = tied ? kTiedValues[rng.UniformInt(0, 5)] : rng.Uniform(0.0, 100.0);
    }
    std::vector<bool> mask(epsilon, true);
    const bool masked = trial % 3 != 0;
    if (masked) {
      for (size_t e = 0; e < epsilon; ++e) mask[e] = rng.NextBool(0.7);
    }
    const std::vector<ExplId> ids = ActiveIds(mask);
    const std::string where = "trial " + std::to_string(trial) + " m " +
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

    const int other_m = kMs[(trial + 1) % 4];
    const TopExplanations plain = reused.TopM(gamma, other_m, &mask);
    const TopExplanations fresh =
        CascadingAnalysts(reg).TopM(gamma, other_m, &mask);
    EXPECT_EQ(plain.ids, fresh.ids) << where;
    EXPECT_EQ(plain.best, fresh.best) << where;
  }
  // Some trials must have doubled their guess at least twice.
  EXPECT_GT(doubled_twice, 0);
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
