// Unit tests for the Cascading Analysts algorithm: top-m non-overlapping
// explanations. Validated against exhaustive search on small instances.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/diff/cascading_analysts.h"
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

Table MakeTwoAttrTable() {
  Table table(Schema("t", {"A", "B"}, {"m"}));
  table.AddTimeBucket("0");
  for (const char* a : {"a1", "a2", "a3"}) {
    for (const char* b : {"b1", "b2"}) {
      table.AppendRow(0, {a, b}, {1.0});
    }
  }
  return table;
}

// Exhaustive optimum over all <=m pairwise-non-overlapping subsets.
double BruteForceNonOverlapping(const ExplanationRegistry& reg,
                                const std::vector<double>& gamma, int m) {
  const int n = static_cast<int>(reg.num_explanations());
  double best = 0.0;
  std::vector<int> chosen;
  auto recurse = [&](auto&& self, int start) -> void {
    if (static_cast<int>(chosen.size()) == m) return;
    for (int e = start; e < n; ++e) {
      bool ok = true;
      for (int c : chosen) {
        if (reg.explanation(static_cast<ExplId>(c))
                .OverlapsWith(reg.explanation(static_cast<ExplId>(e)))) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      chosen.push_back(e);
      double total = 0.0;
      for (int c : chosen) total += gamma[static_cast<size_t>(c)];
      best = std::max(best, total);
      self(self, e + 1);
      chosen.pop_back();
    }
  };
  recurse(recurse, 0);
  return best;
}

TEST(CascadingAnalysts, SingleAttributeEqualsTopMByGamma) {
  const Table t = MakeSingleAttrTable(6);
  const auto reg = ExplanationRegistry::Build(t, {0}, 1);
  CascadingAnalysts ca(reg);
  // Values of attr A never overlap, so top-m = m largest gammas.
  const std::vector<double> gamma{3.0, 9.0, 1.0, 7.0, 5.0, 0.0};
  const TopExplanations top = ca.TopM(gamma, 3);
  ASSERT_EQ(top.ids.size(), 3u);
  EXPECT_EQ(top.gammas, (std::vector<double>{9.0, 7.0, 5.0}));
  EXPECT_DOUBLE_EQ(top.TotalScore(), 21.0);
}

TEST(CascadingAnalysts, BestArrayMonotoneAndExact) {
  const Table t = MakeSingleAttrTable(5);
  const auto reg = ExplanationRegistry::Build(t, {0}, 1);
  CascadingAnalysts ca(reg);
  const std::vector<double> gamma{4.0, 2.0, 8.0, 1.0, 6.0};
  const TopExplanations top = ca.TopM(gamma, 4);
  ASSERT_EQ(top.best.size(), 5u);
  EXPECT_DOUBLE_EQ(top.best[0], 0.0);
  EXPECT_DOUBLE_EQ(top.best[1], 8.0);
  EXPECT_DOUBLE_EQ(top.best[2], 14.0);
  EXPECT_DOUBLE_EQ(top.best[3], 18.0);
  EXPECT_DOUBLE_EQ(top.best[4], 20.0);
  for (size_t q = 1; q < top.best.size(); ++q) {
    EXPECT_GE(top.best[q], top.best[q - 1]);
  }
}

TEST(CascadingAnalysts, ZeroGammasSelectNothing) {
  const Table t = MakeSingleAttrTable(4);
  const auto reg = ExplanationRegistry::Build(t, {0}, 1);
  CascadingAnalysts ca(reg);
  const TopExplanations top =
      ca.TopM(std::vector<double>(4, 0.0), 3);
  EXPECT_TRUE(top.ids.empty());
  EXPECT_DOUBLE_EQ(top.TotalScore(), 0.0);
}

TEST(CascadingAnalysts, SelectionIsAlwaysNonOverlapping) {
  const Table t = MakeTwoAttrTable();
  const auto reg = ExplanationRegistry::Build(t, {0, 1}, 2);
  CascadingAnalysts ca(reg);
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> gamma(reg.num_explanations());
    for (auto& g : gamma) g = rng.Uniform(0.0, 10.0);
    const TopExplanations top = ca.TopM(gamma, 3);
    ASSERT_LE(top.ids.size(), 3u);
    for (size_t i = 0; i < top.ids.size(); ++i) {
      for (size_t j = i + 1; j < top.ids.size(); ++j) {
        EXPECT_FALSE(reg.explanation(top.ids[i])
                         .OverlapsWith(reg.explanation(top.ids[j])))
            << "overlapping pair selected";
      }
    }
    // Returned gammas are the scores of the returned ids, descending.
    for (size_t i = 0; i < top.ids.size(); ++i) {
      EXPECT_DOUBLE_EQ(top.gammas[i],
                       gamma[static_cast<size_t>(top.ids[i])]);
      if (i > 0) {
        EXPECT_GE(top.gammas[i - 1], top.gammas[i]);
      }
    }
    // Total equals Best[m].
    double sum = 0.0;
    for (double g : top.gammas) sum += g;
    EXPECT_NEAR(sum, top.TotalScore(), 1e-9);
  }
}

TEST(CascadingAnalysts, MatchesBruteForceOnSingleAttribute) {
  const Table t = MakeSingleAttrTable(7);
  const auto reg = ExplanationRegistry::Build(t, {0}, 1);
  CascadingAnalysts ca(reg);
  Rng rng(31);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<double> gamma(reg.num_explanations());
    for (auto& g : gamma) g = rng.Uniform(0.0, 5.0);
    const TopExplanations top = ca.TopM(gamma, 3);
    EXPECT_NEAR(top.TotalScore(), BruteForceNonOverlapping(reg, gamma, 3),
                1e-9);
  }
}

TEST(CascadingAnalysts, NeverExceedsBruteForceUpperBound) {
  // With multiple attributes CA restricts to cascades, so its score is at
  // most the unrestricted optimum and at least the best single cell.
  const Table t = MakeTwoAttrTable();
  const auto reg = ExplanationRegistry::Build(t, {0, 1}, 2);
  CascadingAnalysts ca(reg);
  Rng rng(13);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<double> gamma(reg.num_explanations());
    for (auto& g : gamma) g = rng.Uniform(0.0, 10.0);
    const TopExplanations top = ca.TopM(gamma, 3);
    const double brute = BruteForceNonOverlapping(reg, gamma, 3);
    EXPECT_LE(top.TotalScore(), brute + 1e-9);
    const double best_single =
        *std::max_element(gamma.begin(), gamma.end());
    EXPECT_GE(top.TotalScore() + 1e-9, best_single);
  }
}

TEST(CascadingAnalysts, DrillDownPicksDeepCellsWhenWorthIt) {
  const Table t = MakeTwoAttrTable();
  const auto reg = ExplanationRegistry::Build(t, {0, 1}, 2);
  CascadingAnalysts ca(reg);
  std::vector<double> gamma(reg.num_explanations(), 0.0);
  // Give all mass to two sibling order-2 cells under different a-values,
  // which only a drill-down cascade can select together.
  const ValueId a1 = t.dictionary(0).Lookup("a1");
  const ValueId a2 = t.dictionary(0).Lookup("a2");
  const ValueId b1 = t.dictionary(1).Lookup("b1");
  const ValueId b2 = t.dictionary(1).Lookup("b2");
  const ExplId cell1 = reg.Lookup(
      Explanation::FromPredicates({Predicate{0, a1}, Predicate{1, b1}}));
  const ExplId cell2 = reg.Lookup(
      Explanation::FromPredicates({Predicate{0, a2}, Predicate{1, b2}}));
  gamma[static_cast<size_t>(cell1)] = 5.0;
  gamma[static_cast<size_t>(cell2)] = 4.0;
  const TopExplanations top = ca.TopM(gamma, 2);
  ASSERT_EQ(top.ids.size(), 2u);
  EXPECT_DOUBLE_EQ(top.TotalScore(), 9.0);
}

TEST(CascadingAnalysts, SelfVersusChildrenTradeoff) {
  const Table t = MakeTwoAttrTable();
  const auto reg = ExplanationRegistry::Build(t, {0, 1}, 2);
  CascadingAnalysts ca(reg);
  const ValueId a1 = t.dictionary(0).Lookup("a1");
  const ValueId b1 = t.dictionary(1).Lookup("b1");
  const ValueId b2 = t.dictionary(1).Lookup("b2");
  const ExplId parent =
      reg.Lookup(Explanation::FromPredicates({Predicate{0, a1}}));
  const ExplId child1 = reg.Lookup(
      Explanation::FromPredicates({Predicate{0, a1}, Predicate{1, b1}}));
  const ExplId child2 = reg.Lookup(
      Explanation::FromPredicates({Predicate{0, a1}, Predicate{1, b2}}));

  std::vector<double> gamma(reg.num_explanations(), 0.0);
  gamma[static_cast<size_t>(parent)] = 10.0;
  gamma[static_cast<size_t>(child1)] = 6.0;
  gamma[static_cast<size_t>(child2)] = 6.0;

  // With quota 1 the parent (10) beats one child (6).
  EXPECT_DOUBLE_EQ(ca.TopM(gamma, 1).TotalScore(), 10.0);
  // With quota 2 both children (12) beat the parent (10): the parent
  // overlaps its children, so it cannot combine with them.
  EXPECT_DOUBLE_EQ(ca.TopM(gamma, 2).TotalScore(), 12.0);
}

TEST(CascadingAnalysts, SelectableMaskRespected) {
  const Table t = MakeSingleAttrTable(4);
  const auto reg = ExplanationRegistry::Build(t, {0}, 1);
  CascadingAnalysts ca(reg);
  const std::vector<double> gamma{9.0, 8.0, 7.0, 6.0};
  std::vector<bool> selectable{false, true, false, true};
  const TopExplanations top = ca.TopM(gamma, 2, &selectable);
  ASSERT_EQ(top.ids.size(), 2u);
  EXPECT_DOUBLE_EQ(top.TotalScore(), 14.0);  // 8 + 6
  for (ExplId id : top.ids) {
    EXPECT_TRUE(selectable[static_cast<size_t>(id)]);
  }
}

TEST(CascadingAnalysts, InstrumentationCountsNodes) {
  const Table t = MakeTwoAttrTable();
  const auto reg = ExplanationRegistry::Build(t, {0, 1}, 2);
  CascadingAnalysts ca(reg);
  std::vector<double> gamma(reg.num_explanations(), 1.0);
  ca.TopM(gamma, 3);
  // Memoization: every cell is reachable, and each cell's row
  // f(cell, 1..3) is filled exactly once.
  EXPECT_EQ(ca.last_nodes_visited(), reg.num_explanations());
}

TEST(CascadingAnalysts, RestrictedVisitsOnlyTheSubLattice) {
  // Guess-and-verify's payoff: the restricted solve walks the candidates
  // plus their ancestors, never all epsilon cells. 64 x 64 at order 2 has
  // epsilon = 64 + 64 + 4096 = 4224; a full TopM fills a row for every
  // one of them.
  Table table(Schema("t", {"A", "B"}, {"m"}));
  table.AddTimeBucket("0");
  for (int a = 0; a < 64; ++a) {
    for (int b = 0; b < 64; ++b) {
      table.AppendRow(0, {"a" + std::to_string(a), "b" + std::to_string(b)},
                      {1.0});
    }
  }
  const auto reg = ExplanationRegistry::Build(table, {0, 1}, 2);
  ASSERT_EQ(reg.num_explanations(), 4224u);
  Rng rng(7);
  std::vector<double> gamma(reg.num_explanations());
  for (auto& g : gamma) g = rng.Uniform(0.0, 100.0);
  std::vector<ExplId> candidates(reg.num_explanations());
  for (size_t e = 0; e < candidates.size(); ++e) {
    candidates[e] = static_cast<ExplId>(e);
  }
  SortByGammaDesc(gamma, &candidates);
  candidates.resize(5);

  CascadingAnalysts ca(reg);
  ca.TopMRestricted(gamma, 3, candidates);
  // At most 5 candidates + 2 parents each = 15 cells.
  EXPECT_GT(ca.last_nodes_visited(), 0u);
  EXPECT_LE(ca.last_nodes_visited(), 15u);
}

TEST(CascadingAnalysts, RestrictedHandlesHighOrderCandidates) {
  // An order-12 candidate has 4094 ancestors but 12! parent paths to its
  // order-1 ancestors; the sub-lattice must collect the ancestors, not the
  // paths, and still answer like the masked full lattice. The z row is no
  // candidate, so its 4095 cells lie outside the sub-lattice.
  constexpr int kAttrs = 12;
  std::vector<std::string> names;
  std::vector<AttrId> explain_by;
  for (int a = 0; a < kAttrs; ++a) {
    names.push_back("A" + std::to_string(a));
    explain_by.push_back(a);
  }
  Table table(Schema("t", names, {"m"}));
  table.AddTimeBucket("0");
  for (const char* value : {"x", "y", "z"}) {
    table.AppendRow(0, std::vector<std::string>(kAttrs, value), {1.0});
  }
  const auto reg = ExplanationRegistry::Build(table, explain_by, kAttrs);
  ASSERT_EQ(reg.num_explanations(), 3u * 4095u);
  const ValueId z = table.dictionary(0).Lookup("z");
  std::vector<double> gamma(reg.num_explanations(), 1.0);
  std::vector<ExplId> candidates;
  std::vector<bool> mask(reg.num_explanations(), false);
  for (ExplId id = 0; id < static_cast<ExplId>(reg.num_explanations());
       ++id) {
    const Explanation& cell = reg.explanation(id);
    if (cell.order() == kAttrs && cell.predicates()[0].value != z) {
      candidates.push_back(id);
      mask[static_cast<size_t>(id)] = true;
      gamma[static_cast<size_t>(id)] = 5.0;
    }
  }
  ASSERT_EQ(candidates.size(), 2u);

  CascadingAnalysts ca(reg);
  const TopExplanations restricted = ca.TopMRestricted(gamma, 3, candidates);
  // At most the 2 x 4095 cells of x and y.
  EXPECT_LE(ca.last_nodes_visited(), 2u * 4095u);
  const TopExplanations masked = ca.TopM(gamma, 3, &mask);
  EXPECT_EQ(restricted.ids, masked.ids);
  EXPECT_EQ(restricted.best, masked.best);
  EXPECT_EQ(restricted.TotalScore(), 10.0);
}

std::vector<uint64_t> Bits(const std::vector<double>& values) {
  std::vector<uint64_t> bits(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    std::memcpy(&bits[i], &values[i], sizeof(double));
  }
  return bits;
}

// `actual` equals `expected` bit for bit: ids, gammas and Best.
void ExpectSameBits(const TopExplanations& actual,
                    const TopExplanations& expected,
                    const std::string& where) {
  EXPECT_EQ(actual.ids, expected.ids) << where;
  EXPECT_EQ(Bits(actual.gammas), Bits(expected.gammas)) << where;
  EXPECT_EQ(Bits(actual.best), Bits(expected.best)) << where;
}

TEST(CascadingAnalysts, FlatOnlyWithOneAttribute) {
  // Flat: one root group and no node with children. One attribute at any
  // order is flat; two attributes are not, even at order 1, where the
  // root drills into one attribute or the other.
  const Table one = MakeSingleAttrTable(4);
  const auto one_order_1 = ExplanationRegistry::Build(one, {0}, 1);
  EXPECT_TRUE(CascadingAnalysts(one_order_1).flat());
  const auto one_order_3 = ExplanationRegistry::Build(one, {0}, 3);
  EXPECT_TRUE(CascadingAnalysts(one_order_3).flat());
  const Table two = MakeTwoAttrTable();
  const auto two_order_1 = ExplanationRegistry::Build(two, {0, 1}, 1);
  EXPECT_FALSE(CascadingAnalysts(two_order_1).flat());
  const auto nested = ExplanationRegistry::Build(two, {0, 1}, 2);
  EXPECT_FALSE(CascadingAnalysts(nested).flat());
}

TEST(CascadingAnalysts, FlatPassMatchesGeneralDpBitForBit) {
  // One-attribute registries of 1 to 80 cells. Each cell's gamma is drawn
  // from a cluster of near-ties around 1 (spaced 2.5e-13, inside the DP's
  // 1e-12 tolerance), exact ties, zeros, negatives and values at or below
  // 1e-12, or a uniform draw. Every m from 1 to k + 2 (k = positive cells)
  // is solved with no mask, a random mask, and the same mask as an id list
  // (shuffled in half the trials), each by one reused solver's flat pass
  // and by the general DP. They must agree bit for bit.
  using Peer = CascadingAnalystsTestPeer;
  const double kTiny[] = {0.0, -1.0, 1e-12, 5e-13, -1e-13, 0.0};
  Rng rng(2211);
  int near_tie_trials = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const int cells = static_cast<int>(rng.UniformInt(1, 80));
    const Table t = MakeSingleAttrTable(cells);
    const auto reg = ExplanationRegistry::Build(t, {0}, 1);
    std::vector<double> gamma(reg.num_explanations());
    int cluster = 0;
    for (double& g : gamma) {
      const double draw = rng.NextDouble();
      if (draw < 0.4) {
        g = 1.0 + 2.5e-13 * static_cast<double>(rng.UniformInt(0, 8));
        ++cluster;
      } else if (draw < 0.55) {
        g = rng.NextBool() ? 2.0 : 5.0;
      } else if (draw < 0.7) {
        g = kTiny[rng.UniformInt(0, 5)];
      } else {
        g = rng.Uniform(0.0, 10.0);
      }
    }
    if (cluster >= 2) ++near_tie_trials;
    std::vector<bool> mask(gamma.size());
    std::vector<ExplId> ids;
    for (size_t e = 0; e < gamma.size(); ++e) {
      mask[e] = rng.NextBool(0.7);
      if (mask[e]) ids.push_back(static_cast<ExplId>(e));
    }
    if (trial % 2 == 1) rng.Shuffle(&ids);
    const int k = static_cast<int>(
        std::count_if(gamma.begin(), gamma.end(),
                      [](double g) { return g > 1e-12; }));

    CascadingAnalysts flat(reg);
    ASSERT_TRUE(flat.flat());
    CascadingAnalysts general(reg);
    for (int m = 1; m <= k + 2; ++m) {
      const std::string where = "trial " + std::to_string(trial) +
                                " cells " + std::to_string(cells) + " m " +
                                std::to_string(m);
      ExpectSameBits(flat.TopM(gamma, m),
                     Peer::GeneralTopM(general, gamma, m, nullptr),
                     where + " no mask");
      const TopExplanations masked =
          Peer::GeneralTopM(general, gamma, m, &mask);
      ExpectSameBits(flat.TopM(gamma, m, &mask), masked, where + " mask");
      ExpectSameBits(flat.TopMRestricted(gamma, m, ids), masked,
                     where + " id list");
    }
  }
  EXPECT_GT(near_tie_trials, 40);
}

TEST(CascadingAnalysts, FlatNearTieKeepsTheDpsPick) {
  // Two cells within the DP's 1e-12 tolerance, at m = 1: Best holds the
  // larger gamma, but walking back from the last cell, the first cell
  // reaches that value within the tolerance, so the lower id is kept.
  const Table t = MakeSingleAttrTable(2);
  const auto reg = ExplanationRegistry::Build(t, {0}, 1);
  CascadingAnalysts ca(reg);
  const std::vector<double> gamma{1.0, 1.0 + 5e-13};
  const TopExplanations top = ca.TopM(gamma, 1);
  EXPECT_EQ(top.ids, std::vector<ExplId>{0});
  EXPECT_EQ(top.best[1], gamma[1]);
  ExpectSameBits(top,
                 CascadingAnalystsTestPeer::GeneralTopM(ca, gamma, 1, nullptr),
                 "near tie");
}

TEST(CascadingAnalysts, IntMaxQuotaThrowsOnBothPaths) {
  // m + 1 quota levels overflow int at m = INT_MAX: the flat pass (TopM
  // and TopMRestricted) and the general DP each throw, and the solver
  // answers the next call.
  constexpr int kMax = std::numeric_limits<int>::max();
  const Table t = MakeSingleAttrTable(3);
  const auto reg = ExplanationRegistry::Build(t, {0}, 1);
  CascadingAnalysts ca(reg);
  const std::vector<double> gamma{3.0, 1.0, 2.0};
  EXPECT_THROW(ca.TopM(gamma, kMax), std::length_error);
  EXPECT_THROW(ca.TopMRestricted(gamma, kMax, {0, 2}), std::length_error);
  EXPECT_THROW(
      CascadingAnalystsTestPeer::GeneralTopM(ca, gamma, kMax, nullptr),
      std::length_error);
  ExpectSameBits(ca.TopM(gamma, 2),
                 CascadingAnalystsTestPeer::GeneralTopM(ca, gamma, 2, nullptr),
                 "after the throw");
}

TEST(CascadingAnalysts, QuotaBeyondSelectableCellsChangesNothing) {
  // A solve can never select more cells than the ε its mask leaves
  // selectable, so m = ε + 1, 2ε and 4ε answer exactly as m = ε does:
  // the same ids and gammas, the same Best up to ε, and Best[q] = Best[ε]
  // beyond it. Two attributes take the general DP, one takes the flat
  // pass; TopM and guess-and-verify each run with and without a mask.
  // This is what a knapsack capped at ε must keep.
  Table two(Schema("t", {"A", "B"}, {"m"}));
  two.AddTimeBucket("0");
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 3; ++b) {
      two.AppendRow(0, {"a" + std::to_string(a), "b" + std::to_string(b)},
                    {1.0});
    }
  }
  const Table one = MakeSingleAttrTable(12);
  const auto general = ExplanationRegistry::Build(two, {0, 1}, 2);
  const auto flat = ExplanationRegistry::Build(one, {0}, 1);
  Rng rng(4099);
  for (const ExplanationRegistry* reg : {&general, &flat}) {
    CascadingAnalysts ca(*reg);
    ASSERT_EQ(ca.flat(), reg == &flat);
    const size_t cells = reg->num_explanations();
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<double> gamma(cells);
      for (double& g : gamma) g = rng.Uniform(-2.0, 10.0);
      for (const bool masked : {false, true}) {
        std::vector<bool> mask(cells, true);
        std::vector<ExplId> ids;
        for (size_t e = 0; e < cells; ++e) {
          if (masked) mask[e] = rng.NextBool(0.6);
          if (mask[e]) ids.push_back(static_cast<ExplId>(e));
        }
        const std::vector<bool>* mask_arg = masked ? &mask : nullptr;
        const std::vector<ExplId>* ids_arg = masked ? &ids : nullptr;
        const int epsilon = static_cast<int>(ids.size());
        const TopExplanations at_epsilon = ca.TopM(gamma, epsilon, mask_arg);
        for (const int m : {epsilon, epsilon + 1, 2 * epsilon, 4 * epsilon}) {
          const std::string where =
              std::string(ca.flat() ? "flat" : "general") + " trial " +
              std::to_string(trial) + (masked ? " masked" : " unmasked") +
              " m " + std::to_string(m);
          for (const TopExplanations& top :
               {ca.TopM(gamma, m, mask_arg),
                GuessVerifyTopM(ca, gamma, m, ids_arg)}) {
            EXPECT_EQ(top.ids, at_epsilon.ids) << where;
            EXPECT_EQ(Bits(top.gammas), Bits(at_epsilon.gammas)) << where;
            ASSERT_EQ(top.best.size(), static_cast<size_t>(m) + 1) << where;
            const std::vector<double> prefix(top.best.begin(),
                                             top.best.begin() + epsilon + 1);
            EXPECT_EQ(Bits(prefix), Bits(at_epsilon.best)) << where;
            for (size_t q = static_cast<size_t>(epsilon) + 1;
                 q < top.best.size(); ++q) {
              EXPECT_EQ(Bits({top.best[q]}), Bits({at_epsilon.best.back()}))
                  << where << " q " << q;
            }
          }
        }
      }
    }
  }
}

TEST(SortByGammaDescTest, DeterministicTieBreak) {
  const std::vector<double> gamma{5.0, 7.0, 5.0, 1.0};
  std::vector<ExplId> ids{0, 1, 2, 3};
  SortByGammaDesc(gamma, &ids);
  EXPECT_EQ(ids, (std::vector<ExplId>{1, 0, 2, 3}));
}

}  // namespace
}  // namespace tsexplain
