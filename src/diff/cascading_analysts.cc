#include "src/diff/cascading_analysts.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <stdexcept>

#include "src/common/check.h"

namespace tsexplain {
namespace {

constexpr double kScoreEps = 1e-12;

// Ranks the selected cells of `result` (E*_m) and fills their gammas.
void RankByGamma(const std::vector<double>& gamma, TopExplanations* result) {
  SortByGammaDesc(gamma, &result->ids);
  result->gammas.reserve(result->ids.size());
  for (ExplId id : result->ids) {
    result->gammas.push_back(gamma[static_cast<size_t>(id)]);
  }
}

}  // namespace

CascadingAnalysts::CascadingAnalysts(const ExplanationRegistry& registry)
    : registry_(registry) {}

TopExplanations CascadingAnalysts::TopM(const std::vector<double>& gamma,
                                        int m,
                                        const std::vector<bool>* selectable) {
  TSE_CHECK_GE(m, 1);
  TSE_CHECK_EQ(gamma.size(), registry_.num_explanations());
  if (selectable != nullptr) {
    TSE_CHECK_EQ(selectable->size(), registry_.num_explanations());
  }
  TopExplanations result =
      Run(registry_.lattice(), gamma.data(), selectable, m);
  RankByGamma(gamma, &result);
  return result;
}

TopExplanations CascadingAnalysts::TopMRestricted(
    const std::vector<double>& gamma, int m,
    const std::vector<ExplId>& candidates) {
  TSE_CHECK_GE(m, 1);
  TSE_CHECK_EQ(gamma.size(), registry_.num_explanations());

  // Sub-lattice nodes: the candidates plus, transitively, their parents,
  // numbered in ascending cell id so groups and child lists keep the full
  // lattice's order and every knapsack sums in the same order as TopM's.
  // Each generation of parents is deduplicated before it is expanded;
  // otherwise an ancestor j predicates shorter than a candidate would be
  // expanded once per path to it, j! times.
  sub_cells_.assign(candidates.begin(), candidates.end());
  for (size_t begin = 0; begin < sub_cells_.size();) {
    const size_t end = sub_cells_.size();
    for (size_t i = begin; i < end; ++i) {
      const ExplId cell = sub_cells_[i];
      const int order = registry_.explanation(cell).order();
      if (order == 1) continue;  // its parent is the root
      for (int pred = 0; pred < order; ++pred) {
        sub_cells_.push_back(registry_.parent(cell, pred));
      }
    }
    const auto parents =
        sub_cells_.begin() + static_cast<std::ptrdiff_t>(end);
    std::sort(parents, sub_cells_.end());
    sub_cells_.erase(std::unique(parents, sub_cells_.end()),
                     sub_cells_.end());
    begin = end;
  }
  std::sort(sub_cells_.begin(), sub_cells_.end());
  sub_cells_.erase(std::unique(sub_cells_.begin(), sub_cells_.end()),
                   sub_cells_.end());
  registry_.Link(sub_cells_, &sub_lattice_);

  // Only candidates are selectable: ancestors score 0, which the DP never
  // selects.
  sub_score_.assign(sub_cells_.size(), 0.0);
  for (ExplId candidate : candidates) {
    const auto it =
        std::lower_bound(sub_cells_.begin(), sub_cells_.end(), candidate);
    sub_score_[static_cast<size_t>(it - sub_cells_.begin())] =
        gamma[static_cast<size_t>(candidate)];
  }

  TopExplanations result =
      Run(sub_lattice_, sub_score_.data(), /*selectable=*/nullptr, m);
  for (ExplId& id : result.ids) id = sub_cells_[static_cast<size_t>(id)];
  RankByGamma(gamma, &result);
  return result;
}

TopExplanations CascadingAnalysts::Run(const DrillDownLattice& lattice,
                                       const double* score,
                                       const std::vector<bool>* selectable,
                                       int m) {
  children_ = &lattice.children;
  score_ = score;
  selectable_ = selectable;
  nodes_visited_ = 0;

  // (Re)size the epoch-stamped memo table to the lattice being walked.
  const int m_cap = std::max(m, m_cap_);
  if (m_cap == std::numeric_limits<int>::max()) {
    // Its m_cap + 1 quota levels per node overflow int.
    throw std::length_error("Cascading Analysts: m is too large");
  }
  const size_t slots =
      lattice.children.size() * static_cast<size_t>(m_cap + 1);
  if (m_cap != m_cap_ || memo_.size() < slots) {
    m_cap_ = m_cap;
    memo_.assign(slots, 0.0);
    memo_epoch_.assign(slots, 0);
    epoch_ = 0;
  }
  ++epoch_;
  if (epoch_ == 0) {  // wrapped: stamps are stale, reset
    std::fill(memo_epoch_.begin(), memo_epoch_.end(), 0u);
    epoch_ = 1;
  }

  TopExplanations result;
  result.best.resize(static_cast<size_t>(m) + 1, 0.0);
  // The root cannot select itself; Best[q] is the optimal drill-down value.
  // One knapsack pass per child group yields all quota levels at once, so we
  // simply evaluate per q (m is tiny; clarity over micro-optimization).
  for (int q = 1; q <= m; ++q) {
    result.best[static_cast<size_t>(q)] = BestDrillDown(lattice.root, q);
  }
  ReconstructDrillDown(lattice.root, m, &result.ids);
  return result;
}

double CascadingAnalysts::Solve(ExplId node, int q) {
  if (q == 0) return 0.0;
  const size_t slot =
      static_cast<size_t>(node) * static_cast<size_t>(m_cap_ + 1) +
      static_cast<size_t>(q);
  if (memo_epoch_[slot] == epoch_) return memo_[slot];
  ++nodes_visited_;

  const bool can_select =
      selectable_ == nullptr || (*selectable_)[static_cast<size_t>(node)];
  double best = 0.0;
  if (can_select) {
    const double g = score_[static_cast<size_t>(node)];
    if (g > kScoreEps) best = g;
  }
  const std::vector<ChildGroup>& groups =
      (*children_)[static_cast<size_t>(node)];
  if (!groups.empty()) {
    best = std::max(best, BestDrillDown(groups, q));
  }

  memo_epoch_[slot] = epoch_;
  memo_[slot] = best;
  return best;
}

double CascadingAnalysts::BestDrillDown(const std::vector<ChildGroup>& groups,
                                        int q) {
  double best = 0.0;
  std::vector<double> dp(static_cast<size_t>(q) + 1);
  for (const ChildGroup& group : groups) {
    // Knapsack over this dimension's children: dp[x] = best total score
    // spending exactly <= x quota on the children seen so far.
    std::fill(dp.begin(), dp.end(), 0.0);
    for (ExplId child : group.children) {
      // Children are independent subtrees; descending x keeps each child
      // used at most once (bounded knapsack over quota).
      for (int x = q; x >= 1; --x) {
        double best_here = dp[static_cast<size_t>(x)];
        for (int y = 1; y <= x; ++y) {
          const double candidate =
              dp[static_cast<size_t>(x - y)] + Solve(child, y);
          best_here = std::max(best_here, candidate);
        }
        dp[static_cast<size_t>(x)] = best_here;
      }
    }
    best = std::max(best, dp[static_cast<size_t>(q)]);
  }
  return best;
}

void CascadingAnalysts::Reconstruct(ExplId node, int q,
                                    std::vector<ExplId>* out) {
  if (q == 0) return;
  const double value = Solve(node, q);
  if (value <= kScoreEps) return;  // nothing selected in this subtree

  const bool can_select =
      selectable_ == nullptr || (*selectable_)[static_cast<size_t>(node)];
  if (can_select) {
    const double g = score_[static_cast<size_t>(node)];
    if (g > kScoreEps && g >= value - kScoreEps) {
      out->push_back(node);
      return;
    }
  }
  ReconstructDrillDown((*children_)[static_cast<size_t>(node)], q, out);
}

void CascadingAnalysts::ReconstructDrillDown(
    const std::vector<ChildGroup>& groups, int q, std::vector<ExplId>* out) {
  if (q == 0 || groups.empty()) return;
  const double target = BestDrillDown(groups, q);
  if (target <= kScoreEps) return;

  // Find a group achieving the target, then re-run its knapsack while
  // recording the quota granted to each child.
  for (const ChildGroup& group : groups) {
    const size_t num_children = group.children.size();
    std::vector<std::vector<double>> dp(
        num_children + 1, std::vector<double>(static_cast<size_t>(q) + 1));
    for (size_t i = 0; i < num_children; ++i) {
      const ExplId child = group.children[i];
      for (int x = 0; x <= q; ++x) {
        double best_here = dp[i][static_cast<size_t>(x)];
        for (int y = 1; y <= x; ++y) {
          best_here = std::max(
              best_here, dp[i][static_cast<size_t>(x - y)] + Solve(child, y));
        }
        dp[i + 1][static_cast<size_t>(x)] = best_here;
      }
    }
    if (dp[num_children][static_cast<size_t>(q)] < target - kScoreEps) {
      continue;  // this dimension does not achieve the optimum
    }
    // Walk back through the knapsack to recover per-child quotas.
    int x = q;
    for (size_t i = num_children; i > 0; --i) {
      const ExplId child = group.children[i - 1];
      int chosen_y = 0;
      for (int y = 0; y <= x; ++y) {
        const double candidate =
            dp[i - 1][static_cast<size_t>(x - y)] + Solve(child, y);
        if (candidate >= dp[i][static_cast<size_t>(x)] - kScoreEps) {
          chosen_y = y;
          break;  // smallest quota achieving the value -> fewest selections
        }
      }
      if (chosen_y > 0) Reconstruct(child, chosen_y, out);
      x -= chosen_y;
    }
    return;
  }
  TSE_CHECK(false) << "reconstruction failed to match the optimal value";
}

void SortByGammaDesc(const std::vector<double>& gamma,
                     std::vector<ExplId>* ids) {
  std::sort(ids->begin(), ids->end(), [&gamma](ExplId a, ExplId b) {
    const double ga = gamma[static_cast<size_t>(a)];
    const double gb = gamma[static_cast<size_t>(b)];
    if (ga != gb) return ga > gb;
    return a < b;  // deterministic tie-break
  });
}

}  // namespace tsexplain
