#include "src/diff/cascading_analysts.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <stdexcept>

#include "src/common/check.h"

namespace tsexplain {
namespace {

constexpr double kScoreEps = 1e-12;

// m + 1 quota levels overflow int at m = INT_MAX.
void CheckQuota(int m) {
  if (m == std::numeric_limits<int>::max()) {
    throw std::length_error("Cascading Analysts: m is too large");
  }
}

// One attribute deep: one root group and no node with children.
bool IsFlat(const DrillDownLattice& lattice) {
  return lattice.root.size() == 1 &&
         std::all_of(lattice.children.begin(), lattice.children.end(),
                     [](const std::vector<ChildGroup>& groups) {
                       return groups.empty();
                     });
}

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
    : registry_(registry), flat_(IsFlat(registry.lattice())) {}

TopExplanations CascadingAnalysts::TopM(const std::vector<double>& gamma,
                                        int m,
                                        const std::vector<bool>* selectable) {
  TSE_CHECK_GE(m, 1);
  TSE_CHECK_EQ(gamma.size(), registry_.num_explanations());
  if (selectable != nullptr) {
    TSE_CHECK_EQ(selectable->size(), registry_.num_explanations());
  }
  if (flat()) {
    flat_cells_.clear();
    for (size_t e = 0; e < gamma.size(); ++e) {
      if ((selectable == nullptr || (*selectable)[e]) &&
          gamma[e] > kScoreEps) {
        flat_cells_.push_back(static_cast<ExplId>(e));
      }
    }
    return FlatTopM(gamma, m);
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
  if (flat()) {
    // Candidates have no ancestor cells: the sub-lattice is the candidates.
    flat_cells_.clear();
    for (ExplId candidate : candidates) {
      TSE_CHECK(candidate >= 0 &&
                static_cast<size_t>(candidate) < gamma.size());
      if (gamma[static_cast<size_t>(candidate)] > kScoreEps) {
        flat_cells_.push_back(candidate);
      }
    }
    if (!std::is_sorted(flat_cells_.begin(), flat_cells_.end())) {
      std::sort(flat_cells_.begin(), flat_cells_.end());
    }
    flat_cells_.erase(std::unique(flat_cells_.begin(), flat_cells_.end()),
                      flat_cells_.end());
    return FlatTopM(gamma, m);
  }

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
  CheckQuota(m);
  lattice_ = &lattice;
  score_ = score;
  selectable_ = selectable;
  m_ = m;
  nodes_visited_ = 0;

  // Grow the buffers to this lattice and m; a new epoch invalidates every
  // row of the previous call, whatever its m.
  const size_t nodes = lattice.children.size();
  const size_t width = static_cast<size_t>(m) + 1;
  if (memo_.size() < nodes * width) memo_.resize(nodes * width);
  if (stamp_.size() < nodes) stamp_.resize(nodes, 0u);
  if (knapsack_.size() < width) knapsack_.resize(width);
  ++epoch_;
  if (epoch_ == 0) {  // wrapped: stamps are stale, reset
    std::fill(stamp_.begin(), stamp_.end(), 0u);
    epoch_ = 1;
  }

  // The root cannot select itself; Best[q] is its optimal drill-down value.
  TopExplanations result;
  result.best.resize(width);
  FillChildren(nodes);
  BestDrillDown(nodes, result.best.data());
  Reconstruct(result.best[static_cast<size_t>(m)], &result.ids);
  return result;
}

TopExplanations CascadingAnalysts::FlatTopM(const std::vector<double>& gamma,
                                            int m) {
  CheckQuota(m);
  const size_t k = flat_cells_.size();
  nodes_visited_ = k;
  // table[i * width + x]: the root knapsack's best for quota x over the
  // first i cells. Past quota k no entry grows, so the table stops at
  // top = min(k, m) and Best repeats its entry at top.
  const size_t quota = static_cast<size_t>(m);
  const size_t top = std::min(k, quota);
  const size_t width = top + 1;
  if (knapsack_.size() < (k + 1) * width) knapsack_.resize((k + 1) * width);
  double* table = knapsack_.data();
  std::fill(table, table + width, 0.0);
  for (size_t i = 0; i < k; ++i) {
    const double g = gamma[static_cast<size_t>(flat_cells_[i])];
    const double* prev = table + i * width;
    double* next = table + (i + 1) * width;
    next[0] = 0.0;
    for (size_t x = 1; x < width; ++x) {
      next[x] = std::max(prev[x], prev[x - 1] + g);
    }
  }
  TopExplanations result;
  result.best.resize(quota + 1);
  const double* last = table + k * width;
  for (size_t q = 0; q <= quota; ++q) result.best[q] = last[std::min(q, top)];

  // Walk back from the last cell: a cell is selected when skipping it falls
  // short of its row's value by more than the DP's tolerance.
  if (result.best[quota] > kScoreEps) {
    result.ids.reserve(top);
    size_t x = top;
    for (size_t i = k; i > 0 && x > 0; --i) {
      if (table[(i - 1) * width + x] >= table[i * width + x] - kScoreEps) {
        continue;
      }
      result.ids.push_back(flat_cells_[i - 1]);
      --x;
    }
  }
  RankByGamma(gamma, &result);
  return result;
}

double CascadingAnalysts::SelfScore(size_t node) const {
  if (selectable_ != nullptr && !(*selectable_)[node]) return 0.0;
  const double g = score_[node];
  return g > kScoreEps ? g : 0.0;
}

void CascadingAnalysts::FillChildren(size_t node) {
  for (const ChildGroup& group : Groups(node)) {
    for (ExplId child : group.children) {
      if (stamp_[static_cast<size_t>(child)] != epoch_) {
        Fill(static_cast<size_t>(child));
      }
    }
  }
}

void CascadingAnalysts::Fill(size_t node) {
  FillChildren(node);
  ++nodes_visited_;
  double* row = Row(node);
  BestDrillDown(node, row);
  const double self = SelfScore(node);
  for (int q = 1; q <= m_; ++q) row[q] = std::max(self, row[q]);
  stamp_[node] = epoch_;
}

void CascadingAnalysts::BestDrillDown(size_t node, double* best) {
  std::fill(best, best + m_ + 1, 0.0);
  double* dp = knapsack_.data();
  for (const ChildGroup& group : Groups(node)) {
    // Knapsack over this dimension's children: dp[x] = best total score
    // spending exactly <= x quota on the children seen so far.
    std::fill(dp, dp + m_ + 1, 0.0);
    for (ExplId child : group.children) {
      const double* f = Row(static_cast<size_t>(child));
      // Children are independent subtrees; descending x keeps each child
      // used at most once (bounded knapsack over quota).
      for (int x = m_; x >= 1; --x) {
        double best_here = dp[x];
        for (int y = 1; y <= x; ++y) {
          best_here = std::max(best_here, dp[x - y] + f[y]);
        }
        dp[x] = best_here;
      }
    }
    for (int q = 1; q <= m_; ++q) best[q] = std::max(best[q], dp[q]);
  }
}

void CascadingAnalysts::Reconstruct(double best, std::vector<ExplId>* out) {
  pending_.clear();
  PickDrillDown(lattice_->children.size(), m_, best);
  while (!pending_.empty()) {
    const auto [node, q] = pending_.back();
    pending_.pop_back();
    const double value = Row(node)[q];
    if (value <= kScoreEps) continue;  // nothing selected in this subtree
    const double self = SelfScore(node);
    if (self > kScoreEps && self >= value - kScoreEps) {
      out->push_back(static_cast<ExplId>(node));
      continue;
    }
    // Not selected, so its value is its drill-down's.
    PickDrillDown(node, q, value);
  }
}

void CascadingAnalysts::PickDrillDown(size_t node, int q, double target) {
  const std::vector<ChildGroup>& groups = Groups(node);
  if (q == 0 || groups.empty() || target <= kScoreEps) return;

  // Find a group achieving the target, then re-run its knapsack while
  // recording every child's row: table[i * width + x] = best total for
  // quota x over the group's first i children.
  const size_t width = static_cast<size_t>(q) + 1;
  for (const ChildGroup& group : groups) {
    const std::vector<ExplId>& children = group.children;
    const size_t num_children = children.size();
    if (knapsack_.size() < (num_children + 1) * width) {
      knapsack_.resize((num_children + 1) * width);
    }
    double* table = knapsack_.data();
    std::fill(table, table + width, 0.0);
    for (size_t i = 0; i < num_children; ++i) {
      const double* f = Row(static_cast<size_t>(children[i]));
      const double* prev = table + i * width;
      double* next = table + (i + 1) * width;
      for (int x = 0; x <= q; ++x) {
        double best_here = prev[x];
        for (int y = 1; y <= x; ++y) {
          best_here = std::max(best_here, prev[x - y] + f[y]);
        }
        next[x] = best_here;
      }
    }
    if (table[num_children * width + static_cast<size_t>(q)] <
        target - kScoreEps) {
      continue;  // this dimension does not achieve the optimum
    }
    // Walk back through the knapsack to recover per-child quotas.
    int x = q;
    for (size_t i = num_children; i > 0; --i) {
      const size_t child = static_cast<size_t>(children[i - 1]);
      const double* f = Row(child);
      const double* prev = table + (i - 1) * width;
      const double value = table[i * width + static_cast<size_t>(x)];
      int chosen_y = 0;
      for (int y = 0; y <= x; ++y) {
        if (prev[x - y] + f[y] >= value - kScoreEps) {
          chosen_y = y;
          break;  // smallest quota achieving the value -> fewest selections
        }
      }
      if (chosen_y > 0) pending_.emplace_back(child, chosen_y);
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
