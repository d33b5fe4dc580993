// Cascading Analysts algorithm (Ruhl, Sundararajan, Yan, SIGMOD 2018),
// reimplemented from the description in the TSExplain paper (section 5.2,
// Figure 8): top-m NON-OVERLAPPING explanations maximizing the total diff
// score. This is module (b) of the paper's Figure 7 pipeline.
//
// The algorithm simulates an analyst's recursive drill-down. Each lattice
// node (conjunction) with quota q decides between
//   (1) selecting itself as one explanation (consuming 1 quota and closing
//       its subtree, since descendants overlap it), or
//   (2) drilling down one unconstrained dimension and distributing the q
//       quota among the resulting child nodes (siblings never overlap).
// Both choices are optimized exactly:
//   f(node, q) = max( score(node) [if q >= 1, node != root, selectable],
//                     max_d distribute(children(node, d), q) )
// where distribute is a small knapsack over children. Nodes are memoized,
// so the cost is O(nodes * |A| * m^2) per segment, matching the paper.
//
// One DP, two lattices. The DP (node value, knapsack drill-down,
// reconstruction) walks a node-indexed drill-down forest (DrillDownLattice)
// through three views: children by node, score by node, and selectable by
// node (or null). TopM hands it the registry's full lattice (node = cell
// id, the caller's gamma and mask), so nodes = epsilon. TopMRestricted hands
// it a sub-lattice of the candidates plus their ancestor cells, linked by
// the registry's own link routine from its stored parent ids, so nodes is
// at most |candidates| * (2^beta-bar - 1), independent of epsilon; this is
// what makes guess-and-verify (O1, section 5.3.1) pay off. Sub-lattice
// nodes are numbered in ascending cell id, so groups and child lists keep
// the full lattice's order and both entry points return the same answer,
// bit for bit, on the same candidate set.
//
// The solver also exposes Best[q] = f(root, q) for every q <= m, which the
// guess-and-verify optimization needs for its termination test (Eq. 12).

#ifndef TSEXPLAIN_DIFF_CASCADING_ANALYSTS_H_
#define TSEXPLAIN_DIFF_CASCADING_ANALYSTS_H_

#include <cstdint>
#include <vector>

#include "src/diff/explanation_registry.h"

namespace tsexplain {

/// Result of a top-m query: explanations sorted by descending score.
struct TopExplanations {
  /// Selected explanation ids, ranked by descending gamma (the paper's
  /// E*_m = [E^1, ..., E^m]); may hold fewer than m entries when the data
  /// cannot support m non-overlapping explanations with positive score.
  std::vector<ExplId> ids;
  /// gamma of each selected explanation (aligned with `ids`).
  std::vector<double> gammas;
  /// Best[q]: optimal total score using at most q explanations, for
  /// q = 0..m. Best.back() equals the sum of `gammas`.
  std::vector<double> best;
  /// Ideal DCG of this list on its own segment (Eq. 4), cached by the
  /// SegmentExplainer so distance computations do not recompute it.
  double idcg = 0.0;

  double TotalScore() const { return best.empty() ? 0.0 : best.back(); }
};

/// Reusable solver: owns scratch buffers (memo, sub-lattice) that grow to
/// the largest lattice walked, so repeated per-segment invocations do not
/// allocate the memo. Not thread-safe; create one per thread.
class CascadingAnalysts {
 public:
  explicit CascadingAnalysts(const ExplanationRegistry& registry);

  /// Computes top-m non-overlapping explanations for the given per-cell
  /// scores. `gamma[e]` must be the diff score of cell e for the segment
  /// under analysis (module (a) output). Cells may be excluded from
  /// *selection* (but still drilled through) by passing `selectable`;
  /// nullptr means all cells are selectable. Throws std::length_error for
  /// m = INT_MAX, whose memo cannot be indexed.
  TopExplanations TopM(const std::vector<double>& gamma, int m,
                       const std::vector<bool>* selectable = nullptr);

  /// Same optimization restricted to a small candidate set: only
  /// `candidates` are selectable, and the DP walks only the candidates plus
  /// their ancestor cells. Returns exactly what TopM returns with a mask
  /// holding just `candidates`.
  TopExplanations TopMRestricted(const std::vector<double>& gamma, int m,
                                 const std::vector<ExplId>& candidates);

  /// Number of f(node, q) evaluations performed by the last call
  /// (complexity instrumentation for the benches).
  size_t last_nodes_visited() const { return nodes_visited_; }

 private:
  // The DP over `lattice` with the given views: Best[0..m] plus the
  // selected nodes, unranked.
  TopExplanations Run(const DrillDownLattice& lattice, const double* score,
                      const std::vector<bool>* selectable, int m);
  // Memoized f(node, q) for the current epoch; the root is not a node and
  // is handled by Run.
  double Solve(ExplId node, int q);
  // Optimal distribution of quota q among `groups` children of a node.
  double BestDrillDown(const std::vector<ChildGroup>& groups, int q);
  // Walks the optimal solution, appending selected nodes to out.
  void Reconstruct(ExplId node, int q, std::vector<ExplId>* out);
  void ReconstructDrillDown(const std::vector<ChildGroup>& groups, int q,
                            std::vector<ExplId>* out);

  const ExplanationRegistry& registry_;
  // Views of the lattice Run walks, by node.
  const std::vector<std::vector<ChildGroup>>* children_ = nullptr;
  const double* score_ = nullptr;
  const std::vector<bool>* selectable_ = nullptr;

  // TopMRestricted's sub-lattice: node i stands for cell sub_cells_[i].
  std::vector<ExplId> sub_cells_;
  DrillDownLattice sub_lattice_;
  std::vector<double> sub_score_;

  // Epoch-stamped memo table sized to the walked lattice:
  // memo_[node * (m_cap_+1) + q].
  std::vector<double> memo_;
  std::vector<uint32_t> memo_epoch_;
  uint32_t epoch_ = 0;
  int m_cap_ = 0;
  size_t nodes_visited_ = 0;
};

/// Convenience: ranks `candidate` ids by descending gamma with deterministic
/// id tie-breaking (used to order E*_m and by guess-and-verify).
void SortByGammaDesc(const std::vector<double>& gamma,
                     std::vector<ExplId>* ids);

}  // namespace tsexplain

#endif  // TSEXPLAIN_DIFF_CASCADING_ANALYSTS_H_
