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
// Every node gets f(node, q) for every q <= m: the root's q = m drills into
// each child at every quota up to m, and so on down. The solver therefore
// fills a node's whole row f(node, 1..m) in one pass: it first fills the
// children it has not filled this call, then runs one knapsack per child
// group with quota m, whose entry x is that group's best for quota x (the
// sums and maxima for x never depend on the quota the pass was run for).
// Best[1..m] is one such pass over the root's groups. The memo is stamped
// per node and call, and the DP and its reconstruction run in solver-owned
// buffers; a warmed solver allocates only the sub-lattice's child lists
// and the result it returns.
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
//
// The flat pass. With one explain-by attribute the lattice is flat (one
// root group and no node with children, read once when the solver is
// built): every cell is a sibling of every other, and the optimum is the m
// best positive cells. TopM and TopMRestricted then skip the memo and run
// the root's one knapsack directly over the k positive selectable cells in
// ascending id. A leaf's row is its score at every
// quota, and the knapsack row is non-decreasing, so the DP's inner maximum
// over a child's quota is always reached at quota 1: the pass's
// dp[x] = max(dp[x], dp[x - 1] + gamma) is the DP's value bit for bit, and
// a cell with no positive score leaves the row unchanged, so skipping it
// changes nothing. The reconstruction walks from the last cell back with
// the DP's kScoreEps tolerance, so a near-tie keeps the cell the DP keeps
// even where Best holds the larger sum. No more than k cells can be
// selected, so entries past quota k repeat entry k and the table stops at
// quota min(k, m): a solve costs O(k * min(k, m)) plus O(m) for Best, with
// no sub-lattice and no memo.

#ifndef TSEXPLAIN_DIFF_CASCADING_ANALYSTS_H_
#define TSEXPLAIN_DIFF_CASCADING_ANALYSTS_H_

#include <cstddef>
#include <cstdint>
#include <utility>
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

/// Reusable solver: owns the memo, the knapsack buffers and the
/// sub-lattice, which grow to the largest lattice and m walked, so repeated
/// per-segment invocations do not allocate the DP. Not thread-safe; create
/// one per thread.
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

  /// Number of lattice nodes whose row f(node, 1..m) the last call filled,
  /// one knapsack pass each (complexity instrumentation for the benches);
  /// on a flat lattice, the positive selectable cells the flat pass walked.
  size_t last_nodes_visited() const { return nodes_visited_; }

  /// True when the registry's lattice is one attribute deep (one root
  /// group, no node with children): TopM and TopMRestricted then take the
  /// flat pass.
  bool flat() const { return flat_; }

 private:
  friend class CascadingAnalystsTestPeer;  // the general DP, as reference

  // The flat pass over flat_cells_ (the positive selectable cells of a flat
  // lattice, ascending): Best[0..m] and the selected cells, ranked.
  TopExplanations FlatTopM(const std::vector<double>& gamma, int m);
  // The DP over `lattice` with the given views: Best[0..m] plus the
  // selected nodes, unranked.
  TopExplanations Run(const DrillDownLattice& lattice, const double* score,
                      const std::vector<bool>* selectable, int m);
  // The child groups of `node`; node = the lattice's node count stands for
  // the root.
  const std::vector<ChildGroup>& Groups(size_t node) const {
    return node == lattice_->children.size() ? lattice_->root
                                             : lattice_->children[node];
  }
  // Fills the row of every child of `node` (or of the root) that this call
  // has not filled yet.
  void FillChildren(size_t node);
  // Fills f(node, 0..m), after the rows of its children.
  void Fill(size_t node);
  // best[q], q = 0..m: the optimal distribution of quota q among the
  // children of one of `node`'s groups, maximized over its groups. Reads
  // filled child rows only.
  void BestDrillDown(size_t node, double* best);
  // Appends the selected nodes of the optimum of quota m, whose value is
  // `best`: walks the drill-down choices from the root.
  void Reconstruct(double best, std::vector<ExplId>* out);
  // Finds the first group of `node` whose knapsack reaches `target` at
  // quota q and queues each of its children's quota shares on pending_.
  void PickDrillDown(size_t node, int q, double target);
  // The score `node` adds when it selects itself (0 = it cannot).
  double SelfScore(size_t node) const;
  // The memo row of `node`: f(node, q) at q = 0..m.
  double* Row(size_t node) {
    return memo_.data() + node * (static_cast<size_t>(m_) + 1);
  }

  const ExplanationRegistry& registry_;
  const bool flat_;  // fixed at construction from registry_.lattice()
  // The lattice Run walks, its views by node, and the call's m.
  const DrillDownLattice* lattice_ = nullptr;
  const double* score_ = nullptr;
  const std::vector<bool>* selectable_ = nullptr;
  int m_ = 0;

  // TopMRestricted's sub-lattice: node i stands for cell sub_cells_[i].
  std::vector<ExplId> sub_cells_;
  DrillDownLattice sub_lattice_;
  std::vector<double> sub_score_;

  // memo_[node * (m_ + 1) + q] = f(node, q), valid for this call when
  // stamp_[node] == epoch_.
  std::vector<double> memo_;
  std::vector<uint32_t> stamp_;
  uint32_t epoch_ = 0;
  // The flat pass's cells: the positive selectable ones, ascending.
  std::vector<ExplId> flat_cells_;

  // One group's knapsack: its quota row (the DP) or its full per-child
  // table (the reconstruction and the flat pass); and the (node, quota)
  // shares still to reconstruct.
  std::vector<double> knapsack_;
  std::vector<std::pair<size_t, int>> pending_;
  size_t nodes_visited_ = 0;
};

/// Convenience: ranks `candidate` ids by descending gamma with deterministic
/// id tie-breaking (used to order E*_m and by guess-and-verify).
void SortByGammaDesc(const std::vector<double>& gamma,
                     std::vector<ExplId>* ids);

}  // namespace tsexplain

#endif  // TSEXPLAIN_DIFF_CASCADING_ANALYSTS_H_
