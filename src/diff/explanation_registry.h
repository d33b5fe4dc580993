// Candidate-explanation enumeration and the drill-down lattice.
//
// Enumerates every conjunction of order <= max_order over the explain-by
// attributes that actually occurs in the relation (empty slices can never
// carry a diff score) and assigns each a dense ExplId. Also materializes the
// drill-down structure the Cascading Analysts algorithm walks: for each cell
// and each unconstrained attribute, the list of child cells obtained by
// adding one predicate on that attribute (paper Figure 8).
//
// Build keeps each cell's parents (the cells one predicate shorter), and one
// link routine (`Link`) turns any parent-closed set of cells into a
// drill-down lattice: Build links all cells, and guess-and-verify's
// Cascading Analysts solve links the candidates plus their ancestors.
//
// One tuple pass (`TuplePass` in explanation_registry.cc) owns tuple dedupe
// and subset order: it dedupes each row's explain-by value tuple exactly and
// enumerates subsets only for a tuple's first occurrence. Build assigns ids
// in that order (row, then subset); ResolveRows serves the explanation cube
// (its constructor and AppendBucket), the only code that turns rows into
// partials. Nothing of the pass is retained.

#ifndef TSEXPLAIN_DIFF_EXPLANATION_REGISTRY_H_
#define TSEXPLAIN_DIFF_EXPLANATION_REGISTRY_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/diff/explanation.h"
#include "src/table/table.h"

namespace tsexplain {

/// Children of a node along one drill-down attribute.
struct ChildGroup {
  AttrId attr;
  std::vector<ExplId> children;
};

/// Drill-down forest over nodes 0..n-1 (paper Figure 8): the root's and
/// each node's children, grouped by attribute in attribute order, each
/// child list in ascending node order.
struct DrillDownLattice {
  std::vector<ChildGroup> root;
  std::vector<std::vector<ChildGroup>> children;  // by node
};

/// Rows of a table range resolved to registry cells by the tuple pass.
struct RowCells {
  /// Per distinct explain-by value tuple, in first-occurrence order: the
  /// ids of its cells, in subset order.
  std::vector<std::vector<ExplId>> tuple_cells;
  /// Per row of the range, in row order: its tuple's index in tuple_cells.
  std::vector<uint32_t> row_tuple;
};

/// Immutable-after-build candidate set + drill-down lattice.
class ExplanationRegistry {
 public:
  /// Creates an empty registry (no candidates); assign from Build().
  ExplanationRegistry() = default;

  /// Enumerates all order-<=max_order conjunctions over `explain_by` that
  /// occur in `table`. max_order is the paper's beta-bar (default 3 there);
  /// an order above explain_by.size() builds the order-explain_by.size()
  /// registry.
  static ExplanationRegistry Build(const Table& table,
                                   const std::vector<AttrId>& explain_by,
                                   int max_order);

  /// Total number of candidate explanations (the paper's epsilon).
  size_t num_explanations() const { return cells_.size(); }

  const Explanation& explanation(ExplId id) const;

  /// Id for a conjunction, or kInvalidExplId if it never occurs in data.
  ExplId Lookup(const Explanation& e) const;

  /// Resolves rows [row_begin, row_end) of `table` (the table Build saw,
  /// possibly grown since) to cell ids, once per distinct tuple; nullopt
  /// when a row needs a cell the registry lacks.
  std::optional<RowCells> ResolveRows(const Table& table, size_t row_begin,
                                      size_t row_end) const;

  /// The drill-down lattice over every cell; node = cell id. Cells at
  /// max_order have no children.
  const DrillDownLattice& lattice() const { return lattice_; }

  /// The cell obtained by dropping predicate `pred` (an index into
  /// explanation(id).predicates()) from cell `id`; kInvalidExplId, the
  /// root, when `id` has order 1.
  ExplId parent(ExplId id, int pred) const;

  /// Links the drill-down lattice over `cells`, ascending ids that include
  /// every parent of every listed cell: node i stands for cells[i], and
  /// each node is a child of its parents' nodes (order-1 nodes of the root)
  /// under the attribute it adds.
  void Link(const std::vector<ExplId>& cells,
            DrillDownLattice* lattice) const;

 private:
  std::vector<AttrId> explain_by_;
  int max_order_ = 0;
  std::vector<Explanation> cells_;
  std::unordered_map<Explanation, ExplId, ExplanationHasher> index_;
  // parents_[id * max_order_ + pred] = parent(id, pred); unused slots hold
  // kInvalidExplId.
  std::vector<ExplId> parents_;
  DrillDownLattice lattice_;  // node = cell id
};

}  // namespace tsexplain

#endif  // TSEXPLAIN_DIFF_EXPLANATION_REGISTRY_H_
