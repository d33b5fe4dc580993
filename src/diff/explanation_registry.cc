#include "src/diff/explanation_registry.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <unordered_map>

#include "src/common/check.h"

namespace tsexplain {
namespace {

// Enumerates all non-empty subsets of `explain_by` with size <= max_order,
// as index lists into explain_by.
std::vector<std::vector<size_t>> AttrSubsets(size_t num_attrs,
                                             int max_order) {
  std::vector<std::vector<size_t>> subsets;
  std::vector<size_t> current;
  // Depth-first enumeration in lexicographic order.
  auto recurse = [&](auto&& self, size_t start) -> void {
    if (!current.empty()) subsets.push_back(current);
    if (static_cast<int>(current.size()) == max_order) return;
    for (size_t i = start; i < num_attrs; ++i) {
      current.push_back(i);
      self(self, i + 1);
      current.pop_back();
    }
  };
  recurse(recurse, 0);
  return subsets;
}

// The tuple pass. Scans rows [row_begin, row_end) once, deduping each
// row's explain-by value tuple with an exact compare (the hash only picks
// the candidates), and hands `on_new_tuple` the cells of each tuple at its
// first occurrence: one conjunction per attribute subset, in AttrSubsets
// order. `row_tuple`, if set, receives each row's tuple index
// (first-occurrence rank).
template <typename OnNewTuple>
void TuplePass(const Table& table, const std::vector<AttrId>& explain_by,
               int max_order, size_t row_begin, size_t row_end,
               std::vector<uint32_t>* row_tuple, OnNewTuple&& on_new_tuple) {
  TSE_CHECK_LT(row_end - row_begin, static_cast<size_t>(UINT32_MAX));
  const size_t width = explain_by.size();
  const std::vector<std::vector<size_t>> subsets =
      AttrSubsets(width, max_order);
  std::unordered_multimap<uint64_t, uint32_t> seen;  // tuple hash -> index
  std::vector<ValueId> tuples;  // the distinct tuples, back to back
  std::vector<ValueId> tuple(width);
  std::vector<Predicate> preds;
  std::vector<Explanation> cells;
  if (row_tuple != nullptr) row_tuple->reserve(row_end - row_begin);
  for (size_t row = row_begin; row < row_end; ++row) {
    uint64_t hash = 1469598103934665603ULL;  // FNV-1a
    for (size_t idx = 0; idx < width; ++idx) {
      tuple[idx] = table.dim(row, explain_by[idx]);
      hash = (hash ^ static_cast<uint32_t>(tuple[idx])) * 1099511628211ULL;
    }
    auto [it, end] = seen.equal_range(hash);
    while (it != end && !std::equal(tuple.begin(), tuple.end(),
                                    tuples.begin() + it->second * width)) {
      ++it;
    }
    if (it == end) {
      it = seen.emplace(hash, static_cast<uint32_t>(seen.size()));
      tuples.insert(tuples.end(), tuple.begin(), tuple.end());
      cells.clear();
      for (const std::vector<size_t>& subset : subsets) {
        preds.clear();
        for (size_t idx : subset) {
          preds.push_back(Predicate{explain_by[idx], tuple[idx]});
        }
        cells.push_back(Explanation::FromPredicates(preds));
      }
      on_new_tuple(cells);
    }
    if (row_tuple != nullptr) row_tuple->push_back(it->second);
  }
}

}  // namespace

ExplanationRegistry ExplanationRegistry::Build(
    const Table& table, const std::vector<AttrId>& explain_by,
    int max_order) {
  TSE_CHECK(!explain_by.empty());
  TSE_CHECK_GE(max_order, 1);
  for (AttrId a : explain_by) {
    TSE_CHECK_GE(a, 0);
    TSE_CHECK_LT(static_cast<size_t>(a), table.schema().num_dimensions());
  }

  ExplanationRegistry reg;
  reg.explain_by_ = explain_by;
  // No cell has more predicates than there are attributes. The clamp keeps
  // the parent table sized by the attributes, not by the order a request
  // asks for (which may be as large as INT_MAX).
  reg.max_order_ =
      std::min<int>(max_order, static_cast<int>(explain_by.size()));

  // Pass 1: find every occurring cell, ids in first-occurrence order.
  TuplePass(table, explain_by, reg.max_order_, 0, table.num_rows(),
            /*row_tuple=*/nullptr,
            [&reg](const std::vector<Explanation>& cells) {
              for (const Explanation& cell : cells) {
                auto [it, inserted] = reg.index_.try_emplace(
                    cell, static_cast<ExplId>(reg.cells_.size()));
                if (inserted) reg.cells_.push_back(it->first);
              }
            });

  // Pass 2: every cell of order k >= 2 is a child of each cell obtained by
  // dropping one of its predicates; then link every cell.
  const size_t slots = static_cast<size_t>(reg.max_order_);
  reg.parents_.assign(reg.cells_.size() * slots, kInvalidExplId);
  for (size_t id = 0; id < reg.cells_.size(); ++id) {
    const Explanation& cell = reg.cells_[id];
    if (cell.order() == 1) continue;
    const std::vector<Predicate>& preds = cell.predicates();
    for (size_t pred = 0; pred < preds.size(); ++pred) {
      const ExplId parent_id = reg.Lookup(cell.WithoutAttr(preds[pred].attr));
      TSE_CHECK_NE(parent_id, kInvalidExplId)
          << "parent cell missing; enumeration must be downward closed";
      reg.parents_[id * slots + pred] = parent_id;
    }
  }
  std::vector<ExplId> all(reg.cells_.size());
  std::iota(all.begin(), all.end(), 0);
  reg.Link(all, &reg.lattice_);
  return reg;
}

void ExplanationRegistry::Link(const std::vector<ExplId>& cells,
                               DrillDownLattice* lattice) const {
  lattice->root.clear();
  lattice->children.clear();
  lattice->children.resize(cells.size());
  // Visiting nodes in ascending order keeps every child list sorted; groups
  // are inserted in attribute order.
  for (size_t node = 0; node < cells.size(); ++node) {
    const ExplId id = cells[node];
    const std::vector<Predicate>& preds = explanation(id).predicates();
    for (size_t pred = 0; pred < preds.size(); ++pred) {
      const ExplId parent_id =
          parents_[static_cast<size_t>(id) * static_cast<size_t>(max_order_) +
                   pred];
      std::vector<ChildGroup>* groups = &lattice->root;
      if (parent_id != kInvalidExplId) {
        const auto it = std::lower_bound(cells.begin(), cells.end(), parent_id);
        TSE_CHECK(it != cells.end() && *it == parent_id)
            << "lattice cells must include every parent";
        groups = &lattice->children[static_cast<size_t>(it - cells.begin())];
      }
      const AttrId attr = preds[pred].attr;
      auto group = std::find_if(
          groups->begin(), groups->end(),
          [attr](const ChildGroup& g) { return g.attr >= attr; });
      if (group == groups->end() || group->attr != attr) {
        group = groups->insert(group, ChildGroup{attr, {}});
      }
      group->children.push_back(static_cast<ExplId>(node));
    }
  }
}

std::optional<RowCells> ExplanationRegistry::ResolveRows(
    const Table& table, size_t row_begin, size_t row_end) const {
  TSE_CHECK(row_begin <= row_end && row_end <= table.num_rows());
  RowCells out;
  bool complete = true;
  TuplePass(table, explain_by_, max_order_, row_begin, row_end,
            &out.row_tuple, [&](const std::vector<Explanation>& cells) {
              std::vector<ExplId>& ids = out.tuple_cells.emplace_back();
              ids.reserve(cells.size());
              for (const Explanation& cell : cells) {
                ids.push_back(Lookup(cell));
                complete = complete && ids.back() != kInvalidExplId;
              }
            });
  if (!complete) return std::nullopt;
  return out;
}

const Explanation& ExplanationRegistry::explanation(ExplId id) const {
  TSE_CHECK_GE(id, 0);
  TSE_CHECK_LT(static_cast<size_t>(id), cells_.size());
  return cells_[static_cast<size_t>(id)];
}

ExplId ExplanationRegistry::Lookup(const Explanation& e) const {
  auto it = index_.find(e);
  return it == index_.end() ? kInvalidExplId : it->second;
}

ExplId ExplanationRegistry::parent(ExplId id, int pred) const {
  TSE_CHECK_GE(pred, 0);
  TSE_CHECK_LT(pred, explanation(id).order());
  return parents_[static_cast<size_t>(id) * static_cast<size_t>(max_order_) +
                  static_cast<size_t>(pred)];
}

}  // namespace tsexplain
