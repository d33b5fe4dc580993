// Unit tests for candidate enumeration + the drill-down lattice.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "src/diff/explanation_registry.h"

namespace tsexplain {
namespace {

// Two attributes A (2 values) x B (2 values), all combos present.
Table MakeDenseTable() {
  Table table(Schema("t", {"A", "B"}, {"m"}));
  table.AddTimeBucket("0");
  for (const char* a : {"a1", "a2"}) {
    for (const char* b : {"b1", "b2"}) {
      table.AppendRow(0, {a, b}, {1.0});
    }
  }
  return table;
}

// Three attributes A (3) x B (3) x C (2), some combos left out.
Table MakeSparseTable() {
  Table table(Schema("t", {"A", "B", "C"}, {"m"}));
  table.AddTimeBucket("0");
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) {
      for (int c = 0; c < 2; ++c) {
        if ((a + b + c) % 4 == 3) continue;
        table.AppendRow(0,
                        {"a" + std::to_string(a), "b" + std::to_string(b),
                         "c" + std::to_string(c)},
                        {1.0});
      }
    }
  }
  return table;
}

TEST(Registry, DenseEnumerationCount) {
  const Table t = MakeDenseTable();
  const auto reg = ExplanationRegistry::Build(t, {0, 1}, 2);
  // Order 1: 2 + 2 = 4; order 2: 2 x 2 = 4 -> epsilon = 8.
  EXPECT_EQ(reg.num_explanations(), 8u);
}

TEST(Registry, MaxOrderOneOnlySingles) {
  const Table t = MakeDenseTable();
  const auto reg = ExplanationRegistry::Build(t, {0, 1}, 1);
  EXPECT_EQ(reg.num_explanations(), 4u);
  for (ExplId e = 0; e < 4; ++e) {
    EXPECT_EQ(reg.explanation(e).order(), 1);
  }
}

TEST(Registry, SparseCombosOnlyWhenCoOccurring) {
  Table table(Schema("t", {"A", "B"}, {"m"}));
  table.AddTimeBucket("0");
  table.AppendRow(0, {"a1", "b1"}, {1.0});
  table.AppendRow(0, {"a2", "b2"}, {1.0});
  const auto reg = ExplanationRegistry::Build(table, {0, 1}, 2);
  // Singles: a1, a2, b1, b2; pairs: only (a1,b1) and (a2,b2).
  EXPECT_EQ(reg.num_explanations(), 6u);
  const ValueId a1 = table.dictionary(0).Lookup("a1");
  const ValueId b2 = table.dictionary(1).Lookup("b2");
  const auto cross = Explanation::FromPredicates(
      {Predicate{0, a1}, Predicate{1, b2}});
  EXPECT_EQ(reg.Lookup(cross), kInvalidExplId);
}

TEST(Registry, ExplainBySubsetOfDimensions) {
  const Table t = MakeDenseTable();
  const auto reg = ExplanationRegistry::Build(t, {1}, 3);
  EXPECT_EQ(reg.num_explanations(), 2u);  // only B's two values
}

TEST(Registry, RootChildrenGroupedByAttribute) {
  const Table t = MakeDenseTable();
  const auto reg = ExplanationRegistry::Build(t, {0, 1}, 2);
  const auto& groups = reg.lattice().root;
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].attr, 0);
  EXPECT_EQ(groups[1].attr, 1);
  EXPECT_EQ(groups[0].children.size(), 2u);
  EXPECT_EQ(groups[1].children.size(), 2u);
  for (const ChildGroup& g : groups) {
    for (ExplId child : g.children) {
      EXPECT_EQ(reg.explanation(child).order(), 1);
    }
  }
}

TEST(Registry, ChildExtendsParentByOnePredicate) {
  const Table t = MakeDenseTable();
  const auto reg = ExplanationRegistry::Build(t, {0, 1}, 2);
  for (ExplId id = 0; id < static_cast<ExplId>(reg.num_explanations());
       ++id) {
    const Explanation& parent = reg.explanation(id);
    for (const ChildGroup& group :
         reg.lattice().children[static_cast<size_t>(id)]) {
      ValueId unused;
      EXPECT_FALSE(parent.TryGetValue(group.attr, &unused))
          << "drill-down attr must be unconstrained in the parent";
      for (ExplId child_id : group.children) {
        const Explanation& child = reg.explanation(child_id);
        EXPECT_EQ(child.order(), parent.order() + 1);
        EXPECT_TRUE(child.WithoutAttr(group.attr) == parent);
      }
    }
  }
}

TEST(Registry, EveryNonRootCellReachableFromRoot) {
  const Table t = MakeDenseTable();
  const auto reg = ExplanationRegistry::Build(t, {0, 1}, 2);
  std::set<ExplId> reachable;
  std::vector<ExplId> stack;
  for (const ChildGroup& g : reg.lattice().root) {
    for (ExplId c : g.children) stack.push_back(c);
  }
  while (!stack.empty()) {
    const ExplId id = stack.back();
    stack.pop_back();
    if (!reachable.insert(id).second) continue;
    for (const ChildGroup& g :
         reg.lattice().children[static_cast<size_t>(id)]) {
      for (ExplId c : g.children) stack.push_back(c);
    }
  }
  EXPECT_EQ(reachable.size(), reg.num_explanations());
}

TEST(Registry, MaxOrderCellsAreLeaves) {
  const Table t = MakeDenseTable();
  const auto reg = ExplanationRegistry::Build(t, {0, 1}, 2);
  for (ExplId id = 0; id < static_cast<ExplId>(reg.num_explanations());
       ++id) {
    if (reg.explanation(id).order() == 2) {
      EXPECT_TRUE(reg.lattice().children[static_cast<size_t>(id)].empty());
    }
  }
}

TEST(Registry, ParentLinksMatchDrillDown) {
  // Every stored parent is the cell one predicate shorter, and the
  // drill-down lattice lists each cell under its parents by the attribute
  // it adds (order-1 cells under the root).
  const Table table = MakeSparseTable();
  const auto reg = ExplanationRegistry::Build(table, {0, 1, 2}, 3);
  auto lists = [](const std::vector<ChildGroup>& groups, AttrId attr,
                  ExplId id) {
    for (const ChildGroup& g : groups) {
      if (g.attr == attr) {
        return std::count(g.children.begin(), g.children.end(), id) == 1;
      }
    }
    return false;
  };
  for (ExplId id = 0; id < static_cast<ExplId>(reg.num_explanations());
       ++id) {
    const Explanation& cell = reg.explanation(id);
    const auto& preds = cell.predicates();
    if (cell.order() == 1) {
      EXPECT_EQ(reg.parent(id, 0), kInvalidExplId);
      EXPECT_TRUE(lists(reg.lattice().root, preds[0].attr, id)) << id;
      continue;
    }
    for (int pred = 0; pred < cell.order(); ++pred) {
      const AttrId attr = preds[static_cast<size_t>(pred)].attr;
      const ExplId parent = reg.parent(id, pred);
      EXPECT_EQ(parent, reg.Lookup(cell.WithoutAttr(attr))) << id;
      ASSERT_NE(parent, kInvalidExplId);
      EXPECT_TRUE(lists(reg.lattice().children[static_cast<size_t>(parent)],
                        attr, id))
          << id;
    }
  }
}

TEST(Registry, OrderAboveAttributeCountBuildsTheFullOrderRegistry) {
  // An order past the attribute count (a request may carry up to INT_MAX)
  // adds no cell, and must not size anything: it builds exactly the
  // registry of order = |explain_by|, ids, parents and lattice alike.
  const Table table = MakeSparseTable();
  const auto full = ExplanationRegistry::Build(table, {0, 1, 2}, 3);
  const auto huge = ExplanationRegistry::Build(
      table, {0, 1, 2}, std::numeric_limits<int>::max());
  ASSERT_EQ(huge.num_explanations(), full.num_explanations());
  auto same_groups = [](const std::vector<ChildGroup>& a,
                        const std::vector<ChildGroup>& b) {
    if (a.size() != b.size()) return false;
    for (size_t g = 0; g < a.size(); ++g) {
      if (a[g].attr != b[g].attr || a[g].children != b[g].children) {
        return false;
      }
    }
    return true;
  };
  EXPECT_TRUE(same_groups(huge.lattice().root, full.lattice().root));
  for (ExplId id = 0; id < static_cast<ExplId>(full.num_explanations());
       ++id) {
    const Explanation& cell = full.explanation(id);
    EXPECT_TRUE(huge.explanation(id) == cell) << id;
    for (int pred = 0; pred < cell.order(); ++pred) {
      EXPECT_EQ(huge.parent(id, pred), full.parent(id, pred)) << id;
    }
    EXPECT_TRUE(
        same_groups(huge.lattice().children[static_cast<size_t>(id)],
                    full.lattice().children[static_cast<size_t>(id)]))
        << id;
  }
}

TEST(Registry, LookupRoundTrip) {
  const Table t = MakeDenseTable();
  const auto reg = ExplanationRegistry::Build(t, {0, 1}, 2);
  for (ExplId id = 0; id < static_cast<ExplId>(reg.num_explanations());
       ++id) {
    EXPECT_EQ(reg.Lookup(reg.explanation(id)), id);
  }
}

TEST(Registry, ThreeAttributeTripleEnumeration) {
  Table table(Schema("t", {"A", "B", "C"}, {"m"}));
  table.AddTimeBucket("0");
  table.AppendRow(0, {"a", "b", "c"}, {1.0});
  const auto reg3 = ExplanationRegistry::Build(table, {0, 1, 2}, 3);
  // One row: 3 singles + 3 pairs + 1 triple = 7.
  EXPECT_EQ(reg3.num_explanations(), 7u);
  const auto reg2 = ExplanationRegistry::Build(table, {0, 1, 2}, 2);
  EXPECT_EQ(reg2.num_explanations(), 6u);
}

TEST(Registry, IdsFollowFirstOccurrenceRowThenSubsetOrder) {
  // Ids are assigned as cells first occur: row order, then the depth-first
  // subset order A, A&B, A&C, B, B&C, C. Repeated tuples add nothing. The
  // canonical representative ("lowest order, then lowest id") and every
  // tie-break downstream depend on this order.
  Table table(Schema("t", {"A", "B", "C"}, {"m"}));
  table.AddTimeBucket("0");
  table.AppendRow(0, {"a1", "b1", "c1"}, {1.0});
  table.AppendRow(0, {"a2", "b1", "c2"}, {1.0});
  table.AppendRow(0, {"a1", "b1", "c1"}, {1.0});
  table.AppendRow(0, {"a2", "b2", "c1"}, {1.0});
  table.AppendRow(0, {"a2", "b1", "c2"}, {1.0});
  table.AppendRow(0, {"a1", "b2", "c2"}, {1.0});
  const auto reg = ExplanationRegistry::Build(table, {0, 1, 2}, 2);
  const std::vector<std::string> expected = {
      // Row 0: a1 b1 c1.
      "A=a1", "A=a1 & B=b1", "A=a1 & C=c1", "B=b1", "B=b1 & C=c1", "C=c1",
      // Row 1: a2 b1 c2 (B=b1 seen).
      "A=a2", "A=a2 & B=b1", "A=a2 & C=c2", "B=b1 & C=c2", "C=c2",
      // Row 2 repeats row 0. Row 3: a2 b2 c1 (A=a2, C=c1 seen).
      "A=a2 & B=b2", "A=a2 & C=c1", "B=b2", "B=b2 & C=c1",
      // Row 4 repeats row 1. Row 5: a1 b2 c2 (every single seen).
      "A=a1 & B=b2", "A=a1 & C=c2", "B=b2 & C=c2"};
  ASSERT_EQ(reg.num_explanations(), expected.size());
  for (size_t id = 0; id < expected.size(); ++id) {
    EXPECT_EQ(reg.explanation(static_cast<ExplId>(id)).ToString(table),
              expected[id])
        << "id " << id;
  }
}

}  // namespace
}  // namespace tsexplain
