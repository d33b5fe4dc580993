// Unit tests for candidate enumeration + the drill-down lattice.

#include <gtest/gtest.h>

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
  const auto& groups = reg.root_children();
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
    for (const ChildGroup& group : reg.children(id)) {
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
  for (const ChildGroup& g : reg.root_children()) {
    for (ExplId c : g.children) stack.push_back(c);
  }
  while (!stack.empty()) {
    const ExplId id = stack.back();
    stack.pop_back();
    if (!reachable.insert(id).second) continue;
    for (const ChildGroup& g : reg.children(id)) {
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
      EXPECT_TRUE(reg.children(id).empty());
    }
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
