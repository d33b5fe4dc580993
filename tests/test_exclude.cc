// Tests for explanation exclusion lists.

#include <gtest/gtest.h>

#include "src/pipeline/tsexplain.h"

namespace tsexplain {
namespace {

Table MakeDailyTable() {
  Table table(Schema("day", {"cat"}, {"v"}));
  for (int t = 0; t < 10; ++t) {
    table.AddTimeBucket("d" + std::to_string(t));
  }
  for (int t = 0; t < 10; ++t) {
    table.AppendRow(t, {"a"}, {static_cast<double>(t)});
    table.AppendRow(t, {"b"}, {10.0});
  }
  return table;
}

TEST(Exclude, BareValueMutesEveryAttribute) {
  const Table daily = MakeDailyTable();
  TSExplainConfig config;
  config.measure = "v";
  config.explain_by_names = {"cat"};
  config.exclude = {"a"};  // category "a" is the only mover
  TSExplain engine(daily, config);
  const TSExplainResult result = engine.Run();
  for (const SegmentExplanation& seg : result.segments) {
    for (const ExplanationItem& item : seg.top) {
      EXPECT_EQ(item.description.find("cat=a"), std::string::npos);
    }
  }
}

TEST(Exclude, QualifiedFormOnlyMutesThatAttribute) {
  // Extra flat rows keep x=hot / y=cold and x=mild / y=hot slices
  // DISTINCT, so hierarchy dedup cannot collapse them.
  Table table(Schema("t", {"x", "y"}, {"v"}));
  for (int t = 0; t < 8; ++t) table.AddTimeBucket(std::to_string(t));
  for (int t = 0; t < 8; ++t) {
    table.AppendRow(t, {"hot", "cold"}, {10.0 + 5.0 * t});
    table.AppendRow(t, {"hot", "warm"}, {7.0});
    table.AppendRow(t, {"mild", "hot"}, {20.0 + 4.0 * t});
    table.AppendRow(t, {"cool", "hot"}, {5.0});
  }
  TSExplainConfig config;
  config.measure = "v";
  config.explain_by_names = {"x", "y"};
  config.max_order = 1;
  config.exclude = {"x=hot"};
  TSExplain engine(table, config);
  const auto items = engine.ExplainSegment(0, 7);
  bool saw_y_hot = false;
  for (const auto& item : items) {
    EXPECT_NE(item.description, "x=hot");
    if (item.description == "y=hot") saw_y_hot = true;
  }
  EXPECT_TRUE(saw_y_hot);
}

TEST(Exclude, ConjunctionsContainingBannedPredicateAreMuted) {
  Table table(Schema("t", {"x", "y"}, {"v"}));
  for (int t = 0; t < 8; ++t) table.AddTimeBucket(std::to_string(t));
  for (int t = 0; t < 8; ++t) {
    table.AppendRow(t, {"hot", "p"}, {10.0 + 6.0 * t});
    table.AppendRow(t, {"cold", "q"}, {10.0});
  }
  TSExplainConfig config;
  config.measure = "v";
  config.explain_by_names = {"x", "y"};
  config.max_order = 2;
  config.exclude = {"x=hot"};
  TSExplain engine(table, config);
  const auto items = engine.ExplainSegment(0, 7);
  for (const auto& item : items) {
    EXPECT_EQ(item.description.find("x=hot"), std::string::npos)
        << item.description;
  }
}

TEST(Exclude, CountsReflectExclusion) {
  const Table daily = MakeDailyTable();
  TSExplainConfig config;
  config.measure = "v";
  config.explain_by_names = {"cat"};
  config.exclude = {"cat=a"};
  TSExplain engine(daily, config);
  const TSExplainResult result = engine.Run();
  EXPECT_EQ(result.filtered_epsilon, 1u);  // only cat=b stays selectable
}

}  // namespace
}  // namespace tsexplain
