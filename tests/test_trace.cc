// Unit coverage for per-query trace spans (src/service/trace.h): the
// Finalize partition invariant — children tile their parent exactly,
// gaps surface as synthetic "other" spans, rounding residues fold into
// the last child — plus the Begin/End/AddSpan bookkeeping the service
// relies on.

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "src/service/trace.h"

namespace tsexplain {
namespace {

// Sum of the direct children of `parent`, or -1 when it has none.
double ChildSum(const std::vector<TraceSpan>& spans, int parent) {
  double sum = 0.0;
  bool any = false;
  for (const TraceSpan& span : spans) {
    if (span.parent == parent) {
      sum += span.duration_ms;
      any = true;
    }
  }
  return any ? sum : -1.0;
}

TEST(QueryTraceTest, RootSpanAndBasicBookkeeping) {
  QueryTrace trace;
  ASSERT_EQ(trace.spans().size(), 1u);
  EXPECT_EQ(trace.spans()[0].name, "query");
  EXPECT_EQ(trace.spans()[0].parent, -1);

  const int child = trace.BeginSpan("cache_lookup");
  EXPECT_EQ(child, 1);
  trace.EndSpan(child);
  EXPECT_EQ(trace.spans()[1].parent, 0);
  EXPECT_GE(trace.spans()[1].duration_ms, 0.0);

  const int grafted = trace.AddSpan("engine_run", 1.0, 2.5, child);
  EXPECT_EQ(trace.spans()[static_cast<size_t>(grafted)].parent, child);
  EXPECT_DOUBLE_EQ(trace.spans()[static_cast<size_t>(grafted)].duration_ms,
                   2.5);
  // Negative durations are clamped at insertion.
  const int clamped = trace.AddSpan("negative", 0.0, -3.0, 0);
  EXPECT_DOUBLE_EQ(trace.spans()[static_cast<size_t>(clamped)].duration_ms,
                   0.0);
}

TEST(QueryTraceTest, FinalizeFillsGapsWithOtherSpans) {
  QueryTrace trace;
  trace.AddSpan("a", 0.0, 3.0, 0);
  trace.AddSpan("b", 3.0, 2.0, 0);
  trace.Finalize(10.0);

  const std::vector<TraceSpan>& spans = trace.spans();
  EXPECT_DOUBLE_EQ(spans[0].duration_ms, 10.0);
  // A 5 ms gap after "b" becomes a trailing synthetic "other" child.
  const TraceSpan& other = spans.back();
  EXPECT_EQ(other.name, "other");
  EXPECT_EQ(other.parent, 0);
  EXPECT_DOUBLE_EQ(other.start_ms, 5.0);
  EXPECT_DOUBLE_EQ(other.duration_ms, 5.0);
  EXPECT_DOUBLE_EQ(ChildSum(spans, 0), 10.0);
}

TEST(QueryTraceTest, FinalizePartitionsEveryLevelOfTheTree) {
  QueryTrace trace;
  const int compute = trace.AddSpan("compute", 1.0, 8.0, 0);
  trace.AddSpan("engine_run", 1.0, 5.0, compute);
  trace.AddSpan("json_render", 6.0, 1.0, compute);
  trace.Finalize(10.0);

  const std::vector<TraceSpan>& spans = trace.spans();
  // Level 0: compute (8) + a single trailing "other" (10 - 8 = 2).
  EXPECT_DOUBLE_EQ(ChildSum(spans, 0), 10.0);
  // Level 1: engine_run (5) + json_render (1) + other (2) == compute (8).
  EXPECT_DOUBLE_EQ(ChildSum(spans, compute), 8.0);
  // Sub-epsilon gaps are folded, larger ones get explicit spans; either
  // way every parent with children is tiled exactly.
  int other_count = 0;
  for (const TraceSpan& span : spans) {
    if (span.name == "other") ++other_count;
  }
  EXPECT_EQ(other_count, 2);
}

TEST(QueryTraceTest, FinalizeFoldsSubEpsilonGapIntoLastChild) {
  // A residue of 1e-9 ms of either sign (rounding between the parent's
  // and the children's readings of the one clock) is below the epsilon:
  // folded into "a" instead of emitting a degenerate "other" span.
  for (const double residue : {1e-9, -1e-9}) {
    QueryTrace trace;
    trace.AddSpan("a", 0.0, 5.0, 0);
    trace.Finalize(5.0 + residue);

    const std::vector<TraceSpan>& spans = trace.spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_DOUBLE_EQ(spans[1].duration_ms, spans[0].duration_ms);
  }
}

}  // namespace
}  // namespace tsexplain
