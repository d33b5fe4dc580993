#include "src/service/trace.h"

#include <cstddef>

#include "src/common/check.h"

namespace tsexplain {

namespace {
constexpr double kGapEpsilonMs = 1e-6;
}  // namespace

QueryTrace::QueryTrace() {
  TraceSpan root;
  root.name = "query";
  root.parent = -1;
  spans_.push_back(std::move(root));
}

int QueryTrace::BeginSpan(const std::string& name, int parent) {
  TSE_CHECK_GE(parent, 0);
  TSE_CHECK_LT(static_cast<size_t>(parent), spans_.size());
  TraceSpan span;
  span.name = name;
  span.start_ms = timer_.ElapsedMs();
  span.parent = parent;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void QueryTrace::EndSpan(int index) {
  TSE_CHECK_GT(index, 0);
  TSE_CHECK_LT(static_cast<size_t>(index), spans_.size());
  TraceSpan& span = spans_[static_cast<size_t>(index)];
  span.duration_ms = timer_.ElapsedMs() - span.start_ms;
}

int QueryTrace::AddSpan(const std::string& name, double start_ms,
                        double duration_ms, int parent) {
  TSE_CHECK_GE(parent, 0);
  TSE_CHECK_LT(static_cast<size_t>(parent), spans_.size());
  TraceSpan span;
  span.name = name;
  span.start_ms = start_ms;
  span.duration_ms = duration_ms < 0.0 ? 0.0 : duration_ms;
  span.parent = parent;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void QueryTrace::Finalize(double total_ms) {
  TSE_CHECK(!finalized_) << "QueryTrace::Finalize called twice";
  finalized_ = true;
  spans_[0].duration_ms = total_ms;

  // Parents always precede their children (a child needs its parent's
  // index to exist), so one top-down pass sees every parent with its
  // final duration before tiling it. Synthetic "other" spans are
  // appended as leaves and never revisited.
  const size_t recorded = spans_.size();
  for (size_t p = 0; p < recorded; ++p) {
    double child_sum = 0.0;
    size_t last_child = 0;
    for (size_t c = p + 1; c < recorded; ++c) {
      if (spans_[c].parent != static_cast<int>(p)) continue;
      child_sum += spans_[c].duration_ms;
      last_child = c;
    }
    if (last_child == 0) continue;  // a leaf

    const double gap = spans_[p].duration_ms - child_sum;
    if (gap > kGapEpsilonMs) {
      // Time inside the parent that no child measured.
      TraceSpan other;
      other.name = "other";
      other.start_ms = spans_[p].start_ms + child_sum;
      other.duration_ms = gap;
      other.parent = static_cast<int>(p);
      spans_.push_back(std::move(other));
    } else if (gap >= -kGapEpsilonMs) {
      // Rounding residue: folded into the last child instead of a
      // degenerate span, so the children sum to the parent exactly.
      spans_[last_child].duration_ms += gap;
    }
  }
}

}  // namespace tsexplain
