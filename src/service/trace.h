// Per-query trace spans: a flat tree of (name, start offset, duration,
// parent) records assembled while a request flows through the service
// and returned inline when the request sets "trace": true.
//
// The tree covers what happens around the engine (cache lookup,
// admission wait, JSON render) and, under "engine_run", the phases the
// engine timed itself (TimingBreakdown::Phases). Every span is measured
// on one monotonic clock, so no child outlasts its parent, and after
// Finalize() every parent's direct children tile its duration exactly:
// a gap becomes an explicit "other" span.
//
// Tracing is per-request and allocation-light: a QueryTrace is only
// constructed when the caller asked for one, call sites take a nullable
// pointer, and a null trace costs a single branch.

#ifndef TSEXPLAIN_SERVICE_TRACE_H_
#define TSEXPLAIN_SERVICE_TRACE_H_

#include <string>
#include <vector>

#include "src/common/timer.h"

namespace tsexplain {

struct TraceSpan {
  std::string name;
  double start_ms = 0.0;     // offset from the root span's start
  double duration_ms = 0.0;
  int parent = -1;           // index into the span vector; -1 = root
};

/// Collects spans for one request. Not thread-safe: a trace belongs to
/// the single request thread that created it (the engine's workers are
/// not traced: their time is inside the phase that fanned them out).
class QueryTrace {
 public:
  /// Starts the clock and opens the root span ("query", index 0).
  QueryTrace();

  /// Opens a span starting now; returns its index. Close it with
  /// EndSpan. `parent` defaults to the root.
  int BeginSpan(const std::string& name, int parent = 0);
  void EndSpan(int index);

  /// Records a fully-formed span (used to graft the engine's own phase
  /// timings in as children of a compute span).
  int AddSpan(const std::string& name, double start_ms, double duration_ms,
              int parent);

  /// Milliseconds since the trace started — the same clock every span
  /// offset is measured on.
  double ElapsedMs() const { return timer_.ElapsedMs(); }

  /// Sets the root duration to `total_ms` (elapsed on the same clock as
  /// every span, since before the trace started) and tiles every parent
  /// that has children: a gap above 1e-6 ms becomes a trailing "other"
  /// child, and a rounding residue within 1e-6 ms of either sign folds
  /// into the last child. Call exactly once, at response-assembly time.
  void Finalize(double total_ms);

  const std::vector<TraceSpan>& spans() const { return spans_; }

 private:
  Timer timer_;
  std::vector<TraceSpan> spans_;
  bool finalized_ = false;
};

}  // namespace tsexplain

#endif  // TSEXPLAIN_SERVICE_TRACE_H_
