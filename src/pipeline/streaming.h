// Real-time / streaming extension (paper section 8).
//
// "TSExplain first gives users the segmentation results of existing time
// series and meanwhile caches all unit segments' top explanations. When new
// data arrives, it incrementally computes the top explanations for the new
// time series, runs the segmentation algorithm based on the existing time
// series' cutting points and newly arrived data points, and updates the
// segmentation results."
//
// StreamingTSExplain is a thin owner around one TSExplain engine: it owns
// the growing table, lets the engine absorb each appended bucket
// (TSExplain::AppendBucket keeps the cached explanations of old segments,
// whose endpoint partials never change), and applies the section 8
// candidate policy. The first Explain() is the engine's full Run(spec);
// later calls restrict the cut candidates to { previous cuts } + { points
// appended since the last run }, making each refresh cheap instead of
// O(n^3) wide. When the engine cannot absorb a bucket (a never-seen cell,
// or smoothing on), the session builds a fresh engine over its table. Either
// way the engine is exactly what a fresh TSExplain over the grown table
// would be, so a session answers every question the way the batch pipeline
// does (tests/test_streaming.cc checks this after every append).

#ifndef TSEXPLAIN_PIPELINE_STREAMING_H_
#define TSEXPLAIN_PIPELINE_STREAMING_H_

#include <memory>
#include <string>
#include <vector>

#include "src/pipeline/tsexplain.h"

namespace tsexplain {

/// One incoming record: explain-by dimension values (aligned with the
/// table's dimension columns) + measures (aligned with measure columns).
struct StreamRow {
  std::vector<std::string> dims;
  std::vector<double> measures;
};

/// Incremental TSExplain over an internally owned, growing Table.
///
/// Thread safety: NONE here by design — every method mutates the owned
/// table / engine, and the owner must serialize all calls externally. In
/// the service, that owner is ExplainService::Session, whose `engine`
/// field is TSE_GUARDED_BY(Session::mu); standalone users (CLI, benches,
/// tests) drive one instance from one thread.
class StreamingTSExplain {
 public:
  /// Copies `initial` (at least three time buckets) into the internal
  /// table and builds the engine. Sketch (O2) applies to the first full
  /// run only; incremental runs already restrict the candidates.
  StreamingTSExplain(const Table& initial, TSExplainConfig config);

  /// Appends one new time bucket with its rows.
  void AppendBucket(const std::string& label,
                    const std::vector<StreamRow>& rows);

  /// Full run on the first call; incremental runs afterwards.
  /// `threads_override` > 0 replaces the config's thread count for this
  /// run (the service's adaptive grants use it); results are
  /// bit-identical at any thread count.
  TSExplainResult Explain(int threads_override = 0);

  /// The cut candidates the next Explain() runs module (c) over: the
  /// previous run's cuts plus every point appended since (section 8).
  /// Empty before the first Explain(), which is a full run.
  std::vector<int> IncrementalCandidates() const;

  /// Number of time buckets currently covered.
  int n() const { return static_cast<int>(table_->num_time_buckets()); }

  /// The live cube (overall/slice series for report serialization; see
  /// report_json.h's cube-level RenderJsonReport overload).
  const ExplanationCube& cube() const { return engine_->cube(); }

  /// The internally owned, growing table (schema lookups for appends).
  const Table& table() const { return *table_; }

  /// The engine over table(); replaced when an append forces a rebuild.
  TSExplain& engine() { return *engine_; }

  /// Whether the last AppendBucket forced a full rebuild (new cells).
  bool last_append_rebuilt() const { return last_append_rebuilt_; }

 private:
  std::unique_ptr<Table> table_;
  TSExplainConfig config_;
  std::unique_ptr<TSExplain> engine_;

  std::vector<int> last_cuts_;  // empty until the first Explain()
  int last_n_ = 0;
  bool last_append_rebuilt_ = false;
};

}  // namespace tsexplain

#endif  // TSEXPLAIN_PIPELINE_STREAMING_H_
