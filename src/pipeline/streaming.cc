#include "src/pipeline/streaming.h"

#include <algorithm>

#include "src/common/metrics.h"
#include "src/common/timer.h"

namespace tsexplain {

namespace {

// Per-append latency (docs/OBSERVABILITY.md). Covers both the
// incremental path and the fall-back full rebuild, so the histogram's
// tail is where rebuild storms show up.
Histogram& AppendBucketMs() {
  static Histogram& histogram =
      MetricRegistry::Global().GetHistogram("streaming.append_bucket_ms");
  return histogram;
}

}  // namespace

StreamingTSExplain::StreamingTSExplain(const Table& initial,
                                       TSExplainConfig config)
    : table_(std::make_unique<Table>(initial)),
      config_(std::move(config)),
      engine_(std::make_unique<TSExplain>(*table_, config_)) {}

void StreamingTSExplain::AppendBucket(const std::string& label,
                                      const std::vector<StreamRow>& rows) {
  Timer append_timer;
  const TimeId t = table_->AddTimeBucket(label);
  for (const StreamRow& row : rows) {
    table_->AppendRow(t, row.dims, row.measures);
  }
  last_append_rebuilt_ = !engine_->AppendBucket();
  if (last_append_rebuilt_) {
    // Free the old engine first so two never coexist at peak memory.
    engine_.reset();
    engine_ = std::make_unique<TSExplain>(*table_, config_);
  }
  AppendBucketMs().Observe(append_timer.ElapsedMs());
}

std::vector<int> StreamingTSExplain::IncrementalCandidates() const {
  if (last_cuts_.empty()) return {};
  const int num_points = n();
  std::vector<int> positions = last_cuts_;
  for (int p = std::max(1, last_n_ - 1); p < num_points; ++p) {
    positions.push_back(p);
  }
  positions.push_back(0);
  positions.push_back(num_points - 1);
  std::sort(positions.begin(), positions.end());
  positions.erase(std::unique(positions.begin(), positions.end()),
                  positions.end());
  return positions;
}

TSExplainResult StreamingTSExplain::Explain(int threads_override) {
  SegmentationSpec spec = SegmentationSpec::FromConfig(config_);
  if (threads_override > 0) spec.threads = threads_override;
  TSExplainResult result = engine_->Run(spec, IncrementalCandidates());
  last_cuts_ = result.segmentation.cuts;
  last_n_ = n();
  return result;
}

}  // namespace tsexplain
