// Liquor drill-down example: multi-attribute conjunction explanations
// (order up to 3) over a transaction-style relation, demonstrating the
// support filter, guess-and-verify, and sketching on an epsilon-heavy
// workload -- plus an interactive-style "explain this period" query using
// the two-relations diff building block directly.

#include <cstdio>

#include "src/datagen/liquor_sim.h"
#include "src/pipeline/tsexplain.h"

using namespace tsexplain;

int main() {
  const auto table = MakeLiquorTable();
  std::printf("Liquor relation: %zu rows over %zu business days\n",
              table->num_rows(), table->num_time_buckets());

  TSExplainConfig config;
  config.measure = "bottles_sold";
  config.explain_by_names = {"BV", "P", "CN", "VN"};
  config.max_order = 3;  // conjunctions like BV=1750 & P=6
  config.smooth_window = 5;
  config.use_filter = true;        // drop <0.1%-support slices
  config.use_guess_verify = true;  // O1
  config.use_sketch = true;        // O2

  TSExplain engine(*table, config);
  const TSExplainResult result = engine.Run();

  std::printf("candidate explanations: %zu (%zu after support filter)\n",
              result.epsilon, result.filtered_epsilon);
  // Cold pipeline latency: the engine's construction plus its first run.
  // The run is single-threaded, so segmentation is the run's time outside
  // the explainer's scoring and CA timers.
  const TimingBreakdown& timing = result.timing;
  std::printf("chosen K* = %d; pipeline latency %.0f ms "
              "(precompute %.0f / CA %.0f / segmentation %.0f)\n\n",
              result.chosen_k, engine.build_ms() + timing.total_ms,
              engine.build_ms() + timing.score_cpu_ms, timing.ca_cpu_ms,
              timing.total_ms - timing.score_cpu_ms - timing.ca_cpu_ms);

  for (const SegmentExplanation& seg : result.segments) {
    std::printf("%s .. %s\n", seg.begin_label.c_str(), seg.end_label.c_str());
    for (const auto& item : seg.top) {
      std::printf("    %s\n", item.ToString().c_str());
    }
  }

  // Ad-hoc "why" query on a user-chosen window (two-relations diff on the
  // endpoints, section 3.1): the March closure.
  std::printf("\nad-hoc: what changed between day 45 (3/6) and day 62 "
              "(3/31)?\n");
  for (const auto& item : engine.ExplainSegment(45, 62)) {
    std::printf("    %-30s gamma=%9.0f\n", item.ToString().c_str(),
                item.gamma);
  }
  return 0;
}
