// Reproduces paper Figure 15: TSExplain latency breakdown (precomputation
// / cascading analysts / K-segmentation) under the optimization presets
// Vanilla, w-filter, O1, O2, O1+O2, for all four real-world datasets. K is
// unspecified (elbow selection included, as in the paper).
//
// Expected shape: filtering matters little for Covid (epsilon barely
// shrinks) but a lot for S&P 500 / Liquor; O2 (sketching) dominates when n
// is large (Covid); O1 (guess-and-verify) dominates when epsilon is large
// (Liquor); O1+O2 is fastest overall. Absolute numbers differ from the
// paper's M1 laptop.

#include <cstdio>

#include "bench_util.h"
#include "src/common/timer.h"

namespace tsexplain {
namespace {

void Run() {
  bench::PrintHeader("Figure 15: latency breakdown per optimization preset");

  for (bench::Workload& w : bench::AllWorkloads()) {
    bench::PrintSubHeader(w.name);
    std::printf("  %-10s %14s %14s %14s %14s\n", "preset", "precompute",
                "cascading", "segmentation", "TOTAL");
    double vanilla_total = 0.0, best_total = 1e18;
    for (bench::OptPreset preset : bench::kAllPresets) {
      TSExplainConfig config = w.config;
      bench::ApplyPreset(preset, &config);
      // One thread, as the paper measures: the explainer's module (a) and
      // (b) timers then lie inside the run, and module (c) is the rest.
      config.threads = 1;
      Timer timer;
      TSExplain engine(*w.table, config);
      const TSExplainResult result = engine.Run();
      const double wall = timer.ElapsedMs();
      const TimingBreakdown& timing = result.timing;
      // A cold query: precomputation covers the engine's construction
      // (registry + cube + masks) plus this run's gamma scoring.
      const double precompute_ms = engine.build_ms() + timing.score_cpu_ms;
      const double segmentation_ms =
          timing.total_ms - timing.score_cpu_ms - timing.ca_cpu_ms;
      const double total_ms = engine.build_ms() + timing.total_ms;
      std::printf("  %-10s %s %s %s %s  (wall %s)\n",
                  bench::PresetName(preset),
                  bench::FormatMs(precompute_ms).c_str(),
                  bench::FormatMs(timing.ca_cpu_ms).c_str(),
                  bench::FormatMs(segmentation_ms).c_str(),
                  bench::FormatMs(total_ms).c_str(),
                  bench::FormatMs(wall).c_str());
      bench::EmitResult("fig15." + bench::ResultSlug(w.name) + "." +
                            bench::ResultSlug(bench::PresetName(preset)),
                        total_ms);
      if (preset == bench::OptPreset::kVanilla) vanilla_total = total_ms;
      best_total = std::min(best_total, total_ms);
    }
    std::printf("  speedup Vanilla -> best preset: %.1fx\n",
                vanilla_total / best_total);
  }
}

}  // namespace
}  // namespace tsexplain

int main() {
  tsexplain::Run();
  return 0;
}
