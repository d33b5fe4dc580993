// Reproduces paper Table 6: real-world dataset statistics -- candidate
// explanation count (epsilon), count after the support filter, and the
// time-series length n.
//
//   paper:  total-confirmed-cases   58 /   54 / 345
//           daily-confirmed-cases   58 /   55 / 345
//           S&P 500                610 /  329 / 151
//           Liquor                8197 / 1812 / 128

#include <cstdio>

#include "bench_util.h"
#include "src/common/timer.h"
#include "src/cube/canonical_mask.h"
#include "src/cube/support_filter.h"

namespace tsexplain {
namespace {

void Run() {
  bench::PrintHeader("Table 6: real-world dataset statistics");
  Timer timer;
  std::printf("\n  %-26s %10s %12s %6s\n", "dataset", "epsilon",
              "filtered", "n");

  for (bench::Workload& w : bench::AllWorkloads()) {
    std::vector<AttrId> attrs;
    for (const std::string& name : w.config.explain_by_names) {
      attrs.push_back(w.table->schema().DimensionIndex(name));
    }
    const auto registry =
        ExplanationRegistry::Build(*w.table, attrs, w.config.max_order);
    const int measure_idx =
        w.table->schema().MeasureIndex(w.config.measure);
    ExplanationCube cube(*w.table, registry, AggregateFunction::kSum,
                         measure_idx);
    if (w.config.smooth_window > 1) {
      cube.SmoothInPlace(w.config.smooth_window);
    }
    const auto canonical = ComputeCanonicalMask(cube, registry);
    const auto filtered =
        AndMasks(canonical, ComputeSupportFilter(cube));
    std::printf("  %-26s %10zu %12zu %6zu\n", w.name.c_str(),
                CountActive(canonical), CountActive(filtered), cube.n());
  }
  std::printf("\n  (epsilon counts hierarchy-deduped candidate cells, as "
              "the paper's Table 6 does)\n");
  std::printf("  total time: %s\n",
              bench::FormatMs(timer.ElapsedMs()).c_str());
}

}  // namespace
}  // namespace tsexplain

int main() {
  tsexplain::Run();
  return 0;
}
