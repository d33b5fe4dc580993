#include "src/cube/support_filter.h"

#include <cmath>

#include "src/common/check.h"

namespace tsexplain {

std::vector<bool> ComputeSupportFilter(const ExplanationCube& cube,
                                       double ratio) {
  TSE_CHECK_GE(ratio, 0.0);
  const size_t n = cube.n();
  const size_t epsilon = cube.num_explanations();
  std::vector<bool> active(epsilon, false);
  // Time-major sweep (matching the cube's SoA layout): for each bucket the
  // per-candidate reads are contiguous, and the overall threshold is hoisted
  // out of the inner loop.
  for (size_t t = 0; t < n; ++t) {
    const double threshold = ratio * std::abs(cube.Overall(t));
    for (size_t e = 0; e < epsilon; ++e) {
      if (active[e]) continue;
      const double slice = std::abs(cube.SliceValue(static_cast<ExplId>(e), t));
      // A zero slice value carries no support even when the overall value is
      // also zero, so require a strictly positive slice.
      if (slice > 0.0 && slice >= threshold) active[e] = true;
    }
  }
  return active;
}

size_t CountActive(const std::vector<bool>& active) {
  size_t count = 0;
  for (bool b : active) {
    if (b) ++count;
  }
  return count;
}

std::vector<ExplId> ActiveIds(const std::vector<bool>& active) {
  std::vector<ExplId> ids;
  ids.reserve(CountActive(active));
  for (size_t e = 0; e < active.size(); ++e) {
    if (active[e]) ids.push_back(static_cast<ExplId>(e));
  }
  return ids;
}

}  // namespace tsexplain
