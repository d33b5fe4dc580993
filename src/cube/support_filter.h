// Support filter (paper section 7.5.1, the "w filter" optimization).
//
// "Given an explanation E, if each point in its aggregated time series has
// value smaller than a ratio of the corresponding value in the overall
// aggregated time series, we filter this explanation as its support is low
// and thus insignificant." Default ratio 0.001.

#ifndef TSEXPLAIN_CUBE_SUPPORT_FILTER_H_
#define TSEXPLAIN_CUBE_SUPPORT_FILTER_H_

#include <cstddef>
#include <vector>

#include "src/cube/explanation_cube.h"

namespace tsexplain {

inline constexpr double kDefaultFilterRatio = 0.001;

/// active[e] == true iff explanation e survives the filter, i.e. at least
/// one time bucket has |slice value| >= ratio * |overall value|.
std::vector<bool> ComputeSupportFilter(const ExplanationCube& cube,
                                       double ratio = kDefaultFilterRatio);

/// Number of `true` entries (the paper's "filtered epsilon").
size_t CountActive(const std::vector<bool>& active);

/// The ids of the `true` entries, ascending: the list modules (a) and (b)
/// walk instead of testing every entry.
std::vector<ExplId> ActiveIds(const std::vector<bool>& active);

}  // namespace tsexplain

#endif  // TSEXPLAIN_CUBE_SUPPORT_FILTER_H_
