// Optimal selection of K via the elbow method (paper section 6).
//
// TSExplain collects D(n, K) for K = 1..20 (free by-products of the DP),
// normalizes the K-variance curve into the unit square, and picks the knee
// with the Kneedle criterion (Satopaa et al. [40]): flip the decreasing
// curve (y-hat = 1 - var-hat), form the difference curve d = y-hat - x-hat,
// and take K* = argmax d. The paper's shorthand "argmax[total_var(K) - K]"
// is this criterion read on the flipped, normalized curve (total_var ->
// y-hat, K -> x-hat), since the raw decreasing curve minus K peaks at K = 1.

#ifndef TSEXPLAIN_SEG_ELBOW_H_
#define TSEXPLAIN_SEG_ELBOW_H_

#include <vector>

namespace tsexplain {

/// User-perception cap on K (paper: "we constrain K to be at most 20").
inline constexpr int kMaxSegments = 20;

/// Selects the elbow K from a K-variance curve, where curve[k-1] is the
/// total variance at K = k. Infeasible entries (+infinity) are ignored;
/// they may only appear as a suffix... (length-capped curves) or prefix is
/// not expected. Returns K in [1, feasible_len]. A curve of length 1 or a
/// flat curve returns 1.
int SelectElbowK(const std::vector<double>& curve);

/// The normalized difference curve d(K) used by SelectElbowK (exposed for
/// tests and for the K-variance plots in the benches). d has one entry per
/// feasible K.
std::vector<double> KneedleDifferenceCurve(const std::vector<double>& curve);

}  // namespace tsexplain

#endif  // TSEXPLAIN_SEG_ELBOW_H_
