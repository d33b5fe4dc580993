// Precomputed weighted within-segment variances over a set of candidate
// cut positions.
//
// The table is generic over a sorted `positions` vector (always including
// the two endpoints of the series):
//  * Vanilla pipeline: positions = {0, 1, ..., n-1}; objects are the unit
//    segments [x, x+1] (paper section 4.1.1).
//  * Sketch phase I:   positions = all points but spans capped at L, so
//    only O(n*L) entries are materialized.
//  * Sketch phase II:  positions = the sketch. Candidate CUTS are sketch
//    points but the objects stay the fine unit segments, matching the
//    paper's module (c) complexity O(m |S|^2 n) and keeping the variance
//    semantics identical to vanilla (Table 7's <1% quality deltas depend
//    on this).
//
// Entry (i, j) stores |P| * var(P) for P = [positions[i], positions[j]],
// where var averages the distance from each unit object to the centroid P
// and the weight |P| = positions[j] - positions[i] is the object count.
// (All-pair metrics use the consecutive-position objects instead; they are
// only exercised at vanilla granularity, see Figure 6.)

#ifndef TSEXPLAIN_SEG_VARIANCE_TABLE_H_
#define TSEXPLAIN_SEG_VARIANCE_TABLE_H_

#include <limits>
#include <vector>

#include "src/seg/variance.h"

namespace tsexplain {

class VarianceTable {
 public:
  /// Computes all entries. `positions` must be sorted, unique, and span
  /// the series (front() == 0, back() == n-1). `max_span` restricts
  /// materialized segments to positions[j] - positions[i] <= max_span
  /// (-1 = unlimited). The distance/variance semantics (metric, m, filter)
  /// come from `calc`.
  ///
  /// `threads` > 1 parallelizes both metric families end to end: the
  /// distinct TopFor computations (O(M^2/2) centroids + O(n) units, or the
  /// M-1 coarse objects for all-pair metrics) are deduplicated and
  /// computed in chunks over the shared ThreadPool (SegmentExplainer::
  /// Prewarm), then the distance fills -- pure reads of the cube and the
  /// cached lists -- fan out across rows on the same pool.
  /// Results (including ca_invocations) are bit-identical to the
  /// sequential fill.
  static VarianceTable Compute(VarianceCalculator& calc,
                               const std::vector<int>& positions,
                               int max_span = -1, int threads = 1);

  /// Number of candidate positions M.
  size_t num_positions() const { return positions_.size(); }
  const std::vector<int>& positions() const { return positions_; }
  int max_span() const { return max_span_; }

  /// |P|var(P) for the segment between candidate indices i < j; +infinity
  /// when the segment exceeds max_span (never materialized).
  double WeightedVar(size_t i, size_t j) const;

  /// Largest candidate index j reachable from i within max_span.
  size_t MaxReachable(size_t i) const;

 private:
  VarianceTable() = default;

  std::vector<int> positions_;
  int max_span_ = -1;
  // rows_[i][j - i - 1] = weighted var of [positions[i], positions[j]].
  std::vector<std::vector<double>> rows_;
};

}  // namespace tsexplain

#endif  // TSEXPLAIN_SEG_VARIANCE_TABLE_H_
