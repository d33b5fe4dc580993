// Explanation-based distance between two segments (paper Eq. 6, 8, 9) and
// the variance-metric taxonomy of section 4.2.2.
//
// Eight within-segment variance designs are evaluated in the paper:
//   tse      dist = 1 - (NDCG(Pi, E(Pj)) + NDCG(Pj, E(Pi))) / 2   (Eq. 6)
//   dist1    dist = 1 - NDCG(Pi, E(Pj))                            (Eq. 8)
//   dist2    dist = 1 - NDCG(Pj, E(Pi))                            (Eq. 9)
//   allpair  variance averages tse-dist over all object pairs      (Eq. 10)
//   Stse / Sdist1 / Sdist2 / Sallpair: the second term of the distance is
//   replaced by its l2-norm counterpart (quadratic mean of the two NDCGs
//   for tse/allpair, squared NDCG for dist1/dist2). This is our reading of
//   the paper's one-line description; it keeps every distance in [0, 1].
//
// In centroid-structured variances the first argument is the centroid and
// the second the object, matching the paper's wording for dist1/dist2.

#ifndef TSEXPLAIN_SEG_SEGMENT_DISTANCE_H_
#define TSEXPLAIN_SEG_SEGMENT_DISTANCE_H_

#include <vector>

#include "src/seg/ndcg.h"
#include "src/seg/segment_explainer.h"

namespace tsexplain {

/// The eight variance designs of section 4.2.2.
enum class VarianceMetric {
  kTse,
  kDist1,
  kDist2,
  kAllpair,
  kStse,
  kSdist1,
  kSdist2,
  kSallpair,
};

/// All eight metrics in the paper's listing order (used by Fig. 6).
inline constexpr VarianceMetric kAllVarianceMetrics[] = {
    VarianceMetric::kTse,   VarianceMetric::kDist1,
    VarianceMetric::kDist2, VarianceMetric::kAllpair,
    VarianceMetric::kStse,  VarianceMetric::kSdist1,
    VarianceMetric::kSdist2, VarianceMetric::kSallpair,
};

/// Human-readable metric name ("tse", "Sdist1", ...).
const char* VarianceMetricName(VarianceMetric metric);

/// Whether the variance structure compares all object pairs instead of
/// centroid-vs-object.
bool IsAllPairMetric(VarianceMetric metric);

/// Whether the NDCG term is replaced by its l2-norm counterpart.
bool IsSquaredMetric(VarianceMetric metric);

/// dist(centroid, object) in [0, 1] under `metric` (the allpair structures
/// reuse the tse/Stse pairwise distance). Scores both sides of each NDCG
/// per call (NdcgFromTops): the reference for the form below.
double SegmentDist(SegmentExplainer& explainer, VarianceMetric metric,
                   int centroid_a, int centroid_b, int object_a,
                   int object_b);

/// The variance table's hot path: both lists already in hand and scored on
/// their own segments (NdcgFromScored), so the per-call work is the scores
/// on the other side. Bit-identical to SegmentDist.
double SegmentDistFromScored(const SegmentExplainer& explainer,
                             VarianceMetric metric, const ScoredTop& centroid,
                             const ScoredTop& object,
                             const std::vector<double>& discounts);

}  // namespace tsexplain

#endif  // TSEXPLAIN_SEG_SEGMENT_DISTANCE_H_
