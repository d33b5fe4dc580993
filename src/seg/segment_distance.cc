#include "src/seg/segment_distance.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace tsexplain {

const char* VarianceMetricName(VarianceMetric metric) {
  switch (metric) {
    case VarianceMetric::kTse:
      return "tse";
    case VarianceMetric::kDist1:
      return "dist1";
    case VarianceMetric::kDist2:
      return "dist2";
    case VarianceMetric::kAllpair:
      return "allpair";
    case VarianceMetric::kStse:
      return "Stse";
    case VarianceMetric::kSdist1:
      return "Sdist1";
    case VarianceMetric::kSdist2:
      return "Sdist2";
    case VarianceMetric::kSallpair:
      return "Sallpair";
  }
  TSE_CHECK(false) << "unknown metric";
  return "";
}

bool IsAllPairMetric(VarianceMetric metric) {
  return metric == VarianceMetric::kAllpair ||
         metric == VarianceMetric::kSallpair;
}

bool IsSquaredMetric(VarianceMetric metric) {
  switch (metric) {
    case VarianceMetric::kStse:
    case VarianceMetric::kSdist1:
    case VarianceMetric::kSdist2:
    case VarianceMetric::kSallpair:
      return true;
    default:
      return false;
  }
}

namespace {

// dist(centroid, object) under `metric` from the NDCG in each direction,
// each evaluated only when the metric reads it:
// explains_centroid() = NDCG(centroid, E(object)) (Eq. 8) and
// explains_object() = NDCG(object, E(centroid)) (Eq. 9).
template <typename CentroidNdcg, typename ObjectNdcg>
double DistFromNdcgs(VarianceMetric metric,
                     const CentroidNdcg& explains_centroid,
                     const ObjectNdcg& explains_object) {
  const bool squared = IsSquaredMetric(metric);
  switch (metric) {
    case VarianceMetric::kTse:
    case VarianceMetric::kAllpair:
    case VarianceMetric::kStse:
    case VarianceMetric::kSallpair: {
      const double n1 = explains_centroid();
      const double n2 = explains_object();
      const double similarity =
          squared ? std::sqrt((n1 * n1 + n2 * n2) / 2.0) : (n1 + n2) / 2.0;
      return std::clamp(1.0 - similarity, 0.0, 1.0);
    }
    case VarianceMetric::kDist1:
    case VarianceMetric::kSdist1: {
      // How well the object's explanations explain the centroid (Eq. 8).
      const double n1 = explains_centroid();
      return std::clamp(1.0 - (squared ? n1 * n1 : n1), 0.0, 1.0);
    }
    case VarianceMetric::kDist2:
    case VarianceMetric::kSdist2: {
      // How well the centroid's explanations explain the object (Eq. 9).
      const double n2 = explains_object();
      return std::clamp(1.0 - (squared ? n2 * n2 : n2), 0.0, 1.0);
    }
  }
  TSE_CHECK(false) << "unknown metric";
  return 0.0;
}

}  // namespace

double SegmentDist(SegmentExplainer& explainer, VarianceMetric metric,
                   int centroid_a, int centroid_b, int object_a,
                   int object_b) {
  const TopExplanations& centroid_top =
      explainer.TopFor(centroid_a, centroid_b);
  const TopExplanations& object_top = explainer.TopFor(object_a, object_b);
  return DistFromNdcgs(
      metric,
      [&] {
        return NdcgFromTops(explainer, centroid_top, centroid_a, centroid_b,
                            object_top, object_a, object_b);
      },
      [&] {
        return NdcgFromTops(explainer, object_top, object_a, object_b,
                            centroid_top, centroid_a, centroid_b);
      });
}

double SegmentDistFromScored(const SegmentExplainer& explainer,
                             VarianceMetric metric, const ScoredTop& centroid,
                             const ScoredTop& object,
                             const std::vector<double>& discounts) {
  return DistFromNdcgs(
      metric,
      [&] { return NdcgFromScored(explainer, centroid, object, discounts); },
      [&] { return NdcgFromScored(explainer, object, centroid, discounts); });
}

}  // namespace tsexplain
