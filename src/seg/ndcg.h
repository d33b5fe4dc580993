// NDCG-based "how well does E*_m(P_j) explain P_i" (paper section 4.1.3).
//
// The segment P_i plays the role of the query, the ranked explanation list
// E*_m(P_j) the retrieved documents, and the rectified relevance
//   gamma-bar(E^r_j, P_i) = gamma(E^r_j, P_i) * 1[tau(E^r_j, P_j) ==
//                                                tau(E^r_j, P_i)]
// (Table 2) zeroes out explanations whose change effect flips between the
// two segments. DCG discounts by log2(rank + 1) (Eq. 3); the ideal DCG is
// P_i explained by its own list (Eq. 4, no rectification applies); NDCG is
// their ratio (Eq. 5), clamped into [0, 1].

#ifndef TSEXPLAIN_SEG_NDCG_H_
#define TSEXPLAIN_SEG_NDCG_H_

#include <vector>

#include "src/seg/segment_explainer.h"

namespace tsexplain {

/// DCG of a ranked list of rectified relevances (Eq. 3): relevance[r] is
/// gamma-bar of the rank-(r+1) explanation.
double Dcg(const std::vector<double>& rectified_relevance);

/// Ideal DCG threshold below which a segment is considered unexplainable
/// (totally flat); such segments define NDCG = 1, since there is nothing
/// to explain and 0/0 would otherwise poison the distances.
inline constexpr double kIdcgEps = 1e-12;

/// NDCG(P_target, E*_m(P_source)): how well the source segment's top
/// explanations explain the target segment. Both segments are [a, b] index
/// pairs into the explainer's time domain. Result is in [0, 1].
double NdcgExplains(SegmentExplainer& explainer, int target_a, int target_b,
                    int source_a, int source_b);

/// Same computation with the two cached explanation lists already in hand
/// (avoids repeated cache lookups and reuses the precomputed ideal DCG).
/// Scores both sides per rank: the reference the hoisted form below must
/// match bit for bit.
double NdcgFromTops(SegmentExplainer& explainer,
                    const TopExplanations& target_top, int target_a,
                    int target_b, const TopExplanations& source_top,
                    int source_a, int source_b);

/// A segment [a, b] with its cached list and, for each listed explanation
/// in rank order, its change effect on [a, b] itself: everything NDCG reads
/// from its source side. The variance table scores each list once
/// (ScoreOwnTaus) instead of once per distance.
struct ScoredTop {
  const TopExplanations* top = nullptr;
  int a = 0;
  int b = 0;
  const int* taus = nullptr;  // tau(top->ids[r], [a, b])
};

/// Writes tau(e, [a, b]) for each e in top.ids, in rank order.
void ScoreOwnTaus(const SegmentExplainer& explainer,
                  const TopExplanations& top, int a, int b,
                  std::vector<int>* taus);

/// log2(r + 2) for ranks r = 0..count-1, Eq. 3's discounts, filled by the
/// same libm call NdcgFromTops makes per rank.
std::vector<double> RankDiscounts(size_t count);

/// NdcgFromTops with the source side already scored and the discounts
/// tabled (`discounts` covers the source list). It sums the same doubles
/// in the same order, so the result is bit-identical.
double NdcgFromScored(const SegmentExplainer& explainer,
                      const ScoredTop& target, const ScoredTop& source,
                      const std::vector<double>& discounts);

}  // namespace tsexplain

#endif  // TSEXPLAIN_SEG_NDCG_H_
