#include "src/seg/ndcg.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace tsexplain {

double Dcg(const std::vector<double>& rectified_relevance) {
  double dcg = 0.0;
  for (size_t r = 0; r < rectified_relevance.size(); ++r) {
    dcg += rectified_relevance[r] /
           std::log2(static_cast<double>(r) + 2.0);  // log2(rank + 1)
  }
  return dcg;
}

double NdcgFromTops(SegmentExplainer& explainer,
                    const TopExplanations& target_top, int target_a,
                    int target_b, const TopExplanations& source_top,
                    int source_a, int source_b) {
  // Ideal DCG: the target explained by its own ranked list (Eq. 4). The
  // rectifier is vacuous there (same segment on both sides).
  const double idcg = target_top.idcg;
  if (idcg <= kIdcgEps) return 1.0;  // flat target: trivially explained

  double dcg = 0.0;
  for (size_t r = 0; r < source_top.ids.size(); ++r) {
    const ExplId e = source_top.ids[r];
    const DiffScore on_target = explainer.Score(e, target_a, target_b);
    const DiffScore on_source = explainer.Score(e, source_a, source_b);
    // Rectified relevance (Table 2): zero when the change effect flips.
    const double rectified =
        on_target.tau == on_source.tau ? on_target.gamma : 0.0;
    dcg += rectified / std::log2(static_cast<double>(r) + 2.0);
  }
  return std::clamp(dcg / idcg, 0.0, 1.0);
}

void ScoreOwnTaus(const SegmentExplainer& explainer,
                  const TopExplanations& top, int a, int b,
                  std::vector<int>* taus) {
  taus->clear();
  for (const ExplId e : top.ids) taus->push_back(explainer.Score(e, a, b).tau);
}

std::vector<double> RankDiscounts(size_t count) {
  std::vector<double> discounts(count);
  for (size_t r = 0; r < count; ++r) {
    discounts[r] = std::log2(static_cast<double>(r) + 2.0);
  }
  return discounts;
}

double NdcgFromScored(const SegmentExplainer& explainer,
                      const ScoredTop& target, const ScoredTop& source,
                      const std::vector<double>& discounts) {
  const double idcg = target.top->idcg;
  if (idcg <= kIdcgEps) return 1.0;

  double dcg = 0.0;
  for (size_t r = 0; r < source.top->ids.size(); ++r) {
    const DiffScore on_target =
        explainer.Score(source.top->ids[r], target.a, target.b);
    const double rectified =
        on_target.tau == source.taus[r] ? on_target.gamma : 0.0;
    dcg += rectified / discounts[r];
  }
  return std::clamp(dcg / idcg, 0.0, 1.0);
}

double NdcgExplains(SegmentExplainer& explainer, int target_a, int target_b,
                    int source_a, int source_b) {
  const TopExplanations& target_top = explainer.TopFor(target_a, target_b);
  const TopExplanations& source_top = explainer.TopFor(source_a, source_b);
  return NdcgFromTops(explainer, target_top, target_a, target_b, source_top,
                      source_a, source_b);
}

}  // namespace tsexplain
