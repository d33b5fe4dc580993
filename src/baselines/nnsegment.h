// NNSegment: the nearest-neighbor segmentation used inside LimeSegment
// (Sivill & Flach, AISTATS 2022), reimplemented as an explanation-agnostic
// baseline.
//
// Like FLUSS it reasons about nearest-neighbor arcs over sliding windows,
// but it scores each candidate changepoint by the raw fraction of
// cross-boundary nearest neighbors (no idealized-parabola correction) and
// uses a plain window-sized exclusion zone. It substitutes for the authors'
// reference code, which is not available offline, and keeps the defining
// NN-consistency behaviour and the swept window-size parameter.

#ifndef TSEXPLAIN_BASELINES_NNSEGMENT_H_
#define TSEXPLAIN_BASELINES_NNSEGMENT_H_

#include <vector>

#include "src/baselines/matrix_profile.h"

namespace tsexplain {

/// Cross-boundary score per candidate position: score[i] = (number of
/// windows whose NN lies on the opposite side of i) / (number of windows),
/// edges pinned to 1. Lower = stronger changepoint evidence.
std::vector<double> NnCrossScore(const std::vector<double>& values, int w);

/// Full NNSegment segmentation: cut positions (point indices) including 0
/// and n-1, with up to (k - 1) interior boundaries.
std::vector<int> NnSegment(const std::vector<double>& values, int k, int w);

}  // namespace tsexplain

#endif  // TSEXPLAIN_BASELINES_NNSEGMENT_H_
