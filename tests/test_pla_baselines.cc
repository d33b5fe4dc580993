// Tests for the piecewise-linear segmentation baselines: Bottom-Up (Keogh
// survey) and the optimal-PLA ablation.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/baselines/bottom_up.h"
#include "src/baselines/optimal_pla.h"
#include "src/common/rng.h"

namespace tsexplain {
namespace {

// Piecewise-linear series with breakpoints at 30 and 70 (n = 100).
std::vector<double> ThreePieceSeries(double noise_sigma, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(100);
  double level = 10.0;
  for (int t = 1; t < 100; ++t) {
    const double slope = t <= 30 ? 3.0 : (t <= 70 ? -2.0 : 5.0);
    level += slope;
    v[static_cast<size_t>(t)] = level + rng.Gaussian(0.0, noise_sigma);
  }
  v[0] = 10.0;
  return v;
}

void ExpectValidScheme(const std::vector<int>& cuts, int n, int k) {
  ASSERT_GE(cuts.size(), 2u);
  EXPECT_EQ(cuts.front(), 0);
  EXPECT_EQ(cuts.back(), n - 1);
  EXPECT_TRUE(std::is_sorted(cuts.begin(), cuts.end()));
  EXPECT_EQ(static_cast<int>(cuts.size()) - 1, k);
}

int NearestDistance(const std::vector<int>& cuts, int target) {
  int best = 1 << 30;
  for (int c : cuts) best = std::min(best, std::abs(c - target));
  return best;
}

TEST(BottomUp, RecoversCleanBreakpoints) {
  const std::vector<double> v = ThreePieceSeries(0.0, 1);
  const std::vector<int> cuts = BottomUpSegment(v, 3);
  ExpectValidScheme(cuts, 100, 3);
  EXPECT_LE(NearestDistance(cuts, 30), 1);
  EXPECT_LE(NearestDistance(cuts, 70), 1);
}

TEST(BottomUp, ToleratesModerateNoise) {
  const std::vector<double> v = ThreePieceSeries(2.0, 3);
  const std::vector<int> cuts = BottomUpSegment(v, 3);
  EXPECT_LE(NearestDistance(cuts, 30), 5);
  EXPECT_LE(NearestDistance(cuts, 70), 5);
}

TEST(BottomUp, KOneAndKHuge) {
  const std::vector<double> v = ThreePieceSeries(1.0, 5);
  EXPECT_EQ(BottomUpSegment(v, 1), (std::vector<int>{0, 99}));
  // k >= n-1 degenerates to the finest segmentation.
  EXPECT_EQ(BottomUpSegment(v, 1000).size(), 100u);
}

TEST(AllBaselines, HandleShortSeries) {
  const std::vector<double> v{1.0, 5.0, 2.0};
  EXPECT_EQ(BottomUpSegment(v, 2).size(), 3u);
}

// --- optimal PLA ---------------------------------------------------------

std::vector<double> PiecewiseLinear(uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(60);
  double level = 0.0;
  for (int t = 1; t < 60; ++t) {
    const double slope = t <= 20 ? 2.0 : (t <= 40 ? -1.5 : 3.0);
    level += slope;
    v[static_cast<size_t>(t)] = level + rng.Gaussian(0.0, 0.2);
  }
  return v;
}

TEST(OptimalPla, FindsExactBreakpointsOnCleanData) {
  std::vector<double> v(60);
  double level = 0.0;
  for (int t = 1; t < 60; ++t) {
    level += t <= 20 ? 2.0 : (t <= 40 ? -1.5 : 3.0);
    v[static_cast<size_t>(t)] = level;
  }
  EXPECT_EQ(OptimalPlaSegment(v, 3), (std::vector<int>{0, 20, 40, 59}));
}

TEST(OptimalPla, NeverWorseThanBottomUp) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const std::vector<double> v = PiecewiseLinear(seed);
    for (int k : {2, 3, 5}) {
      const double optimal = PlaTotalSse(v, OptimalPlaSegment(v, k));
      const double greedy = PlaTotalSse(v, BottomUpSegment(v, k));
      EXPECT_LE(optimal, greedy + 1e-9) << "seed " << seed << " k " << k;
    }
  }
}

TEST(OptimalPla, MoreSegmentsNeverIncreaseError) {
  const std::vector<double> v = PiecewiseLinear(4);
  double prev = PlaTotalSse(v, OptimalPlaSegment(v, 1));
  for (int k = 2; k <= 8; ++k) {
    const double current = PlaTotalSse(v, OptimalPlaSegment(v, k));
    EXPECT_LE(current, prev + 1e-9);
    prev = current;
  }
}

TEST(OptimalPla, ClampsOversizedK) {
  const std::vector<double> v{1.0, 2.0, 7.0, 3.0};
  EXPECT_EQ(OptimalPlaSegment(v, 99).size(), 4u);  // n-1 = 3 segments
}

}  // namespace
}  // namespace tsexplain
