// Coverage for the parallel, cache-friendly explanation core:
//  * parallel cube build (time-partitioned scan) is bit-identical to the
//    serial scan at any thread count,
//  * ExplanationCube::ScoreAll equals the scalar Score per candidate,
//  * the chunked TopFor pre-warm (deduplicated missing segments computed
//    over at most `threads` chunks, each with its own solver) yields
//    bit-identical results AND deterministic ca_invocations between
//    threads=1 and threads=8,
//  * Prewarm with duplicate segments computes each segment exactly once.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "src/datagen/synthetic.h"
#include "src/pipeline/tsexplain.h"

namespace tsexplain {
namespace {

SyntheticDataset MakeDataset(uint64_t seed, int length = 120,
                             int categories = 4) {
  SyntheticConfig config;
  config.length = length;
  config.num_categories = categories;
  config.snr_db = 30.0;
  config.num_interior_cuts = 4;
  config.seed = seed;
  return GenerateSynthetic(config);
}

TSExplainConfig BaseConfig(int threads) {
  TSExplainConfig config;
  config.measure = "value";
  config.explain_by_names = {"category"};
  config.max_order = 1;
  config.threads = threads;
  return config;
}

// --- Parallel cube build ---------------------------------------------------

TEST(ParallelCore, CubeBuildBitIdenticalAcrossThreadCounts) {
  // 300 x 16 = 4800 rows: above the parallel-scan threshold.
  const SyntheticDataset ds = MakeDataset(11, /*length=*/300,
                                          /*categories=*/16);
  const ExplanationRegistry registry =
      ExplanationRegistry::Build(*ds.table, {0}, 1);
  for (const AggregateFunction f :
       {AggregateFunction::kSum, AggregateFunction::kAvg,
        AggregateFunction::kCount}) {
    const int measure_idx = f == AggregateFunction::kCount ? -1 : 0;
    const ExplanationCube serial(*ds.table, registry, f, measure_idx,
                                 /*threads=*/1);
    const ExplanationCube parallel(*ds.table, registry, f, measure_idx,
                                   /*threads=*/8);
    ASSERT_EQ(serial.n(), parallel.n());
    ASSERT_EQ(serial.num_explanations(), parallel.num_explanations());
    for (size_t t = 0; t < serial.n(); ++t) {
      EXPECT_EQ(serial.Overall(t), parallel.Overall(t));  // bitwise
      for (size_t e = 0; e < serial.num_explanations(); ++e) {
        EXPECT_EQ(serial.SliceValue(static_cast<ExplId>(e), t),
                  parallel.SliceValue(static_cast<ExplId>(e), t));
      }
    }
  }
}

TEST(ParallelCore, SmoothedParallelCubeBitIdentical) {
  const SyntheticDataset ds = MakeDataset(13, /*length=*/300,
                                          /*categories=*/16);
  const ExplanationRegistry registry =
      ExplanationRegistry::Build(*ds.table, {0}, 1);
  ExplanationCube serial(*ds.table, registry, AggregateFunction::kSum, 0, 1);
  ExplanationCube parallel(*ds.table, registry, AggregateFunction::kSum, 0,
                           8);
  serial.SmoothInPlace(7);
  parallel.SmoothInPlace(7);
  for (size_t t = 0; t < serial.n(); ++t) {
    EXPECT_EQ(serial.Overall(t), parallel.Overall(t));
    for (size_t e = 0; e < serial.num_explanations(); ++e) {
      EXPECT_EQ(serial.SliceValue(static_cast<ExplId>(e), t),
                parallel.SliceValue(static_cast<ExplId>(e), t));
    }
  }
}

// --- Batch scoring ---------------------------------------------------------

TEST(ParallelCore, ScoreAllMatchesScalarScore) {
  const SyntheticDataset ds = MakeDataset(17);
  const ExplanationRegistry registry =
      ExplanationRegistry::Build(*ds.table, {0}, 1);
  const ExplanationCube cube(*ds.table, registry, AggregateFunction::kSum,
                             0);
  const size_t epsilon = cube.num_explanations();
  // Alternating mask exercises the inactive-cell zeroing.
  std::vector<bool> mask(epsilon);
  for (size_t e = 0; e < epsilon; ++e) mask[e] = (e % 2 == 0);

  std::vector<double> gammas(epsilon, -1.0);
  for (const DiffMetricKind kind :
       {DiffMetricKind::kAbsoluteChange, DiffMetricKind::kRelativeChange,
        DiffMetricKind::kRiskRatio}) {
    for (const auto& [a, b] : std::vector<std::pair<size_t, size_t>>{
             {0, cube.n() - 1}, {3, 40}, {57, 58}}) {
      cube.ScoreAll(kind, a, b, nullptr, &gammas);
      for (size_t e = 0; e < epsilon; ++e) {
        EXPECT_EQ(gammas[e],
                  cube.Score(kind, static_cast<ExplId>(e), a, b).gamma)
            << "kind=" << static_cast<int>(kind) << " e=" << e;
      }
      cube.ScoreAll(kind, a, b, &mask, &gammas);
      for (size_t e = 0; e < epsilon; ++e) {
        const double expected =
            mask[e] ? cube.Score(kind, static_cast<ExplId>(e), a, b).gamma
                    : 0.0;
        EXPECT_EQ(gammas[e], expected);
      }
    }
  }
}

// --- Concurrent TopFor pre-warm -------------------------------------------

void ExpectIdenticalResults(const TSExplainResult& a,
                            const TSExplainResult& b) {
  EXPECT_EQ(a.segmentation.cuts, b.segmentation.cuts);
  EXPECT_EQ(a.chosen_k, b.chosen_k);
  EXPECT_EQ(a.k_variance_curve, b.k_variance_curve);
  ASSERT_EQ(a.segments.size(), b.segments.size());
  for (size_t s = 0; s < a.segments.size(); ++s) {
    EXPECT_EQ(a.segments[s].variance, b.segments[s].variance);
    ASSERT_EQ(a.segments[s].top.size(), b.segments[s].top.size());
    for (size_t r = 0; r < a.segments[s].top.size(); ++r) {
      EXPECT_EQ(a.segments[s].top[r].id, b.segments[s].top[r].id);
      EXPECT_EQ(a.segments[s].top[r].gamma, b.segments[s].top[r].gamma);
      EXPECT_EQ(a.segments[s].top[r].tau, b.segments[s].top[r].tau);
    }
  }
}

TEST(ParallelCore, PrewarmedPipelineBitIdenticalAndCaCountDeterministic) {
  const SyntheticDataset ds = MakeDataset(29);
  TSExplain single(*ds.table, BaseConfig(1));
  TSExplain multi(*ds.table, BaseConfig(8));
  ExpectIdenticalResults(single.Run(), multi.Run());
  // Pre-warm dedup: the number of CA invocations (cache misses) must not
  // depend on the thread count.
  EXPECT_EQ(single.explainer().ca_invocations(),
            multi.explainer().ca_invocations());
  EXPECT_EQ(single.explainer().cache_size(),
            multi.explainer().cache_size());
}

TEST(ParallelCore, OptimizedPrewarmedPipelineDeterministic) {
  const SyntheticDataset ds = MakeDataset(31, /*length=*/200);
  TSExplainConfig one = BaseConfig(1);
  TSExplainConfig eight = BaseConfig(8);
  for (TSExplainConfig* config : {&one, &eight}) {
    config->use_filter = true;
    config->use_guess_verify = true;
    config->use_sketch = true;
  }
  TSExplain single(*ds.table, one);
  TSExplain multi(*ds.table, eight);
  ExpectIdenticalResults(single.Run(), multi.Run());
  EXPECT_EQ(single.explainer().ca_invocations(),
            multi.explainer().ca_invocations());
}

TEST(ParallelCore, PrewarmDuplicatesComputeOnce) {
  const SyntheticDataset ds = MakeDataset(37);
  TSExplain engine(*ds.table, BaseConfig(8));
  SegmentExplainer& explainer = engine.explainer();
  std::vector<std::pair<int, int>> segments;
  for (int rep = 0; rep < 4; ++rep) {
    for (int x = 0; x + 1 < 60; ++x) segments.emplace_back(x, x + 1);
  }
  explainer.Prewarm(segments, 8);
  EXPECT_EQ(explainer.ca_invocations(), 59u);
  EXPECT_EQ(explainer.cache_size(), 59u);
  // Re-warming is free: everything is a cache hit.
  explainer.Prewarm(segments, 8);
  EXPECT_EQ(explainer.ca_invocations(), 59u);
}

// The timing breakdown is a non-negative partition of the run's wall
// clock BY CONSTRUCTION — even when the shared explainer counters were
// advanced by other threads (concurrent Prewarm) or exceed wall clock
// (per-thread elapsed sums at threads > 1). The old clamp-module-(c)
// scheme hid a negative remainder while reporting sum(modules) > total.
TEST(ParallelCore, TimingPartitionIsNonNegativeAndBounded) {
  // Deltas that overshoot the wall clock (double attribution) scale down.
  TimingBreakdown overshoot =
      TimingBreakdown::Partition(/*precompute=*/80.0, /*cascading=*/40.0,
                                 /*wall_ms=*/60.0);
  EXPECT_GE(overshoot.precompute_ms, 0.0);
  EXPECT_GE(overshoot.cascading_ms, 0.0);
  EXPECT_GE(overshoot.segmentation_ms, 0.0);
  EXPECT_NEAR(overshoot.TotalMs(), 60.0, 1e-9);
  EXPECT_NEAR(overshoot.total_ms, 60.0, 1e-9);
  // Proportional split: 80:40 over 60 ms of wall clock.
  EXPECT_NEAR(overshoot.precompute_ms, 40.0, 1e-9);
  EXPECT_NEAR(overshoot.cascading_ms, 20.0, 1e-9);
  EXPECT_NEAR(overshoot.segmentation_ms, 0.0, 1e-9);

  // Well-behaved deltas pass through; (c) is the exact remainder.
  TimingBreakdown normal = TimingBreakdown::Partition(10.0, 20.0, 100.0);
  EXPECT_NEAR(normal.precompute_ms, 10.0, 1e-9);
  EXPECT_NEAR(normal.cascading_ms, 20.0, 1e-9);
  EXPECT_NEAR(normal.segmentation_ms, 70.0, 1e-9);
  EXPECT_NEAR(normal.total_ms, 100.0, 1e-9);

  // Hostile inputs (negative deltas / negative wall) stay non-negative.
  TimingBreakdown hostile = TimingBreakdown::Partition(-1.0, 5.0, -3.0);
  EXPECT_GE(hostile.precompute_ms, 0.0);
  EXPECT_GE(hostile.cascading_ms, 0.0);
  EXPECT_GE(hostile.segmentation_ms, 0.0);
  EXPECT_NEAR(hostile.TotalMs(), 0.0, 1e-9);
  EXPECT_NEAR(hostile.total_ms, 0.0, 1e-9);
}

TEST(ParallelCore, RunTimingAtEightThreadsSumsWithinTotal) {
  SyntheticDataset ds = MakeDataset(77);
  TSExplain engine(*ds.table, BaseConfig(/*threads=*/8));
  for (int k : {0, 4}) {
    SegmentationSpec spec = SegmentationSpec::FromConfig(engine.config());
    spec.fixed_k = k;
    const TSExplainResult result = engine.Run(spec);
    EXPECT_GE(result.timing.precompute_ms, 0.0);
    EXPECT_GE(result.timing.cascading_ms, 0.0);
    EXPECT_GE(result.timing.segmentation_ms, 0.0);
    const double slack = 1e-6 * std::max(1.0, result.timing.total_ms);
    EXPECT_LE(result.timing.TotalMs(), result.timing.total_ms + slack);
  }
}

}  // namespace
}  // namespace tsexplain
