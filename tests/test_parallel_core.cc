// Coverage for the parallel, cache-friendly explanation core:
//  * parallel cube build (time-partitioned scan) is bit-identical to the
//    serial scan at any thread count,
//  * ExplanationCube::ScoreAll equals the scalar Score per candidate,
//  * the chunked TopFor pre-warm (deduplicated missing segments computed
//    over at most `threads` chunks, each with its own solver) yields
//    bit-identical results AND deterministic ca_invocations between
//    threads=1 and threads=8,
//  * Prewarm with duplicate segments computes each segment exactly once,
//  * a run's phase timings tile its wall clock at one and eight threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "src/common/timer.h"
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
  const std::vector<ExplId> active_ids = ActiveIds(mask);

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
      cube.ScoreAll(kind, a, b, &active_ids, &gammas);
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

// Sum of a run's wall-clock phases.
double PhaseSum(const TimingBreakdown& timing) {
  double sum = 0.0;
  for (const auto& [name, ms] : timing.Phases()) {
    EXPECT_GE(ms, 0.0) << name;
    sum += ms;
  }
  return sum;
}

// The phases are laps of one clock: each one the run executed reads > 0,
// a skipped one reads exactly 0, and together they are the run's wall
// clock. At one thread the explainer's module (a) and (b) timers lie
// inside the run, so module (c) = total - (a) - (b) is never negative.
TEST(ParallelCore, TimingPartitionIsNonNegativeAndBounded) {
  const SyntheticDataset ds = MakeDataset(71);
  TSExplain engine(*ds.table, BaseConfig(/*threads=*/1));
  for (const bool sketch : {false, true}) {
    SegmentationSpec spec = SegmentationSpec::FromConfig(engine.config());
    spec.use_sketch = sketch;
    const Timer wall;
    const TSExplainResult result = engine.Run(spec);
    const double wall_ms = wall.ElapsedMs();
    const TimingBreakdown& timing = result.timing;
    EXPECT_EQ(timing.sketch_ms > 0.0, sketch);
    EXPECT_GT(timing.variance_ms, 0.0);
    EXPECT_GT(timing.dp_ms, 0.0);
    EXPECT_GT(timing.final_explain_ms, 0.0);
    EXPECT_NEAR(PhaseSum(timing), timing.total_ms, 1e-9 * timing.total_ms);
    EXPECT_LE(timing.total_ms, wall_ms);
    EXPECT_LE(timing.score_cpu_ms + timing.ca_cpu_ms, timing.total_ms);
  }
}

// At eight threads the explainer's timers sum over workers and may
// exceed the wall clock; they are reported as measured, and the phases
// still add up to the run's wall clock. The k = 4 run is a K variant: it
// reads the first run's variance table, so it reports no sketch and no
// variance fill.
TEST(ParallelCore, RunTimingAtEightThreadsSumsWithinTotal) {
  SyntheticDataset ds = MakeDataset(77);
  TSExplain engine(*ds.table, BaseConfig(/*threads=*/8));
  for (int k : {0, 4}) {
    SegmentationSpec spec = SegmentationSpec::FromConfig(engine.config());
    spec.fixed_k = k;
    const ExplainerTiming before = engine.explainer().timing();
    const Timer wall;
    const TSExplainResult result = engine.Run(spec);
    const double wall_ms = wall.ElapsedMs();
    const ExplainerTiming after = engine.explainer().timing();
    const TimingBreakdown& timing = result.timing;
    EXPECT_EQ(timing.sketch_ms, 0.0);
    if (k == 0) {
      EXPECT_GT(timing.variance_ms, 0.0);
    } else {
      EXPECT_EQ(timing.variance_ms, 0.0);
    }
    EXPECT_NEAR(PhaseSum(timing), timing.total_ms, 1e-9 * timing.total_ms);
    EXPECT_LE(timing.total_ms, wall_ms);
    EXPECT_DOUBLE_EQ(timing.score_cpu_ms,
                     after.precompute_ms - before.precompute_ms);
    EXPECT_DOUBLE_EQ(timing.ca_cpu_ms,
                     after.cascading_ms - before.cascading_ms);
  }
}

}  // namespace
}  // namespace tsexplain
