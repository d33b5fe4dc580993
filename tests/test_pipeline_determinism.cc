// Coverage for the determinism claim in src/pipeline/tsexplain.h: the
// module (c) distance fill fans rows out across worker threads, and the
// results must be bit-identical at any thread count.

#include <gtest/gtest.h>

#include <vector>

#include "src/datagen/synthetic.h"
#include "src/pipeline/tsexplain.h"

namespace tsexplain {
namespace {

SyntheticDataset MakeDataset(uint64_t seed) {
  SyntheticConfig config;
  config.length = 120;
  config.num_categories = 4;
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

// Exact (bitwise, via ==) comparison of two pipeline results.
void ExpectIdenticalResults(const TSExplainResult& a,
                            const TSExplainResult& b) {
  EXPECT_EQ(a.segmentation.cuts, b.segmentation.cuts);
  EXPECT_EQ(a.chosen_k, b.chosen_k);
  EXPECT_EQ(a.k_variance_curve, b.k_variance_curve);
  EXPECT_EQ(a.epsilon, b.epsilon);
  EXPECT_EQ(a.filtered_epsilon, b.filtered_epsilon);
  EXPECT_EQ(a.sketch_positions, b.sketch_positions);
  ASSERT_EQ(a.segments.size(), b.segments.size());
  for (size_t s = 0; s < a.segments.size(); ++s) {
    const SegmentExplanation& sa = a.segments[s];
    const SegmentExplanation& sb = b.segments[s];
    EXPECT_EQ(sa.begin, sb.begin);
    EXPECT_EQ(sa.end, sb.end);
    EXPECT_EQ(sa.variance, sb.variance);  // bit-identical, no tolerance
    EXPECT_EQ(sa.high_variance_hint, sb.high_variance_hint);
    ASSERT_EQ(sa.top.size(), sb.top.size());
    for (size_t r = 0; r < sa.top.size(); ++r) {
      EXPECT_EQ(sa.top[r].id, sb.top[r].id);
      EXPECT_EQ(sa.top[r].description, sb.top[r].description);
      EXPECT_EQ(sa.top[r].gamma, sb.top[r].gamma);
      EXPECT_EQ(sa.top[r].tau, sb.top[r].tau);
    }
  }
}

TEST(PipelineDeterminism, VanillaIdenticalAcrossThreadCounts) {
  const SyntheticDataset ds = MakeDataset(23);
  TSExplain single(*ds.table, BaseConfig(1));
  TSExplain multi(*ds.table, BaseConfig(4));
  TSExplain wide(*ds.table, BaseConfig(8));
  const TSExplainResult single_result = single.Run();
  ExpectIdenticalResults(single_result, multi.Run());
  ExpectIdenticalResults(single_result, wide.Run());
  // The pre-warm computes each distinct missing segment exactly once, so
  // the CA invocation count is thread-count independent too.
  EXPECT_EQ(single.explainer().ca_invocations(),
            multi.explainer().ca_invocations());
  EXPECT_EQ(single.explainer().ca_invocations(),
            wide.explainer().ca_invocations());
}

TEST(PipelineDeterminism, FixedKIdenticalAcrossThreadCounts) {
  // BaseConfig already covers the auto-K elbow path (fixed_k = 0); this
  // pins K so the fixed-K reconstruction path gets its own coverage.
  const SyntheticDataset ds = MakeDataset(41);
  TSExplainConfig one = BaseConfig(1);
  TSExplainConfig four = BaseConfig(4);
  one.fixed_k = four.fixed_k = 5;
  TSExplain single(*ds.table, one);
  TSExplain multi(*ds.table, four);
  ExpectIdenticalResults(single.Run(), multi.Run());
}

TEST(PipelineDeterminism, OptimizedPathIdenticalAcrossThreadCounts) {
  const SyntheticDataset ds = MakeDataset(59);
  TSExplainConfig one = BaseConfig(1);
  TSExplainConfig four = BaseConfig(4);
  for (TSExplainConfig* config : {&one, &four}) {
    config->use_filter = true;
    config->use_guess_verify = true;
    config->use_sketch = true;
  }
  TSExplain single(*ds.table, one);
  TSExplain multi(*ds.table, four);
  ExpectIdenticalResults(single.Run(), multi.Run());
}

TEST(PipelineDeterminism, RepeatedRunsOnOneEngineAreStable) {
  const SyntheticDataset ds = MakeDataset(67);
  TSExplain engine(*ds.table, BaseConfig(4));
  ExpectIdenticalResults(engine.Run(), engine.Run());
}

}  // namespace
}  // namespace tsexplain
