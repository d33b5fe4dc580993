// Micro/ablation benchmarks (google-benchmark) for the cost knobs of the
// paper's pipeline (Figure 7): Cascading Analysts cost vs epsilon and the
// guess-and-verify initial guess (section 5.3.1), variance-table
// granularity (vanilla vs the O2 sketch, section 5.3.2), diff-score lookups,
// matrix profile, and the K-segmentation DP.
//
// After the benchmark suite, main() runs the SIMD acceptance gate: on
// hosts where the AVX2 kernels dispatch, the vectorized ScoreAll sweep
// must be bit-identical to the scalar reference AND at least 1.5x faster,
// or the process exits non-zero (docs/PERF.md "SIMD scoring"). Emits
//   micro.score_all.scalar   median scalar sweep wall clock
//   micro.score_all.simd     median AVX2 sweep wall clock
// as BENCH_RESULT lines for tools/run_benches.sh, after the two Liquor
// precomputation layers (median serial wall clock of their benchmarks):
//   micro.liquor.registry_build   ExplanationRegistry::Build
//   micro.liquor.cube_build       ExplanationCube over a built registry
// and module (b) on BM_GuessVerify's epsilon = 1680 instance (median
// serial wall clock of one solve at m = 3):
//   micro.ca.guess_verify   GuessVerifyTopM at the default initial guess 30
//   micro.ca.plain          CascadingAnalysts::TopM over the full lattice
// and on a one-attribute lattice shaped like covid total's (58 cells, 54
// selectable; one m = 3 solve under that mask):
//   micro.ca.flat.guess_verify   GuessVerifyTopM over the selectable ids
//   micro.ca.flat.plain          CascadingAnalysts::TopM under the mask
// and modules (a)+(b) together on the Liquor engine as the liquor-cold
// benchmark configures it (O1, support filter, smooth 5, one exclude), so
// the combined mask's id list is on the measured path:
//   micro.explainer.top_for   one cold SegmentExplainer::TopFor, median
//                             over fresh explainers
// and module (c)'s fill on BM_VarianceTableSketched's n = 400 instance
// (median serial wall clock, explainer pre-warmed so only the fill runs):
//   micro.seg.variance_fill   VarianceTable::Compute over the sketch

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "src/baselines/matrix_profile.h"
#include "src/common/rng.h"
#include "src/common/timer.h"
#include "src/cube/score_kernels.h"
#include "src/datagen/liquor_sim.h"
#include "src/datagen/synthetic.h"
#include "src/diff/guess_verify.h"
#include "src/pipeline/tsexplain.h"
#include "src/seg/kseg_dp.h"
#include "src/seg/sketch.h"

namespace tsexplain {
namespace {

// Fixture data for CA benchmarks: a two-attribute lattice with the given
// per-attribute cardinality.
struct CaFixture {
  std::unique_ptr<Table> table;
  ExplanationRegistry registry;
  std::vector<double> gamma;

  explicit CaFixture(int cardinality) {
    table = std::make_unique<Table>(Schema("t", {"A", "B"}, {"m"}));
    table->AddTimeBucket("0");
    for (int a = 0; a < cardinality; ++a) {
      for (int b = 0; b < cardinality; ++b) {
        table->AppendRow(0,
                         {"a" + std::to_string(a), "b" + std::to_string(b)},
                         {1.0});
      }
    }
    registry = ExplanationRegistry::Build(*table, {0, 1}, 2);
    Rng rng(7);
    gamma.resize(registry.num_explanations());
    for (auto& g : gamma) g = rng.Uniform(0.0, 100.0);
  }
};

// A one-attribute (flat) lattice shaped like covid total's: 58 cells, of
// which 54 are selectable (the mask leaves out every 15th), as the support
// filter leaves them.
struct FlatCaFixture {
  static constexpr int kCells = 58;
  std::unique_ptr<Table> table;
  ExplanationRegistry registry;
  std::vector<double> gamma;
  std::vector<bool> selectable;
  std::vector<ExplId> selectable_ids;

  FlatCaFixture() {
    table = std::make_unique<Table>(Schema("t", {"state"}, {"m"}));
    table->AddTimeBucket("0");
    for (int cell = 0; cell < kCells; ++cell) {
      table->AppendRow(0, {"s" + std::to_string(cell)}, {1.0});
    }
    registry = ExplanationRegistry::Build(*table, {0}, 1);
    Rng rng(7);
    gamma.resize(registry.num_explanations());
    for (auto& g : gamma) g = rng.Uniform(0.0, 100.0);
    selectable.assign(gamma.size(), true);
    for (size_t e = 0; e < gamma.size(); e += 15) selectable[e] = false;
    for (size_t e = 0; e < gamma.size(); ++e) {
      if (selectable[e]) selectable_ids.push_back(static_cast<ExplId>(e));
    }
  }
};

void BM_CascadingAnalysts(benchmark::State& state) {
  CaFixture fixture(static_cast<int>(state.range(0)));
  CascadingAnalysts solver(fixture.registry);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.TopM(fixture.gamma, 3));
  }
  state.counters["epsilon"] =
      static_cast<double>(fixture.registry.num_explanations());
}
BENCHMARK(BM_CascadingAnalysts)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_GuessVerify(benchmark::State& state) {
  CaFixture fixture(40);  // epsilon = 40 + 40 + 1600
  CascadingAnalysts solver(fixture.registry);
  const int initial_guess = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        GuessVerifyTopM(solver, fixture.gamma, 3, nullptr, initial_guess));
  }
}
BENCHMARK(BM_GuessVerify)->Arg(5)->Arg(30)->Arg(120);

void BM_PlainCaSameInstance(benchmark::State& state) {
  CaFixture fixture(40);
  CascadingAnalysts solver(fixture.registry);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.TopM(fixture.gamma, 3));
  }
}
BENCHMARK(BM_PlainCaSameInstance);

// Variance-table construction: the module (c) bottleneck, vanilla vs the
// sketched candidate set.
struct SegFixture {
  SyntheticDataset ds;
  ExplanationRegistry registry;
  std::unique_ptr<ExplanationCube> cube;
  std::unique_ptr<SegmentExplainer> explainer;

  explicit SegFixture(int n) {
    SyntheticConfig config;
    config.length = n;
    config.snr_db = 35.0;
    config.seed = 42;
    config.num_interior_cuts = 4;
    ds = GenerateSynthetic(config);
    registry = ExplanationRegistry::Build(*ds.table, {0}, 1);
    cube = std::make_unique<ExplanationCube>(*ds.table, registry,
                                             AggregateFunction::kSum, 0);
    SegmentExplainer::Options options;
    options.m = 3;
    explainer = std::make_unique<SegmentExplainer>(*cube, registry, options);
  }
};

void BM_VarianceTableVanilla(benchmark::State& state) {
  SegFixture fixture(static_cast<int>(state.range(0)));
  VarianceCalculator calc(*fixture.explainer, VarianceMetric::kTse);
  std::vector<int> positions(static_cast<size_t>(fixture.explainer->n()));
  std::iota(positions.begin(), positions.end(), 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(VarianceTable::Compute(calc, positions));
  }
}
BENCHMARK(BM_VarianceTableVanilla)->Arg(100)->Arg(200)->Arg(400)
    ->Unit(benchmark::kMillisecond);

void BM_VarianceTableSketched(benchmark::State& state) {
  SegFixture fixture(static_cast<int>(state.range(0)));
  VarianceCalculator calc(*fixture.explainer, VarianceMetric::kTse);
  const SketchResult sketch = SelectSketch(calc);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        VarianceTable::Compute(calc, sketch.positions));
  }
  state.counters["sketch_size"] =
      static_cast<double>(sketch.positions.size());
}
BENCHMARK(BM_VarianceTableSketched)->Arg(100)->Arg(200)->Arg(400)
    ->Unit(benchmark::kMillisecond);

void BM_KsegDp(benchmark::State& state) {
  SegFixture fixture(static_cast<int>(state.range(0)));
  VarianceCalculator calc(*fixture.explainer, VarianceMetric::kTse);
  std::vector<int> positions(static_cast<size_t>(fixture.explainer->n()));
  std::iota(positions.begin(), positions.end(), 0);
  const VarianceTable table = VarianceTable::Compute(calc, positions);
  for (auto _ : state) {
    KSegmentationDp dp(table, 20);
    benchmark::DoNotOptimize(dp.TotalVariance(20));
  }
}
BENCHMARK(BM_KsegDp)->Arg(100)->Arg(400)->Unit(benchmark::kMillisecond);

void BM_CubeScoreLookup(benchmark::State& state) {
  SegFixture fixture(200);
  size_t t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture.cube->Score(
        DiffMetricKind::kAbsoluteChange, 0, t % 100, 100 + t % 99));
    ++t;
  }
}
BENCHMARK(BM_CubeScoreLookup);

// Module (a) for one segment on the Liquor cube (the large-epsilon
// workload): the legacy per-candidate Score loop vs the batched SoA sweep
// (ExplanationCube::ScoreAll). Same arithmetic, same results; the batch
// hoists the overall finalization and walks contiguous memory.
struct LiquorCubeFixture {
  std::unique_ptr<Table> table;
  ExplanationRegistry registry;
  std::unique_ptr<ExplanationCube> cube;

  LiquorCubeFixture() : table(MakeLiquorTable()) {
    registry = ExplanationRegistry::Build(*table, {0, 1, 2, 3}, 3);
    cube = std::make_unique<ExplanationCube>(*table, registry,
                                             AggregateFunction::kSum, 0);
  }
};

void BM_ScorePerCandidate(benchmark::State& state) {
  LiquorCubeFixture fixture;
  const size_t epsilon = fixture.registry.num_explanations();
  const size_t n = fixture.cube->n();
  std::vector<double> gammas(epsilon);
  size_t t = 0;
  for (auto _ : state) {
    const size_t a = t % (n / 2);
    const size_t b = n / 2 + t % (n / 2);
    for (size_t e = 0; e < epsilon; ++e) {
      gammas[e] = fixture.cube
                      ->Score(DiffMetricKind::kAbsoluteChange,
                              static_cast<ExplId>(e), a, b)
                      .gamma;
    }
    benchmark::DoNotOptimize(gammas.data());
    ++t;
  }
  state.counters["epsilon"] = static_cast<double>(epsilon);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(epsilon));
}
BENCHMARK(BM_ScorePerCandidate)->Unit(benchmark::kMicrosecond);

void BM_ScoreAllBatch(benchmark::State& state) {
  LiquorCubeFixture fixture;
  const size_t epsilon = fixture.registry.num_explanations();
  const size_t n = fixture.cube->n();
  std::vector<double> gammas(epsilon);
  size_t t = 0;
  for (auto _ : state) {
    fixture.cube->ScoreAll(DiffMetricKind::kAbsoluteChange, t % (n / 2),
                           n / 2 + t % (n / 2), nullptr, &gammas);
    benchmark::DoNotOptimize(gammas.data());
    ++t;
  }
  state.counters["epsilon"] = static_cast<double>(epsilon);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(epsilon));
}
BENCHMARK(BM_ScoreAllBatch)->Unit(benchmark::kMicrosecond);

// Raw kernel-level sweep (no cube, no mask): the four SoA candidate
// streams fed straight into the scoring kernels, the unit the SIMD gate
// below times. kAvg + kRelativeChange is the heaviest lane (two guarded
// divisions + the count>0 finalize blend).
struct KernelFixture {
  std::vector<double> test_sums, test_counts, control_sums, control_counts;
  ScoreAllInputs in;

  explicit KernelFixture(size_t epsilon) {
    test_sums.resize(epsilon);
    test_counts.resize(epsilon);
    control_sums.resize(epsilon);
    control_counts.resize(epsilon);
    Rng rng(11);
    for (size_t e = 0; e < epsilon; ++e) {
      test_sums[e] = rng.Uniform(-100.0, 100.0);
      test_counts[e] = static_cast<double>(static_cast<int>(
          rng.Uniform(0.0, 9.0)));
      control_sums[e] = rng.Uniform(-100.0, 100.0);
      control_counts[e] = static_cast<double>(static_cast<int>(
          rng.Uniform(0.0, 9.0)));
    }
    in.f = AggregateFunction::kAvg;
    in.kind = DiffMetricKind::kRelativeChange;
    in.overall_test = AggState{5000.0, 1000.0};
    in.overall_control = AggState{4000.0, 900.0};
    in.f_test = in.overall_test.Finalize(in.f);
    in.f_control = in.overall_control.Finalize(in.f);
    in.test_sums = test_sums.data();
    in.test_counts = test_counts.data();
    in.control_sums = control_sums.data();
    in.control_counts = control_counts.data();
    in.epsilon = epsilon;
  }
};

void BM_ScoreAllScalarKernel(benchmark::State& state) {
  KernelFixture fixture(static_cast<size_t>(state.range(0)));
  std::vector<double> out(fixture.in.epsilon);
  for (auto _ : state) {
    ScoreAllScalar(fixture.in, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ScoreAllScalarKernel)->Arg(1 << 16)
    ->Unit(benchmark::kMicrosecond);

void BM_ScoreAllSimd(benchmark::State& state) {
  KernelFixture fixture(static_cast<size_t>(state.range(0)));
  std::vector<double> out(fixture.in.epsilon);
  if (!ScoreAllAvx2(fixture.in, out.data())) {
    state.SkipWithError("AVX2 unavailable (CPU or TSEXPLAIN_SIMD=OFF)");
    return;
  }
  for (auto _ : state) {
    ScoreAllAvx2(fixture.in, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ScoreAllSimd)->Arg(1 << 16)->Unit(benchmark::kMicrosecond);

// Cube construction, serial vs the time-partitioned parallel scan (arg =
// thread count). Results are bit-identical at any thread count.
void BM_CubeBuildThreads(benchmark::State& state) {
  const auto table = MakeLiquorTable();
  const auto registry = ExplanationRegistry::Build(*table, {0, 1, 2, 3}, 3);
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ExplanationCube cube(*table, registry, AggregateFunction::kSum, 0,
                         threads);
    benchmark::DoNotOptimize(&cube);
  }
  state.counters["rows"] = static_cast<double>(table->num_rows());
}
BENCHMARK(BM_CubeBuildThreads)->Arg(1)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_MatrixProfile(benchmark::State& state) {
  Rng rng(5);
  std::vector<double> values(static_cast<size_t>(state.range(0)));
  double level = 0.0;
  for (auto& v : values) {
    level += rng.Gaussian(0.0, 1.0);
    v = level;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeMatrixProfile(values, 12));
  }
}
BENCHMARK(BM_MatrixProfile)->Arg(345)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

double MedianMs(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

// Median wall clock of `reps` serial calls of `run`.
template <typename Run>
double MedianSerialMs(int reps, Run&& run) {
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(reps));
  for (int rep = 0; rep < reps; ++rep) {
    const Timer timer;
    run();
    samples.push_back(timer.ElapsedMs());
  }
  return MedianMs(std::move(samples));
}

// Liquor module (a) precomputation, one layer per benchmark, serial: the
// registry (tuple pass + drill-down links), then the cube over a prebuilt
// registry. Each iteration's wall clock is kept so main() can emit the
// medians as micro.liquor.registry_build / micro.liquor.cube_build.
constexpr int kLiquorBuildReps = 11;
std::vector<double> liquor_registry_ms;
std::vector<double> liquor_cube_ms;

void BM_LiquorRegistryBuild(benchmark::State& state) {
  const auto table = MakeLiquorTable();
  for (auto _ : state) {
    const Timer timer;
    const auto registry = ExplanationRegistry::Build(*table, {0, 1, 2, 3}, 3);
    liquor_registry_ms.push_back(timer.ElapsedMs());
    benchmark::DoNotOptimize(&registry);
  }
}
BENCHMARK(BM_LiquorRegistryBuild)->Iterations(kLiquorBuildReps)
    ->Unit(benchmark::kMillisecond);

void BM_LiquorCubeBuild(benchmark::State& state) {
  const auto table = MakeLiquorTable();
  const auto registry = ExplanationRegistry::Build(*table, {0, 1, 2, 3}, 3);
  for (auto _ : state) {
    const Timer timer;
    const ExplanationCube cube(*table, registry, AggregateFunction::kSum, 0);
    liquor_cube_ms.push_back(timer.ElapsedMs());
    benchmark::DoNotOptimize(&cube);
  }
}
BENCHMARK(BM_LiquorCubeBuild)->Iterations(kLiquorBuildReps)
    ->Unit(benchmark::kMillisecond);

void EmitLiquorBuildMedians() {
  if (!liquor_registry_ms.empty()) {
    bench::EmitResult("micro.liquor.registry_build",
                      MedianMs(liquor_registry_ms));
  }
  if (!liquor_cube_ms.empty()) {
    bench::EmitResult("micro.liquor.cube_build", MedianMs(liquor_cube_ms));
  }
}

// Module (b) medians on BM_GuessVerify's instance, one serial solve per
// sample: guess-and-verify's sub-lattice solves, then the plain full-lattice
// solve they must agree with; then the same two on the flat fixture.
void EmitCascadingAnalystsMedians() {
  constexpr int kReps = 101;
  const CaFixture fixture(40);
  CascadingAnalysts guess_verify_solver(fixture.registry);
  bench::EmitResult("micro.ca.guess_verify", MedianSerialMs(kReps, [&] {
    benchmark::DoNotOptimize(
        GuessVerifyTopM(guess_verify_solver, fixture.gamma, 3));
  }));
  CascadingAnalysts plain_solver(fixture.registry);
  bench::EmitResult("micro.ca.plain", MedianSerialMs(kReps, [&] {
    benchmark::DoNotOptimize(plain_solver.TopM(fixture.gamma, 3));
  }));

  // A flat solve takes microseconds or less: more samples.
  constexpr int kFlatReps = 1001;
  const FlatCaFixture flat;
  CascadingAnalysts flat_guess_verify_solver(flat.registry);
  bench::EmitResult(
      "micro.ca.flat.guess_verify", MedianSerialMs(kFlatReps, [&] {
        benchmark::DoNotOptimize(GuessVerifyTopM(
            flat_guess_verify_solver, flat.gamma, 3, &flat.selectable_ids));
      }));
  CascadingAnalysts flat_plain_solver(flat.registry);
  bench::EmitResult("micro.ca.flat.plain", MedianSerialMs(kFlatReps, [&] {
    benchmark::DoNotOptimize(
        flat_plain_solver.TopM(flat.gamma, 3, &flat.selectable));
  }));
}

// Modules (a)+(b) median: one cold TopFor on the Liquor engine configured
// as liquor-cold configures it. Each pass builds a fresh SegmentExplainer
// over the engine's cube, registry and masks and asks it every segment
// between points of an 8-bucket grid, so every sample is a cache miss.
void EmitTopForMedian() {
  constexpr int kPasses = 5;
  const auto table = MakeLiquorTable();
  TSExplainConfig config;
  config.measure = "bottles_sold";
  config.explain_by_names = {"BV", "CN", "P", "VN"};
  config.smooth_window = 5;
  config.use_filter = true;
  config.use_guess_verify = true;
  config.use_sketch = true;
  config.exclude = {
      table->PredicateString(table->schema().DimensionIndex("CN"), 0)};
  TSExplain engine(*table, config);
  const int n = engine.explainer().n();
  std::vector<double> samples;
  for (int pass = 0; pass < kPasses; ++pass) {
    SegmentExplainer explainer(engine.cube(), engine.registry(),
                               engine.explainer().options());
    for (int a = 0; a < n; a += 8) {
      for (int b = a + 8; b < n; b += 8) {
        const Timer timer;
        benchmark::DoNotOptimize(explainer.TopFor(a, b));
        samples.push_back(timer.ElapsedMs());
      }
    }
  }
  bench::EmitResult("micro.explainer.top_for", MedianMs(std::move(samples)));
}

// Module (c) median: the serial variance fill over the n = 400 sketch.
// One untimed fill first computes every list the fill reads, so each
// sample times the distances alone, not modules (a) and (b).
void EmitVarianceFillMedian() {
  constexpr int kReps = 21;
  SegFixture fixture(400);
  VarianceCalculator calc(*fixture.explainer, VarianceMetric::kTse);
  const std::vector<int> positions = SelectSketch(calc).positions;
  VarianceTable::Compute(calc, positions);
  bench::EmitResult("micro.seg.variance_fill", MedianSerialMs(kReps, [&] {
    benchmark::DoNotOptimize(VarianceTable::Compute(calc, positions));
  }));
}

// SIMD acceptance gate (ISSUE 8): where AVX2 dispatches, the vectorized
// sweep must reproduce the scalar reference bit for bit and beat it by at
// least 1.5x. Runs after the benchmark suite so a regression fails the
// process, not just a number in a log. Returns 0 (with a note) when the
// host or build has no AVX2 — the scalar-dispatch CI job must still pass.
int RunSimdGate() {
  constexpr size_t kEpsilon = 1 << 16;
  constexpr int kReps = 41;
  KernelFixture fixture(kEpsilon);
  std::vector<double> scalar(kEpsilon), vectorized(kEpsilon);
  if (!ScoreAllAvx2(fixture.in, vectorized.data())) {
    std::printf("simd gate: skipped (AVX2 unavailable: CPU, non-x86, or "
                "TSEXPLAIN_SIMD=OFF)\n");
    return 0;
  }

  // Bit identity first, across every aggregate x metric pair — a fast
  // wrong kernel must not pass the speed gate.
  for (AggregateFunction f : {AggregateFunction::kSum,
                              AggregateFunction::kCount,
                              AggregateFunction::kAvg}) {
    for (DiffMetricKind kind : {DiffMetricKind::kAbsoluteChange,
                                DiffMetricKind::kRelativeChange,
                                DiffMetricKind::kRiskRatio}) {
      ScoreAllInputs in = fixture.in;
      in.f = f;
      in.kind = kind;
      in.f_test = in.overall_test.Finalize(f);
      in.f_control = in.overall_control.Finalize(f);
      ScoreAllScalar(in, scalar.data());
      ScoreAllAvx2(in, vectorized.data());
      if (std::memcmp(scalar.data(), vectorized.data(),
                      kEpsilon * sizeof(double)) != 0) {
        std::fprintf(stderr,
                     "FAIL: AVX2 sweep is not bit-identical to scalar "
                     "(f=%d kind=%d)\n",
                     static_cast<int>(f), static_cast<int>(kind));
        return 1;
      }
    }
  }

  const double scalar_ms = MedianSerialMs(
      kReps, [&] { ScoreAllScalar(fixture.in, scalar.data()); });
  const double simd_ms = MedianSerialMs(
      kReps, [&] { ScoreAllAvx2(fixture.in, vectorized.data()); });
  const double speedup = scalar_ms / simd_ms;
  std::printf("simd gate: scalar %s, avx2 %s, speedup %.2fx "
              "(epsilon=%zu, bit-identical)\n",
              bench::FormatMs(scalar_ms).c_str(),
              bench::FormatMs(simd_ms).c_str(), speedup, kEpsilon);
  bench::EmitResult("micro.score_all.scalar", scalar_ms);
  bench::EmitResult("micro.score_all.simd", simd_ms);
  if (speedup < 1.5) {
    std::fprintf(stderr, "FAIL: SIMD speedup %.2fx is below the 1.5x bar\n",
                 speedup);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace tsexplain

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  tsexplain::EmitLiquorBuildMedians();
  tsexplain::EmitCascadingAnalystsMedians();
  tsexplain::EmitTopForMedian();
  tsexplain::EmitVarianceFillMedian();
  return tsexplain::RunSimdGate();
}
