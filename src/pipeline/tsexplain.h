// TSExplain pipeline facade: the system's primary public API.
//
// Wires together every module of Figure 7: (a) cube precomputation,
// (b) Cascading Analysts (optionally guess-and-verify, O1),
// (c) K-Segmentation with the NDCG variance (optionally sketched, O2),
// plus the support filter and the elbow-based optimal-K selection.
//
// Typical use:
//
//   TSExplainConfig config;
//   config.aggregate = AggregateFunction::kSum;
//   config.measure = "total_confirmed_cases";
//   config.explain_by_names = {"state"};
//   TSExplain engine(table, config);
//   TSExplainResult result = engine.Run();
//   for (const SegmentExplanation& seg : result.segments) { ... }
//
// The same engine is the two-relations diff (section 3.1) for any two time
// buckets: engine.ExplainSegment(control, test), with the endpoint values
// in engine.cube().Overall(t) and SliceValue(id, t). ExplainSegment works
// on a table of any length; Run segments, so it needs three buckets.

#ifndef TSEXPLAIN_PIPELINE_TSEXPLAIN_H_
#define TSEXPLAIN_PIPELINE_TSEXPLAIN_H_

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/cube/canonical_mask.h"
#include "src/cube/explanation_cube.h"
#include "src/cube/support_filter.h"
#include "src/diff/guess_verify.h"
#include "src/seg/elbow.h"
#include "src/seg/kseg_dp.h"
#include "src/seg/segment_explainer.h"
#include "src/seg/sketch.h"
#include "src/seg/variance.h"
#include "src/seg/variance_table.h"
#include "src/table/table.h"

namespace tsexplain {

/// The largest `m` (explanations per segment) the service and the CLI
/// accept; above it a query is `invalid_query` and a `--m` a usage error.
/// The paper's default is 3. Module (b)'s drill-down DP grows steeply
/// with m: a cold query of liquor-cold's shape (four explain-by
/// attributes, O1+O2, one thread) takes 0.34 s at m = 3, 2.1 s at 6,
/// 8.3 s at 10 and 10.1 s at 12, so 10 is the largest round cap under the
/// watchdog's default 10 s stuck threshold. Every cached segment list
/// also holds m + 1 Best values.
inline constexpr int kMaxTopM = 10;

/// Full pipeline configuration. Defaults mirror the paper's defaults:
/// m = 3, beta-bar = 3, absolute-change, tse variance, auto-K (elbow,
/// K <= 20), all optimizations off (VanillaTSExplain).
struct TSExplainConfig {
  // --- Query -------------------------------------------------------------
  AggregateFunction aggregate = AggregateFunction::kSum;
  /// Measure column name; empty means COUNT(*).
  std::string measure;
  /// Explain-by attribute names (must be dimensions of the table).
  std::vector<std::string> explain_by_names;
  /// Maximum explanation order beta-bar.
  int max_order = 3;
  /// Top-m explanations per segment (at most kMaxTopM at the service
  /// and the CLI).
  int m = 3;
  DiffMetricKind diff_metric = DiffMetricKind::kAbsoluteChange;
  VarianceMetric variance_metric = VarianceMetric::kTse;
  /// Moving-average smoothing window (1 = off).
  int smooth_window = 1;

  // --- Segmentation ------------------------------------------------------
  /// Fixed segment count; 0 selects K automatically via the elbow method.
  int fixed_k = 0;
  /// Upper bound for the auto-K search (paper: 20).
  int max_k = kMaxSegments;

  // --- Optimizations -----------------------------------------------------
  bool use_filter = false;         // support filter ("w filter")
  double filter_ratio = kDefaultFilterRatio;
  bool use_guess_verify = false;   // O1
  int initial_guess = kDefaultInitialGuess;
  bool use_sketch = false;         // O2
  SketchParams sketch_params;      // zeros = paper's empirical defaults
  /// Deduplicate equal-slice conjunctions (hierarchical attributes); on by
  /// default, matching the paper's epsilon accounting (see canonical_mask.h).
  bool dedupe_redundant = true;
  /// Worker threads for the parallel phases: cube build, the TopFor
  /// pre-warm fan-out (modules (a)+(b)), and the module (c) distance fill
  /// (1 = the paper's single-threaded setting; 0 = auto, i.e. hardware
  /// concurrency; results are identical at any thread count — asserted
  /// bit-exactly by tests/test_pipeline_determinism.cc and
  /// tests/test_parallel_core.cc).
  int threads = 1;
  /// Explanations touching any of these predicates never surface. Entries
  /// are "attr=value" strings (e.g. "state=unknown") or bare values (which
  /// exclude the value under every attribute). Analysts use this to mute
  /// trivial or garbage slices without re-loading data.
  std::vector<std::string> exclude;
};

/// One explanation within a segment, rendered for output.
struct ExplanationItem {
  ExplId id = kInvalidExplId;
  std::string description;  // e.g. "state=NY" or "BV=1750 & P=6"
  double gamma = 0.0;
  int tau = 0;  // +1 / -1 / 0 change effect

  /// "state=NY (+)" rendering used by the report printers.
  std::string ToString() const;
};

/// A segment of the final scheme with its top-m explanations.
struct SegmentExplanation {
  int begin = 0;
  int end = 0;
  std::string begin_label;
  std::string end_label;
  std::vector<ExplanationItem> top;
  /// Within-segment variance var(P) of this segment under the configured
  /// metric (paper Eq. 7; range [0, 1]).
  double variance = 0.0;
  /// True when this segment's variance is well above the scheme's average:
  /// its static top-explanation summarizes it poorly and the user should
  /// inspect it at a finer granularity (paper section 9's "hints for
  /// segments with higher variance").
  bool high_variance_hint = false;
};

/// The segmentation-only knobs of a query: everything module (c) reads
/// beyond the engine state (registry, cube, explainer caches). One hot
/// TSExplain instance answers Run(spec) for any spec — the explanation
/// service exploits this to share engines across queries that differ only
/// in K, variance metric, sketching, or thread count. The variance table
/// depends on the spec only through the variance metric and the candidate
/// choice (sketch params or list): K, max_k and threads only steer the DP
/// and the fan-out, so a run that changes just those reads the table the
/// engine kept from its last run.
struct SegmentationSpec {
  /// Fixed segment count; 0 selects K automatically via the elbow method.
  int fixed_k = 0;
  /// Upper bound for the auto-K search (paper: 20).
  int max_k = kMaxSegments;
  VarianceMetric variance_metric = VarianceMetric::kTse;
  bool use_sketch = false;  // O2
  SketchParams sketch_params;
  /// Worker threads for the TopFor pre-warm fan-out and the module (c)
  /// distance fill (results are identical at any thread count; 0 = auto).
  int threads = 1;

  /// The spec a TSExplainConfig describes.
  static SegmentationSpec FromConfig(const TSExplainConfig& config);
};

/// Where ONE Run call spent its time. The phases are laps of one steady
/// clock on the calling thread, in run order, so they sum to total_ms at
/// any thread count; a phase the run skipped reads 0 (a run that reads the
/// engine's kept variance table skips `sketch` and `variance`). The paper's
/// Figure 15 modules (a) and (b) run inside the phases, mostly in
/// `variance` (its TopFor pre-warm fans out over workers): score_cpu_ms
/// and ca_cpu_ms are the explainer's own timers over the run, summed over
/// workers, so at threads > 1 they can exceed total_ms. At threads = 1,
/// module (c) is total_ms - score_cpu_ms - ca_cpu_ms. Engine construction
/// is not part of any run: one-shot cold figures add TSExplain::build_ms().
struct TimingBreakdown {
  double sketch_ms = 0.0;         // O2 phase I: picks the cut candidates
  double variance_ms = 0.0;       // variance table, with the (a)+(b) fan-out
  double dp_ms = 0.0;             // K-segmentation DP and the choice of K
  double final_explain_ms = 0.0;  // the final segments' explanations
  double total_ms = 0.0;          // this run's wall clock
  double score_cpu_ms = 0.0;      // module (a): gamma scoring, all workers
  double ca_cpu_ms = 0.0;         // module (b): CA / guess-and-verify

  /// The wall-clock phases in run order, by wire name (the result's
  /// `timing_ms` keys and the trace's span names).
  std::array<std::pair<const char*, double>, 4> Phases() const {
    return {{{"sketch", sketch_ms},
             {"variance", variance_ms},
             {"dp", dp_ms},
             {"final_explain", final_explain_ms}}};
  }
};

/// Full pipeline output.
struct TSExplainResult {
  /// Chosen segmentation (cuts include both endpoints).
  Segmentation segmentation;
  int chosen_k = 0;
  /// D(n, K) for K = 1..max_k (K-variance curve; infeasible = +inf).
  std::vector<double> k_variance_curve;
  /// Evolving explanations: one entry per segment, in time order.
  std::vector<SegmentExplanation> segments;
  TimingBreakdown timing;
  /// Candidate explanation counts before/after the support filter.
  size_t epsilon = 0;
  size_t filtered_epsilon = 0;
  /// Sketch positions when O2 ran (empty otherwise).
  std::vector<int> sketch_positions;
};

/// The TSExplain engine. Owns the registry, cube, and caches; one instance
/// answers repeated Run() calls (e.g. with different fixed_k) without
/// re-scanning the relation, explains the difference between any two of
/// its time buckets (ExplainSegment, the two-relations diff of section
/// 3.1), and absorbs appended time buckets (the streaming extension,
/// section 8). It keeps its last run's variance table, so a K variant
/// costs the DP and the final explain, as the elbow method reads D(n, K)
/// for every K off one DP (section 6).
class TSExplain {
 public:
  /// Builds the registry and cube from `table` (module (a) precomputation).
  /// The engine keeps a reference: `table` must outlive it. Any number of
  /// time buckets builds; Run needs at least three.
  TSExplain(const Table& table, TSExplainConfig config);

  /// Runs segmentation + per-segment explanation per the configuration.
  /// Aborts when the table has fewer than three time buckets.
  TSExplainResult Run();

  /// Same, but with the segmentation knobs overridden: the engine state
  /// (cube, caches, masks) is untouched, so one instance serves arbitrary
  /// spec variations of its query without re-scanning the relation.
  /// Module (c) and the final-segment explain run over `candidates`:
  /// sorted, distinct cuts from 0 to n-1 inclusive (the streaming
  /// extension passes the previous cuts plus the points appended since).
  /// Empty lets the spec choose: the sketch (O2) or every point. When the
  /// variance metric and the candidate choice match the previous run's,
  /// the sketch and the variance fill are read from that run, not redone.
  TSExplainResult Run(const SegmentationSpec& spec,
                      std::vector<int> candidates = {});

  /// Absorbs the time bucket the table has just taken (its rows must be
  /// the table's rows appended since construction or the last call): the
  /// cube grows by one bucket (ExplanationCube::AppendBucket), the mask is
  /// refreshed, and cached segment explanations survive unless the mask
  /// changed. Returns false, leaving the engine untouched, when the cube
  /// refuses the rows (not exactly one new bucket, a cell the registry
  /// lacks, or smoothing on); the caller must then build a fresh engine
  /// over the table.
  bool AppendBucket();

  /// Recomputes the total variance of an arbitrary scheme under this
  /// engine's metric at unit-object granularity (used for Table 7 quality
  /// comparisons; cuts must include both endpoints).
  double EvaluateScheme(const std::vector<int>& cuts);

  /// Component access for tests, benches, and power users ----------------
  const Table& table() const { return table_; }
  const ExplanationRegistry& registry() const { return registry_; }
  const ExplanationCube& cube() const { return *cube_; }
  SegmentExplainer& explainer() { return *explainer_; }
  const TSExplainConfig& config() const { return config_; }
  /// Wall clock of construction (registry + cube + masks), in ms. Not part
  /// of any Run's timing.
  double build_ms() const { return build_ms_; }

  /// The two-relations diff (paper section 3.1): the top-m explanations of
  /// the change from time bucket `begin` (control) to `end` (test), any two
  /// in-range buckets, reversed or equal included. Cached per pair, like
  /// every segment module (c) asks for.
  std::vector<ExplanationItem> ExplainSegment(int begin, int end);

 private:
  /// Recomputes the selectable mask (canonical dedupe, then the support
  /// filter, then the exclude list) and both epsilon counts from the
  /// current cube; returns whether the mask changed. Construction and
  /// AppendBucket share it, so a grown engine's mask equals a fresh one's.
  bool UpdateMask();

  const Table& table_;
  TSExplainConfig config_;
  ExplanationRegistry registry_;
  std::unique_ptr<ExplanationCube> cube_;
  /// Combined selectable mask: canonical (dedupe) AND support filter AND
  /// exclude list. Empty when none is enabled.
  std::vector<bool> active_mask_;
  size_t canonical_count_ = 0;
  size_t active_count_ = 0;
  std::unique_ptr<SegmentExplainer> explainer_;
  double build_ms_ = 0.0;  // registry + cube + mask construction time

  /// Module (c)'s K-independent output of the last run, and its key: the
  /// variance metric and how the candidates were chosen. `sketch` holds
  /// O2's derived (L, |S|) when the sketch chose them; otherwise the list
  /// itself is the key, kept as the table's positions. One entry, the
  /// last run's (M(M-1)/2 doubles for M candidates); AppendBucket drops
  /// it, since the cube grew.
  struct ModuleCState {
    VarianceMetric metric;
    std::optional<std::pair<int, int>> sketch;
    VarianceTable table;
  };
  std::optional<ModuleCState> module_c_;
};

}  // namespace tsexplain

#endif  // TSEXPLAIN_PIPELINE_TSEXPLAIN_H_
