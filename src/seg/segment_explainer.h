// Cached per-segment top-explanation provider.
//
// Bridges modules (a) and (b) of the pipeline: for a segment [a, b] it
// fills the per-cell gamma vector from the cube (module (a), batched via
// ExplanationCube::ScoreAll) and runs the Cascading Analysts algorithm
// (module (b)), caching the result so every segment is explained at most
// once per query. Both modules walk the ascending ids the mask keeps, a
// list the explainer derives at construction and on every MaskChanged(),
// rather than testing the mask cell by cell on every call. The
// K-Segmentation module asks for the same segments repeatedly while
// computing distances and variances, so this cache is what makes the n^3
// phase feasible.
//
// Ownership: a SegmentExplainer belongs to one engine and, like it, is
// used by one thread at a time (the service serializes each engine's Run
// and each session's ops). TopFor and MaskChanged are therefore plain
// single-owner code. Prewarm is the one fan-out: it computes the missing
// segments on worker threads, each chunk with its own solver and scratch,
// and inserts the results on the calling thread. Returned references stay
// valid until MaskChanged().

#ifndef TSEXPLAIN_SEG_SEGMENT_EXPLAINER_H_
#define TSEXPLAIN_SEG_SEGMENT_EXPLAINER_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/cube/explanation_cube.h"
#include "src/diff/cascading_analysts.h"
#include "src/diff/guess_verify.h"

namespace tsexplain {

/// Wall-clock breakdown mirroring the paper's Figure 15 categories. Under a
/// multi-thread pre-warm the buckets sum per-chunk elapsed time (CPU-like,
/// may exceed wall clock).
struct ExplainerTiming {
  double precompute_ms = 0.0;  // module (a): gamma vector fills
  double cascading_ms = 0.0;   // module (b): CA / guess-and-verify
};

/// Computes and caches E*_m per segment. Not thread-safe: one caller at a
/// time (Prewarm fans out internally).
class SegmentExplainer {
 public:
  struct Options {
    int m = 3;                       // paper default
    DiffMetricKind metric = DiffMetricKind::kAbsoluteChange;
    bool use_guess_verify = false;   // O1
    int initial_guess = kDefaultInitialGuess;
    /// The engine's combined selectable mask: canonical dedupe, support
    /// filter and exclude list (nullptr = every cell). Inactive cells score
    /// 0 and are never selected. Must outlive this object; an owner that
    /// changes it in place calls MaskChanged().
    const std::vector<bool>* active = nullptr;
  };

  SegmentExplainer(const ExplanationCube& cube,
                   const ExplanationRegistry& registry, Options options);

  /// Top-m non-overlapping explanations of the change from bucket a
  /// (control) to bucket b (test): any two buckets in [0, n), reversed
  /// (a > b) or equal included; module (c) asks for a < b. The reference
  /// stays valid until MaskChanged().
  const TopExplanations& TopFor(int a, int b);

  /// Computes (and caches) TopFor for every listed segment. The distinct
  /// missing segments are split into at most `threads` contiguous chunks
  /// computed on the shared ThreadPool, each with its own solver; the
  /// results are inserted in list order. Results -- including
  /// ca_invocations() and cache_size() -- are bit-identical to calling
  /// TopFor serially in any order.
  void Prewarm(const std::vector<std::pair<int, int>>& segments, int threads);

  /// gamma/tau of one explanation on segment [a, b] (O(1) cube lookup,
  /// not cached). Respects the support filter.
  DiffScore Score(ExplId e, int a, int b) const;

  /// Re-reads the mask Options::active points at, which its owner changed
  /// in place (the streaming pipeline, when an appended bucket flips a
  /// cell's status), and resets the cache; references returned by TopFor
  /// become dangling.
  void MaskChanged();

  int n() const { return static_cast<int>(cube_.n()); }
  int m() const { return options_.m; }
  const ExplanationCube& cube() const { return cube_; }
  const ExplanationRegistry& registry() const { return registry_; }
  const Options& options() const { return options_; }

  ExplainerTiming timing() const { return timing_; }
  size_t cache_size() const { return cache_.size(); }
  size_t ca_invocations() const { return ca_invocations_; }

 private:
  // Modules (a)+(b) for segment [a, b] with the given solver and gamma
  // scratch; adds the elapsed time to `timing`.
  TopExplanations ComputeTop(CascadingAnalysts& solver,
                             std::vector<double>& gamma, int a, int b,
                             ExplainerTiming& timing) const;

  const ExplanationCube& cube_;
  const ExplanationRegistry& registry_;
  Options options_;

  // Keyed by SegmentKey(a, b). unordered_map never moves its elements, so
  // references handed out by TopFor survive later inserts.
  std::unordered_map<uint64_t, TopExplanations> cache_;
  // The ids *options_.active keeps, ascending; what modules (a) and (b)
  // walk. Unused when options_.active is nullptr.
  std::vector<ExplId> active_ids_;
  CascadingAnalysts solver_;
  std::vector<double> gamma_;
  ExplainerTiming timing_;
  size_t ca_invocations_ = 0;
};

}  // namespace tsexplain

#endif  // TSEXPLAIN_SEG_SEGMENT_EXPLAINER_H_
