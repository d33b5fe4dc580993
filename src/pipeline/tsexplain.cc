#include "src/pipeline/tsexplain.h"

#include <algorithm>
#include <numeric>

#include "src/common/check.h"
#include "src/common/thread_pool.h"
#include "src/common/timer.h"

namespace tsexplain {
namespace {

std::vector<AttrId> ResolveExplainBy(const Table& table,
                                     const std::vector<std::string>& names) {
  TSE_CHECK(!names.empty()) << "explain_by_names must not be empty";
  std::vector<AttrId> attrs;
  attrs.reserve(names.size());
  for (const std::string& name : names) {
    const AttrId attr = table.schema().DimensionIndex(name);
    TSE_CHECK_NE(attr, kInvalidAttrId)
        << "unknown explain-by dimension: " << name;
    attrs.push_back(attr);
  }
  return attrs;
}

int ResolveMeasure(const Table& table, const std::string& name) {
  if (name.empty()) return -1;  // COUNT(*)
  const int idx = table.schema().MeasureIndex(name);
  TSE_CHECK_GE(idx, 0) << "unknown measure: " << name;
  return idx;
}

}  // namespace

SegmentationSpec SegmentationSpec::FromConfig(const TSExplainConfig& config) {
  SegmentationSpec spec;
  spec.fixed_k = config.fixed_k;
  spec.max_k = config.max_k;
  spec.variance_metric = config.variance_metric;
  spec.use_sketch = config.use_sketch;
  spec.sketch_params = config.sketch_params;
  spec.threads = config.threads;
  return spec;
}

std::string ExplanationItem::ToString() const {
  const char* effect = tau > 0 ? "+" : (tau < 0 ? "-" : "=");
  return description + " (" + effect + ")";
}

TSExplain::TSExplain(const Table& table, TSExplainConfig config)
    : table_(table), config_(std::move(config)) {
  Timer build_timer;
  registry_ = ExplanationRegistry::Build(
      table, ResolveExplainBy(table, config_.explain_by_names),
      config_.max_order);
  cube_ = std::make_unique<ExplanationCube>(
      table, registry_, config_.aggregate,
      ResolveMeasure(table, config_.measure),
      ResolveThreadCount(config_.threads));
  if (config_.smooth_window > 1) {
    cube_->SmoothInPlace(config_.smooth_window);
  }
  UpdateMask();

  SegmentExplainer::Options options;
  options.m = config_.m;
  options.metric = config_.diff_metric;
  options.use_guess_verify = config_.use_guess_verify;
  options.initial_guess = config_.initial_guess;
  options.active = active_mask_.empty() ? nullptr : &active_mask_;
  explainer_ =
      std::make_unique<SegmentExplainer>(*cube_, registry_, options);
  build_ms_ = build_timer.ElapsedMs();
}

TSExplainResult TSExplain::Run() {
  return Run(SegmentationSpec::FromConfig(config_));
}

TSExplainResult TSExplain::Run(const SegmentationSpec& spec,
                               std::vector<int> candidates) {
  TSE_CHECK_GE(cube_->n(), 3u)
      << "need at least three time buckets to segment";
  // Each phase is a lap of one clock: it ends where the next one starts.
  const Timer timer;
  double lap_end_ms = 0.0;
  const auto lap = [&timer, &lap_end_ms] {
    const double start_ms = lap_end_ms;
    lap_end_ms = timer.ElapsedMs();
    return lap_end_ms - start_ms;
  };
  const ExplainerTiming before = explainer_->timing();

  TSExplainResult result;
  result.epsilon = canonical_count_;
  result.filtered_epsilon = active_count_;
  VarianceCalculator calc(*explainer_, spec.variance_metric);
  // The candidate choice: O2's derived (L, |S|) stand in for the sketch
  // they would pick, so the previous run's key can be checked first.
  std::optional<std::pair<int, int>> sketch;
  if (candidates.empty() && spec.use_sketch) {
    const SketchParams derived =
        DeriveSketchParams(explainer_->n(), spec.sketch_params);
    sketch.emplace(derived.max_segment_len, derived.target_size);
  } else if (candidates.empty()) {
    candidates.resize(static_cast<size_t>(explainer_->n()));
    std::iota(candidates.begin(), candidates.end(), 0);
  }

  // Module (c): weighted variance table + DP over the candidates. The
  // table does not depend on K, so a run with the previous run's key
  // reads it and skips the sketch and the fill.
  const bool reuse =
      module_c_ && module_c_->metric == spec.variance_metric &&
      (sketch ? module_c_->sketch == sketch
              : module_c_->table.positions() == candidates);
  if (!reuse) {
    module_c_.reset();
    if (sketch) {
      candidates = SelectSketch(calc, spec.sketch_params).positions;
      result.timing.sketch_ms = lap();
    }
    module_c_ = ModuleCState{
        spec.variance_metric, sketch,
        VarianceTable::Compute(calc, candidates, /*max_span=*/-1,
                               ResolveThreadCount(spec.threads))};
    result.timing.variance_ms = lap();
  }
  const VarianceTable& table = module_c_->table;
  if (sketch) result.sketch_positions = table.positions();
  const int dp_max_k = spec.fixed_k > 0 ? spec.fixed_k : spec.max_k;
  KSegmentationDp dp(table, dp_max_k);
  result.k_variance_curve = dp.Curve();

  if (spec.fixed_k > 0) {
    int k = std::min(spec.fixed_k, dp.max_k());
    while (k > 1 && !dp.Feasible(k)) --k;
    result.chosen_k = k;
  } else {
    result.chosen_k = SelectElbowK(result.k_variance_curve);
  }
  result.segmentation = dp.Reconstruct(result.chosen_k);
  result.timing.dp_ms = lap();

  // Explain each final segment via two-relations diff on its endpoints.
  const TimeSeries overall = cube_->OverallSeries();
  result.segments.reserve(
      static_cast<size_t>(result.segmentation.num_segments()));
  double variance_sum = 0.0;
  for (size_t i = 0; i + 1 < result.segmentation.cuts.size(); ++i) {
    SegmentExplanation seg;
    seg.begin = result.segmentation.cuts[i];
    seg.end = result.segmentation.cuts[i + 1];
    seg.begin_label = overall.LabelAt(static_cast<size_t>(seg.begin));
    seg.end_label = overall.LabelAt(static_cast<size_t>(seg.end));
    seg.top = ExplainSegment(seg.begin, seg.end);
    seg.variance = calc.SegmentVariance(seg.begin, seg.end);
    variance_sum += seg.variance;
    result.segments.push_back(std::move(seg));
  }
  // High-variance hints (section 9): flag segments whose internal variance
  // is non-trivial AND above the scheme's average (with a single segment
  // the non-trivial threshold alone decides -- there is no peer to compare
  // against).
  const double mean_variance =
      result.segments.empty()
          ? 0.0
          : variance_sum / static_cast<double>(result.segments.size());
  for (SegmentExplanation& seg : result.segments) {
    const bool above_peers = result.segments.size() <= 1 ||
                             seg.variance > 1.5 * mean_variance;
    seg.high_variance_hint = seg.variance > 0.1 && above_peers;
  }
  result.timing.final_explain_ms = lap();
  result.timing.total_ms = lap_end_ms;

  const ExplainerTiming after = explainer_->timing();
  result.timing.score_cpu_ms = after.precompute_ms - before.precompute_ms;
  result.timing.ca_cpu_ms = after.cascading_ms - before.cascading_ms;
  return result;
}

bool TSExplain::AppendBucket() {
  if (!cube_->AppendBucket(table_, registry_)) return false;
  module_c_.reset();
  // Gamma depends only on a segment's endpoint partials, which never
  // change, so cached explanations stay valid -- unless a cell's status
  // flipped (support gained, equal slices diverged).
  if (UpdateMask()) explainer_->MaskChanged();
  return true;
}

bool TSExplain::UpdateMask() {
  const size_t epsilon = registry_.num_explanations();
  std::vector<bool> mask;
  canonical_count_ = epsilon;
  if (config_.dedupe_redundant) {
    mask = ComputeCanonicalMask(*cube_, registry_);
    canonical_count_ = CountActive(mask);
  }
  if (config_.use_filter) {
    std::vector<bool> filter =
        ComputeSupportFilter(*cube_, config_.filter_ratio);
    mask = mask.empty() ? std::move(filter) : AndMasks(mask, filter);
  }
  if (!config_.exclude.empty()) {
    std::vector<bool> allowed(epsilon, true);
    for (size_t e = 0; e < epsilon; ++e) {
      for (const Predicate& p :
           registry_.explanation(static_cast<ExplId>(e)).predicates()) {
        const std::string rendered = table_.PredicateString(p.attr, p.value);
        const std::string& value =
            table_.dictionary(p.attr).ToString(p.value);
        for (const std::string& banned : config_.exclude) {
          if (banned == rendered || banned == value) {
            allowed[e] = false;
          }
        }
      }
    }
    mask = mask.empty() ? std::move(allowed) : AndMasks(mask, allowed);
  }
  active_count_ = mask.empty() ? epsilon : CountActive(mask);
  if (mask == active_mask_) return false;
  // Swapped in place: the explainer holds a pointer to active_mask_.
  active_mask_.swap(mask);
  return true;
}

double TSExplain::EvaluateScheme(const std::vector<int>& cuts) {
  VarianceCalculator calc(*explainer_, config_.variance_metric);
  return TotalObjective(calc, cuts);
}

std::vector<ExplanationItem> TSExplain::ExplainSegment(int begin, int end) {
  const TopExplanations& top = explainer_->TopFor(begin, end);
  std::vector<ExplanationItem> items;
  items.reserve(top.ids.size());
  for (size_t r = 0; r < top.ids.size(); ++r) {
    ExplanationItem item;
    item.id = top.ids[r];
    item.description = registry_.explanation(item.id).ToString(table_);
    item.gamma = top.gammas[r];
    item.tau = explainer_->Score(item.id, begin, end).tau;
    items.push_back(std::move(item));
  }
  return items;
}

}  // namespace tsexplain
