#include "src/diff/snapshot_diff.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/cube/canonical_mask.h"
#include "src/cube/explanation_cube.h"
#include "src/cube/support_filter.h"
#include "src/diff/guess_verify.h"

namespace tsexplain {
namespace {

int FindTimeBucket(const Table& table, const std::string& label) {
  const auto& labels = table.time_labels();
  for (size_t t = 0; t < labels.size(); ++t) {
    if (labels[t] == label) return static_cast<int>(t);
  }
  TSE_CHECK(false) << "unknown time bucket: " << label;
  return -1;
}

}  // namespace

SnapshotDiffResult SnapshotDiff(const Table& table,
                                const std::string& control_time,
                                const std::string& test_time,
                                const SnapshotDiffOptions& options) {
  return SnapshotDiffAt(table, FindTimeBucket(table, control_time),
                        FindTimeBucket(table, test_time), options);
}

SnapshotDiffResult SnapshotDiffAt(const Table& table, int control_time,
                                  int test_time,
                                  const SnapshotDiffOptions& options) {
  TSE_CHECK_GE(control_time, 0);
  TSE_CHECK_GE(test_time, 0);
  TSE_CHECK_LT(static_cast<size_t>(control_time), table.num_time_buckets());
  TSE_CHECK_LT(static_cast<size_t>(test_time), table.num_time_buckets());
  TSE_CHECK_GE(options.m, 1);

  std::vector<AttrId> attrs;
  if (options.explain_by.empty()) {
    for (size_t d = 0; d < table.schema().num_dimensions(); ++d) {
      attrs.push_back(static_cast<AttrId>(d));
    }
  } else {
    for (const std::string& name : options.explain_by) {
      const AttrId attr = table.schema().DimensionIndex(name);
      TSE_CHECK_NE(attr, kInvalidAttrId)
          << "unknown explain-by dimension: " << name;
      attrs.push_back(attr);
    }
  }
  const int measure_idx =
      options.measure.empty() ? -1
                              : table.schema().MeasureIndex(options.measure);
  if (!options.measure.empty()) {
    TSE_CHECK_GE(measure_idx, 0) << "unknown measure: " << options.measure;
  }

  const ExplanationRegistry registry =
      ExplanationRegistry::Build(table, attrs, options.max_order);
  const ExplanationCube cube(table, registry, options.aggregate,
                             measure_idx);

  std::vector<bool> mask;
  if (options.dedupe_redundant) {
    mask = ComputeCanonicalMask(cube, registry);
  }
  if (options.filter_ratio > 0.0) {
    std::vector<bool> filter =
        ComputeSupportFilter(cube, options.filter_ratio);
    mask = mask.empty() ? std::move(filter) : AndMasks(mask, filter);
  }

  // Module (a) for the single segment (batched SoA sweep), then CA.
  std::vector<double> gamma(registry.num_explanations(), 0.0);
  const std::vector<ExplId> active_ids = ActiveIds(mask);
  cube.ScoreAll(options.metric, static_cast<size_t>(control_time),
                static_cast<size_t>(test_time),
                mask.empty() ? nullptr : &active_ids, &gamma);
  CascadingAnalysts solver(registry);
  const TopExplanations top =
      solver.TopM(gamma, options.m, mask.empty() ? nullptr : &mask);

  SnapshotDiffResult result;
  result.control_total = cube.Overall(static_cast<size_t>(control_time));
  result.test_total = cube.Overall(static_cast<size_t>(test_time));
  for (size_t r = 0; r < top.ids.size(); ++r) {
    SnapshotDiffItem item;
    const ExplId id = top.ids[r];
    item.description = registry.explanation(id).ToString(table);
    item.gamma = top.gammas[r];
    item.tau = cube.Score(options.metric, id,
                          static_cast<size_t>(control_time),
                          static_cast<size_t>(test_time))
                   .tau;
    item.control_value =
        cube.SliceValue(id, static_cast<size_t>(control_time));
    item.test_value = cube.SliceValue(id, static_cast<size_t>(test_time));
    result.top.push_back(std::move(item));
  }
  return result;
}

}  // namespace tsexplain
