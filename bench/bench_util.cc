#include "bench_util.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>

#include "src/baselines/bottom_up.h"
#include "src/baselines/fluss.h"
#include "src/baselines/nnsegment.h"
#include "src/common/metrics.h"
#include "src/common/strings.h"
#include "src/datagen/covid_sim.h"
#include "src/datagen/liquor_sim.h"
#include "src/datagen/sp500_sim.h"

namespace tsexplain {
namespace bench {

Workload MakeCovidTotalWorkload() {
  Workload w;
  w.name = "total-confirmed-cases";
  w.table = MakeCovidTable();
  w.config.measure = "total_confirmed_cases";
  w.config.explain_by_names = {"state"};
  w.config.max_order = 3;  // single attribute, so effectively order 1
  w.config.m = 3;
  return w;
}

Workload MakeCovidDailyWorkload() {
  Workload w;
  w.name = "daily-confirmed-cases";
  w.table = MakeCovidTable();
  w.config.measure = "daily_confirmed_cases";
  w.config.explain_by_names = {"state"};
  w.config.max_order = 3;
  w.config.m = 3;
  w.config.smooth_window = 7;  // the paper smooths fuzzy datasets (7.4)
  return w;
}

Workload MakeSp500Workload() {
  Workload w;
  w.name = "S&P 500";
  w.table = MakeSp500Table();
  w.config.measure = "weighted_price";
  w.config.explain_by_names = {"category", "subcategory", "stock"};
  w.config.max_order = 3;
  w.config.m = 3;
  return w;
}

Workload MakeLiquorWorkload() {
  Workload w;
  w.name = "Liquor";
  w.table = MakeLiquorTable();
  w.config.measure = "bottles_sold";
  w.config.explain_by_names = {"BV", "P", "CN", "VN"};
  w.config.max_order = 3;
  w.config.m = 3;
  w.config.smooth_window = 5;  // business-day series is fuzzy too
  return w;
}

std::vector<Workload> AllWorkloads() {
  std::vector<Workload> all;
  all.push_back(MakeCovidTotalWorkload());
  all.push_back(MakeCovidDailyWorkload());
  all.push_back(MakeSp500Workload());
  all.push_back(MakeLiquorWorkload());
  return all;
}

const char* PresetName(OptPreset preset) {
  switch (preset) {
    case OptPreset::kVanilla:
      return "Vanilla";
    case OptPreset::kFilter:
      return "w filter";
    case OptPreset::kO1:
      return "O1";
    case OptPreset::kO2:
      return "O2";
    case OptPreset::kO1O2:
      return "O1+O2";
  }
  return "?";
}

void ApplyPreset(OptPreset preset, TSExplainConfig* config) {
  config->use_filter = preset != OptPreset::kVanilla;
  config->use_guess_verify =
      preset == OptPreset::kO1 || preset == OptPreset::kO1O2;
  config->use_sketch =
      preset == OptPreset::kO2 || preset == OptPreset::kO1O2;
}

void PrintHeader(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

void PrintSubHeader(const std::string& title) {
  std::printf("\n--- %s ---\n", title.c_str());
}

std::string FormatMs(double ms) { return StrFormat("%8.1f ms", ms); }

std::string ResultSlug(const std::string& text) {
  std::string slug;
  slug.reserve(text.size());
  bool last_was_sep = true;  // also trims leading separators
  for (char c : text) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      slug.push_back(
          static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
      last_was_sep = false;
    } else if (!last_was_sep) {
      slug.push_back('_');
      last_was_sep = true;
    }
  }
  while (!slug.empty() && slug.back() == '_') slug.pop_back();
  return slug;
}

void EmitResult(const std::string& name, double ms) {
  // Six decimals: module (b) medians on small lattices are microseconds.
  std::printf("BENCH_RESULT %s %.6f\n", name.c_str(), ms);
}

void EmitMetricsSnapshot() {
  std::printf(
      "BENCH_METRICS %s\n",
      RenderMetricsJson(MetricRegistry::Global().Snapshot()).c_str());
}

void PrintAsciiChart(const TimeSeries& ts, const std::vector<int>& cuts,
                     int height, int width) {
  const int n = static_cast<int>(ts.size());
  if (n == 0) return;
  width = std::min(width, n);
  double lo = ts.values[0], hi = ts.values[0];
  for (double v : ts.values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const double range = hi - lo > 0 ? hi - lo : 1.0;

  std::vector<std::string> rows(static_cast<size_t>(height),
                                std::string(static_cast<size_t>(width), ' '));
  for (int col = 0; col < width; ++col) {
    const int t = col * (n - 1) / (width - 1 > 0 ? width - 1 : 1);
    const double v = ts.values[static_cast<size_t>(t)];
    int level = static_cast<int>((v - lo) / range * (height - 1) + 0.5);
    level = std::clamp(level, 0, height - 1);
    rows[static_cast<size_t>(height - 1 - level)]
        [static_cast<size_t>(col)] = '*';
  }
  // Overlay cut markers.
  for (int cut : cuts) {
    const int col = cut * (width - 1) / (n - 1 > 0 ? n - 1 : 1);
    for (int r = 0; r < height; ++r) {
      char& cell = rows[static_cast<size_t>(r)][static_cast<size_t>(col)];
      if (cell == ' ') cell = '|';
    }
  }
  for (const std::string& row : rows) std::printf("  %s\n", row.c_str());
}

void PrintSegmentsTable(const TSExplainResult& result) {
  std::printf("  %-16s %-34s %-34s %-34s\n", "Segment", "Top-1 Expl",
              "Top-2 Expl", "Top-3 Expl");
  for (const SegmentExplanation& seg : result.segments) {
    std::string cols[3];
    for (size_t r = 0; r < 3; ++r) {
      cols[r] = r < seg.top.size() ? seg.top[r].ToString() : "-";
    }
    std::printf("  %-16s %-34s %-34s %-34s\n",
                (seg.begin_label + " ~" + seg.end_label).c_str(),
                cols[0].c_str(), cols[1].c_str(), cols[2].c_str());
  }
}

void PrintCutDates(const std::string& label, const std::vector<int>& cuts,
                   const std::vector<std::string>& time_labels) {
  std::vector<std::string> parts;
  for (int cut : cuts) {
    parts.push_back(time_labels[static_cast<size_t>(cut)]);
  }
  std::printf("  %-14s %s\n", label.c_str(), Join(parts, " | ").c_str());
}

BaselineCuts RunBaselines(const std::vector<double>& values, int k,
                          int window) {
  BaselineCuts cuts;
  cuts.window = window > 0
                    ? window
                    : std::max(3, static_cast<int>(values.size()) / 64);
  cuts.bottom_up = BottomUpSegment(values, k);
  cuts.fluss = FlussSegment(values, k, cuts.window);
  cuts.nnsegment = NnSegment(values, k, cuts.window);
  return cuts;
}

int CountIdenticalNeighborSegments(TSExplain& engine,
                                   const std::vector<int>& cuts) {
  int identical = 0;
  for (size_t i = 0; i + 2 < cuts.size(); ++i) {
    const auto left = engine.ExplainSegment(cuts[i], cuts[i + 1]);
    const auto right = engine.ExplainSegment(cuts[i + 1], cuts[i + 2]);
    if (left.size() != right.size()) continue;
    bool same = true;
    for (size_t r = 0; r < left.size(); ++r) {
      if (left[r].id != right[r].id || left[r].tau != right[r].tau) {
        same = false;
        break;
      }
    }
    if (same) ++identical;
  }
  return identical;
}

TSExplainResult RunCaseStudy(Workload& w, TSExplain& engine) {
  const TSExplainResult result = engine.Run();
  const TimeSeries overall = engine.cube().OverallSeries();

  PrintSubHeader("aggregated series (smoothed view the engine explains)");
  PrintAsciiChart(overall, result.segmentation.cuts, 10);

  PrintSubHeader(StrFormat("TSExplain: optimal K* = %d (elbow), "
                           "total variance %.3f",
                           result.chosen_k,
                           result.segmentation.total_variance));
  PrintCutDates("TSExplain", result.segmentation.cuts, overall.labels);
  PrintSegmentsTable(result);

  std::printf("\n  K-variance curve (K : D(n,K)):");
  for (size_t k = 0; k < result.k_variance_curve.size(); ++k) {
    if (k % 5 == 0) std::printf("\n   ");
    std::printf(" %2zu:%8.3f", k + 1, result.k_variance_curve[k]);
  }
  std::printf("\n");

  PrintSubHeader("explanation-agnostic baselines at the same K");
  const BaselineCuts baselines =
      RunBaselines(overall.values, result.chosen_k);
  std::printf("  (FLUSS / NNSegment window = %d)\n", baselines.window);
  PrintCutDates("Bottom-Up", baselines.bottom_up, overall.labels);
  PrintCutDates("FLUSS", baselines.fluss, overall.labels);
  PrintCutDates("NNSegment", baselines.nnsegment, overall.labels);

  PrintSubHeader(
      "diversity diagnostic: adjacent segments with IDENTICAL top "
      "explanations (paper: baselines repeat themselves)");
  std::printf("  TSExplain: %d   Bottom-Up: %d   FLUSS: %d   NNSegment: %d\n",
              CountIdenticalNeighborSegments(engine,
                                             result.segmentation.cuts),
              CountIdenticalNeighborSegments(engine, baselines.bottom_up),
              CountIdenticalNeighborSegments(engine, baselines.fluss),
              CountIdenticalNeighborSegments(engine, baselines.nnsegment));
  (void)w;
  return result;
}

}  // namespace bench
}  // namespace tsexplain
