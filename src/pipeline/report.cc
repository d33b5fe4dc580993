#include "src/pipeline/report.h"

#include <sstream>

#include "src/common/strings.h"

namespace tsexplain {

std::string RenderTextReport(const TSExplain& engine,
                             const TSExplainResult& result) {
  std::ostringstream out;
  out << "TSExplain result: K = " << result.chosen_k
      << StrFormat(" segments, total variance %.4f",
                   result.segmentation.total_variance)
      << StrFormat(", %zu candidate explanations (%zu active)\n",
                   result.epsilon, result.filtered_epsilon);
  for (const SegmentExplanation& seg : result.segments) {
    out << StrFormat("\n[%s .. %s]  var=%.3f%s\n", seg.begin_label.c_str(),
                     seg.end_label.c_str(), seg.variance,
                     seg.high_variance_hint
                         ? "  ** inspect: mixed explanations **"
                         : "");
    if (seg.top.empty()) {
      out << "    (no contributing explanation)\n";
    }
    for (size_t r = 0; r < seg.top.size(); ++r) {
      out << StrFormat("    top-%zu  %-40s gamma=%.4g\n", r + 1,
                       seg.top[r].ToString().c_str(), seg.top[r].gamma);
    }
  }
  // A one-shot report: the engine's construction, then the run's phases.
  out << StrFormat("\ntiming: build %.1f ms, run %.1f ms (",
                   engine.build_ms(), result.timing.total_ms);
  const char* separator = "";
  for (const auto& [name, ms] : result.timing.Phases()) {
    out << separator << StrFormat("%s %.1f", name, ms);
    separator = ", ";
  }
  out << StrFormat("); cpu: score %.1f ms, cascading analysts %.1f ms\n",
                   result.timing.score_cpu_ms, result.timing.ca_cpu_ms);
  return out.str();
}

std::string RenderVegaLiteSpec(const TSExplain& engine,
                               const TSExplainResult& result) {
  JsonWriter json(/*pretty=*/true);
  const TimeSeries overall = engine.cube().OverallSeries();

  json.BeginObject();
  json.Key("$schema");
  json.String("https://vega.github.io/schema/vega-lite/v5.json");
  json.Key("description");
  json.String("TSExplain evolving explanations");
  json.Key("width");
  json.Int(800);
  json.Key("height");
  json.Int(300);

  // Inline data: one row per (t, series) sample.
  json.Key("data");
  json.BeginObject();
  json.Key("values");
  json.BeginArray();
  auto emit_point = [&json, &overall](size_t t, const std::string& series,
                                      double value) {
    json.BeginObject();
    json.Key("t");
    json.Int(static_cast<long long>(t));
    json.Key("label");
    json.String(overall.LabelAt(t));
    json.Key("series");
    json.String(series);
    json.Key("value");
    json.Number(value);
    json.EndObject();
  };
  for (size_t t = 0; t < overall.size(); ++t) {
    emit_point(t, "overall", overall.values[t]);
  }
  for (const SegmentExplanation& seg : result.segments) {
    for (const ExplanationItem& item : seg.top) {
      const TimeSeries slice = engine.cube().SliceSeries(item.id);
      for (int t = seg.begin; t <= seg.end; ++t) {
        emit_point(static_cast<size_t>(t),
                   item.description + " (" + seg.begin_label + ")",
                   slice.values[static_cast<size_t>(t)]);
      }
    }
  }
  json.EndArray();
  json.EndObject();

  // Layer 1: lines; layer 2: cut rules.
  json.Key("layer");
  json.BeginArray();
  json.BeginObject();
  json.Key("mark");
  json.String("line");
  json.Key("encoding");
  json.BeginObject();
  json.Key("x");
  json.BeginObject();
  json.Key("field");
  json.String("t");
  json.Key("type");
  json.String("quantitative");
  json.EndObject();
  json.Key("y");
  json.BeginObject();
  json.Key("field");
  json.String("value");
  json.Key("type");
  json.String("quantitative");
  json.EndObject();
  json.Key("color");
  json.BeginObject();
  json.Key("field");
  json.String("series");
  json.Key("type");
  json.String("nominal");
  json.EndObject();
  json.EndObject();
  json.EndObject();

  json.BeginObject();
  json.Key("mark");
  json.BeginObject();
  json.Key("type");
  json.String("rule");
  json.Key("strokeDash");
  json.BeginArray();
  json.Int(4);
  json.Int(4);
  json.EndArray();
  json.EndObject();
  json.Key("data");
  json.BeginObject();
  json.Key("values");
  json.BeginArray();
  for (int cut : result.segmentation.cuts) {
    json.BeginObject();
    json.Key("t");
    json.Int(cut);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  json.Key("encoding");
  json.BeginObject();
  json.Key("x");
  json.BeginObject();
  json.Key("field");
  json.String("t");
  json.Key("type");
  json.String("quantitative");
  json.EndObject();
  json.EndObject();
  json.EndObject();
  json.EndArray();

  json.EndObject();
  return json.str();
}

}  // namespace tsexplain
