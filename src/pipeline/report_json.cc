#include "src/pipeline/report_json.h"

#include <cmath>

#include "src/common/strings.h"

namespace tsexplain {
namespace {

void EmitSeries(JsonWriter& json, const std::vector<double>& values) {
  json.BeginArray();
  for (double v : values) json.Number(v);
  json.EndArray();
}

}  // namespace

void JsonWriter::Number(double value) {
  Separator();
  if (std::isfinite(value)) {
    out_ << StrFormat("%.6g", value);
  } else {
    out_ << "null";  // JSON has no infinity
  }
}

void WriteTimingJson(JsonWriter& json, const TimingBreakdown& timing) {
  json.BeginObject();
  for (const auto& [name, ms] : timing.Phases()) {
    json.Key(name);
    json.Number(ms);
  }
  json.Key("score_cpu");
  json.Number(timing.score_cpu_ms);
  json.Key("ca_cpu");
  json.Number(timing.ca_cpu_ms);
  json.Key("total");
  json.Number(timing.total_ms);
  json.EndObject();
}

std::string RenderJsonReport(const ExplanationCube& cube,
                             const TSExplainResult& result,
                             const ReportOptions& options) {
  JsonWriter json(options.pretty);
  json.BeginObject();
  json.Key("k");
  json.Int(result.chosen_k);
  json.Key("total_variance");
  json.Number(result.segmentation.total_variance);
  json.Key("epsilon");
  json.Int(static_cast<long long>(result.epsilon));
  json.Key("filtered_epsilon");
  json.Int(static_cast<long long>(result.filtered_epsilon));

  json.Key("cuts");
  json.BeginArray();
  for (int cut : result.segmentation.cuts) json.Int(cut);
  json.EndArray();

  const TimeSeries overall = cube.OverallSeries();
  json.Key("time_labels");
  json.BeginArray();
  for (size_t t = 0; t < overall.size(); ++t) {
    json.String(overall.LabelAt(t));
  }
  json.EndArray();
  json.Key("overall");
  EmitSeries(json, overall.values);

  json.Key("segments");
  json.BeginArray();
  for (const SegmentExplanation& seg : result.segments) {
    json.BeginObject();
    json.Key("begin");
    json.Int(seg.begin);
    json.Key("end");
    json.Int(seg.end);
    json.Key("begin_label");
    json.String(seg.begin_label);
    json.Key("end_label");
    json.String(seg.end_label);
    json.Key("variance");
    json.Number(seg.variance);
    json.Key("high_variance_hint");
    json.Bool(seg.high_variance_hint);
    json.Key("explanations");
    json.BeginArray();
    for (const ExplanationItem& item : seg.top) {
      json.BeginObject();
      json.Key("description");
      json.String(item.description);
      json.Key("gamma");
      json.Number(item.gamma);
      json.Key("effect");
      json.String(item.tau > 0 ? "+" : (item.tau < 0 ? "-" : "="));
      if (options.include_trendlines) {
        const TimeSeries slice = cube.SliceSeries(item.id);
        json.Key("trendline");
        json.BeginArray();
        for (int t = seg.begin; t <= seg.end; ++t) {
          json.Number(slice.values[static_cast<size_t>(t)]);
        }
        json.EndArray();
      }
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();

  if (options.include_k_curve) {
    json.Key("k_variance_curve");
    json.BeginArray();
    for (double v : result.k_variance_curve) json.Number(v);
    json.EndArray();
  }

  json.Key("timing_ms");
  WriteTimingJson(json, result.timing);

  json.EndObject();
  return json.str();
}

std::string RenderJsonReport(const TSExplain& engine,
                             const TSExplainResult& result,
                             const ReportOptions& options) {
  return RenderJsonReport(engine.cube(), result, options);
}

}  // namespace tsexplain
