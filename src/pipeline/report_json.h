// The machine-readable wire format: JSON serialization of TSExplainResult
// plus the JsonWriter emitter it is built on. This is the single source of
// truth for result JSON — the CLI (`--json`), the NDJSON server
// (tools/tsexplain_serve.cc), and the service result cache all render
// through RenderJsonReport, so their outputs are byte-identical for the
// same result and options. Schema documented in docs/SERVICE.md; field
// names are stable (see tests/test_report.cc).

#ifndef TSEXPLAIN_PIPELINE_REPORT_JSON_H_
#define TSEXPLAIN_PIPELINE_REPORT_JSON_H_

#include <sstream>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/pipeline/tsexplain.h"

namespace tsexplain {

/// Minimal streaming JSON emitter: tracks depth for pretty printing. The
/// schemas in this codebase are small and fixed, so a full JSON library is
/// unnecessary. Shared by the report renderers, the Vega-Lite exporter,
/// and the NDJSON protocol layer.
class JsonWriter {
 public:
  explicit JsonWriter(bool pretty) : pretty_(pretty) {}

  void BeginObject() { Open('{'); }
  void EndObject() { Close('}'); }
  void BeginArray() { Open('['); }
  void EndArray() { Close(']'); }

  void Key(const std::string& name) {
    Separator();
    out_ << '"' << JsonEscape(name) << "\":";
    if (pretty_) out_ << ' ';
    pending_value_ = true;
  }

  void String(const std::string& value) {
    Separator();
    out_ << '"' << JsonEscape(value) << '"';
  }
  void Number(double value);
  void Int(long long value) {
    Separator();
    out_ << value;
  }
  void Bool(bool value) {
    Separator();
    out_ << (value ? "true" : "false");
  }
  void Null() {
    Separator();
    out_ << "null";
  }
  /// Splices pre-rendered JSON in value position verbatim. The caller
  /// guarantees `json` is a complete, valid JSON value (e.g. the output of
  /// RenderJsonReport); used by the server to embed cached reports without
  /// re-serializing.
  void Raw(const std::string& json) {
    Separator();
    out_ << json;
  }

  std::string str() const { return out_.str(); }

 private:
  void Open(char c) {
    Separator();
    out_ << c;
    needs_comma_.push_back(false);
  }
  void Close(char c) {
    needs_comma_.pop_back();
    Newline();
    out_ << c;
    if (!needs_comma_.empty()) needs_comma_.back() = true;
  }
  void Separator() {
    if (pending_value_) {
      pending_value_ = false;  // value follows a key: no comma/newline
      return;
    }
    if (!needs_comma_.empty()) {
      if (needs_comma_.back()) out_ << ',';
      needs_comma_.back() = true;
      Newline();
    }
  }
  void Newline() {
    if (!pretty_) return;
    out_ << '\n';
    for (size_t i = 0; i < needs_comma_.size(); ++i) out_ << "  ";
  }

  std::ostringstream out_;
  std::vector<bool> needs_comma_;
  bool pretty_;
  bool pending_value_ = false;
};

struct ReportOptions {
  /// Include each explanation's slice trendline (per final segment) in the
  /// JSON export, as the demo UI charts them.
  bool include_trendlines = true;
  /// Include the K-variance curve (for elbow plots).
  bool include_k_curve = true;
  /// Pretty-print the JSON with two-space indentation.
  bool pretty = true;
};

/// Writes `timing` as one flat object of milliseconds: the run's phases
/// (TimingBreakdown::Phases), then `score_cpu`, `ca_cpu` and `total`. The
/// result's `timing_ms` and the slow-query log's `timing` both use it.
void WriteTimingJson(JsonWriter& json, const TimingBreakdown& timing);

/// JSON document with the full result: segments (labels, cuts, variance,
/// hint), explanations (description, gamma, tau, optional trendline),
/// the overall series, the K-variance curve, and the timing breakdown.
/// Stable field names; see tests for the schema.
std::string RenderJsonReport(const TSExplain& engine,
                             const TSExplainResult& result,
                             const ReportOptions& options = {});

/// Cube-level overload: everything the report needs beyond the result is
/// the cube's overall/slice series, so batch engines and streaming
/// sessions serialize through the same code path.
std::string RenderJsonReport(const ExplanationCube& cube,
                             const TSExplainResult& result,
                             const ReportOptions& options = {});

}  // namespace tsexplain

#endif  // TSEXPLAIN_PIPELINE_REPORT_JSON_H_
