#include "src/service/protocol.h"

#include <cmath>
#include <exception>
#include <iterator>
#include <utility>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/metrics_history.h"
#include "src/common/strings.h"
#include "src/common/timer.h"
#include "src/cube/score_kernels.h"
#include "src/seg/segment_distance.h"
#include "src/service/watchdog.h"
#include "src/storage/table_snapshot.h"

// Build identity surfaced by `state` and the `metrics` op. CMake stamps
// the configure-time git SHA; embedders without the definition report
// "unknown" rather than failing to build.
#ifndef TSEXPLAIN_GIT_SHA
#define TSEXPLAIN_GIT_SHA "unknown"
#endif

namespace tsexplain {
namespace {

// Response envelope helpers ------------------------------------------------

// Echoes the request id (number or string; null when absent/invalid).
void EmitId(JsonWriter& json, const JsonValue* request) {
  json.Key("id");
  const JsonValue* id = request ? request->Find("id") : nullptr;
  if (id && id->IsNumber()) {
    const double d = id->AsDouble();
    // Integral ids in the exactly-representable range echo as integers;
    // anything else (fractional, huge, inf) echoes through Number, which
    // never performs an out-of-range double->int cast (UB).
    if (d >= -9.0e15 && d <= 9.0e15 &&
        d == static_cast<double>(static_cast<long long>(d))) {
      json.Int(static_cast<long long>(d));
    } else {
      json.Number(d);
    }
  } else if (id && id->IsString()) {
    json.String(id->AsString());
  } else {
    json.Null();
  }
}

// `retry_after_ms` > 0 (overload / quota sheds) is embedded in the error
// object so clients can back off without parsing the message.
std::string MakeError(const JsonValue* request, const std::string& op,
                      const std::string& code, const std::string& message,
                      double retry_after_ms = 0.0) {
  JsonWriter json(/*pretty=*/false);
  json.BeginObject();
  EmitId(json, request);
  json.Key("ok");
  json.Bool(false);
  if (!op.empty()) {
    json.Key("op");
    json.String(op);
  }
  json.Key("error");
  json.BeginObject();
  json.Key("code");
  json.String(code);
  json.Key("message");
  json.String(message);
  if (retry_after_ms > 0.0) {
    json.Key("retry_after_ms");
    json.Number(retry_after_ms);
  }
  json.EndObject();
  json.EndObject();
  return json.str();
}

// Begins the {"id":..,"ok":true,"op":..,"request_id":..} envelope; the
// caller adds op-specific fields and calls EndObject. The request id
// stays AHEAD of any op-specific payload so the warm-restart
// byte-identity checks (everything after `"result":`) are unaffected by
// per-process id sequences.
void BeginOk(JsonWriter& json, const JsonValue& request,
             const std::string& op, uint64_t request_id) {
  json.BeginObject();
  EmitId(json, &request);
  json.Key("ok");
  json.Bool(true);
  json.Key("op");
  json.String(op);
  json.Key("request_id");
  json.Int(static_cast<long long>(request_id));
}

// Emits the finalized span tree (trace.h) as a flat array; parents
// always precede their children, so clients rebuild the tree in one
// pass. Skipped entirely when the request did not ask for tracing.
void EmitTrace(JsonWriter& json, const std::vector<TraceSpan>& spans) {
  if (spans.empty()) return;
  json.Key("trace");
  json.BeginArray();
  for (const TraceSpan& span : spans) {
    json.BeginObject();
    json.Key("name");
    json.String(span.name);
    json.Key("start_ms");
    json.Number(span.start_ms);
    json.Key("duration_ms");
    json.Number(span.duration_ms);
    json.Key("parent");
    json.Int(span.parent);
    json.EndObject();
  }
  json.EndArray();
}

// The fields both explain ops end their ok envelope with, closing it.
void EndExplainOk(JsonWriter& json, const ExplainResponse& response) {
  json.Key("cache_hit");
  json.Bool(response.cache_hit);
  json.Key("latency_ms");
  json.Number(response.latency_ms);
  EmitTrace(json, response.trace);
  json.Key("result");
  json.Raw(response.json);
  json.EndObject();
}

// The "build" block of `state` and the `metrics` op: who is this binary
// (docs/OBSERVABILITY.md, "Self-observation").
void EmitBuildInfo(JsonWriter& json, int pool_size) {
  json.Key("build");
  json.BeginObject();
  json.Key("git_sha");
  json.String(TSEXPLAIN_GIT_SHA);
  json.Key("simd");
  json.String(ScoreAllUsesSimd() ? "avx2" : "scalar");
  json.Key("pointer_bits");
  json.Int(static_cast<long long>(sizeof(void*) * 8));
  json.Key("threads");
  json.Int(pool_size);
  json.EndObject();
}

double UptimeSeconds(double start_wall_ms) {
  if (start_wall_ms <= 0.0) return 0.0;
  const double seconds = (WallMs() - start_wall_ms) / 1000.0;
  return seconds > 0.0 ? seconds : 0.0;
}

bool ParseAggregate(const std::string& name, AggregateFunction* out) {
  if (name == "sum") {
    *out = AggregateFunction::kSum;
  } else if (name == "count") {
    *out = AggregateFunction::kCount;
  } else if (name == "avg") {
    *out = AggregateFunction::kAvg;
  } else {
    return false;
  }
  return true;
}

bool ParseDiffMetric(const std::string& name, DiffMetricKind* out) {
  if (name == "abs") {
    *out = DiffMetricKind::kAbsoluteChange;
  } else if (name == "rel") {
    *out = DiffMetricKind::kRelativeChange;
  } else if (name == "rr") {
    *out = DiffMetricKind::kRiskRatio;
  } else {
    return false;
  }
  return true;
}

bool ParseVarianceMetric(const std::string& name, VarianceMetric* out) {
  for (VarianceMetric metric : kAllVarianceMetrics) {
    if (name == VarianceMetricName(metric)) {
      *out = metric;
      return true;
    }
  }
  return false;
}

// Optional request fields. An absent field keeps `*out`, its default; a
// present one must have the field's JSON type (for an int field, an
// integral number in int range), or the request is rejected naming the
// field. One member lookup per field: explain runs these on every
// request, cache hits included.
bool FieldError(const char* key, const char* expected, std::string* error) {
  *error = StrFormat("'%s' must be %s", key, expected);
  return false;
}

bool ReadField(const JsonValue& request, const char* key, std::string* out,
               std::string* error) {
  const JsonValue* v = request.Find(key);
  if (v == nullptr) return true;
  if (!v->IsString()) return FieldError(key, "a string", error);
  *out = v->AsString();
  return true;
}

bool ReadField(const JsonValue& request, const char* key, bool* out,
               std::string* error) {
  const JsonValue* v = request.Find(key);
  if (v == nullptr) return true;
  if (!v->IsBool()) return FieldError(key, "a boolean", error);
  *out = v->AsBool();
  return true;
}

bool ReadField(const JsonValue& request, const char* key, double* out,
               std::string* error) {
  const JsonValue* v = request.Find(key);
  if (v == nullptr) return true;
  if (!v->IsNumber()) return FieldError(key, "a number", error);
  *out = v->AsDouble();
  return true;
}

bool ReadField(const JsonValue& request, const char* key, int* out,
               std::string* error) {
  const JsonValue* v = request.Find(key);
  if (v == nullptr) return true;
  const double d = v->AsDouble();
  // Bounds exactly representable as doubles: -2^31 and 2^31 (excluded),
  // so the cast below is always defined.
  if (!v->IsNumber() || !(d >= -2147483648.0 && d < 2147483648.0) ||
      d != std::floor(d)) {
    return FieldError(key, "an integer in int range", error);
  }
  *out = static_cast<int>(d);
  return true;
}

bool ReadField(const JsonValue& request, const char* key,
               std::vector<std::string>* out, std::string* error) {
  const JsonValue* v = request.Find(key);
  if (v == nullptr) return true;
  if (!v->IsArray()) return FieldError(key, "an array of strings", error);
  std::vector<std::string> items;
  items.reserve(v->array().size());
  for (const JsonValue& item : v->array()) {
    if (!item.IsString()) return FieldError(key, "an array of strings", error);
    items.push_back(item.AsString());
  }
  *out = std::move(items);
  return true;
}

// The fields explain and explain_session read beyond the query config.
bool ParseServeFields(const JsonValue& request, ExplainRequest* out,
                      std::string* error) {
  return ReadField(request, "tenant", &out->tenant, error) &&
         ReadField(request, "trendlines", &out->include_trendlines, error) &&
         ReadField(request, "k_curve", &out->include_k_curve, error) &&
         ReadField(request, "trace", &out->trace, error);
}

// Session id field: a positive integer (bounded so the double->uint64
// cast below is always defined; fractional ids are rejected rather than
// silently truncated onto someone else's session).
bool ParseSessionId(const JsonValue& request, uint64_t* out,
                    std::string* error) {
  const JsonValue* v = request.Find("session");
  const double d = v && v->IsNumber() ? v->AsDouble() : 0.0;
  if (d < 1 || d > 9.0e15 ||
      d != static_cast<double>(static_cast<uint64_t>(d))) {
    *error = "missing or invalid 'session' (positive integer expected)";
    return false;
  }
  *out = static_cast<uint64_t>(d);
  return true;
}

}  // namespace

bool ParseQueryConfig(const JsonValue& request, TSExplainConfig* config,
                      std::string* error) {
  // "fast" switches O1-O3 on; the per-option fields below override it.
  bool fast = false;
  if (!ReadField(request, "fast", &fast, error)) return false;
  if (fast) {
    config->use_filter = true;
    config->use_guess_verify = true;
    config->use_sketch = true;
  }
  std::string agg = "sum";
  std::string diff = "abs";
  std::string variance = "tse";
  if (!ReadField(request, "agg", &agg, error) ||
      !ReadField(request, "measure", &config->measure, error) ||
      !ReadField(request, "explain_by", &config->explain_by_names, error) ||
      !ReadField(request, "order", &config->max_order, error) ||
      !ReadField(request, "m", &config->m, error) ||
      !ReadField(request, "k", &config->fixed_k, error) ||
      !ReadField(request, "max_k", &config->max_k, error) ||
      !ReadField(request, "smooth", &config->smooth_window, error) ||
      !ReadField(request, "threads", &config->threads, error) ||
      !ReadField(request, "diff_metric", &diff, error) ||
      !ReadField(request, "variance_metric", &variance, error) ||
      !ReadField(request, "filter", &config->use_filter, error) ||
      !ReadField(request, "filter_ratio", &config->filter_ratio, error) ||
      !ReadField(request, "guess_verify", &config->use_guess_verify,
                 error) ||
      !ReadField(request, "initial_guess", &config->initial_guess, error) ||
      !ReadField(request, "sketch", &config->use_sketch, error) ||
      !ReadField(request, "dedupe", &config->dedupe_redundant, error) ||
      !ReadField(request, "exclude", &config->exclude, error)) {
    return false;
  }
  if (!ParseAggregate(agg, &config->aggregate)) {
    *error = "unknown aggregate: " + agg;
    return false;
  }
  if (!ParseDiffMetric(diff, &config->diff_metric)) {
    *error = "unknown diff_metric: " + diff;
    return false;
  }
  if (!ParseVarianceMetric(variance, &config->variance_metric)) {
    *error = "unknown variance_metric: " + variance;
    return false;
  }
  return true;
}

// Every op the handler answers, with the class the transport dispatches
// it by and its handler (protocol.h).
using Self = ProtocolHandler;
const ProtocolHandler::OpInfo ProtocolHandler::kOps[] = {
    {"register", Dispatch::kBarrier, &Self::HandleRegister},
    {"list_datasets", Dispatch::kRead, &Self::HandleListDatasets},
    {"drop_dataset", Dispatch::kBarrier, &Self::HandleDropDataset},
    {"explain", Dispatch::kAdmittedRead, &Self::HandleExplain},
    {"recommend", Dispatch::kRead, &Self::HandleRecommend},
    {"open_session", Dispatch::kBarrier, &Self::HandleOpenSession},
    {"append", Dispatch::kBarrier, &Self::HandleAppend},
    {"explain_session", Dispatch::kAdmittedRead, &Self::HandleExplainSession},
    {"close_session", Dispatch::kBarrier, &Self::HandleCloseSession},
    {"save_cache", Dispatch::kBarrier, &Self::HandleSaveCache},
    {"load_cache", Dispatch::kBarrier, &Self::HandleLoadCache},
    {"recover_session", Dispatch::kBarrier, &Self::HandleRecoverSession},
    {"healthz", Dispatch::kInline, &Self::HandleHealthz},
    {"state", Dispatch::kBarrier, &Self::HandleState},
    {"metrics", Dispatch::kBarrier, &Self::HandleMetrics},
    {"metrics_history", Dispatch::kBarrier, &Self::HandleMetricsHistory},
    {"shutdown", Dispatch::kShutdown, &Self::HandleShutdown},
};

const ProtocolHandler::OpInfo* ProtocolHandler::FindOp(const std::string& op) {
  for (const OpInfo& info : kOps) {
    if (op == info.name) return &info;
  }
  return nullptr;
}

std::vector<ProtocolHandler::OpInfo> ProtocolHandler::Ops() {
  return {std::begin(kOps), std::end(kOps)};
}

ProtocolHandler::Dispatch ProtocolHandler::DispatchOf(const std::string& op) {
  const OpInfo* info = FindOp(op);
  return info == nullptr ? Dispatch::kBarrier : info->dispatch;
}

std::string ProtocolHandler::OpOf(const JsonValue& request) {
  return request.GetString("op");
}

std::string ProtocolHandler::MakeParseError(
    const std::string& message) const {
  return MakeError(nullptr, "", error_code::kParseError, message);
}

std::string ProtocolHandler::MakeOverloaded(const JsonValue& request) const {
  return MakeError(&request, OpOf(request), error_code::kOverloaded,
                   "server overloaded: request shed before dispatch",
                   service_.admission().RetryAfterMsHint());
}

std::string ProtocolHandler::Handle(const JsonValue& request) {
  const uint64_t request_id =
      next_request_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::string op = OpOf(request);
  // The watchdog brackets the WHOLE handler, so a query wedged anywhere
  // (admission wait, engine run, render) ages in the in-flight set and
  // eventually surfaces through healthz / `query.stuck`.
  if (introspection_.watchdog) {
    introspection_.watchdog->Begin(request_id, op);
  }
  Timer timer;
  std::string response;
  // The last line of defence: whatever escapes a handler still answers
  // its request once and releases its watchdog entry.
  const auto internal_error = [&](const std::string& what) {
    MetricRegistry::Global().GetCounter("protocol.internal_errors").Inc();
    return MakeError(&request, op, error_code::kInternal,
                     "internal error: " + what);
  };
  try {
    response = HandleInternal(request, op, request_id);
  } catch (const std::exception& e) {
    response = internal_error(e.what());
  } catch (...) {
    response = internal_error("unknown exception");
  }
  if (introspection_.watchdog) introspection_.watchdog->End(request_id);
  if (!log_.access_log) return response;
  // The envelope's "ok" is the first unescaped `"ok":` in the response
  // (JsonWriter escapes quotes inside string values, so a literal
  // `"ok":true` can only be the envelope's own field).
  const size_t ok_pos = response.find("\"ok\":true");
  const size_t fail_pos = response.find("\"ok\":false");
  const bool ok = ok_pos != std::string::npos &&
                  (fail_pos == std::string::npos || ok_pos < fail_pos);
  JsonWriter json(/*pretty=*/false);
  json.BeginObject();
  json.Key("ts_ms");
  json.Number(WallMs());
  json.Key("request_id");
  json.Int(static_cast<long long>(request_id));
  json.Key("op");
  json.String(op);
  json.Key("ok");
  json.Bool(ok);
  json.Key("latency_ms");
  json.Number(timer.ElapsedMs());
  json.EndObject();
  log_.access_log->WriteLine(json.str());
  return response;
}

void ProtocolHandler::MaybeLogSlowQuery(const std::string& op,
                                        uint64_t request_id,
                                        const std::string& dataset,
                                        uint64_t session,
                                        const std::string& tenant,
                                        const ExplainResponse& response) {
  if (!log_.slow_query_log || log_.slow_query_ms <= 0.0) return;
  if (response.latency_ms < log_.slow_query_ms) return;
  JsonWriter json(/*pretty=*/false);
  json.BeginObject();
  json.Key("ts_ms");
  json.Number(WallMs());
  json.Key("request_id");
  json.Int(static_cast<long long>(request_id));
  json.Key("op");
  json.String(op);
  if (!dataset.empty()) {
    json.Key("dataset");
    json.String(dataset);
  }
  if (session != 0) {
    json.Key("session");
    json.Int(static_cast<long long>(session));
  }
  json.Key("tenant");
  json.String(tenant);
  json.Key("query_key");
  json.String(response.query_key);
  json.Key("ok");
  json.Bool(response.ok);
  json.Key("cache_hit");
  json.Bool(response.cache_hit);
  json.Key("admission_outcome");
  json.String(response.admission_outcome);
  json.Key("latency_ms");
  json.Number(response.latency_ms);
  // The engine run's timing (tsexplain.h), as in the result's timing_ms:
  // present only when this request carries a freshly computed structured
  // result (warm-started cache entries persist the wire JSON alone).
  if (response.result) {
    json.Key("timing");
    WriteTimingJson(json, response.result->timing);
  }
  json.EndObject();
  log_.slow_query_log->WriteLine(json.str());
}

std::string ProtocolHandler::HandleInternal(
    const JsonValue& request, const std::string& op, uint64_t request_id) {
  if (!request.IsObject()) {
    return MakeError(&request, "", error_code::kBadRequest,
                     "request must be a JSON object");
  }
  const OpInfo* info = FindOp(op);
  if (info == nullptr) {
    return MakeError(&request, op, error_code::kUnknownOp,
                     op.empty() ? "missing 'op'" : "unknown op: " + op);
  }
  return (this->*info->handle)(request, op, request_id);
}

std::string ProtocolHandler::HandleRegister(
    const JsonValue& request, const std::string& op, uint64_t request_id) {
  const std::string name = request.GetString("name");
  if (name.empty()) {
    return MakeError(&request, op, error_code::kBadRequest,
                     "missing 'name'");
  }
  const std::string path = request.GetString("csv_path");
  const std::string inline_csv = request.GetString("csv");
  if (path.empty() == inline_csv.empty()) {
    return MakeError(&request, op, error_code::kBadRequest,
                     "exactly one of 'csv_path' or 'csv' is required");
  }
  std::string error;
  DatasetInfo info;  // from registration, not a racy Get() re-lookup
  bool ok = false;
  if (!path.empty() && storage::IsTableSnapshotFile(path)) {
    // A csv_path that is really a binary table snapshot registers
    // through the storage layer (no re-parse; docs/STORAGE.md). The
    // time/measure columns are baked into the snapshot's schema, so
    // 'time_column' is not required.
    ok = service_.registry().RegisterSnapshotFile(name, path, &error,
                                                  &info);
  } else {
    CsvOptions options;
    options.time_column = request.GetString("time_column");
    if (options.time_column.empty()) {
      return MakeError(&request, op, error_code::kBadRequest,
                       "missing 'time_column'");
    }
    bool measures_ok = true;
    if (request.Find("measures")) {
      options.measure_columns =
          request.GetStringArray("measures", &measures_ok);
    }
    if (!measures_ok) {
      return MakeError(&request, op, error_code::kBadRequest,
                       "'measures' must be an array of strings");
    }
    if (!ReadField(request, "sort_time", &options.sort_time, &error)) {
      return MakeError(&request, op, error_code::kBadRequest, error);
    }
    ok = path.empty()
             ? service_.registry().RegisterCsvText(name, inline_csv,
                                                   options, &error, &info)
             : service_.registry().RegisterCsvFile(name, path, options,
                                                   &error, &info);
  }
  if (!ok) {
    return MakeError(&request, op, error_code::kBadRequest, error);
  }
  JsonWriter json(false);
  BeginOk(json, request, op, request_id);
  json.Key("dataset");
  json.String(name);
  json.Key("rows");
  json.Int(static_cast<long long>(info.rows));
  json.Key("time_buckets");
  json.Int(static_cast<long long>(info.time_buckets));
  json.EndObject();
  return json.str();
}

std::string ProtocolHandler::HandleListDatasets(
    const JsonValue& request, const std::string& op, uint64_t request_id) {
  JsonWriter json(false);
  BeginOk(json, request, op, request_id);
  json.Key("datasets");
  json.BeginArray();
  for (const DatasetInfo& info : service_.registry().List()) {
    json.BeginObject();
    json.Key("name");
    json.String(info.name);
    json.Key("source");
    json.String(info.source);
    json.Key("rows");
    json.Int(static_cast<long long>(info.rows));
    json.Key("time_buckets");
    json.Int(static_cast<long long>(info.time_buckets));
    json.Key("dimensions");
    json.BeginArray();
    for (const std::string& dim : info.dimensions) json.String(dim);
    json.EndArray();
    json.Key("measures");
    json.BeginArray();
    for (const std::string& measure : info.measures) {
      json.String(measure);
    }
    json.EndArray();
    json.Key("hot_engines");
    json.Int(static_cast<long long>(info.hot_engines));
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.str();
}

std::string ProtocolHandler::HandleDropDataset(
    const JsonValue& request, const std::string& op, uint64_t request_id) {
  const std::string name = request.GetString("name");
  // Service-level drop: also invalidates the dataset's cached results,
  // so a later re-register under the same name starts clean.
  if (!service_.DropDataset(name)) {
    return MakeError(&request, op, error_code::kNotFound,
                     "unknown dataset: " + name);
  }
  JsonWriter json(false);
  BeginOk(json, request, op, request_id);
  json.Key("dataset");
  json.String(name);
  json.EndObject();
  return json.str();
}

std::string ProtocolHandler::HandleExplain(
    const JsonValue& request, const std::string& op, uint64_t request_id) {
  ExplainRequest explain;
  explain.dataset = request.GetString("dataset");
  if (explain.dataset.empty()) {
    return MakeError(&request, op, error_code::kBadRequest,
                     "missing 'dataset'");
  }
  std::string parse_error;
  if (!ParseQueryConfig(request, &explain.config, &parse_error) ||
      !ParseServeFields(request, &explain, &parse_error)) {
    return MakeError(&request, op, error_code::kBadRequest, parse_error);
  }
  const ExplainResponse response = service_.Explain(explain);
  MaybeLogSlowQuery(op, request_id, explain.dataset, /*session=*/0,
                    explain.tenant, response);
  if (!response.ok) {
    return MakeError(&request, op, response.error_code, response.error,
                     response.retry_after_ms);
  }
  JsonWriter json(false);
  BeginOk(json, request, op, request_id);
  json.Key("dataset");
  json.String(explain.dataset);
  EndExplainOk(json, response);
  return json.str();
}

std::string ProtocolHandler::HandleRecommend(
    const JsonValue& request, const std::string& op, uint64_t request_id) {
  const std::string dataset = request.GetString("dataset");
  if (dataset.empty()) {
    return MakeError(&request, op, error_code::kBadRequest,
                     "missing 'dataset'");
  }
  std::string agg = "sum";
  std::string measure;
  int m = 3;
  std::string error;
  if (!ReadField(request, "agg", &agg, &error) ||
      !ReadField(request, "measure", &measure, &error) ||
      !ReadField(request, "m", &m, &error)) {
    return MakeError(&request, op, error_code::kBadRequest, error);
  }
  AggregateFunction aggregate = AggregateFunction::kSum;
  if (!ParseAggregate(agg, &aggregate)) {
    return MakeError(&request, op, error_code::kBadRequest,
                     "unknown aggregate: " + agg);
  }
  const ExplainService::RecommendResponse response =
      service_.Recommend(dataset, aggregate, measure, m);
  if (!response.ok) {
    return MakeError(&request, op, response.error_code, response.error);
  }
  JsonWriter json(false);
  BeginOk(json, request, op, request_id);
  json.Key("dataset");
  json.String(dataset);
  json.Key("recommendations");
  json.BeginArray();
  for (const ExplainByRecommendation& rec : response.recommendations) {
    json.BeginObject();
    json.Key("dimension");
    json.String(rec.dimension);
    json.Key("concentration");
    json.Number(rec.concentration);
    json.Key("cardinality");
    json.Int(static_cast<long long>(rec.cardinality));
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.str();
}

std::string ProtocolHandler::HandleOpenSession(
    const JsonValue& request, const std::string& op, uint64_t request_id) {
  const std::string dataset = request.GetString("dataset");
  if (dataset.empty()) {
    return MakeError(&request, op, error_code::kBadRequest,
                     "missing 'dataset'");
  }
  TSExplainConfig config;
  std::string parse_error;
  if (!ParseQueryConfig(request, &config, &parse_error)) {
    return MakeError(&request, op, error_code::kBadRequest, parse_error);
  }
  std::string error;
  ExplainService::SessionState state;
  const uint64_t session =
      service_.OpenSession(dataset, config, &error, &state);
  if (session == 0) {
    return MakeError(&request, op, error_code::kInvalidQuery, error);
  }
  JsonWriter json(false);
  BeginOk(json, request, op, request_id);
  json.Key("session");
  json.Int(static_cast<long long>(session));
  json.Key("n");
  json.Int(state.n);
  if (!state.log_path.empty()) {
    // The crash-recovery log (pid-scoped name — clients must not guess
    // it); pass it to recover_session after a crash.
    json.Key("log");
    json.String(state.log_path);
  }
  json.EndObject();
  return json.str();
}

std::string ProtocolHandler::HandleAppend(
    const JsonValue& request, const std::string& op, uint64_t request_id) {
  uint64_t session = 0;
  std::string error;
  if (!ParseSessionId(request, &session, &error)) {
    return MakeError(&request, op, error_code::kBadRequest, error);
  }
  const std::string label = request.GetString("label");
  if (label.empty()) {
    return MakeError(&request, op, error_code::kBadRequest,
                     "missing 'label'");
  }
  const JsonValue* rows_json = request.Find("rows");
  if (!rows_json || !rows_json->IsArray()) {
    return MakeError(&request, op, error_code::kBadRequest,
                     "'rows' must be an array");
  }
  std::vector<StreamRow> rows;
  rows.reserve(rows_json->array().size());
  for (const JsonValue& row_json : rows_json->array()) {
    StreamRow row;
    bool dims_ok = false;
    row.dims = row_json.GetStringArray("dims", &dims_ok);
    const JsonValue* measures = row_json.Find("measures");
    if (!row_json.IsObject() || !dims_ok || !measures ||
        !measures->IsArray()) {
      return MakeError(&request, op, error_code::kBadRequest,
                       "each row needs 'dims' (strings) and 'measures' "
                       "(numbers)");
    }
    for (const JsonValue& m : measures->array()) {
      if (!m.IsNumber()) {
        return MakeError(&request, op, error_code::kBadRequest,
                         "'measures' entries must be numbers");
      }
      row.measures.push_back(m.AsDouble());
    }
    rows.push_back(std::move(row));
  }
  ExplainService::SessionState state;
  if (!service_.Append(session, label, rows, &error, &state)) {
    const bool unknown = error.rfind("unknown session", 0) == 0;
    return MakeError(&request, op,
                     unknown ? error_code::kNotFound
                             : error_code::kBadRequest,
                     error);
  }
  JsonWriter json(false);
  BeginOk(json, request, op, request_id);
  json.Key("session");
  json.Int(static_cast<long long>(session));
  json.Key("n");
  json.Int(state.n);
  json.Key("rebuilt");
  json.Bool(state.rebuilt);
  json.EndObject();
  return json.str();
}

std::string ProtocolHandler::HandleExplainSession(
    const JsonValue& request, const std::string& op, uint64_t request_id) {
  uint64_t session = 0;
  std::string error;
  if (!ParseSessionId(request, &session, &error)) {
    return MakeError(&request, op, error_code::kBadRequest, error);
  }
  ExplainRequest fields;
  if (!ParseServeFields(request, &fields, &error)) {
    return MakeError(&request, op, error_code::kBadRequest, error);
  }
  ExplainService::SessionState state;
  const ExplainResponse response = service_.ExplainSession(
      session, fields.include_trendlines, fields.include_k_curve,
      fields.tenant, fields.trace, &state);
  MaybeLogSlowQuery(op, request_id, /*dataset=*/"", session, fields.tenant,
                    response);
  if (!response.ok) {
    return MakeError(&request, op, response.error_code, response.error,
                     response.retry_after_ms);
  }
  JsonWriter json(false);
  BeginOk(json, request, op, request_id);
  json.Key("session");
  json.Int(static_cast<long long>(session));
  json.Key("n");
  json.Int(state.n);
  EndExplainOk(json, response);
  return json.str();
}

std::string ProtocolHandler::HandleCloseSession(
    const JsonValue& request, const std::string& op, uint64_t request_id) {
  uint64_t session = 0;
  std::string error;
  if (!ParseSessionId(request, &session, &error)) {
    return MakeError(&request, op, error_code::kBadRequest, error);
  }
  if (!service_.CloseSession(session)) {
    return MakeError(&request, op, error_code::kNotFound,
                     StrFormat("unknown session: %llu",
                               static_cast<unsigned long long>(session)));
  }
  JsonWriter json(false);
  BeginOk(json, request, op, request_id);
  json.Key("session");
  json.Int(static_cast<long long>(session));
  json.EndObject();
  return json.str();
}

std::string ProtocolHandler::HandleSaveCache(
    const JsonValue& request, const std::string& op, uint64_t request_id) {
  const std::string path = request.GetString("path");
  if (path.empty()) {
    return MakeError(&request, op, error_code::kBadRequest,
                     "missing 'path'");
  }
  std::string error;
  size_t saved = 0;
  if (!service_.SaveCache(path, &error, &saved)) {
    return MakeError(&request, op, error_code::kBadRequest, error);
  }
  JsonWriter json(false);
  BeginOk(json, request, op, request_id);
  json.Key("path");
  json.String(path);
  json.Key("saved");
  json.Int(static_cast<long long>(saved));
  json.EndObject();
  return json.str();
}

std::string ProtocolHandler::HandleLoadCache(
    const JsonValue& request, const std::string& op, uint64_t request_id) {
  const std::string path = request.GetString("path");
  if (path.empty()) {
    return MakeError(&request, op, error_code::kBadRequest,
                     "missing 'path'");
  }
  std::string error;
  size_t restored = 0;
  size_t fenced = 0;
  if (!service_.LoadCache(path, &error, &restored, &fenced)) {
    return MakeError(&request, op, error_code::kBadRequest, error);
  }
  JsonWriter json(false);
  BeginOk(json, request, op, request_id);
  json.Key("path");
  json.String(path);
  json.Key("restored");
  json.Int(static_cast<long long>(restored));
  json.Key("fenced");
  json.Int(static_cast<long long>(fenced));
  json.EndObject();
  return json.str();
}

std::string ProtocolHandler::HandleRecoverSession(
    const JsonValue& request, const std::string& op, uint64_t request_id) {
  const std::string path = request.GetString("path");
  if (path.empty()) {
    return MakeError(&request, op, error_code::kBadRequest,
                     "missing 'path'");
  }
  std::string error;
  bool torn = false;
  int replayed = 0;
  ExplainService::SessionState state;
  const uint64_t session =
      service_.RecoverSession(path, &error, &torn, &replayed, &state);
  if (session == 0) {
    const bool unknown = error.rfind("unknown dataset", 0) == 0;
    return MakeError(&request, op,
                     unknown ? error_code::kNotFound
                             : error_code::kBadRequest,
                     error);
  }
  JsonWriter json(false);
  BeginOk(json, request, op, request_id);
  json.Key("session");
  json.Int(static_cast<long long>(session));
  json.Key("n");
  json.Int(state.n);
  json.Key("replayed");
  json.Int(replayed);
  json.Key("torn");
  json.Bool(torn);
  if (!state.log_path.empty()) {
    json.Key("log");
    json.String(state.log_path);
  }
  json.EndObject();
  return json.str();
}

std::string ProtocolHandler::HandleHealthz(
    const JsonValue& request, const std::string& op, uint64_t request_id) {
  // Liveness probe. Reads ONLY the watchdog's own mutex and the wall
  // clock — never the registry, cache, admission, or engine mutexes —
  // so it answers even while every pool worker is wedged inside a
  // compute (the transport dispatches it inline, ahead of the barrier
  // drain, for the same reason).
  QueryWatchdog::Status status;
  if (introspection_.watchdog != nullptr) {
    status = introspection_.watchdog->Scan();
  }
  JsonWriter json(false);
  BeginOk(json, request, op, request_id);
  json.Key("status");
  json.String(status.stuck.empty() ? "ok" : "stuck");
  json.Key("uptime_seconds");
  json.Number(UptimeSeconds(introspection_.start_wall_ms));
  json.Key("inflight");  // includes this healthz request itself
  json.Int(static_cast<long long>(status.inflight));
  json.Key("stuck");
  json.Int(static_cast<long long>(status.stuck.size()));
  if (!status.stuck.empty()) {
    json.Key("stuck_queries");
    json.BeginArray();
    for (const QueryWatchdog::StuckQuery& query : status.stuck) {
      json.BeginObject();
      json.Key("request_id");
      json.Int(static_cast<long long>(query.request_id));
      json.Key("op");
      json.String(query.op);
      json.Key("age_ms");
      json.Number(query.age_ms);
      json.EndObject();
    }
    json.EndArray();
  }
  json.EndObject();
  return json.str();
}

std::string ProtocolHandler::HandleState(
    const JsonValue& request, const std::string& op, uint64_t request_id) {
  // Operator introspection: everything an on-call wants in one shot —
  // build identity, datasets with content fingerprints, live sessions,
  // admission occupancy vs limits, cache bytes, watchdog state. Unlike
  // healthz this DOES take service-wide mutexes (briefly), so it runs
  // as a normal barrier op.
  const ServiceStats stats = service_.Stats();
  QueryWatchdog::Status watchdog_status;
  double stuck_after_ms = 0.0;
  if (introspection_.watchdog != nullptr) {
    watchdog_status = introspection_.watchdog->Scan();
    stuck_after_ms = introspection_.watchdog->stuck_after_ms();
  }
  JsonWriter json(false);
  BeginOk(json, request, op, request_id);
  json.Key("uptime_seconds");
  json.Number(UptimeSeconds(introspection_.start_wall_ms));
  EmitBuildInfo(json, introspection_.pool_size);
  json.Key("datasets");
  json.BeginArray();
  for (const DatasetInfo& info : service_.registry().List()) {
    json.BeginObject();
    json.Key("name");
    json.String(info.name);
    json.Key("source");
    json.String(info.source);
    json.Key("rows");
    json.Int(static_cast<long long>(info.rows));
    json.Key("time_buckets");
    json.Int(static_cast<long long>(info.time_buckets));
    json.Key("fingerprint");
    json.String(StrFormat(
        "%016llx", static_cast<unsigned long long>(info.fingerprint)));
    json.Key("hot_engines");
    json.Int(static_cast<long long>(info.hot_engines));
    json.EndObject();
  }
  json.EndArray();
  json.Key("open_sessions");
  json.Int(static_cast<long long>(stats.open_sessions));
  json.Key("tenants");
  json.Int(static_cast<long long>(stats.tenants));
  json.Key("tenant_bytes");
  json.BeginObject();
  for (const auto& [tenant, bytes] : stats.tenant_bytes) {
    json.Key(tenant);
    json.Int(static_cast<long long>(bytes));
  }
  json.EndObject();
  json.Key("admission");
  json.BeginObject();
  json.Key("active");
  json.Int(static_cast<long long>(stats.admission.active));
  json.Key("queued");
  json.Int(static_cast<long long>(stats.admission.queued));
  json.Key("peak_active");
  json.Int(static_cast<long long>(stats.admission.peak_active));
  json.Key("peak_queued");
  json.Int(static_cast<long long>(stats.admission.peak_queued));
  json.Key("max_concurrent");
  json.Int(service_.admission().max_concurrent());
  json.Key("queue_depth");
  json.Int(service_.admission().queue_depth());
  json.EndObject();
  json.Key("cache");
  json.BeginObject();
  json.Key("entries");
  json.Int(static_cast<long long>(stats.cache.entries));
  json.Key("bytes_used");
  json.Int(static_cast<long long>(stats.cache.bytes_used));
  json.Key("capacity_bytes");
  json.Int(static_cast<long long>(stats.cache.capacity_bytes));
  json.EndObject();
  json.Key("watchdog");
  json.BeginObject();
  json.Key("inflight");
  json.Int(static_cast<long long>(watchdog_status.inflight));
  json.Key("stuck");
  json.Int(static_cast<long long>(watchdog_status.stuck.size()));
  json.Key("stuck_after_ms");
  json.Number(stuck_after_ms);
  json.EndObject();
  json.EndObject();
  return json.str();
}

std::string ProtocolHandler::HandleMetrics(
    const JsonValue& request, const std::string& op, uint64_t request_id) {
  // Scrape endpoint: the registry's full contents, as structured JSON
  // (default) or as a Prometheus text exposition embedded in the
  // envelope's "text" field (docs/OBSERVABILITY.md has the scrape
  // recipe).
  std::string format = "json";
  std::string error;
  if (!ReadField(request, "format", &format, &error)) {
    return MakeError(&request, op, error_code::kBadRequest, error);
  }
  if (format != "json" && format != "prometheus") {
    return MakeError(&request, op, error_code::kBadRequest,
                     "unknown format: " + format +
                         " (expected 'json' or 'prometheus')");
  }
  const MetricsSnapshot snapshot = MetricRegistry::Global().Snapshot();
  JsonWriter json(false);
  BeginOk(json, request, op, request_id);
  json.Key("uptime_seconds");
  json.Number(UptimeSeconds(introspection_.start_wall_ms));
  EmitBuildInfo(json, introspection_.pool_size);
  if (format == "prometheus") {
    json.Key("format");
    json.String("prometheus");
    json.Key("text");
    json.String(RenderPrometheusText(snapshot));
  } else {
    json.Key("metrics");
    json.Raw(RenderMetricsJson(snapshot));
  }
  json.EndObject();
  return json.str();
}

std::string ProtocolHandler::HandleMetricsHistory(
    const JsonValue& request, const std::string& op, uint64_t request_id) {
  // Windowed time-series view of the registry (docs/OBSERVABILITY.md,
  // "Self-observation"). Optional fields: "format" ("json"|"csv"),
  // "last_n" (trailing ticks only), "prefix" (series-name filter),
  // "sample" (true = take one synchronous tick first — how tests and
  // the soak harness get deterministic ticks without a live sampler),
  // and "export_as" (materialize the window as a registered dataset so
  // explain can run over the server's own telemetry).
  std::string format = "json";
  int last_n_raw = 0;
  std::string prefix;
  bool sample = false;
  std::string export_as;
  std::string error;
  if (!ReadField(request, "format", &format, &error) ||
      !ReadField(request, "last_n", &last_n_raw, &error) ||
      !ReadField(request, "prefix", &prefix, &error) ||
      !ReadField(request, "sample", &sample, &error) ||
      !ReadField(request, "export_as", &export_as, &error)) {
    return MakeError(&request, op, error_code::kBadRequest, error);
  }
  MetricsHistory* history = introspection_.history;
  if (history == nullptr) {
    return MakeError(&request, op, error_code::kBadRequest,
                     "metrics history is not enabled on this server");
  }
  if (format != "json" && format != "csv") {
    return MakeError(&request, op, error_code::kBadRequest,
                     "unknown format: " + format +
                         " (expected 'json' or 'csv')");
  }
  if (last_n_raw < 0) {
    return MakeError(&request, op, error_code::kBadRequest,
                     "last_n must be >= 0");
  }
  const size_t last_n = static_cast<size_t>(last_n_raw);
  if (sample) history->SampleNow();
  if (!export_as.empty()) {
    std::shared_ptr<const Table> table =
        history->ExportAsTable(last_n, prefix);
    if (table == nullptr) {
      return MakeError(&request, op, error_code::kBadRequest,
                       "metrics history has fewer than two ticks; "
                       "nothing to export");
    }
    DatasetInfo info;
    if (!service_.registry().RegisterTable(export_as, std::move(table),
                                           "<metrics_history>", &error,
                                           &info)) {
      return MakeError(&request, op, error_code::kBadRequest, error);
    }
    JsonWriter json(false);
    BeginOk(json, request, op, request_id);
    json.Key("dataset");
    json.String(info.name);
    json.Key("rows");
    json.Int(static_cast<long long>(info.rows));
    json.Key("time_buckets");
    json.Int(static_cast<long long>(info.time_buckets));
    json.EndObject();
    return json.str();
  }
  const HistoryWindow window = history->Window(last_n, prefix);
  JsonWriter json(false);
  BeginOk(json, request, op, request_id);
  if (format == "csv") {
    json.Key("format");
    json.String("csv");
    json.Key("text");
    json.String(RenderHistoryCsv(window));
  } else {
    json.Key("history");
    json.Raw(RenderHistoryJson(window));
  }
  json.EndObject();
  return json.str();
}

std::string ProtocolHandler::HandleShutdown(
    const JsonValue& request, const std::string& op, uint64_t request_id) {
  // The transport stops reading after this op (Dispatch::kShutdown).
  JsonWriter json(false);
  BeginOk(json, request, op, request_id);
  json.EndObject();
  return json.str();
}

}  // namespace tsexplain
