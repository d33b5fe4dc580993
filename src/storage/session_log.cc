#include "src/storage/session_log.h"

#include <utility>

#include "src/common/strings.h"

namespace tsexplain {
namespace storage {
namespace {

// Record tags (first payload byte).
constexpr uint8_t kHeaderRecord = 1;
constexpr uint8_t kAppendRecord = 2;

void EncodeStringList(ByteWriter& w, const std::vector<std::string>& items) {
  w.WriteU32(static_cast<uint32_t>(items.size()));
  for (const std::string& item : items) w.WriteString(item);
}

bool DecodeStringList(ByteReader& r, std::vector<std::string>* items) {
  uint32_t count = 0;
  if (!r.ReadU32(&count) || count > r.remaining() / sizeof(uint32_t)) {
    return false;
  }
  items->resize(count);
  for (std::string& item : *items) {
    if (!r.ReadString(&item)) return false;
  }
  return true;
}

// The full TSExplainConfig, field by field. Every field is serialized —
// a recovered session must run EXACTLY the query the crashed one ran, so
// "mostly equal" configs are not an option.
void EncodeConfig(ByteWriter& w, const TSExplainConfig& config) {
  w.WriteU8(static_cast<uint8_t>(config.aggregate));
  w.WriteString(config.measure);
  EncodeStringList(w, config.explain_by_names);
  w.WriteI32(config.max_order);
  w.WriteI32(config.m);
  w.WriteU8(static_cast<uint8_t>(config.diff_metric));
  w.WriteU8(static_cast<uint8_t>(config.variance_metric));
  w.WriteI32(config.smooth_window);
  w.WriteI32(config.fixed_k);
  w.WriteI32(config.max_k);
  w.WriteU8(config.use_filter ? 1 : 0);
  w.WriteF64(config.filter_ratio);
  w.WriteU8(config.use_guess_verify ? 1 : 0);
  w.WriteI32(config.initial_guess);
  w.WriteU8(config.use_sketch ? 1 : 0);
  w.WriteI32(config.sketch_params.max_segment_len);
  w.WriteI32(config.sketch_params.target_size);
  w.WriteU8(config.dedupe_redundant ? 1 : 0);
  w.WriteI32(config.threads);
  EncodeStringList(w, config.exclude);
}

bool DecodeConfig(ByteReader& r, TSExplainConfig* config) {
  uint8_t aggregate = 0;
  uint8_t diff_metric = 0;
  uint8_t variance_metric = 0;
  uint8_t use_filter = 0;
  uint8_t use_guess_verify = 0;
  uint8_t use_sketch = 0;
  uint8_t dedupe = 0;
  if (!r.ReadU8(&aggregate) || !r.ReadString(&config->measure) ||
      !DecodeStringList(r, &config->explain_by_names) ||
      !r.ReadI32(&config->max_order) || !r.ReadI32(&config->m) ||
      !r.ReadU8(&diff_metric) || !r.ReadU8(&variance_metric) ||
      !r.ReadI32(&config->smooth_window) || !r.ReadI32(&config->fixed_k) ||
      !r.ReadI32(&config->max_k) || !r.ReadU8(&use_filter) ||
      !r.ReadF64(&config->filter_ratio) || !r.ReadU8(&use_guess_verify) ||
      !r.ReadI32(&config->initial_guess) || !r.ReadU8(&use_sketch) ||
      !r.ReadI32(&config->sketch_params.max_segment_len) ||
      !r.ReadI32(&config->sketch_params.target_size) || !r.ReadU8(&dedupe) ||
      !r.ReadI32(&config->threads) || !DecodeStringList(r, &config->exclude)) {
    return false;
  }
  if (aggregate > static_cast<uint8_t>(AggregateFunction::kAvg) ||
      diff_metric > static_cast<uint8_t>(DiffMetricKind::kRiskRatio) ||
      variance_metric > static_cast<uint8_t>(VarianceMetric::kSallpair)) {
    return false;
  }
  config->aggregate = static_cast<AggregateFunction>(aggregate);
  config->diff_metric = static_cast<DiffMetricKind>(diff_metric);
  config->variance_metric = static_cast<VarianceMetric>(variance_metric);
  config->use_filter = use_filter != 0;
  config->use_guess_verify = use_guess_verify != 0;
  config->use_sketch = use_sketch != 0;
  config->dedupe_redundant = dedupe != 0;
  return true;
}

std::string EncodeAppend(const std::string& label,
                         const std::vector<StreamRow>& rows) {
  ByteWriter w;
  w.WriteU8(kAppendRecord);
  w.WriteString(label);
  w.WriteU32(static_cast<uint32_t>(rows.size()));
  for (const StreamRow& row : rows) {
    EncodeStringList(w, row.dims);
    w.WriteU32(static_cast<uint32_t>(row.measures.size()));
    for (double m : row.measures) w.WriteF64(m);
  }
  return w.TakeBuffer();
}

bool DecodeAppend(const std::string& record, SessionLogAppend* append) {
  ByteReader r(record);
  uint8_t tag = 0;
  uint32_t nrows = 0;
  // Each row costs at least its two count words (8 bytes); a count beyond
  // that is hostile. Rows are then decoded one by one (push_back, no
  // up-front resize) so the allocation tracks the bytes actually present
  // in the record, never the declared count.
  if (!r.ReadU8(&tag) || tag != kAppendRecord ||
      !r.ReadString(&append->label) || !r.ReadU32(&nrows) ||
      nrows > r.remaining() / (2 * sizeof(uint32_t))) {
    return false;
  }
  append->rows.clear();
  for (uint32_t i = 0; i < nrows; ++i) {
    StreamRow row;
    uint32_t nmeasures = 0;
    if (!DecodeStringList(r, &row.dims) || !r.ReadU32(&nmeasures) ||
        nmeasures > r.remaining() / sizeof(double)) {
      return false;
    }
    row.measures.resize(nmeasures);
    for (double& m : row.measures) {
      if (!r.ReadF64(&m)) return false;
    }
    append->rows.push_back(std::move(row));
  }
  return r.AtEnd();
}

}  // namespace

StorageStatus SessionLogWriter::Open(const std::string& path,
                                     const std::string& dataset,
                                     uint64_t base_fingerprint,
                                     const TSExplainConfig& config) {
  // A fresh session overwrites any stale log at this path (the previous
  // incarnation's state is not this session's).
  std::remove(path.c_str());
  StorageStatus status = log_.Open(path);
  if (!status.ok()) return status;
  ByteWriter w;
  w.WriteU8(kHeaderRecord);
  w.WriteU32(kSessionLogVersion);
  w.WriteString(dataset);
  w.WriteU64(base_fingerprint);
  EncodeConfig(w, config);
  return log_.Append(w.TakeBuffer());
}

StorageStatus SessionLogWriter::LogAppend(const std::string& label,
                                          const std::vector<StreamRow>& rows) {
  return log_.Append(EncodeAppend(label, rows));
}

StorageStatus ReadSessionLog(const std::string& path,
                             SessionLogContents* contents) {
  AppendLogReadResult log = ReadAppendLog(path);
  if (!log.ok()) return log.status;
  if (log.records.empty()) {
    return StorageStatus::Error(StorageErrorCode::kTruncated,
                                path + ": missing session header");
  }
  SessionLogContents out;
  out.torn = log.torn;
  {
    ByteReader r(log.records[0]);
    uint8_t tag = 0;
    uint32_t version = 0;
    if (!r.ReadU8(&tag) || tag != kHeaderRecord || !r.ReadU32(&version)) {
      return StorageStatus::Error(StorageErrorCode::kFormatError,
                                  path + ": malformed session header");
    }
    if (version != kSessionLogVersion) {
      return StorageStatus::Error(StorageErrorCode::kBadVersion,
                                  path + ": unknown session log version");
    }
    if (!r.ReadString(&out.dataset) || !r.ReadU64(&out.base_fingerprint) ||
        !DecodeConfig(r, &out.config) || !r.AtEnd()) {
      return StorageStatus::Error(StorageErrorCode::kFormatError,
                                  path + ": malformed session header");
    }
  }
  out.appends.resize(log.records.size() - 1);
  for (size_t i = 1; i < log.records.size(); ++i) {
    if (!DecodeAppend(log.records[i], &out.appends[i - 1])) {
      return StorageStatus::Error(
          StorageErrorCode::kFormatError,
          StrFormat("%s: malformed append record %zu", path.c_str(), i));
    }
  }
  *contents = std::move(out);
  return StorageStatus::Ok();
}

SessionRecoveryResult RecoverStreamingSession(
    const Table& base, uint64_t base_fingerprint, const std::string& log_path,
    const TSExplainConfig* config_override) {
  SessionRecoveryResult result;
  result.status = ReadSessionLog(log_path, &result.contents);
  if (!result.status.ok()) return result;
  if (base_fingerprint != result.contents.base_fingerprint) {
    result.status = StorageStatus::Error(
        StorageErrorCode::kFormatError,
        StrFormat("%s: base table fingerprint %016llx does not match the "
                  "log's %016llx — the dataset changed since the session "
                  "was opened",
                  log_path.c_str(),
                  static_cast<unsigned long long>(base_fingerprint),
                  static_cast<unsigned long long>(
                      result.contents.base_fingerprint)));
    return result;
  }
  // Validate every replayed row's shape BEFORE touching the engine: a
  // CRC-valid but malformed (or crafted) record must be a structured
  // error, never a TSE_CHECK abort inside Table::AppendRow — the same
  // check the live Append path applies at the service boundary.
  const Schema& schema = base.schema();
  for (size_t a = 0; a < result.contents.appends.size(); ++a) {
    for (const StreamRow& row : result.contents.appends[a].rows) {
      if (row.dims.size() != schema.num_dimensions() ||
          row.measures.size() != schema.num_measures()) {
        result.status = StorageStatus::Error(
            StorageErrorCode::kFormatError,
            StrFormat("%s: append record %zu row shape mismatch (expected "
                      "%zu dims + %zu measures, got %zu + %zu)",
                      log_path.c_str(), a + 1, schema.num_dimensions(),
                      schema.num_measures(), row.dims.size(),
                      row.measures.size()));
        return result;
      }
    }
  }
  auto engine = std::make_unique<StreamingTSExplain>(
      base, config_override ? *config_override : result.contents.config);
  for (const SessionLogAppend& append : result.contents.appends) {
    engine->AppendBucket(append.label, append.rows);
  }
  result.engine = std::move(engine);
  return result;
}

}  // namespace storage
}  // namespace tsexplain
