// SessionLog: crash recovery for streaming sessions, built on AppendLog.
//
// A session log is an append log whose first record is a header (the
// dataset name, the base table's content fingerprint, and the full
// TSExplainConfig the session runs) and whose remaining records are the
// appended buckets (label + rows), in order. Recovery rebuilds the
// session from the CURRENTLY registered base table — the fingerprint in
// the header fences a changed dataset exactly like the cache warm start
// does — and replays every intact append through
// StreamingTSExplain::AppendBucket. A torn tail (crash mid-append) is
// reported and replay stops before it; the bucket being appended at the
// crash is lost, everything before it is recovered.
//
// The writing side is the service's: ExplainService::Append logs each
// bucket through a SessionLogWriter once the engine has absorbed it, so
// the pipeline layer stays free of storage dependencies.

#ifndef TSEXPLAIN_STORAGE_SESSION_LOG_H_
#define TSEXPLAIN_STORAGE_SESSION_LOG_H_

#include <memory>
#include <string>
#include <vector>

#include "src/pipeline/streaming.h"
#include "src/storage/append_log.h"

namespace tsexplain {
namespace storage {

inline constexpr uint32_t kSessionLogVersion = 1;

/// One replayable append.
struct SessionLogAppend {
  std::string label;
  std::vector<StreamRow> rows;
};

/// Everything a session log holds.
struct SessionLogContents {
  std::string dataset;
  uint64_t base_fingerprint = 0;  // TableFingerprint of the base table
  TSExplainConfig config;
  std::vector<SessionLogAppend> appends;
  bool torn = false;  // a torn tail was found (and not replayed)
};

/// Writes the header + appends as they happen.
class SessionLogWriter {
 public:
  /// Creates/overwrites `path` and writes the header record.
  StorageStatus Open(const std::string& path, const std::string& dataset,
                     uint64_t base_fingerprint, const TSExplainConfig& config);

  StorageStatus LogAppend(const std::string& label,
                          const std::vector<StreamRow>& rows);

  void Close() { log_.Close(); }
  bool is_open() const { return log_.is_open(); }

 private:
  // Not thread-safe: the writer mutates one FILE* stream, so the owner
  // serializes all calls. In the service the owning
  // ExplainService::Session holds the writer TSE_GUARDED_BY(Session::mu)
  // and every LogAppend happens under that mutex.
  AppendLogWriter log_;
};

/// Reads and validates a session log. A torn tail sets `contents->torn`
/// (recoverable); a missing/garbled header or a malformed record is a
/// structured error.
StorageStatus ReadSessionLog(const std::string& path,
                             SessionLogContents* contents);

struct SessionRecoveryResult {
  std::unique_ptr<StreamingTSExplain> engine;  // null on failure
  SessionLogContents contents;                 // header + replayed appends
  StorageStatus status;

  bool ok() const { return engine != nullptr; }
};

/// Rebuilds a streaming session from `log_path` against `base` (the table
/// currently registered under the log's dataset name), whose
/// TableFingerprint the caller passes as `base_fingerprint` (the registry
/// caches it at registration). Fails when that fingerprint does not match
/// the header — a changed dataset must never silently absorb another
/// table's appends — or when a
/// replayed row's shape does not match the schema (the log is untrusted
/// input; engine TSE_CHECKs must never see it). `config_override`, when
/// non-null, replaces the logged config for the engine build: the service
/// passes its validated/normalized copy so a crafted header cannot smuggle
/// an invariant-violating config (e.g. duplicate explain-by attributes)
/// past validation-of-a-copy.
SessionRecoveryResult RecoverStreamingSession(
    const Table& base, uint64_t base_fingerprint, const std::string& log_path,
    const TSExplainConfig* config_override = nullptr);

}  // namespace storage
}  // namespace tsexplain

#endif  // TSEXPLAIN_STORAGE_SESSION_LOG_H_
