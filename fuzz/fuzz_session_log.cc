// Fuzz target: storage/append_log + storage/session_log — the crash
// recovery surface. The input is treated as a log file and pushed through
// all three layers: raw record framing (ReadAppendLog), session decode
// (ReadSessionLog), and full recovery (RecoverStreamingSession) against a
// fixed base table with a validated config override — exactly how the
// service replays a log from a crashed process. Torn tails must truncate
// to a clean log that replays the same record prefix. Every log that
// recovers must also give the batch pipeline's answers: the recovered
// session, and a live session replaying the same appends after each one,
// match a fresh TSExplain over the session's table.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fuzz/fuzz_util.h"
#include "src/pipeline/report_json.h"
#include "src/pipeline/streaming.h"
#include "src/pipeline/tsexplain.h"
#include "src/storage/append_log.h"
#include "src/storage/session_log.h"
#include "src/storage/table_snapshot.h"
#include "src/table/csv_reader.h"
#include "src/table/table.h"

namespace {

using tsexplain::Table;
using tsexplain::storage::AppendLogReadResult;
using tsexplain::storage::SessionLogContents;
using tsexplain::storage::StorageStatus;

const Table& BaseTable() {
  static const Table* table = [] {
    tsexplain::CsvOptions options;
    options.time_column = "time";
    options.measure_columns = {"value"};
    tsexplain::CsvResult result = tsexplain::ReadCsvFromString(
        tsexplain::fuzz::kSessionBaseCsv(), options);
    FUZZ_ASSERT(result.ok());
    return result.table.release();
  }();
  return *table;
}

uint64_t BaseFingerprint() {
  static const uint64_t fingerprint =
      tsexplain::storage::TableFingerprint(BaseTable());
  return fingerprint;
}

// The validated config the service would pass as config_override: the
// logged header config is untrusted and must never reach the engine.
tsexplain::TSExplainConfig SafeConfig() {
  tsexplain::TSExplainConfig config;
  config.measure = "value";
  config.explain_by_names = {"region"};
  config.threads = 1;
  return config;
}

// Everything RenderJsonReport emits except the timing_ms block.
std::string RenderUntimed(const tsexplain::ExplanationCube& cube,
                          tsexplain::TSExplainResult result) {
  result.timing = tsexplain::TimingBreakdown();
  return tsexplain::RenderJsonReport(cube, result);
}

// Same question, same answer: the session engine's full-candidate run and
// its section 8 answer equal a fresh engine's over the same table.
void AssertMatchesFreshEngine(tsexplain::StreamingTSExplain& session) {
  const tsexplain::TSExplainConfig& config = session.engine().config();
  const tsexplain::SegmentationSpec spec =
      tsexplain::SegmentationSpec::FromConfig(config);
  tsexplain::TSExplain fresh(session.table(), config);
  FUZZ_ASSERT(RenderUntimed(session.cube(), session.engine().Run(spec)) ==
              RenderUntimed(fresh.cube(), fresh.Run(spec)));
  const std::vector<int> candidates = session.IncrementalCandidates();
  const tsexplain::TSExplainResult answer = session.Explain();
  FUZZ_ASSERT(RenderUntimed(session.cube(), answer) ==
              RenderUntimed(fresh.cube(), fresh.Run(spec, candidates)));
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const tsexplain::fuzz::TempFile file(data, size, "slog");

  // Layer 1: record framing.
  const AppendLogReadResult log = tsexplain::storage::ReadAppendLog(file.path());
  if (!log.ok()) {
    FUZZ_ASSERT(!log.status.message.empty());
    FUZZ_ASSERT(log.records.empty());
  }

  // Layer 2: session decode (header + appends).
  SessionLogContents contents;
  const StorageStatus session_status =
      tsexplain::storage::ReadSessionLog(file.path(), &contents);
  if (session_status.ok()) {
    // A decoded session is the framing view minus the header record.
    FUZZ_ASSERT(log.ok());
    FUZZ_ASSERT(!log.records.empty());
    FUZZ_ASSERT(contents.appends.size() == log.records.size() - 1);
    FUZZ_ASSERT(contents.torn == log.torn);
  }

  // Layer 3: full recovery with the service's validated override.
  const tsexplain::TSExplainConfig safe = SafeConfig();
  const tsexplain::storage::SessionRecoveryResult recovered =
      tsexplain::storage::RecoverStreamingSession(
          BaseTable(), BaseFingerprint(), file.path(), &safe);
  if (recovered.ok()) {
    FUZZ_ASSERT(recovered.status.ok());
    AssertMatchesFreshEngine(*recovered.engine);
    tsexplain::StreamingTSExplain live(BaseTable(), safe);
    AssertMatchesFreshEngine(live);
    for (const tsexplain::storage::SessionLogAppend& append :
         recovered.contents.appends) {
      live.AppendBucket(append.label, append.rows);
      AssertMatchesFreshEngine(live);
    }
  } else {
    FUZZ_ASSERT(!recovered.status.ok());
    FUZZ_ASSERT(!recovered.status.message.empty());
  }

  // Torn-tail contract: truncating at valid_bytes yields a clean log
  // holding exactly the records that replayed.
  if (log.ok() && log.torn) {
    FUZZ_ASSERT(log.valid_bytes <= size);
    FUZZ_ASSERT(
        tsexplain::storage::TruncateTornTail(file.path(), log.valid_bytes)
            .ok());
    const AppendLogReadResult clean =
        tsexplain::storage::ReadAppendLog(file.path());
    FUZZ_ASSERT(clean.ok());
    FUZZ_ASSERT(!clean.torn);
    FUZZ_ASSERT(clean.records.size() == log.records.size());
    for (size_t i = 0; i < clean.records.size(); ++i) {
      FUZZ_ASSERT(clean.records[i] == log.records[i]);
    }
  }
  return 0;
}
