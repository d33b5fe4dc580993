// NDJSON protocol: one JSON request object per line in, one JSON response
// object per line out (docs/SERVICE.md documents every op and schema).
//
// The handler is a pure request->response function over an ExplainService
// and is therefore safe to call from many threads at once. One op table
// names every op with its handler and its dispatch class; the transport
// (tools/tsexplain_serve.cc) reads the class to decide which ops run
// inline (mutations, to preserve submission order) and which fan out to
// the executor pool (reads). Responses echo the request's "id" so clients
// can match out-of-order completions.

#ifndef TSEXPLAIN_SERVICE_PROTOCOL_H_
#define TSEXPLAIN_SERVICE_PROTOCOL_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/service/explain_service.h"
#include "src/service/request_log.h"

namespace tsexplain {

class MetricsHistory;
class QueryWatchdog;

class ProtocolHandler {
 public:
  explicit ProtocolHandler(ExplainService& service) : service_(service) {}

  /// Request logging (docs/OBSERVABILITY.md). Both sinks are optional
  /// and borrowed (the transport owns them; they must outlive the
  /// handler). The access log gets one compact JSON line per handled
  /// request; the slow-query log gets a structured NDJSON record for
  /// every explain / explain_session whose service latency reached
  /// `slow_query_ms` (<= 0 disables the slow-query log).
  struct LogOptions {
    LineLog* access_log = nullptr;
    LineLog* slow_query_log = nullptr;
    double slow_query_ms = 0.0;
  };
  void set_log_options(const LogOptions& options) { log_ = options; }

  /// Self-observation wiring (docs/OBSERVABILITY.md, "Self-observation").
  /// All fields are optional and borrowed from the transport: `history`
  /// powers the `metrics_history` op, `watchdog` brackets every request
  /// with a Begin/End stamp and feeds `healthz`/`state`; `start_wall_ms`
  /// (WallMs at process start) yields uptime; `pool_size` is reported in
  /// `state`'s build block. Set once at startup, before serving.
  struct Introspection {
    MetricsHistory* history = nullptr;
    QueryWatchdog* watchdog = nullptr;
    double start_wall_ms = 0.0;
    int pool_size = 0;
  };
  void set_introspection(const Introspection& introspection) {
    introspection_ = introspection;
  }

  /// Handles one parsed request object; returns the response line
  /// (compact JSON, no trailing newline). Unknown ops and missing fields
  /// come back as ok:false responses, never as aborts; an exception from
  /// any handler comes back as one `internal` error for that request and
  /// counts in `protocol.internal_errors`.
  std::string Handle(const JsonValue& request);

  /// Response for a line that failed to parse as JSON.
  std::string MakeParseError(const std::string& message) const;

  /// Structured `overloaded` response for a request the TRANSPORT must
  /// shed before dispatch (its backlog slot acquisition failed): echoes
  /// the id and carries the service's retry-after hint, exactly like a
  /// service-level shed.
  std::string MakeOverloaded(const JsonValue& request) const;

  /// How the transport dispatches an op (docs/SERVICE.md, "Protocol").
  enum class Dispatch {
    kInline,        // on the reader thread: no drain, pool task or backlog
                    // slot, so liveness answers while workers are wedged
    kBarrier,       // the stream's pending reads drain, then it runs inline:
                    // mutations and introspection see a settled state
    kRead,          // fans out to the pool
    kAdmittedRead,  // takes a backlog slot (or is shed), then fans out
    kShutdown,      // a barrier after which the stream stops reading
  };

  /// The signature every op handler shares (protocol.cc).
  using OpHandler = std::string(const JsonValue& request,
                                const std::string& op, uint64_t request_id);

  /// One row of the op table: every op the handler answers, with its
  /// dispatch class and its handler. A name missing from the table is
  /// answered `unknown_op`.
  struct OpInfo {
    const char* name;
    Dispatch dispatch;
    OpHandler ProtocolHandler::*handle;
  };
  static std::vector<OpInfo> Ops();

  /// The dispatch class of `op`. An op not in the table is a barrier: it
  /// is answered inline, cheaply, with `unknown_op`.
  static Dispatch DispatchOf(const std::string& op);

  /// Extracts "op" from a request object ("" when absent).
  static std::string OpOf(const JsonValue& request);

 private:
  static const OpInfo kOps[];
  static const OpInfo* FindOp(const std::string& op);  // null: not in kOps

  OpHandler HandleInternal;  // the table lookup, then the row's handler

  // The op handlers, one per table row.
  OpHandler HandleRegister, HandleListDatasets, HandleDropDataset,
      HandleExplain, HandleRecommend, HandleOpenSession, HandleAppend,
      HandleExplainSession, HandleCloseSession, HandleSaveCache,
      HandleLoadCache, HandleRecoverSession, HandleHealthz, HandleState,
      HandleMetrics, HandleMetricsHistory, HandleShutdown;

  /// Writes a slow-query record when the slow-query log is armed and
  /// `response.latency_ms` reached the threshold. `dataset` is empty for
  /// session queries; `session` is 0 for dataset queries. `request_id`
  /// joins the record with the access log and the response's trace.
  void MaybeLogSlowQuery(const std::string& op, uint64_t request_id,
                         const std::string& dataset, uint64_t session,
                         const std::string& tenant,
                         const ExplainResponse& response);

  ExplainService& service_;
  LogOptions log_;
  Introspection introspection_;
  /// Monotone per-handler request stamp: echoed in every ok envelope as
  /// "request_id" and in both log records, so traces, the slow-query
  /// log, and the access log join on it.
  std::atomic<uint64_t> next_request_id_{0};
};

/// Parses the shared query fields of `explain` / `open_session` requests
/// into a TSExplainConfig; an absent field keeps its value in `*config`.
/// Returns false + an error naming the field on a malformed one: a wrong
/// JSON type, a fractional or out-of-int-range number in an integer
/// field, or an unknown aggregate/metric name. Exposed for tests.
bool ParseQueryConfig(const JsonValue& request, TSExplainConfig* config,
                      std::string* error);

}  // namespace tsexplain

#endif  // TSEXPLAIN_SERVICE_PROTOCOL_H_
