// NDJSON protocol: one JSON request object per line in, one JSON response
// object per line out (docs/SERVICE.md documents every op and schema).
//
// The handler is a pure request->response function over an ExplainService
// and is therefore safe to call from many threads at once; the transport
// (tools/tsexplain_serve.cc) decides which ops run inline (mutations, to
// preserve submission order) and which fan out to the executor pool
// (reads). Responses echo the request's "id" so clients can match
// out-of-order completions.

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

  /// One row of the op table: every op the handler answers, with the
  /// properties the transport dispatches on. A name missing from the
  /// table is answered `unknown_op`.
  struct OpInfo {
    const char* name;
    bool barrier;    // see IsBarrierOp
    bool expensive;  // see IsExpensiveOp
  };
  static std::vector<OpInfo> Ops();

  /// Ops the transport must run inline as ordering barriers (after
  /// draining previously dispatched reads) instead of fanning out to the
  /// pool: every state mutation (register, sessions, shutdown) plus the
  /// introspection ops ("state", "metrics", "metrics_history"), whose
  /// numbers are only meaningful once earlier requests have settled.
  /// Unknown ops return true — an unrecognized request is
  /// answered inline, cheaply. "healthz" is the one cheap read that is
  /// NOT a barrier: liveness must answer immediately, so the transport
  /// handles it inline without draining (and this handler never touches
  /// an engine or cache mutex for it).
  static bool IsBarrierOp(const std::string& op);

  /// Extracts "op" from a request object ("" when absent).
  static std::string OpOf(const JsonValue& request);

  /// Ops expensive enough to fall under admission control; the transport
  /// bounds its dispatch backlog for exactly these (cheap reads and
  /// barrier ops are never shed).
  static bool IsExpensiveOp(const std::string& op);

 private:
  std::string HandleInternal(const JsonValue& request, uint64_t request_id);

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
/// into a TSExplainConfig. Returns false + error on a malformed field
/// (bad aggregate/metric names, wrong types). Exposed for tests.
bool ParseQueryConfig(const JsonValue& request, TSExplainConfig* config,
                      std::string* error);

}  // namespace tsexplain

#endif  // TSEXPLAIN_SERVICE_PROTOCOL_H_
