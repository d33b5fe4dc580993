// tsexplain_serve: concurrent NDJSON explanation server.
//
// Speaks the protocol of docs/SERVICE.md: one JSON request per line in,
// one JSON response per line out, responses tagged with the request's
// "id" (they may complete out of order). Two transports:
//
//   * pipe mode (default): requests on stdin, responses on stdout. Fully
//     scriptable — this is what tests/server_smoke_test.sh drives in CI.
//   * TCP mode (--port N): accepts connections on 127.0.0.1:N, one
//     NDJSON stream per connection, one handler thread per connection.
//
// Both serve every stream through ServeStream: one framer (the last line
// needs no newline; a line over 4 MiB draws one parse_error and is
// dropped) and one dispatcher, which schedules each op by the dispatch
// class its op-table row gives (ProtocolHandler::Dispatch). Reads fan out
// to the shared thread pool, so slow cold queries never block cache hits
// behind them; identical concurrent queries collapse to one computation
// inside the service. Barriers (mutations, introspection, unknown ops)
// first wait for every read the stream dispatched, then run inline on the
// reader thread, so they observe a settled state in submission order.
// Every request gets exactly one response line: the protocol handler
// answers a request whose handler threw with a structured `internal`
// error (docs/SERVICE.md).
//
// Overload safety: admitted reads pass the service's AdmissionController
// (bounded concurrency + bounded queue + per-tenant caps); beyond that,
// the transport itself sheds them with a structured `overloaded` response
// BEFORE they reach the thread pool, so the dispatch backlog is bounded
// too — a flood degrades into fast shed responses, never into unbounded
// queue growth. Requests may carry a "tenant" field for per-tenant cache
// budgets and in-flight caps (docs/SERVICE.md, "Operating under load");
// a tenant is its cache namespace, so the server keeps no tenant list.
//
// Options:
//   --port N          TCP mode on 127.0.0.1:N (default: pipe mode)
//   --cache-mb N      result cache capacity in MiB (default 64)
//   --max-inflight N  queries allowed to run concurrently
//                     (default 0 = one per pool worker)
//   --queue-depth N   admitted-but-waiting bound before shedding
//                     (default 16)
//   --tenant-cache-budget N  result-cache budget in MiB for each tenant's
//                     namespace (default 0 = tenants share the global LRU)
//   --tenant-inflight N      per-tenant in-flight cap (default 0 = off)
//   --preload NAME=PATH  register a CSV or binary table snapshot at
//                     startup (repeatable; snapshots are auto-detected by
//                     magic and need no --time; CSVs use --time/--measure)
//   --time NAME       time column for CSV --preload datasets
//   --measure NAME    measure column for CSV --preload datasets (optional)
//   --cache-load PATH warm-start: restore a result-cache snapshot saved
//                     by --cache-save / the save_cache op. An entry is
//                     restored only while its dataset is preloaded with
//                     the content fingerprint its key carries
//                     (docs/SERVICE.md, "Warm starts"); a missing,
//                     corrupt or old-version file warns and starts cold,
//                     never aborts.
//   --cache-save PATH write the result cache to PATH on clean shutdown
//                     (the shutdown op); pairs with --cache-load.
//   --session-log-dir DIR  append-log every streaming session to
//                     DIR/session_<id>.log for crash recovery (the
//                     recover_session op replays them)
//   --slow-query-ms N slow-query log threshold in milliseconds: explain /
//                     explain_session requests at or above it get a
//                     structured NDJSON record (docs/OBSERVABILITY.md).
//                     Default 0 = off.
//   --slow-query-log PATH  slow-query records go here (append); the
//                     special value "stderr" (the default) logs to stderr
//   --access-log PATH one compact JSON line per handled request
//                     ("stderr" allowed); default off
//   --metrics-history-interval-ms N  background metrics sampler tick
//                     (default 1000; 0 disables the sampler thread — the
//                     metrics_history op then only sees explicit
//                     "sample":true ticks)
//   --metrics-history-capacity N  per-series ring capacity in ticks
//                     (default 600 = 10 minutes at the default interval)
//   --stuck-after-ms N  age at which an in-flight query counts as stuck
//                     in healthz / the query.stuck gauge (default 10000)

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include "src/common/json.h"
#include "src/common/metrics.h"
#include "src/common/metrics_history.h"
#include "src/common/mutex.h"
#include "src/common/thread_pool.h"
#include "src/common/timer.h"
#include "src/service/explain_service.h"
#include "src/service/protocol.h"
#include "src/service/watchdog.h"
#include "src/storage/table_snapshot.h"

namespace {

using namespace tsexplain;

struct ServeOptions {
  int port = -1;  // -1 = pipe mode
  size_t cache_mb = 64;
  int max_inflight = 0;         // 0 = auto (pool size)
  int queue_depth = 16;
  size_t tenant_cache_budget_mb = 0;  // 0 = off
  int tenant_inflight = 0;            // 0 = off
  std::vector<std::string> preloads;  // NAME=PATH
  std::string time_column;
  std::string measure;
  std::string cache_load;
  std::string cache_save;
  std::string session_log_dir;
  double slow_query_ms = 0.0;          // <= 0 = slow-query log off
  std::string slow_query_log = "stderr";
  std::string access_log;              // empty = access log off
  int history_interval_ms = 1000;      // 0 = sampler thread off
  int history_capacity = 600;          // ticks retained per series
  double stuck_after_ms = 10000.0;     // watchdog deadline
};

void PrintUsage(std::FILE* out, const char* argv0) {
  std::fprintf(out,
               "usage: %s [--port N] [--cache-mb N] [--max-inflight N] "
               "[--queue-depth N] [--tenant-cache-budget N] "
               "[--tenant-inflight N] [--preload NAME=PATH] [--time NAME] "
               "[--measure NAME] [--cache-load PATH] [--cache-save PATH] "
               "[--session-log-dir DIR] [--slow-query-ms N] "
               "[--slow-query-log PATH] [--access-log PATH] "
               "[--metrics-history-interval-ms N] "
               "[--metrics-history-capacity N] [--stuck-after-ms N] "
               "[--help]\n",
               argv0);
}

bool ParseArgs(int argc, char** argv, ServeOptions* options,
               bool* want_help) {
  *want_help = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--port") {
      const char* v = next();
      if (!v) return false;
      options->port = std::atoi(v);
      if (options->port <= 0 || options->port > 65535) {
        std::fprintf(stderr, "--port expects 1..65535\n");
        return false;
      }
    } else if (arg == "--cache-mb") {
      const char* v = next();
      if (!v || std::atoi(v) <= 0) {
        std::fprintf(stderr, "--cache-mb expects a positive integer\n");
        return false;
      }
      options->cache_mb = static_cast<size_t>(std::atoi(v));
    } else if (arg == "--max-inflight") {
      const char* v = next();
      if (!v || std::atoi(v) < 0) {
        std::fprintf(stderr, "--max-inflight expects an integer >= 0\n");
        return false;
      }
      options->max_inflight = std::atoi(v);
    } else if (arg == "--queue-depth") {
      const char* v = next();
      if (!v || std::atoi(v) < 0) {
        std::fprintf(stderr, "--queue-depth expects an integer >= 0\n");
        return false;
      }
      options->queue_depth = std::atoi(v);
    } else if (arg == "--tenant-cache-budget") {
      const char* v = next();
      if (!v || std::atoi(v) < 0) {
        std::fprintf(stderr,
                     "--tenant-cache-budget expects MiB >= 0\n");
        return false;
      }
      options->tenant_cache_budget_mb = static_cast<size_t>(std::atoi(v));
    } else if (arg == "--tenant-inflight") {
      const char* v = next();
      if (!v || std::atoi(v) < 0) {
        std::fprintf(stderr, "--tenant-inflight expects an integer >= 0\n");
        return false;
      }
      options->tenant_inflight = std::atoi(v);
    } else if (arg == "--preload") {
      const char* v = next();
      if (!v || std::strchr(v, '=') == nullptr) {
        std::fprintf(stderr, "--preload expects NAME=PATH\n");
        return false;
      }
      options->preloads.push_back(v);
    } else if (arg == "--time") {
      const char* v = next();
      if (!v) return false;
      options->time_column = v;
    } else if (arg == "--measure") {
      const char* v = next();
      if (!v) return false;
      options->measure = v;
    } else if (arg == "--cache-load") {
      const char* v = next();
      if (!v) return false;
      options->cache_load = v;
    } else if (arg == "--cache-save") {
      const char* v = next();
      if (!v) return false;
      options->cache_save = v;
    } else if (arg == "--session-log-dir") {
      const char* v = next();
      if (!v) return false;
      options->session_log_dir = v;
    } else if (arg == "--slow-query-ms") {
      const char* v = next();
      if (!v || std::atof(v) < 0.0) {
        std::fprintf(stderr, "--slow-query-ms expects milliseconds >= 0\n");
        return false;
      }
      options->slow_query_ms = std::atof(v);
    } else if (arg == "--slow-query-log") {
      const char* v = next();
      if (!v) return false;
      options->slow_query_log = v;
    } else if (arg == "--access-log") {
      const char* v = next();
      if (!v) return false;
      options->access_log = v;
    } else if (arg == "--metrics-history-interval-ms") {
      const char* v = next();
      if (!v || std::atoi(v) < 0) {
        std::fprintf(stderr,
                     "--metrics-history-interval-ms expects an integer "
                     ">= 0\n");
        return false;
      }
      options->history_interval_ms = std::atoi(v);
    } else if (arg == "--metrics-history-capacity") {
      const char* v = next();
      if (!v || std::atoi(v) <= 0) {
        std::fprintf(stderr,
                     "--metrics-history-capacity expects a positive "
                     "integer\n");
        return false;
      }
      options->history_capacity = std::atoi(v);
    } else if (arg == "--stuck-after-ms") {
      const char* v = next();
      if (!v || std::atof(v) <= 0.0) {
        std::fprintf(stderr,
                     "--stuck-after-ms expects milliseconds > 0\n");
        return false;
      }
      options->stuck_after_ms = std::atof(v);
    } else if (arg == "--help" || arg == "-h") {
      *want_help = true;
      return true;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

/// Serializes response lines onto one file descriptor.
class LineWriter {
 public:
  explicit LineWriter(int fd) : fd_(fd) {}

  void Write(const std::string& line) {
    MutexLock lock(mu_);
    std::string framed = line;
    framed.push_back('\n');
    size_t off = 0;
    while (off < framed.size()) {
      const ssize_t n =
          ::write(fd_, framed.data() + off, framed.size() - off);
      if (n <= 0) return;  // client went away; drop the rest
      off += static_cast<size_t>(n);
    }
  }

 private:
  Mutex mu_;
  // The stream itself is what mu_ serializes: writes interleave at line
  // granularity. The descriptor is set once at construction, but every
  // use goes through Write under mu_, so it is guarded like the stream
  // state it names.
  int fd_ TSE_GUARDED_BY(mu_);
};

/// Parse-and-dispatch for one NDJSON stream, by the dispatch class the
/// op table gives each op (ProtocolHandler::Dispatch).
class RequestDispatcher {
 public:
  RequestDispatcher(ProtocolHandler& handler, AdmissionController& admission,
                    ThreadPool& pool, LineWriter& writer)
      : handler_(handler),
        admission_(admission),
        pool_(pool),
        writer_(writer) {}

  ~RequestDispatcher() { Drain(); }

  /// Handles one request line (with or without a trailing CR). Returns
  /// true when the line was a shutdown op.
  bool HandleLine(std::string line) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) return false;
    JsonValue request;
    std::string parse_error;
    if (!ParseJson(line, &request, &parse_error)) {
      writer_.Write(handler_.MakeParseError(parse_error));
      return false;
    }
    using Dispatch = ProtocolHandler::Dispatch;
    const Dispatch dispatch =
        ProtocolHandler::DispatchOf(ProtocolHandler::OpOf(request));
    switch (dispatch) {
      case Dispatch::kInline:
        writer_.Write(handler_.Handle(request));
        return false;
      case Dispatch::kBarrier:
      case Dispatch::kShutdown:
        Drain();
        writer_.Write(handler_.Handle(request));
        return dispatch == Dispatch::kShutdown;
      case Dispatch::kAdmittedRead:
        // At most max_inflight + queue_depth of these exist anywhere
        // (running, queued in admission, or parked in the pool's task
        // queue); the rest are shed right here, on the reader thread, so
        // queue growth stays bounded however fast clients flood.
        if (!admission_.TryAcquireBacklogSlot()) {
          writer_.Write(handler_.MakeOverloaded(request));
          return false;
        }
        break;
      case Dispatch::kRead:
        break;
    }
    // Reads fan out; the response carries the echoed id. Completed
    // futures are pruned as we go so a read-only stream stays O(live).
    PruneCompleted();
    const bool holds_slot = dispatch == Dispatch::kAdmittedRead;
    auto shared_request = std::make_shared<JsonValue>(std::move(request));
    pending_.push_back(
        pool_.Submit([this, shared_request, holds_slot] {
          writer_.Write(handler_.Handle(*shared_request));
          if (holds_slot) admission_.ReleaseBacklogSlot();
        }));
    return false;
  }

  /// Waits for every dispatched request to finish.
  void Drain() {
    for (std::future<void>& f : pending_) f.wait();
    pending_.clear();
  }

 private:
  void PruneCompleted() {
    pending_.erase(
        std::remove_if(pending_.begin(), pending_.end(),
                       [](std::future<void>& f) {
                         return f.wait_for(std::chrono::seconds(0)) ==
                                std::future_status::ready;
                       }),
        pending_.end());
  }

  ProtocolHandler& handler_;
  AdmissionController& admission_;
  ThreadPool& pool_;
  LineWriter& writer_;
  std::vector<std::future<void>> pending_;
};

/// Splits a byte stream into NDJSON lines for a RequestDispatcher. Lines
/// may arrive split across arbitrarily small read() chunks, and the last
/// line needs no newline. A line longer than kMaxLineBytes is never
/// dispatched: it draws ONE structured error as soon as it passes the
/// bound, its remaining bytes are dropped unbuffered up to the next
/// newline, and the stream stays usable. A multi-MB garbage line can
/// therefore neither desync the stream nor balloon memory, and whether a
/// line passes depends on its length alone, not on how it was chunked.
class LineFramer {
 public:
  static constexpr size_t kMaxLineBytes = 4u << 20;  // 4 MiB

  LineFramer(const ProtocolHandler& handler, RequestDispatcher& dispatcher,
             LineWriter& writer)
      : handler_(handler), dispatcher_(dispatcher), writer_(writer) {}

  /// Feeds one chunk; returns true when a shutdown op was handled.
  bool Consume(const char* data, size_t size) {
    while (size > 0) {
      const void* nl = std::memchr(data, '\n', size);
      const size_t take =
          nl ? static_cast<size_t>(static_cast<const char*>(nl) - data)
             : size;
      if (!discarding_ && buffer_.size() + take > kMaxLineBytes) {
        writer_.Write(handler_.MakeParseError(
            "request line exceeds 4 MiB; dropped"));
        buffer_.clear();
        buffer_.shrink_to_fit();
        discarding_ = true;
      }
      if (!discarding_) buffer_.append(data, take);
      if (nl == nullptr) return false;
      data += take + 1;
      size -= take + 1;
      const bool was_discarding = discarding_;
      discarding_ = false;
      if (!was_discarding && dispatcher_.HandleLine(std::move(buffer_))) {
        return true;
      }
      buffer_.clear();
    }
    return false;
  }

  /// Ends the stream, dispatching a last line that had no newline;
  /// returns true when it was a shutdown op.
  bool Finish() {
    return !discarding_ && dispatcher_.HandleLine(std::move(buffer_));
  }

 private:
  const ProtocolHandler& handler_;
  RequestDispatcher& dispatcher_;
  LineWriter& writer_;
  std::string buffer_;
  bool discarding_ = false;
};

/// Serves one NDJSON stream until EOF, a read error or a shutdown op:
/// stdin/stdout in pipe mode, one connection in TCP mode, so both
/// transports frame, bound and dispatch lines alike. Returns true when a
/// shutdown op ended the stream.
bool ServeStream(int in_fd, int out_fd, ProtocolHandler& handler,
                 AdmissionController& admission, ThreadPool& pool) {
  LineWriter writer(out_fd);
  RequestDispatcher dispatcher(handler, admission, pool, writer);
  LineFramer framer(handler, dispatcher, writer);
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::read(in_fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;  // signal: not EOF
    if (n == 0) return framer.Finish();
    if (n < 0) return false;
    if (framer.Consume(chunk, static_cast<size_t>(n))) return true;
  }
}

/// Live TCP connections, so a shutdown op can unblock every reader (a
/// connection idle in read() would otherwise keep the join below waiting
/// forever).
class ConnectionSet {
 public:
  void Add(int fd) {
    MutexLock lock(mu_);
    fds_.push_back(fd);
  }
  void Remove(int fd) {
    MutexLock lock(mu_);
    fds_.erase(std::remove(fds_.begin(), fds_.end(), fd), fds_.end());
  }
  void ShutdownAll() {
    MutexLock lock(mu_);
    for (int fd : fds_) ::shutdown(fd, SHUT_RD);
  }

 private:
  Mutex mu_;
  std::vector<int> fds_ TSE_GUARDED_BY(mu_);
};

int RunTcpMode(ProtocolHandler& handler, AdmissionController& admission,
               ThreadPool& pool, int port) {
  ::signal(SIGPIPE, SIG_IGN);
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) {
    std::perror("socket");
    return 1;
  }
  const int one = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // localhost only
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listener, 64) < 0) {
    std::perror("bind/listen");
    ::close(listener);
    return 1;
  }
  std::fprintf(stderr, "tsexplain_serve: listening on 127.0.0.1:%d\n",
               port);

  std::atomic<bool> stop{false};
  ConnectionSet live;
  // Each entry carries a finished flag so the accept loop can reap done
  // connection threads as it goes — a long-lived server with churning
  // clients must not accumulate one unjoined thread per past connection.
  struct Connection {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> finished;
  };
  std::vector<Connection> connections;
  auto reap_finished = [&connections] {
    for (auto it = connections.begin(); it != connections.end();) {
      if (it->finished->load()) {
        it->thread.join();
        it = connections.erase(it);
      } else {
        ++it;
      }
    }
  };
  while (!stop.load()) {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) break;
    if (stop.load()) {
      ::close(fd);
      break;
    }
    reap_finished();
    live.Add(fd);
    auto finished = std::make_shared<std::atomic<bool>>(false);
    Connection connection;
    connection.finished = finished;
    connection.thread = std::thread([fd, listener, &handler, &admission,
                                     &pool, &stop, &live, finished] {
      if (ServeStream(fd, fd, handler, admission, pool)) {
        stop.store(true);
        // Unblock accept AND every other connection's read().
        ::shutdown(listener, SHUT_RDWR);
        live.ShutdownAll();
      }
      live.Remove(fd);
      ::close(fd);
      finished->store(true);
    });
    connections.push_back(std::move(connection));
  }
  ::close(listener);
  for (Connection& connection : connections) connection.thread.join();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ServeOptions options;
  bool want_help = false;
  if (!ParseArgs(argc, argv, &options, &want_help)) {
    PrintUsage(stderr, argv[0]);
    return 2;
  }
  if (want_help) {
    PrintUsage(stdout, argv[0]);
    return 0;
  }

  ServiceOptions service_options;
  service_options.cache_capacity_bytes = options.cache_mb << 20;
  service_options.admission.max_concurrent = options.max_inflight;
  service_options.admission.queue_depth = options.queue_depth;
  service_options.admission.per_tenant_inflight = options.tenant_inflight;
  service_options.tenant_cache_budget_bytes =
      options.tenant_cache_budget_mb << 20;
  service_options.session_log_dir = options.session_log_dir;
  ExplainService service(service_options);

  for (const std::string& preload : options.preloads) {
    const size_t eq = preload.find('=');
    const std::string name = preload.substr(0, eq);
    const std::string path = preload.substr(eq + 1);
    std::string error;
    bool ok = false;
    if (storage::IsTableSnapshotFile(path)) {
      // Binary snapshot: schema (incl. the time column) is baked in.
      ok = service.registry().RegisterSnapshotFile(name, path, &error);
    } else {
      if (options.time_column.empty()) {
        std::fprintf(stderr, "--preload requires --time for CSV inputs\n");
        return 2;
      }
      CsvOptions csv;
      csv.time_column = options.time_column;
      if (!options.measure.empty()) {
        csv.measure_columns = {options.measure};
      }
      ok = service.registry().RegisterCsvFile(name, path, csv, &error);
    }
    if (!ok) {
      std::fprintf(stderr, "preload %s failed: %s\n", name.c_str(),
                   error.c_str());
      return 1;
    }
    std::fprintf(stderr, "preloaded %s from %s\n", name.c_str(),
                 path.c_str());
  }

  if (!options.cache_load.empty()) {
    // Warm start is best-effort by design: a stale, corrupt, or missing
    // snapshot must degrade to a cold cache, never block serving.
    std::string error;
    size_t restored = 0;
    size_t fenced = 0;
    if (service.LoadCache(options.cache_load, &error, &restored, &fenced)) {
      std::fprintf(stderr,
                   "cache warm start: %zu entries restored, %zu fenced "
                   "(%s)\n",
                   restored, fenced, options.cache_load.c_str());
    } else {
      std::fprintf(stderr, "cache warm start skipped: %s\n", error.c_str());
    }
  }

  ProtocolHandler handler(service);
  ProtocolHandler::LogOptions log_options;
  std::unique_ptr<LineLog> slow_log;
  std::unique_ptr<LineLog> access_log;
  if (options.slow_query_ms > 0.0) {
    std::string error;
    slow_log = LineLog::Open(options.slow_query_log, &error);
    if (!slow_log) {
      std::fprintf(stderr, "cannot open slow-query log: %s\n",
                   error.c_str());
      return 2;
    }
    log_options.slow_query_log = slow_log.get();
    log_options.slow_query_ms = options.slow_query_ms;
  }
  if (!options.access_log.empty()) {
    std::string error;
    access_log = LineLog::Open(options.access_log, &error);
    if (!access_log) {
      std::fprintf(stderr, "cannot open access log: %s\n", error.c_str());
      return 2;
    }
    log_options.access_log = access_log.get();
  }
  handler.set_log_options(log_options);
  ThreadPool& pool = ThreadPool::Shared();

  // Self-observation (docs/OBSERVABILITY.md, "Self-observation"): the
  // watchdog stamps every request; the history sampler snapshots the
  // registry on a cadence. Both exist even when the sampler thread is
  // disabled, so healthz/state and explicit "sample":true ticks work in
  // every configuration.
  const double start_wall_ms = WallMs();
  QueryWatchdog::Options watchdog_options;
  watchdog_options.stuck_after_ms = options.stuck_after_ms;
  QueryWatchdog watchdog(watchdog_options);
  MetricsHistory::Options history_options;
  history_options.interval_ms =
      options.history_interval_ms > 0 ? options.history_interval_ms : 1000;
  history_options.capacity = static_cast<size_t>(options.history_capacity);
  MetricsHistory history(MetricRegistry::Global(), history_options);
  history.TrackHistogramPercentiles("query.hot_ms");
  history.TrackHistogramPercentiles("query.cold_ms");
  // Sole registration site for the process-identity gauges (lint R4):
  // build_info is the constant 1 (Prometheus idiom — the interesting
  // bits live in the `state` op's build block); uptime is refreshed by
  // the sampler prologue below, alongside the watchdog gauges.
  Gauge& uptime_gauge =
      MetricRegistry::Global().GetGauge("server.uptime_seconds");
  MetricRegistry::Global().GetGauge("server.build_info").Set(1);
  history.SetSamplePrologue([&uptime_gauge, &watchdog, start_wall_ms] {
    uptime_gauge.Set(
        static_cast<int64_t>((WallMs() - start_wall_ms) / 1000.0));
    watchdog.Scan();
  });
  if (options.history_interval_ms > 0) history.Start();

  ProtocolHandler::Introspection introspection;
  introspection.history = &history;
  introspection.watchdog = &watchdog;
  introspection.start_wall_ms = start_wall_ms;
  introspection.pool_size = static_cast<int>(pool.size());
  handler.set_introspection(introspection);

  int exit_code = 0;
  if (options.port > 0) {
    exit_code = RunTcpMode(handler, service.admission(), pool, options.port);
  } else {
    ServeStream(STDIN_FILENO, STDOUT_FILENO, handler, service.admission(),
                pool);
  }
  history.Stop();

  if (!options.cache_save.empty()) {
    std::string error;
    size_t saved = 0;
    if (service.SaveCache(options.cache_save, &error, &saved)) {
      std::fprintf(stderr, "cache saved: %zu entries (%s)\n", saved,
                   options.cache_save.c_str());
    } else {
      std::fprintf(stderr, "cache save failed: %s\n", error.c_str());
    }
  }
  return exit_code;
}
