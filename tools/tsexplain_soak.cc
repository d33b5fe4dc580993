// tsexplain_soak: mixed-workload soak / chaos driver that dogfoods the
// server's own telemetry (docs/OBSERVABILITY.md, "Self-observation").
//
// The harness forks a real tsexplain_serve child (TCP mode), drives it
// with five concurrent traffic classes, scrapes healthz / metrics /
// state / metrics_history WHILE the load runs, and exits non-zero
// unless every invariant held:
//
//   I1  bounded admission: queued and peak_queued never exceed the
//       configured queue depth (floods shed, they do not queue).
//   I2  monotonic counters: no counter ever decreases within one server
//       generation (scrape N+1 >= scrape N, for every counter).
//   I3  histogram conservation: per-bucket counts sum to the recorded
//       total count in every scrape (Histogram's relaxed atomics must
//       never lose an observation).
//   I4  byte-identical warm restart (--kill-restart): save_cache, then
//       kill -9 the server mid-run, restart it with --cache-load, and
//       the distinguished query's "result" payload must come back from
//       cache byte-for-byte identical.
//   I5  zero stuck queries at drain: once traffic stops, healthz must
//       report status "ok" with an empty stuck set.
//   I7  tenant state is the cache's (checked at drain, after I5): every
//       `tenant_bytes` value in `state` is above 0 and `tenants` <=
//       cache.entries; after a drop_dataset of the soak dataset, `tenants`
//       is 0 and `tenant_bytes` is empty.
//   I6  dogfood: the metrics_history window exports as a registered
//       dataset and the engine explains it end-to-end (the server
//       analyzes its own telemetry with its own query engine). Runs after
//       I7 on a dataset of its own.
//
// Traffic classes (thread counts via --mix):
//   hot      repeated identical explain        -> cache-hit path
//   cold     rotating k / explain_by variants  -> cold compute + engines
//   stream   open_session / append / explain_session / close
//   hostile  malformed JSON, unknown ops, bad types; the connection must
//            survive and keep answering (decode-surface regression)
//   quota    explains under rotating tenant ids, every fourth under a
//            fresh one (tenant churn) -> per-tenant accounting
//
// Usage:
//   tsexplain_soak --serve-bin PATH [--port N] [--duration SECONDS]
//                  [--kill-restart] [--mix hot=2,cold=1,stream=1,hostile=1,quota=2]
//
// The child's stderr goes to <tmpdir>/serve.log; on failure the harness
// prints the log path so CI uploads have something to chew on.

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "src/common/json.h"
#include "src/common/mutex.h"

namespace {

using namespace tsexplain;

struct SoakOptions {
  std::string serve_bin;
  int port = 7753;
  int duration_s = 30;
  bool kill_restart = false;
  // Threads per traffic class.
  int hot = 2;
  int cold = 1;
  int stream = 1;
  int hostile = 1;
  int quota = 2;
};

constexpr int kQueueDepth = 8;  // passed to the server; bound for I1

// Deterministic PRNG (the soak must replay identically run to run).
struct Lcg {
  uint64_t state;
  explicit Lcg(uint64_t seed) : state(seed) {}
  uint32_t Next() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<uint32_t>(state >> 33);
  }
  uint32_t Next(uint32_t bound) { return Next() % bound; }
};

// Invariant-violation sink: threads append, main reports.
class Violations {
 public:
  void Add(const std::string& what) {
    MutexLock lock(mu_);
    entries_.push_back(what);
    std::fprintf(stderr, "soak: INVARIANT VIOLATION: %s\n", what.c_str());
  }
  std::vector<std::string> Snapshot() {
    MutexLock lock(mu_);
    return entries_;
  }

 private:
  Mutex mu_;
  std::vector<std::string> entries_ TSE_GUARDED_BY(mu_);
};

Violations g_violations;

// --- NDJSON client ---------------------------------------------------------

// One synchronous request/response connection. With a single request in
// flight per connection the server's out-of-order completion cannot
// reorder OUR responses, so a blocking read-until-newline suffices.
class Client {
 public:
  ~Client() { Close(); }

  bool Connect(int port) {
    Close();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
        0) {
      Close();
      return false;
    }
    return true;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    buffer_.clear();
  }

  bool connected() const { return fd_ >= 0; }

  /// Writes `line` + newline, reads one response line. False on any
  /// transport failure (connection killed, short write).
  bool SendRecv(const std::string& line, std::string* response) {
    if (fd_ < 0) return false;
    std::string framed = line;
    framed.push_back('\n');
    size_t off = 0;
    while (off < framed.size()) {
      const ssize_t n =
          ::write(fd_, framed.data() + off, framed.size() - off);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return ReadLine(response);
  }

  bool ReadLine(std::string* response) {
    for (;;) {
      const size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        *response = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return true;
      }
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

// Every response must be a JSON object echoing an id; anything else is a
// protocol violation regardless of traffic class.
bool CheckResponseShape(const std::string& who, const std::string& response,
                        JsonValue* parsed) {
  std::string error;
  if (!ParseJson(response, parsed, &error)) {
    g_violations.Add(who + ": response is not JSON: " + error);
    return false;
  }
  if (!parsed->IsObject() || parsed->Find("id") == nullptr) {
    g_violations.Add(who + ": response lacks an id: " + response);
    return false;
  }
  return true;
}

// --- server child management ----------------------------------------------

struct ServerProcess {
  pid_t pid = -1;

  bool Start(const SoakOptions& options, const std::string& csv_path,
             const std::string& log_path, const std::string& cache_load) {
    std::vector<std::string> args = {
        options.serve_bin,
        "--port", std::to_string(options.port),
        "--preload", "soak=" + csv_path,
        "--time", "day",
        "--measure", "sales",
        "--cache-mb", "16",
        "--queue-depth", std::to_string(kQueueDepth),
        "--tenant-inflight", "2",
        "--metrics-history-interval-ms", "200",
        "--stuck-after-ms", "5000",
        "--slow-query-ms", "250",
    };
    if (!cache_load.empty()) {
      args.push_back("--cache-load");
      args.push_back(cache_load);
    }
    pid = ::fork();
    if (pid < 0) return false;
    if (pid == 0) {
      const int log_fd = ::open(log_path.c_str(),
                                O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (log_fd >= 0) {
        ::dup2(log_fd, STDERR_FILENO);
        ::close(log_fd);
      }
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (std::string& arg : args) argv.push_back(arg.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      std::perror("execv");
      _exit(127);
    }
    return true;
  }

  /// Polls until the TCP port accepts (the child logs + preloads first).
  bool WaitReady(int port) {
    for (int attempt = 0; attempt < 100; ++attempt) {
      Client probe;
      if (probe.Connect(port)) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      int status = 0;
      if (::waitpid(pid, &status, WNOHANG) == pid) {
        pid = -1;
        return false;  // child died during startup
      }
    }
    return false;
  }

  void Kill9() {
    if (pid <= 0) return;
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    pid = -1;
  }

  int WaitExit() {
    if (pid <= 0) return -1;
    int status = 0;
    ::waitpid(pid, &status, 0);
    pid = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }
};

// --- workload data ---------------------------------------------------------

// 48 days x 4 regions x 3 products with a deliberate regime shift at
// day 24 so explanations have real contributors to find.
std::string MakeSoakCsv() {
  static const char* kRegions[] = {"north", "south", "east", "west"};
  static const char* kProducts[] = {"widget", "gadget", "gizmo"};
  Lcg rng(20260807);
  std::ostringstream out;
  out << "day,region,product,sales\n";
  for (int day = 0; day < 48; ++day) {
    for (const char* region : kRegions) {
      for (const char* product : kProducts) {
        int value = 100 + static_cast<int>(rng.Next(40));
        if (day >= 24 && std::strcmp(region, "west") == 0) value += 220;
        char buf[16];
        std::snprintf(buf, sizeof(buf), "%02d", day);
        out << "2026-01-" << buf << ',' << region << ',' << product << ','
            << value << '\n';
      }
    }
  }
  return out.str();
}

// --- traffic classes -------------------------------------------------------

struct TrafficCounters {
  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> structured_errors{0};  // expected for hostile/quota
  std::atomic<uint64_t> shed{0};
};

void RunHotClient(int port, std::atomic<bool>& stop, TrafficCounters& tc,
                  int worker) {
  Client client;
  if (!client.Connect(port)) {
    g_violations.Add("hot: cannot connect");
    return;
  }
  const std::string request =
      R"({"op":"explain","id":"hot)" + std::to_string(worker) +
      R"(","dataset":"soak","measure":"sales","explain_by":["region"],"k":3})";
  while (!stop.load(std::memory_order_relaxed)) {
    std::string response;
    if (!client.SendRecv(request, &response)) {
      if (!stop.load()) g_violations.Add("hot: connection dropped");
      return;
    }
    JsonValue parsed;
    if (!CheckResponseShape("hot", response, &parsed)) return;
    if (parsed.GetBool("ok", false)) {
      tc.ok.fetch_add(1);
    } else if (response.find("overloaded") != std::string::npos) {
      tc.shed.fetch_add(1);
    } else {
      g_violations.Add("hot: unexpected error: " + response);
      return;
    }
  }
}

void RunColdClient(int port, std::atomic<bool>& stop, TrafficCounters& tc,
                   int worker) {
  Client client;
  if (!client.Connect(port)) {
    g_violations.Add("cold: cannot connect");
    return;
  }
  static const char* kDims[] = {"region", "product"};
  Lcg rng(1000 + static_cast<uint64_t>(worker));
  uint64_t sequence = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    // Rotate k and explain_by so most requests miss the result cache
    // (distinct query keys), exercising cold compute + engine builds.
    const int k = 1 + static_cast<int>(rng.Next(6));
    const char* dim = kDims[rng.Next(2)];
    const std::string request =
        R"({"op":"explain","id":"cold)" + std::to_string(worker) + "-" +
        std::to_string(sequence++) +
        R"(","dataset":"soak","measure":"sales","explain_by":[")" + dim +
        R"("],"k":)" + std::to_string(k) + "}";
    std::string response;
    if (!client.SendRecv(request, &response)) {
      if (!stop.load()) g_violations.Add("cold: connection dropped");
      return;
    }
    JsonValue parsed;
    if (!CheckResponseShape("cold", response, &parsed)) return;
    if (parsed.GetBool("ok", false)) {
      tc.ok.fetch_add(1);
    } else {
      // Sheds are the expected overload outcome; anything else is a bug.
      if (response.find("overloaded") != std::string::npos) {
        tc.shed.fetch_add(1);
      } else {
        g_violations.Add("cold: unexpected error: " + response);
        return;
      }
    }
  }
}

void RunStreamClient(int port, std::atomic<bool>& stop, TrafficCounters& tc,
                     int worker) {
  Client client;
  if (!client.Connect(port)) {
    g_violations.Add("stream: cannot connect");
    return;
  }
  std::string response;
  JsonValue parsed;
  const std::string open =
      R"({"op":"open_session","id":"so)" + std::to_string(worker) +
      R"(","dataset":"soak","measure":"sales","explain_by":["region"],"k":2})";
  if (!client.SendRecv(open, &response) ||
      !CheckResponseShape("stream", response, &parsed) ||
      !parsed.GetBool("ok", false)) {
    g_violations.Add("stream: open_session failed: " + response);
    return;
  }
  const int session = parsed.GetInt("session", 0);
  Lcg rng(9000 + static_cast<uint64_t>(worker));
  int day = 48;
  while (!stop.load(std::memory_order_relaxed)) {
    char label[24];
    std::snprintf(label, sizeof(label), "2026-02-%02d", day % 28);
    ++day;
    std::ostringstream append;
    append << R"({"op":"append","id":"sa)" << worker << R"(","session":)"
           << session << R"(,"label":")" << label << R"(","rows":[)";
    static const char* kRegions[] = {"north", "south", "east", "west"};
    for (int r = 0; r < 4; ++r) {
      if (r > 0) append << ',';
      append << R"({"dims":[")" << kRegions[r] << R"("],"measures":[)"
             << (100 + rng.Next(60)) << "]}";
    }
    append << "]}";
    if (!client.SendRecv(append.str(), &response)) {
      if (!stop.load()) g_violations.Add("stream: connection dropped");
      return;
    }
    if (!CheckResponseShape("stream", response, &parsed)) return;
    const std::string explain =
        R"({"op":"explain_session","id":"se)" + std::to_string(worker) +
        R"(","session":)" + std::to_string(session) + "}";
    if (!client.SendRecv(explain, &response)) {
      if (!stop.load()) g_violations.Add("stream: connection dropped");
      return;
    }
    if (!CheckResponseShape("stream", response, &parsed)) return;
    if (parsed.GetBool("ok", false)) {
      tc.ok.fetch_add(1);
    } else if (response.find("overloaded") != std::string::npos) {
      tc.shed.fetch_add(1);
    } else {
      g_violations.Add("stream: unexpected error: " + response);
      return;
    }
  }
  const std::string close =
      R"({"op":"close_session","id":"sc)" + std::to_string(worker) +
      R"(","session":)" + std::to_string(session) + "}";
  client.SendRecv(close, &response);
}

void RunHostileClient(int port, std::atomic<bool>& stop,
                      TrafficCounters& tc, int worker) {
  Client client;
  if (!client.Connect(port)) {
    g_violations.Add("hostile: cannot connect");
    return;
  }
  static const char* kGarbage[] = {
      "{\"op\":\"explain\"",                       // truncated JSON
      "]]]]",                                      // not an object
      "{\"op\":\"no_such_op\",\"id\":1}",          // unknown op
      "{\"op\":\"explain\",\"id\":2,\"dataset\":42}",  // wrong type
      "{\"op\":\"explain\",\"id\":3}",             // missing dataset
      "{\"op\":\"append\",\"id\":4,\"session\":\"x\"}",  // bad session
      "{\"id\":5}",                                // missing op
  };
  Lcg rng(7000 + static_cast<uint64_t>(worker));
  while (!stop.load(std::memory_order_relaxed)) {
    const std::string& line = kGarbage[rng.Next(7)];
    std::string response;
    // Every garbage line must produce exactly one structured error, and
    // the connection must survive to answer a well-formed probe next.
    if (!client.SendRecv(line, &response)) {
      if (!stop.load()) {
        g_violations.Add("hostile: connection died on garbage input");
      }
      return;
    }
    tc.structured_errors.fetch_add(1);
    const std::string probe = R"({"op":"list_datasets","id":"hp"})";
    JsonValue parsed;
    if (!client.SendRecv(probe, &response) ||
        !CheckResponseShape("hostile", response, &parsed) ||
        !parsed.GetBool("ok", false)) {
      if (!stop.load()) {
        g_violations.Add(
            "hostile: connection unusable after garbage input");
      }
      return;
    }
    tc.ok.fetch_add(1);
  }
}

void RunQuotaClient(int port, std::atomic<bool>& stop, TrafficCounters& tc,
                    int worker) {
  Client client;
  if (!client.Connect(port)) {
    g_violations.Add("quota: cannot connect");
    return;
  }
  static const char* kTenants[] = {"acme", "globex", "initech"};
  Lcg rng(5000 + static_cast<uint64_t>(worker));
  uint64_t sequence = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    // Every fourth request comes from a tenant never seen before: tenant
    // state must stay bounded by the cache however many ids arrive (I7).
    const std::string id =
        std::to_string(worker) + "-" + std::to_string(sequence);
    const std::string tenant =
        sequence % 4 == 3 ? "churn-" + id : kTenants[rng.Next(3)];
    ++sequence;
    const std::string request =
        R"({"op":"explain","id":"q)" + id +
        R"(","dataset":"soak","measure":"sales","explain_by":["product"],"k":)" +
        std::to_string(1 + rng.Next(4)) + R"(,"tenant":")" + tenant +
        R"("})";
    std::string response;
    if (!client.SendRecv(request, &response)) {
      if (!stop.load()) g_violations.Add("quota: connection dropped");
      return;
    }
    JsonValue parsed;
    if (!CheckResponseShape("quota", response, &parsed)) return;
    if (parsed.GetBool("ok", false)) {
      tc.ok.fetch_add(1);
    } else if (response.find("overloaded") != std::string::npos ||
               response.find("quota_exceeded") != std::string::npos) {
      tc.shed.fetch_add(1);  // per-tenant cap sheds are the point
    } else {
      g_violations.Add("quota: unexpected error: " + response);
      return;
    }
  }
}

// --- the telemetry scraper (invariants I1..I3) -----------------------------

void RunScraper(int port, std::atomic<bool>& stop) {
  Client client;
  if (!client.Connect(port)) {
    g_violations.Add("scraper: cannot connect");
    return;
  }
  std::map<std::string, double> last_counters;
  while (!stop.load(std::memory_order_relaxed)) {
    std::string response;
    JsonValue parsed;

    // healthz: must always answer, even under full load (it is handled
    // inline on the reader thread, off every engine mutex).
    if (!client.SendRecv(R"({"op":"healthz","id":"hz"})", &response)) {
      if (!stop.load()) g_violations.Add("scraper: healthz dropped");
      return;
    }
    if (!CheckResponseShape("scraper", response, &parsed)) return;
    if (!parsed.GetBool("ok", false)) {
      g_violations.Add("scraper: healthz returned ok:false: " + response);
    }

    // metrics: monotone counters (I2) + histogram conservation (I3).
    if (!client.SendRecv(R"({"op":"metrics","id":"m"})", &response)) {
      if (!stop.load()) g_violations.Add("scraper: metrics dropped");
      return;
    }
    if (!CheckResponseShape("scraper", response, &parsed)) return;
    const JsonValue* metrics = parsed.Find("metrics");
    if (metrics == nullptr || !metrics->IsObject()) {
      g_violations.Add("scraper: metrics op lacks 'metrics' object");
      return;
    }
    const JsonValue* counters = metrics->Find("counters");
    if (counters != nullptr && counters->IsObject()) {
      for (const auto& [name, value] : counters->members()) {
        const double now = value.AsDouble();
        const auto it = last_counters.find(name);
        if (it != last_counters.end() && now < it->second) {
          g_violations.Add("counter " + name + " went backwards: " +
                           std::to_string(it->second) + " -> " +
                           std::to_string(now));
        }
        last_counters[name] = now;
      }
    }
    const JsonValue* histograms = metrics->Find("histograms");
    if (histograms != nullptr && histograms->IsObject()) {
      for (const auto& [name, hist] : histograms->members()) {
        const JsonValue* buckets = hist.Find("buckets");
        if (buckets == nullptr || !buckets->IsArray()) continue;
        double bucket_sum = 0.0;
        for (const JsonValue& bucket : buckets->array()) {
          bucket_sum += bucket.GetDouble("count", 0.0);
        }
        const double count = hist.GetDouble("count", 0.0);
        if (bucket_sum != count) {
          g_violations.Add("histogram " + name + " buckets sum to " +
                           std::to_string(bucket_sum) + " but count is " +
                           std::to_string(count));
        }
      }
    }

    // state: bounded admission queue (I1).
    if (!client.SendRecv(R"({"op":"state","id":"s"})", &response)) {
      if (!stop.load()) g_violations.Add("scraper: state dropped");
      return;
    }
    if (!CheckResponseShape("scraper", response, &parsed)) return;
    const JsonValue* admission = parsed.Find("admission");
    if (admission == nullptr || !admission->IsObject()) {
      g_violations.Add("scraper: state lacks 'admission' object");
    } else {
      const int queued = admission->GetInt("queued", 0);
      const int peak_queued = admission->GetInt("peak_queued", 0);
      if (queued > kQueueDepth || peak_queued > kQueueDepth) {
        g_violations.Add(
            "admission queue exceeded its bound: queued=" +
            std::to_string(queued) +
            " peak_queued=" + std::to_string(peak_queued) +
            " depth=" + std::to_string(kQueueDepth));
      }
    }

    // metrics_history: the windowed series must parse and stay within
    // its declared capacity.
    if (!client.SendRecv(R"({"op":"metrics_history","id":"mh","last_n":32})",
                         &response)) {
      if (!stop.load()) g_violations.Add("scraper: metrics_history dropped");
      return;
    }
    if (!CheckResponseShape("scraper", response, &parsed)) return;
    const JsonValue* history = parsed.Find("history");
    if (history == nullptr || !history->IsObject()) {
      g_violations.Add("scraper: metrics_history lacks 'history' object");
    } else {
      const JsonValue* ticks = history->Find("ticks");
      const double capacity = history->GetDouble("capacity", 0.0);
      if (ticks == nullptr || !ticks->IsArray() ||
          static_cast<double>(ticks->array().size()) > capacity) {
        g_violations.Add("scraper: history window exceeds its capacity");
      }
    }

    std::this_thread::sleep_for(std::chrono::milliseconds(250));
  }
}

// --- phases ---------------------------------------------------------------

void RunTrafficPhase(const SoakOptions& options, int seconds,
                     TrafficCounters& tc) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int i = 0; i < options.hot; ++i) {
    threads.emplace_back(RunHotClient, options.port, std::ref(stop),
                         std::ref(tc), i);
  }
  for (int i = 0; i < options.cold; ++i) {
    threads.emplace_back(RunColdClient, options.port, std::ref(stop),
                         std::ref(tc), i);
  }
  for (int i = 0; i < options.stream; ++i) {
    threads.emplace_back(RunStreamClient, options.port, std::ref(stop),
                         std::ref(tc), i);
  }
  for (int i = 0; i < options.hostile; ++i) {
    threads.emplace_back(RunHostileClient, options.port, std::ref(stop),
                         std::ref(tc), i);
  }
  for (int i = 0; i < options.quota; ++i) {
    threads.emplace_back(RunQuotaClient, options.port, std::ref(stop),
                         std::ref(tc), i);
  }
  std::thread scraper(RunScraper, options.port, std::ref(stop));
  std::this_thread::sleep_for(std::chrono::seconds(seconds));
  stop.store(true);
  for (std::thread& t : threads) t.join();
  scraper.join();
}

// The distinguished query for I4: must be in the result cache when
// save_cache runs, and must come back byte-identical after the kill -9 +
// --cache-load restart. Returns the substring from "result": onward
// (request_id / latency_ms / trace differ run to run; the result payload
// must not).
bool DistinguishedQuery(int port, std::string* payload, bool* cache_hit) {
  Client client;
  if (!client.Connect(port)) return false;
  const std::string request =
      R"({"op":"explain","id":"dq","dataset":"soak","measure":"sales","explain_by":["region","product"],"k":4})";
  std::string response;
  if (!client.SendRecv(request, &response)) return false;
  JsonValue parsed;
  if (!CheckResponseShape("warm-restart", response, &parsed) ||
      !parsed.GetBool("ok", false)) {
    return false;
  }
  *cache_hit = parsed.GetBool("cache_hit", false);
  const size_t at = response.find("\"result\":");
  if (at == std::string::npos) return false;
  *payload = response.substr(at);
  return true;
}

// I5: after every traffic thread has joined, nothing may still be
// in flight or stuck (the healthz request itself is the one allowed
// in-flight entry).
void CheckDrained(int port) {
  Client client;
  if (!client.Connect(port)) {
    g_violations.Add("drain: cannot connect");
    return;
  }
  std::string response;
  JsonValue parsed;
  if (!client.SendRecv(R"({"op":"healthz","id":"drain"})", &response) ||
      !CheckResponseShape("drain", response, &parsed)) {
    g_violations.Add("drain: healthz failed");
    return;
  }
  if (parsed.GetString("status") != "ok" || parsed.GetInt("stuck", -1) != 0) {
    g_violations.Add("queries still stuck at drain: " + response);
  }
}

// I7: the cache is the only record of a tenant. `state` lists exactly
// the tenants holding bytes — never more than the resident entries — and
// dropping the soak dataset leaves none.
void CheckTenantState(int port) {
  Client client;
  if (!client.Connect(port)) {
    g_violations.Add("tenants: cannot connect");
    return;
  }
  // Reads `state`; false (with a violation) on a failed request.
  auto read_state = [&](const char* when, JsonValue* parsed) {
    std::string response;
    if (!client.SendRecv(R"({"op":"state","id":"tenants"})", &response) ||
        !CheckResponseShape("tenants", response, parsed) ||
        !parsed->GetBool("ok", false) || !parsed->Find("tenant_bytes") ||
        !parsed->Find("cache")) {
      g_violations.Add(std::string("tenants: state failed ") + when + ": " +
                       response);
      return false;
    }
    return true;
  };
  JsonValue state;
  if (!read_state("at drain", &state)) return;
  const int tenants = state.GetInt("tenants", -1);
  const int entries = state.Find("cache")->GetInt("entries", -1);
  for (const auto& [tenant, bytes] : state.Find("tenant_bytes")->members()) {
    if (!(bytes.AsDouble() > 0.0)) {
      g_violations.Add("tenants: " + tenant + " listed without bytes");
    }
  }
  if (tenants < 0 || tenants > entries) {
    g_violations.Add("tenants: " + std::to_string(tenants) +
                     " tenants over " + std::to_string(entries) +
                     " cache entries");
  }
  std::string response;
  JsonValue dropped;
  if (!client.SendRecv(R"({"op":"drop_dataset","id":"td","name":"soak"})",
                       &response) ||
      !CheckResponseShape("tenants", response, &dropped) ||
      !dropped.GetBool("ok", false)) {
    g_violations.Add("tenants: drop_dataset failed: " + response);
    return;
  }
  if (!read_state("after the drop", &state)) return;
  if (state.GetInt("tenants", -1) != 0 ||
      !state.Find("tenant_bytes")->members().empty()) {
    g_violations.Add("tenants: tenant state outlived the dataset drop");
  }
}

// I6: the dogfood loop — export the server's own metrics history as a
// dataset and explain it with the server's own engine.
void CheckDogfood(int port, const std::string& export_name) {
  Client client;
  if (!client.Connect(port)) {
    g_violations.Add("dogfood: cannot connect");
    return;
  }
  std::string response;
  JsonValue parsed;
  // Force a few deterministic ticks so the export has >= 2 time buckets
  // even when the background sampler barely ran.
  for (int i = 0; i < 3; ++i) {
    if (!client.SendRecv(
            R"({"op":"metrics_history","id":"tick","sample":true,"last_n":1})",
            &response) ||
        !CheckResponseShape("dogfood", response, &parsed) ||
        !parsed.GetBool("ok", false)) {
      g_violations.Add("dogfood: explicit sample tick failed: " + response);
      return;
    }
  }
  const std::string export_request =
      R"({"op":"metrics_history","id":"ex","export_as":")" + export_name +
      R"(","prefix":"query."})";
  if (!client.SendRecv(export_request, &response) ||
      !CheckResponseShape("dogfood", response, &parsed) ||
      !parsed.GetBool("ok", false)) {
    g_violations.Add("dogfood: export_as failed: " + response);
    return;
  }
  const std::string explain_request =
      R"({"op":"explain","id":"dog","dataset":")" + export_name +
      R"(","measure":"value","explain_by":["metric_name"],"k":3})";
  if (!client.SendRecv(explain_request, &response) ||
      !CheckResponseShape("dogfood", response, &parsed) ||
      !parsed.GetBool("ok", false)) {
    g_violations.Add("dogfood: explain over telemetry failed: " + response);
    return;
  }
  if (response.find("metric_name") == std::string::npos) {
    g_violations.Add(
        "dogfood: telemetry explanation names no metric: " + response);
  }
}

bool ParseMix(const std::string& mix, SoakOptions* options) {
  std::stringstream stream(mix);
  std::string part;
  while (std::getline(stream, part, ',')) {
    const size_t eq = part.find('=');
    if (eq == std::string::npos) return false;
    const std::string key = part.substr(0, eq);
    const int value = std::atoi(part.c_str() + eq + 1);
    if (value < 0) return false;
    if (key == "hot") {
      options->hot = value;
    } else if (key == "cold") {
      options->cold = value;
    } else if (key == "stream") {
      options->stream = value;
    } else if (key == "hostile") {
      options->hostile = value;
    } else if (key == "quota") {
      options->quota = value;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  SoakOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--serve-bin") {
      const char* v = next();
      if (!v) return 2;
      options.serve_bin = v;
    } else if (arg == "--port") {
      const char* v = next();
      if (!v) return 2;
      options.port = std::atoi(v);
    } else if (arg == "--duration") {
      const char* v = next();
      if (!v || std::atoi(v) <= 0) return 2;
      options.duration_s = std::atoi(v);
    } else if (arg == "--kill-restart") {
      options.kill_restart = true;
    } else if (arg == "--mix") {
      const char* v = next();
      if (!v || !ParseMix(v, &options)) {
        std::fprintf(stderr,
                     "--mix expects hot=N,cold=N,stream=N,hostile=N,"
                     "quota=N\n");
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s --serve-bin PATH [--port N] [--duration S] "
                   "[--kill-restart] [--mix hot=2,cold=1,...]\n",
                   argv[0]);
      return 2;
    }
  }
  if (options.serve_bin.empty()) {
    std::fprintf(stderr, "--serve-bin is required\n");
    return 2;
  }

  // Scratch directory for the dataset, the cache snapshot, and the
  // child's stderr log.
  char tmpl[] = "/tmp/tsexplain_soak_XXXXXX";
  const char* tmpdir = ::mkdtemp(tmpl);
  if (tmpdir == nullptr) {
    std::perror("mkdtemp");
    return 1;
  }
  const std::string csv_path = std::string(tmpdir) + "/soak.csv";
  const std::string snapshot_path = std::string(tmpdir) + "/cache.snap";
  const std::string log_path = std::string(tmpdir) + "/serve.log";
  {
    std::ofstream csv(csv_path);
    csv << MakeSoakCsv();
  }

  ServerProcess server;
  if (!server.Start(options, csv_path, log_path, /*cache_load=*/"") ||
      !server.WaitReady(options.port)) {
    std::fprintf(stderr, "soak: server failed to start (log: %s)\n",
                 log_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "soak: server up on port %d (log: %s)\n",
               options.port, log_path.c_str());

  TrafficCounters tc;
  const int phase1 =
      options.kill_restart ? std::max(1, options.duration_s / 2)
                           : options.duration_s;
  RunTrafficPhase(options, phase1, tc);

  if (options.kill_restart) {
    // I4: seed the distinguished query (cold, then warm), snapshot the
    // cache, murder the server, restart warm, and demand byte identity.
    std::string cold_payload;
    std::string warm_payload;
    bool hit = false;
    if (!DistinguishedQuery(options.port, &cold_payload, &hit) ||
        !DistinguishedQuery(options.port, &warm_payload, &hit) || !hit) {
      g_violations.Add("warm-restart: distinguished query did not cache");
    }
    Client saver;
    std::string response;
    JsonValue parsed;
    if (!saver.Connect(options.port) ||
        !saver.SendRecv(R"({"op":"save_cache","id":"sv","path":")" +
                            snapshot_path + R"("})",
                        &response) ||
        !CheckResponseShape("warm-restart", response, &parsed) ||
        !parsed.GetBool("ok", false)) {
      g_violations.Add("warm-restart: save_cache failed: " + response);
    }
    saver.Close();
    std::fprintf(stderr, "soak: kill -9 and warm restart\n");
    server.Kill9();
    if (!server.Start(options, csv_path, log_path, snapshot_path) ||
        !server.WaitReady(options.port)) {
      std::fprintf(stderr, "soak: server failed to restart (log: %s)\n",
                   log_path.c_str());
      return 1;
    }
    std::string restart_payload;
    bool restart_hit = false;
    if (!DistinguishedQuery(options.port, &restart_payload, &restart_hit)) {
      g_violations.Add("warm-restart: distinguished query failed after "
                       "restart");
    } else {
      if (!restart_hit) {
        g_violations.Add(
            "warm-restart: query recomputed instead of hitting the "
            "restored cache");
      }
      if (restart_payload != warm_payload) {
        g_violations.Add(
            "warm-restart: result payload differs across restart");
      }
    }
    RunTrafficPhase(options,
                    std::max(1, options.duration_s - phase1), tc);
  }

  CheckDrained(options.port);
  CheckTenantState(options.port);
  CheckDogfood(options.port, "telemetry");

  // Clean shutdown so --cache-save-style teardown paths run too.
  {
    Client closer;
    std::string response;
    if (closer.Connect(options.port)) {
      closer.SendRecv(R"({"op":"shutdown","id":"bye"})", &response);
    }
  }
  server.WaitExit();

  const std::vector<std::string> violations = g_violations.Snapshot();
  std::fprintf(stderr,
               "soak: %llu ok, %llu shed, %llu structured errors, "
               "%zu violations\n",
               static_cast<unsigned long long>(tc.ok.load()),
               static_cast<unsigned long long>(tc.shed.load()),
               static_cast<unsigned long long>(
                   tc.structured_errors.load()),
               violations.size());
  if (tc.ok.load() == 0) {
    std::fprintf(stderr, "soak: no successful requests at all\n");
    return 1;
  }
  if (!violations.empty()) {
    std::fprintf(stderr, "soak: FAILED (%zu invariant violations)\n",
                 violations.size());
    return 1;
  }
  std::fprintf(stderr, "soak: PASSED\n");
  return 0;
}
