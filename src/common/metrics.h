// Process-wide metrics registry: lock-free counters, gauges, and
// fixed-bucket latency histograms, snapshot-exportable without stopping
// writers.
//
// Why this exists: before the fleet work (sharding, incremental
// streaming) can claim production scale, the server must be measurable.
// The hand-rolled `stats` counters answered "how many", but not "how
// slow" or "why" — this registry adds latency distributions (p50/p90/p99
// derivable from bucket counts) next to every admission/cache/quota
// decision, cheap enough to leave on in the hot path.
//
// Design constraints, in order:
//
//  * Hot-path writes are atomics only. Counter::Inc and Gauge::Add are a
//    single relaxed fetch_add; Histogram::Observe is one relaxed
//    fetch_add on a bucket plus one CAS loop on the running sum. No
//    mutex is ever taken by a writer after registration.
//  * Registration is rare and locked. GetCounter/GetGauge/GetHistogram
//    take the registry mutex, but call sites cache the returned
//    reference in a function-local static (see the *Metrics structs in
//    admission.cc / result_cache.cc), so the lock is hit once per
//    process, not once per event. References stay valid for the process
//    lifetime — metric objects are never destroyed or moved.
//  * Snapshots never stop writers. Snapshot() holds the registration
//    mutex only to walk the name table; the values it reads are relaxed
//    atomic loads, so a snapshot taken mid-write sees some prefix of the
//    in-flight updates (each individual metric is internally consistent;
//    cross-metric skew is documented and fine for monitoring).
//
// Naming convention: `subsystem.event` (dots), e.g. "admission.admitted"
// or "query.hot_ms". Histogram names end in `_ms`. Each name must be
// registered at exactly one source location (enforced by the
// duplicate-metric-name rule in tools/lint_invariants.py) so grep finds
// the single writer. The Prometheus renderer maps dots to underscores
// and prefixes `tsexplain_`.

#ifndef TSEXPLAIN_COMMON_METRICS_H_
#define TSEXPLAIN_COMMON_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/mutex.h"

namespace tsexplain {

/// Monotonic event count. Writes are one relaxed fetch_add.
class Counter {
 public:
  void Inc(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

 private:
  friend class MetricRegistry;
  Counter() = default;
  void Reset() { value_.store(0, std::memory_order_relaxed); }

  std::atomic<uint64_t> value_{0};
};

/// Instantaneous level (queue depth, bytes in use, high-water marks).
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }

  /// Lock-free high-water mark: raises the gauge to `candidate` if it is
  /// above the current value, otherwise leaves it alone.
  void SetMax(int64_t candidate) {
    int64_t current = value_.load(std::memory_order_relaxed);
    while (candidate > current &&
           !value_.compare_exchange_weak(current, candidate,
                                         std::memory_order_relaxed)) {
    }
  }

  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

 private:
  friend class MetricRegistry;
  Gauge() = default;
  void Reset() { value_.store(0, std::memory_order_relaxed); }

  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket latency histogram. Bucket i counts observations
/// `value <= bounds[i]` that missed every earlier bucket (Prometheus
/// `le` semantics, stored non-cumulative); one extra overflow bucket
/// catches everything above the last bound. Percentiles are derived
/// from bucket counts by linear interpolation inside the landing
/// bucket, so they are approximations bounded by bucket width — pick
/// bounds dense where precision matters.
class Histogram {
 public:
  void Observe(double value);

  /// Allocation-free reads for periodic samplers (metrics_history.h),
  /// which cannot afford Snapshot()'s per-scrape heap churn. All three
  /// are relaxed atomic loads per bucket: a read racing Observe sees
  /// some prefix of the in-flight updates, same contract as Snapshot().
  uint64_t TotalCount() const;
  double Sum() const;
  /// HistogramSnapshot::Percentile's routine over the live buckets (two
  /// bucket walks, no allocation).
  double ApproxPercentile(double p) const;

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

 private:
  friend class MetricRegistry;
  explicit Histogram(std::vector<double> bounds);
  void Reset();

  std::vector<double> bounds_;  // ascending upper bounds, never empty
  // bounds_.size() + 1 slots; the last is the +Inf overflow bucket.
  std::vector<std::atomic<uint64_t>> counts_;
  std::atomic<uint64_t> sum_bits_{0};  // bit pattern of the double sum
};

struct HistogramSnapshot {
  std::string name;
  std::vector<double> bounds;     // upper bounds, ascending
  std::vector<uint64_t> counts;   // bounds.size() + 1; last is overflow
  uint64_t count = 0;             // total observations (= sum of counts)
  double sum = 0.0;

  /// Approximate quantile for p in [0, 1], linearly interpolated within
  /// the landing bucket. The overflow bucket reports its lower bound.
  double Percentile(double p) const;
};

/// Point-in-time export of every registered metric, sorted by name.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// Lookup helpers (nullptr when the name is not registered).
  const uint64_t* FindCounter(const std::string& name) const;
  const int64_t* FindGauge(const std::string& name) const;
  const HistogramSnapshot* FindHistogram(const std::string& name) const;
};

class MetricRegistry {
 public:
  /// The process-wide registry every production call site uses. Never
  /// destroyed (intentionally leaked) so metric writes from late-exiting
  /// threads — e.g. ThreadPool::Shared() workers draining during static
  /// teardown — can never touch a dead registry.
  static MetricRegistry& Global();

  /// Instantiable for tests that want an isolated namespace.
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// Create-or-fetch by name. The returned reference is stable for the
  /// registry's lifetime. Registering a name that already exists as a
  /// different metric kind is a programming error (aborts).
  Counter& GetCounter(const std::string& name) TSE_EXCLUDES(mu_);
  Gauge& GetGauge(const std::string& name) TSE_EXCLUDES(mu_);
  /// Empty `bounds` selects DefaultLatencyBoundsMs(). When the name is
  /// already registered the existing histogram is returned and `bounds`
  /// is ignored — first registration wins.
  Histogram& GetHistogram(const std::string& name,
                          std::vector<double> bounds = {}) TSE_EXCLUDES(mu_);

  /// 1µs .. 30s in a ~2.5x geometric ladder — wide enough to straddle
  /// both cache hits (microseconds) and cold explains (seconds).
  static std::vector<double> DefaultLatencyBoundsMs();

  MetricsSnapshot Snapshot() const TSE_EXCLUDES(mu_);

  /// Total registered metrics (counters + gauges + histograms). Cheap —
  /// three map sizes under the registration mutex — so samplers can poll
  /// it every tick to detect late registrations without paying for a
  /// full Snapshot().
  size_t NumMetrics() const TSE_EXCLUDES(mu_);

  /// Zeroes every registered metric in place (references stay valid).
  /// Test-only: production counters are monotonic by contract.
  void ResetForTest() TSE_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      TSE_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ TSE_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      TSE_GUARDED_BY(mu_);
};

/// Shortest-ish decimal rendering (%.12g; non-finite values render "0")
/// for JSON values and Prometheus `le` labels: it round-trips every bound
/// and sample the renderers emit and avoids trailing-zero noise. Shared by
/// RenderMetricsJson, RenderPrometheusText and the metrics_history
/// renderers.
std::string FormatMetricValue(double value);

/// Compact JSON object:
///   {"counters":{name:value,...},
///    "gauges":{name:value,...},
///    "histograms":{name:{"count":N,"sum":S,"p50":..,"p90":..,"p99":..,
///                        "buckets":[{"le":bound,"count":n},...]},...}}
/// Bucket counts are non-cumulative (they sum to "count"); the final
/// bucket's "le" is the string "+Inf".
std::string RenderMetricsJson(const MetricsSnapshot& snapshot);

/// Prometheus text exposition format (version 0.0.4): `# TYPE` comments,
/// cumulative `_bucket{le="..."}` series plus `_sum`/`_count` per
/// histogram. Names are sanitized via PrometheusMetricName.
std::string RenderPrometheusText(const MetricsSnapshot& snapshot);

/// `tsexplain_` prefix + every character outside [a-zA-Z0-9_:] mapped to
/// '_' (so "query.hot_ms" becomes "tsexplain_query_hot_ms").
std::string PrometheusMetricName(const std::string& name);

/// Label-value escaping per the exposition format: backslash, double
/// quote, and newline become \\, \", and \n.
std::string PrometheusEscapeLabel(const std::string& value);

}  // namespace tsexplain

#endif  // TSEXPLAIN_COMMON_METRICS_H_
