#include "src/common/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "src/common/check.h"
#include "src/common/json.h"

namespace tsexplain {
namespace {

uint64_t DoubleToBits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double BitsToDouble(uint64_t bits) {
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

// The one percentile interpolation, over `buckets` bucket counts read by
// `count_at(i)` (the last bucket is the overflow) that sum to `total`:
// linear inside the landing bucket, and the overflow bucket reports its
// lower bound. A template, so the live histogram's read allocates nothing.
template <typename CountAt>
double InterpolatePercentile(const std::vector<double>& bounds,
                             size_t buckets, uint64_t total, double p,
                             CountAt count_at) {
  if (total == 0) return 0.0;
  double rank = p * static_cast<double>(total);
  if (rank < 0.0) rank = 0.0;
  if (rank > static_cast<double>(total)) rank = static_cast<double>(total);

  uint64_t cumulative = 0;
  for (size_t i = 0; i < buckets; ++i) {
    const uint64_t n = count_at(i);
    if (n == 0) continue;
    const uint64_t before = cumulative;
    cumulative += n;
    if (static_cast<double>(cumulative) >= rank) {
      const double lower = i == 0 ? 0.0 : bounds[i - 1];
      if (i + 1 == buckets) return lower;  // overflow bucket
      const double upper = bounds[i];
      double fraction =
          (rank - static_cast<double>(before)) / static_cast<double>(n);
      if (fraction < 0.0) fraction = 0.0;
      if (fraction > 1.0) fraction = 1.0;
      return lower + fraction * (upper - lower);
    }
  }
  return bounds.back();
}

}  // namespace

std::string FormatMetricValue(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return buf;
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1) {
  TSE_CHECK(!bounds_.empty()) << "histogram needs at least one bucket bound";
  TSE_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()))
      << "histogram bounds must be ascending";
}

void Histogram::Observe(double value) {
  // First bound >= value is the landing bucket (`le` semantics: a value
  // exactly on a bound counts in that bound's bucket); past the last
  // bound it lands in the overflow slot.
  const size_t index = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  counts_[index].fetch_add(1, std::memory_order_relaxed);

  uint64_t observed = sum_bits_.load(std::memory_order_relaxed);
  uint64_t desired;
  do {
    desired = DoubleToBits(BitsToDouble(observed) + value);
  } while (!sum_bits_.compare_exchange_weak(observed, desired,
                                            std::memory_order_relaxed));
}

void Histogram::Reset() {
  for (auto& slot : counts_) slot.store(0, std::memory_order_relaxed);
  sum_bits_.store(0, std::memory_order_relaxed);
}

uint64_t Histogram::TotalCount() const {
  uint64_t total = 0;
  for (const auto& slot : counts_) {
    total += slot.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::Sum() const {
  return BitsToDouble(sum_bits_.load(std::memory_order_relaxed));
}

double Histogram::ApproxPercentile(double p) const {
  return InterpolatePercentile(
      bounds_, counts_.size(), TotalCount(), p,
      [this](size_t i) { return counts_[i].load(std::memory_order_relaxed); });
}

double HistogramSnapshot::Percentile(double p) const {
  return InterpolatePercentile(bounds, counts.size(), count, p,
                               [this](size_t i) { return counts[i]; });
}

const uint64_t* MetricsSnapshot::FindCounter(const std::string& name) const {
  for (const auto& entry : counters) {
    if (entry.first == name) return &entry.second;
  }
  return nullptr;
}

const int64_t* MetricsSnapshot::FindGauge(const std::string& name) const {
  for (const auto& entry : gauges) {
    if (entry.first == name) return &entry.second;
  }
  return nullptr;
}

const HistogramSnapshot* MetricsSnapshot::FindHistogram(
    const std::string& name) const {
  for (const auto& histogram : histograms) {
    if (histogram.name == name) return &histogram;
  }
  return nullptr;
}

MetricRegistry& MetricRegistry::Global() {
  // Deliberately leaked: ThreadPool::Shared() workers may record metrics
  // while draining during static teardown, and a destroyed registry
  // would turn those writes into use-after-free.
  static MetricRegistry* registry = new MetricRegistry();
  return *registry;
}

Counter& MetricRegistry::GetCounter(const std::string& name) {
  MutexLock lock(mu_);
  TSE_CHECK(gauges_.count(name) == 0 && histograms_.count(name) == 0)
      << "metric '" << name << "' already registered as a different kind";
  auto& slot = counters_[name];
  if (slot == nullptr) slot.reset(new Counter());
  return *slot;
}

Gauge& MetricRegistry::GetGauge(const std::string& name) {
  MutexLock lock(mu_);
  TSE_CHECK(counters_.count(name) == 0 && histograms_.count(name) == 0)
      << "metric '" << name << "' already registered as a different kind";
  auto& slot = gauges_[name];
  if (slot == nullptr) slot.reset(new Gauge());
  return *slot;
}

Histogram& MetricRegistry::GetHistogram(const std::string& name,
                                        std::vector<double> bounds) {
  MutexLock lock(mu_);
  TSE_CHECK(counters_.count(name) == 0 && gauges_.count(name) == 0)
      << "metric '" << name << "' already registered as a different kind";
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    if (bounds.empty()) bounds = DefaultLatencyBoundsMs();
    slot.reset(new Histogram(std::move(bounds)));
  }
  return *slot;
}

std::vector<double> MetricRegistry::DefaultLatencyBoundsMs() {
  return {0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,  0.25,
          0.5,   1.0,    2.5,   5.0,  10.0,  25.0, 50.0, 100.0,
          250.0, 500.0,  1000.0, 2500.0, 5000.0, 10000.0, 30000.0};
}

MetricsSnapshot MetricRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  MutexLock lock(mu_);
  snapshot.counters.reserve(counters_.size());
  for (const auto& entry : counters_) {
    snapshot.counters.emplace_back(entry.first, entry.second->Value());
  }
  snapshot.gauges.reserve(gauges_.size());
  for (const auto& entry : gauges_) {
    snapshot.gauges.emplace_back(entry.first, entry.second->Value());
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& entry : histograms_) {
    HistogramSnapshot hist;
    hist.name = entry.first;
    hist.bounds = entry.second->bounds_;
    hist.counts.reserve(entry.second->counts_.size());
    for (const auto& slot : entry.second->counts_) {
      const uint64_t n = slot.load(std::memory_order_relaxed);
      hist.counts.push_back(n);
      hist.count += n;
    }
    hist.sum =
        BitsToDouble(entry.second->sum_bits_.load(std::memory_order_relaxed));
    snapshot.histograms.push_back(std::move(hist));
  }
  return snapshot;
}

size_t MetricRegistry::NumMetrics() const {
  MutexLock lock(mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

void MetricRegistry::ResetForTest() {
  MutexLock lock(mu_);
  for (auto& entry : counters_) entry.second->Reset();
  for (auto& entry : gauges_) entry.second->Reset();
  for (auto& entry : histograms_) entry.second->Reset();
}

std::string RenderMetricsJson(const MetricsSnapshot& snapshot) {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& entry : snapshot.counters) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += JsonEscape(entry.first);
    out += "\":";
    out += std::to_string(entry.second);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& entry : snapshot.gauges) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += JsonEscape(entry.first);
    out += "\":";
    out += std::to_string(entry.second);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& hist : snapshot.histograms) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += JsonEscape(hist.name);
    out += "\":{\"count\":";
    out += std::to_string(hist.count);
    out += ",\"sum\":";
    out += FormatMetricValue(hist.sum);
    out += ",\"p50\":";
    out += FormatMetricValue(hist.Percentile(0.50));
    out += ",\"p90\":";
    out += FormatMetricValue(hist.Percentile(0.90));
    out += ",\"p99\":";
    out += FormatMetricValue(hist.Percentile(0.99));
    out += ",\"buckets\":[";
    for (size_t i = 0; i < hist.counts.size(); ++i) {
      if (i > 0) out += ',';
      out += "{\"le\":";
      if (i < hist.bounds.size()) {
        out += FormatMetricValue(hist.bounds[i]);
      } else {
        out += "\"+Inf\"";
      }
      out += ",\"count\":";
      out += std::to_string(hist.counts[i]);
      out += '}';
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

std::string PrometheusMetricName(const std::string& name) {
  std::string out = "tsexplain_";
  out.reserve(out.size() + name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

std::string PrometheusEscapeLabel(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string RenderPrometheusText(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& entry : snapshot.counters) {
    const std::string name = PrometheusMetricName(entry.first);
    out += "# TYPE " + name + " counter\n";
    out += name + " " + std::to_string(entry.second) + "\n";
  }
  for (const auto& entry : snapshot.gauges) {
    const std::string name = PrometheusMetricName(entry.first);
    out += "# TYPE " + name + " gauge\n";
    out += name + " " + std::to_string(entry.second) + "\n";
  }
  for (const auto& hist : snapshot.histograms) {
    const std::string name = PrometheusMetricName(hist.name);
    out += "# TYPE " + name + " histogram\n";
    uint64_t cumulative = 0;
    for (size_t i = 0; i < hist.counts.size(); ++i) {
      cumulative += hist.counts[i];
      const std::string le = i < hist.bounds.size()
                                 ? FormatMetricValue(hist.bounds[i])
                                 : std::string("+Inf");
      out += name + "_bucket{le=\"" + PrometheusEscapeLabel(le) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += name + "_sum " + FormatMetricValue(hist.sum) + "\n";
    out += name + "_count " + std::to_string(hist.count) + "\n";
  }
  return out;
}

}  // namespace tsexplain
