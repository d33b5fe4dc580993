#include "src/common/metrics_history.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/common/check.h"
#include "src/common/json.h"
#include "src/common/timer.h"
#include "src/table/table.h"

namespace tsexplain {
namespace {

// RFC 4180 quoting, applied only when the field needs it (metric names
// are dot-separated identifiers by convention, but the format must not
// break if one ever carries a comma or quote).
std::string CsvField(const std::string& value) {
  if (value.find_first_of(",\"\n\r") == std::string::npos) return value;
  std::string out = "\"";
  for (char c : value) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

MetricsHistory::MetricsHistory(MetricRegistry& registry, Options options)
    : registry_(registry), options_(options) {
  TSE_CHECK(options_.capacity > 0) << "history capacity must be positive";
  TSE_CHECK(options_.interval_ms > 0) << "history interval must be positive";
  MutexLock lock(mu_);
  tick_ts_.assign(options_.capacity, 0.0);
}

MetricsHistory::~MetricsHistory() { Stop(); }

void MetricsHistory::TrackHistogramPercentiles(const std::string& name) {
  MutexLock lock(mu_);
  tracked_percentiles_.insert(name);
}

void MetricsHistory::SetSamplePrologue(std::function<void()> prologue) {
  TSE_CHECK(!sampler_.joinable())
      << "set the sample prologue before Start()";
  prologue_ = std::move(prologue);
}

void MetricsHistory::Start() {
  if (sampler_.joinable()) return;
  {
    MutexLock lock(mu_);
    stop_requested_ = false;
  }
  sampler_ = std::thread([this] { SamplerMain(); });
}

void MetricsHistory::Stop() {
  if (!sampler_.joinable()) return;
  {
    MutexLock lock(mu_);
    stop_requested_ = true;
  }
  cv_.NotifyAll();
  sampler_.join();
  sampler_ = std::thread();
}

void MetricsHistory::SampleNow() {
  if (prologue_) prologue_();
  MutexLock lock(mu_);
  SampleLocked();
}

void MetricsHistory::SamplerMain() {
  while (true) {
    // The prologue runs lock-free so it may touch the registry (or the
    // service) without ordering against the history mutex.
    if (prologue_) prologue_();
    {
      MutexLock lock(mu_);
      if (stop_requested_) return;
      SampleLocked();
      // Interval sleep with an explicit deadline: spurious CondVar
      // wakeups re-check the remaining time, a Stop() notification
      // re-checks the flag (mutex.h's while-loop idiom).
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::milliseconds(options_.interval_ms);
      while (!stop_requested_) {
        const auto now = std::chrono::steady_clock::now();
        if (now >= deadline) break;
        const int64_t remaining_ms =
            std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                  now)
                .count() +
            1;
        cv_.WaitFor(mu_, remaining_ms);
      }
      if (stop_requested_) return;
    }
  }
}

size_t MetricsHistory::AddRingLocked(const std::string& name,
                                     const char* kind) {
  const auto it = ring_index_.find(name);
  if (it != ring_index_.end()) return it->second;
  Ring ring;
  ring.name = name;
  ring.kind = kind;
  // Pre-registration ticks read as 0.0 — truthful for counters (the
  // metric did not exist, so nothing had been counted) and harmless for
  // monitoring gauges.
  ring.values.assign(options_.capacity, 0.0);
  rings_.push_back(std::move(ring));
  const size_t index = rings_.size() - 1;
  ring_index_[name] = index;
  return index;
}

void MetricsHistory::RediscoverLocked() {
  // The allocating pass: walk the registry's names and wire rings +
  // stable metric references for every newcomer. GetCounter/GetGauge/
  // GetHistogram on an existing name return the already-registered
  // object (process-lifetime reference), so the sources never dangle.
  const MetricsSnapshot snapshot = registry_.Snapshot();
  for (const auto& entry : snapshot.counters) {
    if (ring_index_.count(entry.first) != 0) continue;
    CounterSource source;
    source.metric = &registry_.GetCounter(entry.first);
    source.ring = AddRingLocked(entry.first, "counter");
    counter_sources_.push_back(source);
  }
  for (const auto& entry : snapshot.gauges) {
    if (ring_index_.count(entry.first) != 0) continue;
    GaugeSource source;
    source.metric = &registry_.GetGauge(entry.first);
    source.ring = AddRingLocked(entry.first, "gauge");
    gauge_sources_.push_back(source);
  }
  for (const auto& histogram : snapshot.histograms) {
    if (ring_index_.count(histogram.name + ".count") != 0) continue;
    HistogramSource source;
    source.metric = &registry_.GetHistogram(histogram.name);
    source.count_ring = AddRingLocked(histogram.name + ".count", "hist_count");
    source.sum_ring = AddRingLocked(histogram.name + ".sum", "hist_sum");
    source.p50_ring = kNoRing;
    source.p99_ring = kNoRing;
    if (tracked_percentiles_.count(histogram.name) != 0) {
      source.p50_ring = AddRingLocked(histogram.name + ".p50", "hist_p50");
      source.p99_ring = AddRingLocked(histogram.name + ".p99", "hist_p99");
    }
    histogram_sources_.push_back(source);
  }
  known_metric_count_ = snapshot.counters.size() + snapshot.gauges.size() +
                        snapshot.histograms.size();
}

void MetricsHistory::SampleLocked() {
  // Registration is rare; comparing the registry's cardinality each tick
  // keeps late-registered metrics (first cold query, first shed) from
  // being invisible forever, at the price of one mutex-protected size
  // read. The hot remainder of this function is loads and stores only.
  if (registry_.NumMetrics() != known_metric_count_) RediscoverLocked();
  const size_t pos = static_cast<size_t>(ticks_ % options_.capacity);
  tick_ts_[pos] = WallMs();
  for (const CounterSource& source : counter_sources_) {
    rings_[source.ring].values[pos] =
        static_cast<double>(source.metric->Value());
  }
  for (const GaugeSource& source : gauge_sources_) {
    rings_[source.ring].values[pos] =
        static_cast<double>(source.metric->Value());
  }
  for (const HistogramSource& source : histogram_sources_) {
    rings_[source.count_ring].values[pos] =
        static_cast<double>(source.metric->TotalCount());
    rings_[source.sum_ring].values[pos] = source.metric->Sum();
    if (source.p50_ring != kNoRing) {
      rings_[source.p50_ring].values[pos] =
          source.metric->ApproxPercentile(0.50);
      rings_[source.p99_ring].values[pos] =
          source.metric->ApproxPercentile(0.99);
    }
  }
  ++ticks_;
}

HistoryWindow MetricsHistory::Window(size_t last_n,
                                     const std::string& prefix) const {
  HistoryWindow window;
  MutexLock lock(mu_);
  window.interval_ms = options_.interval_ms;
  window.capacity = options_.capacity;
  window.total_ticks = ticks_;
  size_t retained = static_cast<size_t>(
      std::min<uint64_t>(ticks_, options_.capacity));
  if (last_n > 0 && last_n < retained) retained = last_n;
  const uint64_t first_tick = ticks_ - retained;
  window.ticks.reserve(retained);
  window.ts_ms.reserve(retained);
  for (size_t k = 0; k < retained; ++k) {
    const uint64_t tick = first_tick + k;
    window.ticks.push_back(tick);
    window.ts_ms.push_back(
        tick_ts_[static_cast<size_t>(tick % options_.capacity)]);
  }
  // Emit sorted by series name (rings_ is in discovery order).
  std::vector<size_t> order;
  order.reserve(rings_.size());
  for (size_t i = 0; i < rings_.size(); ++i) {
    if (!prefix.empty() &&
        rings_[i].name.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    mu_.AssertHeld();
    return rings_[a].name < rings_[b].name;
  });
  window.series.reserve(order.size());
  for (size_t i : order) {
    HistoryWindow::Series series;
    series.name = rings_[i].name;
    series.kind = rings_[i].kind;
    series.values.reserve(retained);
    for (size_t k = 0; k < retained; ++k) {
      const uint64_t tick = first_tick + k;
      series.values.push_back(
          rings_[i].values[static_cast<size_t>(tick % options_.capacity)]);
    }
    window.series.push_back(std::move(series));
  }
  return window;
}

std::shared_ptr<const Table> MetricsHistory::ExportAsTable(
    size_t last_n, const std::string& prefix) const {
  const HistoryWindow window = Window(last_n, prefix);
  if (window.ticks.size() < 2 || window.series.empty()) return nullptr;
  auto table = std::make_shared<Table>(
      Schema("tick", {"metric_name"}, {"value"}));
  for (size_t k = 0; k < window.ticks.size(); ++k) {
    const TimeId time = table->AddTimeBucket(std::to_string(window.ticks[k]));
    for (const HistoryWindow::Series& series : window.series) {
      table->AppendRow(time, {series.name}, {series.values[k]});
    }
  }
  return table;
}

std::string RenderHistoryJson(const HistoryWindow& window) {
  std::string out = "{\"interval_ms\":";
  out += std::to_string(window.interval_ms);
  out += ",\"capacity\":";
  out += std::to_string(window.capacity);
  out += ",\"total_ticks\":";
  out += std::to_string(window.total_ticks);
  out += ",\"ticks\":[";
  for (size_t k = 0; k < window.ticks.size(); ++k) {
    if (k > 0) out += ',';
    out += std::to_string(window.ticks[k]);
  }
  out += "],\"ts_ms\":[";
  for (size_t k = 0; k < window.ts_ms.size(); ++k) {
    if (k > 0) out += ',';
    out += FormatMetricValue(window.ts_ms[k]);
  }
  out += "],\"series\":{";
  bool first = true;
  for (const HistoryWindow::Series& series : window.series) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += JsonEscape(series.name);
    out += "\":{\"kind\":\"";
    out += series.kind;
    out += "\",\"values\":[";
    for (size_t k = 0; k < series.values.size(); ++k) {
      if (k > 0) out += ',';
      out += FormatMetricValue(series.values[k]);
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

std::string RenderHistoryCsv(const HistoryWindow& window) {
  std::string out = "tick,ts_ms,metric,kind,value\n";
  for (size_t k = 0; k < window.ticks.size(); ++k) {
    for (const HistoryWindow::Series& series : window.series) {
      out += std::to_string(window.ticks[k]);
      out += ',';
      out += FormatMetricValue(window.ts_ms[k]);
      out += ',';
      out += CsvField(series.name);
      out += ',';
      out += series.kind;
      out += ',';
      out += FormatMetricValue(series.values[k]);
      out += '\n';
    }
  }
  return out;
}

}  // namespace tsexplain
