#include "src/service/result_cache.h"

#include <iterator>

#include "src/common/check.h"
#include "src/common/metrics.h"
#include "src/service/quota.h"

namespace tsexplain {
namespace {

// Process-wide cache metrics (docs/OBSERVABILITY.md): one registry series
// per event. The cache's own size_t counters stay authoritative for
// stats(); these shadow them so the `metrics` op sees the same decisions
// without taking the cache's lock.
struct CacheMetrics {
  Counter& hits = MetricRegistry::Global().GetCounter("cache.hits");
  Counter& misses = MetricRegistry::Global().GetCounter("cache.misses");
  Counter& evictions =
      MetricRegistry::Global().GetCounter("cache.evictions");
  Counter& budget_evictions =
      MetricRegistry::Global().GetCounter("cache.budget_evictions");
  Counter& invalidations =
      MetricRegistry::Global().GetCounter("cache.invalidations");
  Gauge& entries = MetricRegistry::Global().GetGauge("cache.entries");
  Gauge& bytes_used =
      MetricRegistry::Global().GetGauge("cache.bytes_used");
  static CacheMetrics& Get() {
    static CacheMetrics metrics;
    return metrics;
  }
};

}  // namespace

size_t CachedResult::CostBytes() const {
  size_t cost = sizeof(CachedResult) + json.capacity();
  if (result) {
    cost += sizeof(TSExplainResult);
    cost += result->segmentation.cuts.capacity() * sizeof(int);
    cost += result->k_variance_curve.capacity() * sizeof(double);
    cost += result->sketch_positions.capacity() * sizeof(int);
    for (const SegmentExplanation& seg : result->segments) {
      cost += sizeof(SegmentExplanation);
      cost += seg.begin_label.capacity() + seg.end_label.capacity();
      for (const ExplanationItem& item : seg.top) {
        cost += sizeof(ExplanationItem) + item.description.capacity();
      }
    }
  }
  return cost;
}

ResultCache::ResultCache(size_t capacity_bytes, size_t tenant_budget_bytes)
    : capacity_bytes_(capacity_bytes),
      tenant_budget_bytes_(tenant_budget_bytes) {}

ResultCache::~ResultCache() {
  CacheMetrics& metrics = CacheMetrics::Get();
  MutexLock lock(mu_);
  metrics.entries.Add(-static_cast<int64_t>(lru_.size()));
  metrics.bytes_used.Add(-static_cast<int64_t>(bytes_used_));
}

ResultCache::EntryList::iterator ResultCache::RemoveLocked(
    EntryList::iterator it) {
  CacheMetrics& metrics = CacheMetrics::Get();
  metrics.entries.Add(-1);
  metrics.bytes_used.Add(-static_cast<int64_t>(it->cost));
  bytes_used_ -= it->cost;
  if (it->tenant != tenant_bytes_.end()) {
    it->tenant->second -= it->cost;
    if (it->tenant->second == 0) tenant_bytes_.erase(it->tenant);
  }
  index_.erase(it->key);  // before the node its key view points into
  return lru_.erase(it);
}

ResultCache::ValuePtr ResultCache::Find(const std::string& key,
                                        bool count_miss) {
  MutexLock lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    if (count_miss) {
      ++misses_;
      CacheMetrics::Get().misses.Inc();
    }
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++hits_;
  CacheMetrics::Get().hits.Inc();
  return it->second->value;
}

void ResultCache::Put(const std::string& key, const ValuePtr& value) {
  TSE_CHECK(value != nullptr);
  // What reads only the key and the value happens before the lock. A
  // malformed tenant id (the service never builds one) leaves the key in
  // the shared namespace.
  std::string_view tenant_id;
  std::string_view rest;
  ParseTenantKey(key, &tenant_id, &rest);
  const size_t cost = value->CostBytes();
  const bool budgeted = !tenant_id.empty() && tenant_budget_bytes_ > 0;
  // A value that would evict everything, or all of its tenant's entries,
  // is not cached.
  const bool fits =
      cost <= capacity_bytes_ && !(budgeted && cost > tenant_budget_bytes_);
  std::string tenant_name(tenant_id);
  Entry entry{key, value, cost, key.size() - rest.size(), {}};

  MutexLock lock(mu_);
  // An existing entry under this key is stale by definition (the caller
  // brings a fresh value): its accounting is dropped FIRST so bytes_used_
  // is never double-charged and the eviction loops below never run
  // against a stale cost — and an oversized fresh value removes the stale
  // entry rather than leaving it to be served.
  if (const auto it = index_.find(key); it != index_.end()) {
    RemoveLocked(it->second);
  }
  if (!fits) return;
  entry.tenant = tenant_bytes_.end();
  if (!tenant_name.empty()) {
    entry.tenant = tenant_bytes_.try_emplace(std::move(tenant_name), 0).first;
    entry.tenant->second += cost;
  }
  const auto tenant = entry.tenant;
  lru_.push_front(std::move(entry));
  index_.emplace(lru_.front().key, lru_.begin());
  bytes_used_ += cost;
  CacheMetrics::Get().entries.Add(1);
  CacheMetrics::Get().bytes_used.Add(static_cast<int64_t>(cost));
  // Over its budget, the tenant loses its own LRU tail: one back-to-front
  // walk that skips every other namespace's entries — that is the
  // isolation property. The new entry fits the budget alone, so the walk
  // stops before it and the tenant's count never reaches zero here.
  for (auto it = lru_.end();
       budgeted && tenant->second > tenant_budget_bytes_;) {
    TSE_CHECK(it != lru_.begin());  // the count covers resident entries
    if ((--it)->tenant != tenant) continue;
    it = RemoveLocked(it);
    ++evictions_;
    ++budget_evictions_;
    CacheMetrics::Get().evictions.Inc();
    CacheMetrics::Get().budget_evictions.Inc();
  }
  while (bytes_used_ > capacity_bytes_) {
    RemoveLocked(std::prev(lru_.end()));
    ++evictions_;
    CacheMetrics::Get().evictions.Inc();
  }
}

std::vector<std::pair<std::string, size_t>> ResultCache::TenantBytes()
    const {
  MutexLock lock(mu_);
  return {tenant_bytes_.begin(), tenant_bytes_.end()};
}

std::vector<std::pair<std::string, ResultCache::ValuePtr>>
ResultCache::ExportEntries() const {
  std::vector<std::pair<std::string, ValuePtr>> out;
  MutexLock lock(mu_);
  out.reserve(lru_.size());
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
    out.emplace_back(it->key, it->value);
  }
  return out;
}

void ResultCache::Invalidate(const std::string& key) {
  MutexLock lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) return;
  RemoveLocked(it->second);
  ++invalidations_;
  CacheMetrics::Get().invalidations.Inc();
}

size_t ResultCache::InvalidatePrefix(const std::string& prefix) {
  size_t removed = 0;
  MutexLock lock(mu_);
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->key.compare(it->namespace_len, prefix.size(), prefix) != 0) {
      ++it;
      continue;
    }
    it = RemoveLocked(it);
    ++invalidations_;
    CacheMetrics::Get().invalidations.Inc();
    ++removed;
  }
  return removed;
}

ResultCache::Stats ResultCache::stats() const {
  Stats stats;
  stats.capacity_bytes = capacity_bytes_;
  MutexLock lock(mu_);
  stats.hits = hits_;
  stats.misses = misses_;
  stats.evictions = evictions_;
  stats.budget_evictions = budget_evictions_;
  stats.invalidations = invalidations_;
  stats.entries = lru_.size();
  stats.bytes_used = bytes_used_;
  return stats;
}

}  // namespace tsexplain
