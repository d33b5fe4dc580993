#include "src/service/result_cache.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/metrics.h"
#include "src/service/quota.h"

namespace tsexplain {
namespace {

// FNV-1a: stable across platforms (std::hash<string> is not guaranteed to
// be), so shard placement is reproducible in tests.
size_t HashKey(const std::string& key) {
  uint64_t h = 1469598103934665603ull;
  for (char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return static_cast<size_t>(h);
}

size_t RoundUpPow2(size_t v) {
  size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

// Process-wide cache metrics (docs/OBSERVABILITY.md): per-shard counters
// roll up into one registry series per event. The per-shard size_t
// counters stay authoritative for stats(); these shadow them so the
// `metrics` op sees the same decisions without locking every shard.
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

ResultCache::ResultCache(size_t capacity_bytes, int num_shards,
                         size_t tenant_budget_bytes) {
  TSE_CHECK_GE(num_shards, 1);
  const size_t shards = RoundUpPow2(static_cast<size_t>(num_shards));
  shard_mask_ = shards - 1;
  capacity_per_shard_ = std::max<size_t>(1, capacity_bytes / shards);
  tenant_budget_per_shard_ =
      tenant_budget_bytes == 0
          ? 0
          : std::max<size_t>(1, tenant_budget_bytes / shards);
  shards_.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ResultCache::~ResultCache() {
  CacheMetrics& metrics = CacheMetrics::Get();
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    MutexLock lock(shard.mu);
    metrics.entries.Add(-static_cast<int64_t>(shard.entries.size()));
    metrics.bytes_used.Add(-static_cast<int64_t>(shard.bytes_used));
  }
}

ResultCache::Shard& ResultCache::ShardFor(const std::string& key) {
  return *shards_[HashKey(key) & shard_mask_];
}

void ResultCache::RemoveEntryLocked(
    Shard& shard, std::unordered_map<std::string, Entry>::iterator it) {
  CacheMetrics& metrics = CacheMetrics::Get();
  metrics.entries.Add(-1);
  metrics.bytes_used.Add(-static_cast<int64_t>(it->second.cost));
  shard.bytes_used -= it->second.cost;
  const auto tenant = it->second.tenant;
  if (tenant != shard.tenant_bytes.end()) {
    tenant->second -= it->second.cost;
    if (tenant->second == 0) shard.tenant_bytes.erase(tenant);
  }
  shard.lru.erase(it->second.lru_pos);
  shard.entries.erase(it);
}

void ResultCache::InsertLocked(Shard& shard, const std::string& key,
                               const ValuePtr& value) {
  // An existing entry under this key is stale by definition (the caller
  // brings a fresh value): its accounting is dropped FIRST so
  // bytes_used is never double-charged and the eviction loop below never
  // runs against a stale cost — and an oversized fresh value removes the
  // stale entry rather than leaving it to be served.
  auto it = shard.entries.find(key);
  if (it != shard.entries.end()) RemoveEntryLocked(shard, it);

  const size_t cost = value->CostBytes();
  if (cost > capacity_per_shard_) return;  // would evict everything: skip
  // A malformed tenant id (the service never builds one) leaves the key
  // in the shared namespace.
  std::string_view tenant_id;
  std::string_view rest;
  ParseTenantKey(key, &tenant_id, &rest);
  const bool budgeted = !tenant_id.empty() && tenant_budget_per_shard_ > 0;
  if (budgeted && cost > tenant_budget_per_shard_) {
    return;  // would evict the tenant's whole shard share: skip
  }
  Entry entry;
  entry.value = value;
  entry.cost = cost;
  entry.namespace_len = key.size() - rest.size();
  entry.tenant = shard.tenant_bytes.end();
  if (!tenant_id.empty()) {
    entry.tenant =
        shard.tenant_bytes.try_emplace(std::string(tenant_id), 0).first;
    entry.tenant->second += cost;
  }
  const auto tenant = entry.tenant;
  shard.lru.push_front(key);
  entry.lru_pos = shard.lru.begin();
  shard.entries.emplace(key, std::move(entry));
  shard.bytes_used += cost;
  CacheMetrics::Get().entries.Add(1);
  CacheMetrics::Get().bytes_used.Add(static_cast<int64_t>(cost));
  // Over its budget, the tenant loses its own LRU tail: a back-to-front
  // walk restricted to the tenant. Other namespaces' entries are
  // untouchable here — that is the isolation property. The new entry
  // fits the share alone, so the tenant's count never reaches zero here.
  while (budgeted && tenant->second > tenant_budget_per_shard_) {
    auto lit = shard.lru.rbegin();
    auto vit = shard.entries.end();
    for (; lit != shard.lru.rend(); ++lit) {
      vit = shard.entries.find(*lit);
      TSE_CHECK(vit != shard.entries.end());
      if (vit->second.tenant == tenant) break;
    }
    TSE_CHECK(lit != shard.lru.rend());  // the count covers resident entries
    RemoveEntryLocked(shard, vit);
    ++shard.evictions;
    ++shard.budget_evictions;
    CacheMetrics::Get().evictions.Inc();
    CacheMetrics::Get().budget_evictions.Inc();
  }
  while (shard.bytes_used > capacity_per_shard_ && !shard.lru.empty()) {
    auto vit = shard.entries.find(shard.lru.back());
    TSE_CHECK(vit != shard.entries.end());
    RemoveEntryLocked(shard, vit);
    ++shard.evictions;
    CacheMetrics::Get().evictions.Inc();
  }
}

ResultCache::ValuePtr ResultCache::Find(const std::string& key,
                                        bool count_miss) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) {
    if (count_miss) {
      ++shard.misses;
      CacheMetrics::Get().misses.Inc();
    }
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
  ++shard.hits;
  CacheMetrics::Get().hits.Inc();
  return it->second.value;
}

void ResultCache::Put(const std::string& key, const ValuePtr& value) {
  TSE_CHECK(value != nullptr);
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  InsertLocked(shard, key, value);
}

std::vector<std::pair<std::string, size_t>> ResultCache::TenantBytes()
    const {
  std::map<std::string, size_t> merged;
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    MutexLock lock(shard.mu);
    for (const auto& [tenant, bytes] : shard.tenant_bytes) {
      merged[tenant] += bytes;
    }
  }
  return {merged.begin(), merged.end()};
}

std::vector<std::pair<std::string, ResultCache::ValuePtr>>
ResultCache::ExportEntries() const {
  std::vector<std::pair<std::string, ValuePtr>> out;
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    MutexLock lock(shard.mu);
    for (auto it = shard.lru.rbegin(); it != shard.lru.rend(); ++it) {
      const auto vit = shard.entries.find(*it);
      TSE_CHECK(vit != shard.entries.end());
      out.emplace_back(vit->first, vit->second.value);
    }
  }
  return out;
}

void ResultCache::Invalidate(const std::string& key) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) return;
  RemoveEntryLocked(shard, it);
  ++shard.invalidations;
  CacheMetrics::Get().invalidations.Inc();
}

size_t ResultCache::InvalidatePrefix(const std::string& prefix) {
  size_t removed = 0;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    MutexLock lock(shard.mu);
    for (auto it = shard.entries.begin(); it != shard.entries.end();) {
      if (it->first.compare(it->second.namespace_len, prefix.size(),
                            prefix) == 0) {
        auto victim = it++;
        RemoveEntryLocked(shard, victim);
        ++shard.invalidations;
        CacheMetrics::Get().invalidations.Inc();
        ++removed;
      } else {
        ++it;
      }
    }
  }
  return removed;
}

ResultCache::Stats ResultCache::stats() const {
  Stats stats;
  stats.capacity_bytes = capacity_per_shard_ * shards_.size();
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    MutexLock lock(shard.mu);
    stats.hits += shard.hits;
    stats.misses += shard.misses;
    stats.evictions += shard.evictions;
    stats.budget_evictions += shard.budget_evictions;
    stats.invalidations += shard.invalidations;
    stats.entries += shard.entries.size();
    stats.bytes_used += shard.bytes_used;
  }
  return stats;
}

}  // namespace tsexplain
