#include "src/service/result_cache.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/metrics.h"

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

ResultCache::ResultCache(size_t capacity_bytes, int num_shards) {
  TSE_CHECK_GE(num_shards, 1);
  const size_t shards = RoundUpPow2(static_cast<size_t>(num_shards));
  shard_mask_ = shards - 1;
  capacity_per_shard_ = std::max<size_t>(1, capacity_bytes / shards);
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

ResultCache::BudgetsPtr ResultCache::SnapshotBudgets() const {
  MutexLock lock(budgets_mu_);
  return budgets_;
}

int ResultCache::MatchBudget(const BudgetList& budgets,
                             const std::string& key) {
  for (size_t b = 0; b < budgets.size(); ++b) {
    if (key.compare(0, budgets[b].prefix.size(), budgets[b].prefix) == 0) {
      return static_cast<int>(b);
    }
  }
  return -1;
}

void ResultCache::RemoveEntryLocked(
    Shard& shard, std::unordered_map<std::string, Entry>::iterator it) {
  CacheMetrics& metrics = CacheMetrics::Get();
  metrics.entries.Add(-1);
  metrics.bytes_used.Add(-static_cast<int64_t>(it->second.cost));
  shard.bytes_used -= it->second.cost;
  if (it->second.budget >= 0) {
    shard.budget_bytes[static_cast<size_t>(it->second.budget)] -=
        it->second.cost;
  }
  shard.lru.erase(it->second.lru_pos);
  shard.entries.erase(it);
}

void ResultCache::EvictOverBudgetLocked(Shard& shard,
                                        const BudgetList& budgets,
                                        int budget) {
  // A back-to-front walk restricted to this budget preserves LRU order
  // within the prefix. Other namespaces' entries are untouchable here —
  // that is the isolation property.
  const size_t b = static_cast<size_t>(budget);
  while (shard.budget_bytes[b] > budgets[b].per_shard) {
    bool evicted = false;
    for (auto lit = shard.lru.rbegin(); lit != shard.lru.rend(); ++lit) {
      auto vit = shard.entries.find(*lit);
      TSE_CHECK(vit != shard.entries.end());
      if (vit->second.budget == budget) {
        RemoveEntryLocked(shard, vit);
        ++shard.evictions;
        ++shard.budget_evictions;
        CacheMetrics::Get().evictions.Inc();
        CacheMetrics::Get().budget_evictions.Inc();
        evicted = true;
        break;
      }
    }
    if (!evicted) break;  // unreachable if accounting is exact
  }
}

void ResultCache::InsertLocked(Shard& shard, const BudgetList& budgets,
                               const std::string& key,
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
  if (shard.budget_bytes.size() < budgets.size()) {
    shard.budget_bytes.resize(budgets.size(), 0);
  }
  const int budget = MatchBudget(budgets, key);
  if (budget >= 0 && cost > budgets[static_cast<size_t>(budget)].per_shard) {
    return;  // would evict the namespace's whole shard share: skip
  }
  shard.lru.push_front(key);
  Entry entry;
  entry.value = value;
  entry.cost = cost;
  entry.budget = budget;
  entry.lru_pos = shard.lru.begin();
  shard.entries.emplace(key, std::move(entry));
  shard.bytes_used += cost;
  CacheMetrics::Get().entries.Add(1);
  CacheMetrics::Get().bytes_used.Add(static_cast<int64_t>(cost));
  if (budget >= 0) {
    shard.budget_bytes[static_cast<size_t>(budget)] += cost;
    EvictOverBudgetLocked(shard, budgets, budget);
  }
  while (shard.bytes_used > capacity_per_shard_ && !shard.lru.empty()) {
    auto vit = shard.entries.find(shard.lru.back());
    TSE_CHECK(vit != shard.entries.end());
    RemoveEntryLocked(shard, vit);
    ++shard.evictions;
    CacheMetrics::Get().evictions.Inc();
  }
}

ResultCache::ValuePtr ResultCache::Lookup(const std::string& key,
                                          bool count) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) {
    if (count) {
      ++shard.misses;
      CacheMetrics::Get().misses.Inc();
    }
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
  if (count) {
    ++shard.hits;
    CacheMetrics::Get().hits.Inc();
  }
  return it->second.value;
}

void ResultCache::Put(const std::string& key, const ValuePtr& value) {
  TSE_CHECK(value != nullptr);
  const BudgetsPtr budgets = SnapshotBudgets();
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  InsertLocked(shard, *budgets, key, value);
}

void ResultCache::SetPrefixBudget(const std::string& prefix,
                                  size_t budget_bytes) {
  TSE_CHECK(!prefix.empty());
  const size_t per_shard =
      std::max<size_t>(1, budget_bytes / shards_.size());
  BudgetsPtr snapshot;
  int index = -1;
  {
    MutexLock lock(budgets_mu_);
    auto next = std::make_shared<BudgetList>(*budgets_);
    for (size_t b = 0; b < next->size(); ++b) {
      if ((*next)[b].prefix == prefix) index = static_cast<int>(b);
    }
    if (index < 0) {
      next->push_back(Budget{prefix, per_shard});
      index = static_cast<int>(next->size()) - 1;
    } else {
      (*next)[static_cast<size_t>(index)].per_shard = per_shard;
    }
    budgets_ = std::move(next);
    snapshot = budgets_;
  }
  // Re-attribute resident entries and enforce the (new) bound. Budgets
  // are installed before a namespace's first insert in the service, so
  // this scan usually finds nothing; it exists for resizes.
  const BudgetList& budgets = *snapshot;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    MutexLock lock(shard.mu);
    if (shard.budget_bytes.size() < budgets.size()) {
      shard.budget_bytes.resize(budgets.size(), 0);
    }
    for (auto& [key, entry] : shard.entries) {
      const int match = MatchBudget(budgets, key);
      if (match == entry.budget) continue;
      if (entry.budget >= 0) {
        shard.budget_bytes[static_cast<size_t>(entry.budget)] -= entry.cost;
      }
      entry.budget = match;
      if (match >= 0) {
        shard.budget_bytes[static_cast<size_t>(match)] += entry.cost;
      }
    }
    EvictOverBudgetLocked(shard, budgets, index);
  }
}

std::vector<size_t> ResultCache::PrefixBytesMany(
    const std::vector<std::string>& prefixes) const {
  std::vector<size_t> totals(prefixes.size(), 0);
  // Budgeted prefixes (the common case once tenant budgets are on) are
  // answered from per-shard accounting; only the rest need the entry
  // scan, and all of them share ONE pass.
  const BudgetsPtr budgets = SnapshotBudgets();
  std::vector<int> budget_index(prefixes.size(), -1);
  std::vector<size_t> scanned;  // indices answered by the scan
  for (size_t p = 0; p < prefixes.size(); ++p) {
    for (size_t b = 0; b < budgets->size(); ++b) {
      if ((*budgets)[b].prefix == prefixes[p]) {
        budget_index[p] = static_cast<int>(b);
      }
    }
    if (budget_index[p] < 0) scanned.push_back(p);
  }
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    MutexLock lock(shard.mu);
    for (size_t p = 0; p < prefixes.size(); ++p) {
      const int b = budget_index[p];
      if (b >= 0 && static_cast<size_t>(b) < shard.budget_bytes.size()) {
        totals[p] += shard.budget_bytes[static_cast<size_t>(b)];
      }
    }
    if (scanned.empty()) continue;
    for (const auto& [key, entry] : shard.entries) {
      for (const size_t p : scanned) {
        if (key.compare(0, prefixes[p].size(), prefixes[p]) == 0) {
          totals[p] += entry.cost;
          break;  // prefixes are disjoint: first match is the only match
        }
      }
    }
  }
  return totals;
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
  return InvalidatePrefixes({prefix});
}

size_t ResultCache::InvalidatePrefixes(
    const std::vector<std::string>& prefixes) {
  size_t removed = 0;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    MutexLock lock(shard.mu);
    for (auto it = shard.entries.begin(); it != shard.entries.end();) {
      bool matched = false;
      for (const std::string& prefix : prefixes) {
        if (it->first.compare(0, prefix.size(), prefix) == 0) {
          matched = true;
          break;
        }
      }
      if (matched) {
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
