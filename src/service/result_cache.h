// LRU result cache: one map, one recency list and one byte count under one
// mutex.
//
// Keys are canonical query keys (see query_key.h); values are immutable
// computed results shared out by shared_ptr, so eviction never invalidates
// a response a client is still reading. The capacity and the tenant budget
// hold exactly over the whole cache, and eviction takes the whole cache's
// least recently used entry. Put prices an entry and reads its namespace
// before it takes the lock, which then covers only map, list and
// accounting work.
//
// The cache never computes anything: the service looks a key up, and on a
// miss computes the value under admission control and Puts it. Concurrent
// identical misses are deduplicated there (admission.h), not here.
//
// Tenants (quota.h) are key namespaces, "tenant/<id>/...". The cache reads
// a key's namespace once, at insert, and counts each tenant's resident
// bytes; a tenant's count exists only while it holds entries, so the cache
// is the one record of which tenants hold state. An optional per-tenant
// budget bounds every tenant's bytes (LRU within the tenant).

#ifndef TSEXPLAIN_SERVICE_RESULT_CACHE_H_
#define TSEXPLAIN_SERVICE_RESULT_CACHE_H_

#include <list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/mutex.h"
#include "src/pipeline/tsexplain.h"

namespace tsexplain {

/// One cached explanation outcome: the structured result plus its
/// pre-rendered wire JSON (byte-identical for every consumer).
struct CachedResult {
  std::shared_ptr<const TSExplainResult> result;
  std::string json;

  /// Approximate heap footprint used for capacity accounting. The JSON
  /// string dominates; the structured result is charged per segment /
  /// explanation / curve entry.
  size_t CostBytes() const;
};

class ResultCache {
 public:
  using ValuePtr = std::shared_ptr<const CachedResult>;

  struct Stats {
    size_t hits = 0;         // counted lookups that found the key
    size_t misses = 0;       // counted lookups that did not
    size_t coalesced = 0;    // always 0: duplicates batch in admission.h
    size_t evictions = 0;    // entries removed to respect capacity
    size_t budget_evictions = 0;  // subset of evictions: tenant budget
    size_t invalidations = 0;
    size_t entries = 0;      // current resident entries
    size_t bytes_used = 0;   // current resident cost
    size_t capacity_bytes = 0;
  };

  /// `capacity_bytes` bounds the sum of entry costs. `tenant_budget_bytes`
  /// > 0 also bounds each tenant namespace's entry costs; 0 leaves tenants
  /// to the global LRU.
  explicit ResultCache(size_t capacity_bytes,
                       size_t tenant_budget_bytes = 0);

  /// Un-counts resident entries from the global cache.entries /
  /// cache.bytes_used gauges so short-lived caches (tests, restarts) do
  /// not leave the process-wide registry drifting.
  ~ResultCache();

  /// The resident value for `key` (LRU-touched) or nullptr. Counts one
  /// hit or one miss.
  ValuePtr Lookup(const std::string& key) {
    return Find(key, /*count_miss=*/true);
  }

  /// Admission's re-check of a key its request already missed on: the
  /// resident value (LRU-touched), counted as one hit, or nullptr, counted
  /// as nothing, since the request's miss is counted already.
  ValuePtr Recheck(const std::string& key) {
    return Find(key, /*count_miss=*/false);
  }

  /// Insert/overwrite, evicting LRU entries until every bound holds:
  /// overwriting never double-charges `bytes_used`, and a value larger
  /// than the capacity (or than its tenant budget) is not cached — and
  /// drops any stale resident entry rather than leaving it to be served.
  /// Over the tenant budget, the tenant's own LRU entries go.
  void Put(const std::string& key, const ValuePtr& value);

  /// Resident bytes per tenant namespace, sorted by tenant id. Only
  /// tenants that hold entries appear. O(resident tenants); the `state`
  /// op reports it.
  std::vector<std::pair<std::string, size_t>> TenantBytes() const;

  /// Copies every resident entry, least recently used FIRST, so re-Putting
  /// a snapshot in order reproduces the LRU order. The cache persistence
  /// layer's export hook; O(entries).
  std::vector<std::pair<std::string, ValuePtr>> ExportEntries() const;

  /// Drops one key (no-op when absent). A computation still running for
  /// the key Puts its value AFTER the invalidation; callers that need
  /// strict fencing invalidate after it completes (the service's session
  /// mutex provides exactly that ordering).
  void Invalidate(const std::string& key);

  /// Drops every resident entry whose key, after its tenant namespace,
  /// starts with `prefix`; returns the number removed. So one dataset
  /// prefix ("v1|ds=<name>|") reaches the shared entry and every tenant's
  /// copy, while session keys ("session/<id>/...") have no namespace and
  /// match from their start. One pass over the entries — rare operations
  /// (dataset drops, session appends and closes).
  size_t InvalidatePrefix(const std::string& prefix);

  Stats stats() const;

 private:
  // Resident bytes per tenant id, erased at zero (CostBytes is never 0,
  // so a tenant with entries always has a count).
  using TenantBytesMap = std::map<std::string, size_t>;
  struct Entry {
    std::string key;
    ValuePtr value;
    size_t cost = 0;
    // Length of the key's "tenant/<id>/" namespace (0 = none) and the
    // tenant's count (tenant_bytes_.end() when there is no tenant).
    size_t namespace_len = 0;
    TenantBytesMap::iterator tenant;
  };
  using EntryList = std::list<Entry>;

  // Lookup's body: a hit always counts, a miss when `count_miss`.
  ValuePtr Find(const std::string& key, bool count_miss);
  // Removes one entry with exact byte/tenant accounting and returns the
  // entry after it. Does NOT bump eviction/invalidation counters
  // (callers do).
  EntryList::iterator RemoveLocked(EntryList::iterator it)
      TSE_REQUIRES(mu_);

  const size_t capacity_bytes_;
  const size_t tenant_budget_bytes_;  // 0 = tenants unbudgeted

  mutable Mutex mu_;
  // Front = most recent. The index keys view each entry's own `key`,
  // which a list node keeps in place until it is erased.
  EntryList lru_ TSE_GUARDED_BY(mu_);
  std::unordered_map<std::string_view, EntryList::iterator> index_
      TSE_GUARDED_BY(mu_);
  size_t bytes_used_ TSE_GUARDED_BY(mu_) = 0;
  TenantBytesMap tenant_bytes_ TSE_GUARDED_BY(mu_);
  size_t hits_ TSE_GUARDED_BY(mu_) = 0;
  size_t misses_ TSE_GUARDED_BY(mu_) = 0;
  size_t evictions_ TSE_GUARDED_BY(mu_) = 0;
  size_t budget_evictions_ TSE_GUARDED_BY(mu_) = 0;
  size_t invalidations_ TSE_GUARDED_BY(mu_) = 0;
};

}  // namespace tsexplain

#endif  // TSEXPLAIN_SERVICE_RESULT_CACHE_H_
