// Sharded LRU result cache.
//
// Keys are canonical query keys (see query_key.h); values are immutable
// computed results shared out by shared_ptr, so eviction never invalidates
// a response a client is still reading. Each shard has its own mutex, LRU
// list, and byte accounting; a key's shard is a hash of the key, so
// unrelated queries do not contend.
//
// The cache never computes anything: the service looks a key up, and on a
// miss computes the value under admission control and Puts it. Concurrent
// identical misses are deduplicated there (admission.h), not here.

#ifndef TSEXPLAIN_SERVICE_RESULT_CACHE_H_
#define TSEXPLAIN_SERVICE_RESULT_CACHE_H_

#include <list>
#include <memory>
#include <string>
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
    size_t budget_evictions = 0;  // subset of evictions: prefix budgets
    size_t invalidations = 0;
    size_t entries = 0;      // current resident entries
    size_t bytes_used = 0;   // current resident cost
    size_t capacity_bytes = 0;
  };

  /// `capacity_bytes` bounds the sum of entry costs; `num_shards` >= 1
  /// (rounded up to a power of two).
  explicit ResultCache(size_t capacity_bytes, int num_shards = 8);

  /// Un-counts resident entries from the global cache.entries /
  /// cache.bytes_used gauges so short-lived caches (tests, restarts) do
  /// not leave the process-wide registry drifting.
  ~ResultCache();

  /// The resident value for `key` (LRU-touched) or nullptr. Counts one
  /// hit or one miss unless `count` is false, which the service uses to
  /// re-check a key its request already missed on.
  ValuePtr Lookup(const std::string& key, bool count = true);

  /// Insert/overwrite, evicting LRU entries until every bound holds:
  /// overwriting never double-charges `bytes_used`, and a value larger
  /// than its shard (or its prefix budget's shard share) is not cached —
  /// and drops any stale resident entry rather than leaving it to be
  /// served.
  void Put(const std::string& key, const ValuePtr& value);

  /// Installs (or resizes) a byte budget for every key starting with
  /// `prefix` — the per-tenant / per-dataset quota hook: entries under
  /// the prefix are evicted (LRU within the prefix) once their summed
  /// cost exceeds the budget, so one namespace can no longer evict the
  /// world. Like the global capacity, the budget is divided across
  /// shards, so budgets should be generous multiples of a typical entry
  /// cost. The first matching registered prefix wins; resident entries
  /// are re-attributed (and possibly evicted) immediately.
  void SetPrefixBudget(const std::string& prefix, size_t budget_bytes);

  /// Resident bytes under each of several disjoint prefixes (an entry is
  /// charged to the first prefix that matches). A registered budget
  /// prefix is answered from O(shards) accounting reads; all the others
  /// share ONE full scan. The `state` op asks for every tenant namespace
  /// at once, budgeted or not.
  std::vector<size_t> PrefixBytesMany(
      const std::vector<std::string>& prefixes) const;

  /// Copies every resident entry, least recently used FIRST (per shard),
  /// so re-Putting a snapshot in order reproduces each shard's LRU
  /// ordering (a key always rehashes to the same shard). The cache
  /// persistence layer's export hook; O(entries).
  std::vector<std::pair<std::string, ValuePtr>> ExportEntries() const;

  /// Drops one key (no-op when absent). A computation still running for
  /// the key Puts its value AFTER the invalidation; callers that need
  /// strict fencing invalidate after it completes (the service's session
  /// mutex provides exactly that ordering).
  void Invalidate(const std::string& key);

  /// Drops every resident entry whose key starts with `prefix`; returns
  /// the number removed. Used by streaming sessions ("session/<id>/...")
  /// and dataset eviction ("...|ds=<name>|...") — rare operations, so the
  /// full scan is acceptable.
  size_t InvalidatePrefix(const std::string& prefix);

  /// Same, for several prefixes in ONE full scan (dataset drops must
  /// clear the shared namespace plus every tenant namespace; one pass
  /// visits each entry once instead of once per prefix).
  size_t InvalidatePrefixes(const std::vector<std::string>& prefixes);

  Stats stats() const;

 private:
  struct Entry {
    ValuePtr value;
    size_t cost = 0;
    int budget = -1;  // index into the budget list; -1 = unbudgeted
    std::list<std::string>::iterator lru_pos;
  };
  struct Shard {
    mutable Mutex mu;
    std::unordered_map<std::string, Entry> entries TSE_GUARDED_BY(mu);
    std::list<std::string> lru TSE_GUARDED_BY(mu);  // front = most recent
    size_t bytes_used TSE_GUARDED_BY(mu) = 0;
    // Parallel to the budget list.
    std::vector<size_t> budget_bytes TSE_GUARDED_BY(mu);
    size_t hits TSE_GUARDED_BY(mu) = 0;
    size_t misses TSE_GUARDED_BY(mu) = 0;
    size_t evictions TSE_GUARDED_BY(mu) = 0;
    size_t budget_evictions TSE_GUARDED_BY(mu) = 0;
    size_t invalidations TSE_GUARDED_BY(mu) = 0;
  };
  struct Budget {
    std::string prefix;
    size_t per_shard = 0;
  };
  using BudgetList = std::vector<Budget>;
  using BudgetsPtr = std::shared_ptr<const BudgetList>;

  Shard& ShardFor(const std::string& key);
  BudgetsPtr SnapshotBudgets() const TSE_EXCLUDES(budgets_mu_);
  static int MatchBudget(const BudgetList& budgets, const std::string& key);
  // Removes one entry with exact byte/budget accounting; `it` must be
  // valid. Does NOT bump eviction/invalidation counters (callers do).
  static void RemoveEntryLocked(
      Shard& shard, std::unordered_map<std::string, Entry>::iterator it)
      TSE_REQUIRES(shard.mu);
  // Evicts `budget`'s own LRU tail in `shard` until the prefix fits its
  // per-shard share again.
  static void EvictOverBudgetLocked(Shard& shard, const BudgetList& budgets,
                                    int budget) TSE_REQUIRES(shard.mu);
  // Inserts under the shard lock, evicting (budget-scoped first, then
  // global LRU) until all bounds hold again.
  void InsertLocked(Shard& shard, const BudgetList& budgets,
                    const std::string& key, const ValuePtr& value)
      TSE_REQUIRES(shard.mu);

  size_t capacity_per_shard_;
  size_t shard_mask_;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable Mutex budgets_mu_;  // guards the budgets_ pointer swap
  BudgetsPtr budgets_ TSE_GUARDED_BY(budgets_mu_) =
      std::make_shared<const BudgetList>();
};

}  // namespace tsexplain

#endif  // TSEXPLAIN_SERVICE_RESULT_CACHE_H_
