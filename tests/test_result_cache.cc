// ResultCache contract: hit/miss counting, LRU eviction + byte
// accounting, per-tenant accounting and budgets, and invalidation scoping.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/service/result_cache.h"

namespace tsexplain {
namespace {

// A value whose CostBytes is dominated by a JSON payload of known size.
ResultCache::ValuePtr MakeValue(const std::string& payload) {
  auto value = std::make_shared<CachedResult>();
  value->json = payload;
  return value;
}

size_t CostOf(const std::string& payload) {
  return MakeValue(payload)->CostBytes();
}

using TenantList = std::vector<std::pair<std::string, size_t>>;

TEST(ResultCache, HitAfterMiss) {
  ResultCache cache(1 << 20);
  EXPECT_EQ(cache.Lookup("k"), nullptr);
  const ResultCache::ValuePtr value = MakeValue("payload");
  cache.Put("k", value);
  EXPECT_EQ(cache.Lookup("k").get(), value.get());  // the same object
  const ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes_used, CostOf("payload"));
  // A re-check of a key already missed on counts a hit, never a miss.
  EXPECT_EQ(cache.Recheck("k").get(), value.get());
  EXPECT_EQ(cache.Recheck("absent"), nullptr);
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(ResultCache, LruEvictionAndAccounting) {
  const std::string payload(1000, 'x');
  const size_t cost = CostOf(payload);
  // Room for exactly three entries.
  ResultCache cache(3 * cost);
  cache.Put("a", MakeValue(payload));
  cache.Put("b", MakeValue(payload));
  cache.Put("c", MakeValue(payload));
  EXPECT_EQ(cache.stats().entries, 3u);
  EXPECT_EQ(cache.stats().bytes_used, 3 * cost);

  // Touch "a" so "b" is the LRU victim when "d" lands.
  EXPECT_NE(cache.Lookup("a"), nullptr);
  cache.Put("d", MakeValue(payload));
  const ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.bytes_used, 3 * cost);  // accounting stays exact

  EXPECT_NE(cache.Lookup("a"), nullptr);  // survived (was MRU)
  EXPECT_EQ(cache.Lookup("b"), nullptr);  // evicted
}

// The capacity bounds the whole cache, as the service builds it: an entry
// may cost up to all of it, and eviction takes the cache's least recently
// used key, whatever the keys hash to.
TEST(ResultCache, CapacityBoundsTheWholeCache) {
  const std::string payload(1000, 'x');
  const size_t cost = CostOf(payload);

  ResultCache roomy(2 * cost);
  roomy.Put("half", MakeValue(payload));
  EXPECT_NE(roomy.Lookup("half"), nullptr);
  EXPECT_EQ(roomy.stats().bytes_used, cost);

  ResultCache cache(3 * cost);
  EXPECT_EQ(cache.stats().capacity_bytes, 3 * cost);
  for (const char* key : {"a", "b", "c"}) cache.Put(key, MakeValue(payload));
  EXPECT_EQ(cache.stats().entries, 3u);
  EXPECT_EQ(cache.stats().bytes_used, 3 * cost);

  EXPECT_NE(cache.Lookup("a"), nullptr);  // "b" is now the least recent
  cache.Put("d", MakeValue(payload));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.Lookup("b"), nullptr);
  for (const char* key : {"a", "c", "d"}) {
    EXPECT_NE(cache.Lookup(key), nullptr) << key;
  }
  EXPECT_EQ(cache.stats().bytes_used, 3 * cost);
}

// The tenant budget bounds the tenant across the whole cache: a budget of
// k entries keeps exactly k of the tenant's entries, and the (k+1)-th
// evicts the tenant's least recent one.
TEST(ResultCache, TenantBudgetBoundsTheWholeTenant) {
  const std::string payload(1000, 'x');
  const size_t cost = CostOf(payload);
  constexpr size_t kBudgetEntries = 8;
  ResultCache cache(100 * cost,
                    /*tenant_budget_bytes=*/kBudgetEntries * cost);
  const auto key = [](size_t i) { return "tenant/a/q" + std::to_string(i); };
  for (size_t i = 0; i < kBudgetEntries; ++i) {
    cache.Put(key(i), MakeValue(payload));
    cache.Put("shared/q" + std::to_string(i), MakeValue(payload));
  }
  EXPECT_EQ(cache.stats().entries, 2 * kBudgetEntries);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.TenantBytes(), (TenantList{{"a", kBudgetEntries * cost}}));

  EXPECT_NE(cache.Lookup(key(0)), nullptr);  // q1 is now a's least recent
  cache.Put(key(kBudgetEntries), MakeValue(payload));
  EXPECT_EQ(cache.stats().budget_evictions, 1u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.Lookup(key(1)), nullptr);
  for (size_t i = 0; i <= kBudgetEntries; ++i) {
    if (i == 1) continue;
    EXPECT_NE(cache.Lookup(key(i)), nullptr) << i;
  }
  EXPECT_NE(cache.Lookup("shared/q0"), nullptr);  // older, but not a's
  EXPECT_EQ(cache.TenantBytes(), (TenantList{{"a", kBudgetEntries * cost}}));
}

TEST(ResultCache, OversizedValueIsNotCached) {
  ResultCache cache(64);
  cache.Put("big", MakeValue(std::string(1000, 'x')));
  EXPECT_EQ(cache.Lookup("big"), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes_used, 0u);
}

TEST(ResultCache, InvalidateRemovesOnlyTheKey) {
  ResultCache cache(1 << 20);
  cache.Put("keep", MakeValue("p"));
  cache.Put("drop", MakeValue("p"));
  cache.Invalidate("drop");
  cache.Invalidate("never-existed");  // no-op
  EXPECT_NE(cache.Lookup("keep"), nullptr);
  EXPECT_EQ(cache.Lookup("drop"), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(ResultCache, InvalidatePrefixScopes) {
  // One pass over the entries reaches every key under the prefix.
  ResultCache cache(1 << 20);
  for (int i = 0; i < 16; ++i) {
    cache.Put("session/7/q" + std::to_string(i), MakeValue("p"));
    cache.Put("session/8/q" + std::to_string(i), MakeValue("p"));
  }
  EXPECT_EQ(cache.InvalidatePrefix("session/7/"), 16u);
  for (int i = 0; i < 16; ++i) {
    EXPECT_NE(cache.Lookup("session/8/q" + std::to_string(i)), nullptr);
    EXPECT_EQ(cache.Lookup("session/7/q" + std::to_string(i)), nullptr);
  }

  // A dataset prefix matches after a key's tenant namespace: it reaches
  // the shared entry and every tenant's copy, and nothing else.
  cache.Put("v1|ds=a|k=3", MakeValue("p"));
  cache.Put("tenant/acme/v1|ds=a|k=3", MakeValue("p"));
  cache.Put("tenant/globex/v1|ds=a|k=4", MakeValue("p"));
  cache.Put("tenant/acme/v1|ds=b|k=3", MakeValue("p"));
  cache.Put("v1|ds=b|k=3", MakeValue("p"));
  EXPECT_EQ(cache.InvalidatePrefix("v1|ds=a|"), 3u);
  EXPECT_EQ(cache.Lookup("v1|ds=a|k=3"), nullptr);
  EXPECT_EQ(cache.Lookup("tenant/acme/v1|ds=a|k=3"), nullptr);
  EXPECT_EQ(cache.Lookup("tenant/globex/v1|ds=a|k=4"), nullptr);
  EXPECT_NE(cache.Lookup("tenant/acme/v1|ds=b|k=3"), nullptr);
  EXPECT_NE(cache.Lookup("v1|ds=b|k=3"), nullptr);
  EXPECT_EQ(cache.TenantBytes(), (TenantList{{"acme", CostOf("p")}}));
}

// Regression: overwriting a resident key (a recomputation landing after
// a prefix-invalidation race, warm-start Puts) must charge
// bytes_used for exactly the resident entries — never the sum of old and
// new costs — and eviction must never run against the replaced entry's
// stale cost.
TEST(ResultCache, ReinsertAccountingStaysExact) {
  ResultCache cache(1 << 20);
  const std::string small(100, 's');
  const std::string large(5000, 'L');
  const std::string medium(1000, 'm');

  cache.Put("k", MakeValue(small));
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().bytes_used, CostOf(small));

  // Overwrite with a LARGER payload: charged once, at the new cost.
  cache.Put("k", MakeValue(large));
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().bytes_used, CostOf(large));
  EXPECT_EQ(cache.Lookup("k")->json, large);

  // Overwrite with a SMALLER payload: accounting shrinks exactly.
  cache.Put("k", MakeValue(medium));
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().bytes_used, CostOf(medium));
  EXPECT_EQ(cache.Lookup("k")->json, medium);

  // A second resident key keeps its own accounting across overwrites.
  cache.Put("other", MakeValue(small));
  cache.Put("k", MakeValue(large));
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().bytes_used, CostOf(large) + CostOf(small));
  EXPECT_EQ(cache.stats().evictions, 0u);  // capacity was never exceeded
}

// Regression: an oversized fresh value for a resident key must DROP the
// stale entry, not leave it to be served as if it were current.
TEST(ResultCache, OversizedOverwriteDropsTheStaleEntry) {
  const std::string small(100, 's');
  ResultCache cache(4 * CostOf(small));
  cache.Put("k", MakeValue(small));
  ASSERT_NE(cache.Lookup("k"), nullptr);

  cache.Put("k", MakeValue(std::string(1 << 16, 'X')));  // over capacity
  EXPECT_EQ(cache.Lookup("k"), nullptr);  // stale value must not survive
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes_used, 0u);
}

TEST(ResultCache, TenantBudgetEvictsWithinTheNamespaceOnly) {
  const std::string payload(1000, 'x');
  const size_t cost = CostOf(payload);
  // Global capacity fits everything; the tenant budget fits 3 entries.
  ResultCache cache(100 * cost, /*tenant_budget_bytes=*/3 * cost);

  cache.Put("global-1", MakeValue(payload));
  cache.Put("tenant/a/q1", MakeValue(payload));
  cache.Put("tenant/a/q2", MakeValue(payload));
  cache.Put("tenant/a/q3", MakeValue(payload));
  EXPECT_EQ(cache.stats().entries, 4u);
  EXPECT_EQ(cache.TenantBytes(), (TenantList{{"a", 3 * cost}}));

  // A fourth tenant entry evicts the tenant's own LRU tail (q1) — the
  // global entry is untouchable by this namespace's pressure.
  cache.Put("tenant/a/q4", MakeValue(payload));
  EXPECT_EQ(cache.stats().entries, 4u);
  EXPECT_EQ(cache.TenantBytes(), (TenantList{{"a", 3 * cost}}));
  EXPECT_EQ(cache.stats().budget_evictions, 1u);
  EXPECT_NE(cache.Lookup("global-1"), nullptr);
  EXPECT_EQ(cache.Lookup("tenant/a/q1"), nullptr);
  EXPECT_NE(cache.Lookup("tenant/a/q2"), nullptr);
  EXPECT_NE(cache.Lookup("tenant/a/q4"), nullptr);
  EXPECT_EQ(cache.stats().bytes_used, 4 * cost);  // 3 tenant + 1 global

  // Every tenant has its own budget: b's entries leave a's alone.
  cache.Put("tenant/b/q1", MakeValue(payload));
  EXPECT_EQ(cache.TenantBytes(),
            (TenantList{{"a", 3 * cost}, {"b", cost}}));
  EXPECT_EQ(cache.stats().budget_evictions, 1u);
}

TEST(ResultCache, TenantBudgetTouchKeepsHotEntriesResident) {
  const std::string payload(1000, 'x');
  const size_t cost = CostOf(payload);
  ResultCache cache(100 * cost, /*tenant_budget_bytes=*/2 * cost);
  cache.Put("tenant/a/hot", MakeValue(payload));
  cache.Put("tenant/a/cold", MakeValue(payload));
  EXPECT_NE(cache.Lookup("tenant/a/hot"), nullptr);  // touch
  cache.Put("tenant/a/new", MakeValue(payload));     // evicts "cold"
  EXPECT_NE(cache.Lookup("tenant/a/hot"), nullptr);
  EXPECT_EQ(cache.Lookup("tenant/a/cold"), nullptr);
}

TEST(ResultCache, ValueOverItsTenantBudgetIsNotCached) {
  const std::string payload(1000, 'x');
  ResultCache cache(1 << 20, /*tenant_budget_bytes=*/8);  // < any entry
  cache.Put("tenant/tiny/q", MakeValue(payload));
  EXPECT_EQ(cache.Lookup("tenant/tiny/q"), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_TRUE(cache.TenantBytes().empty());
  // The budget binds tenants only: shared keys cache as usual, and an
  // oversized tenant value drops a stale copy under the same key.
  cache.Put("shared/q", MakeValue(payload));
  EXPECT_NE(cache.Lookup("shared/q"), nullptr);
  ResultCache roomy(1 << 20, /*tenant_budget_bytes=*/2 * CostOf("p"));
  roomy.Put("tenant/a/q", MakeValue("p"));
  roomy.Put("tenant/a/q", MakeValue(payload));
  EXPECT_EQ(roomy.Lookup("tenant/a/q"), nullptr);
  EXPECT_TRUE(roomy.TenantBytes().empty());
}

TEST(ResultCache, TenantCountLastsOnlyWhileTheTenantHoldsEntries) {
  const std::string payload(1000, 'x');
  const size_t cost = CostOf(payload);
  // Room for two entries: the global LRU evicts across tenants.
  ResultCache cache(2 * cost);
  cache.Put("tenant/a/q", MakeValue(payload));
  cache.Put("tenant/b/q", MakeValue(payload));
  EXPECT_EQ(cache.TenantBytes(), (TenantList{{"a", cost}, {"b", cost}}));

  // a's last entry is evicted: a is gone, not listed with 0 bytes.
  cache.Put("shared/q", MakeValue(payload));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.TenantBytes(), (TenantList{{"b", cost}}));

  // b's last entry is invalidated, by key and by prefix alike.
  cache.Invalidate("tenant/b/q");
  EXPECT_TRUE(cache.TenantBytes().empty());
  cache.Put("tenant/c/q1", MakeValue("p"));
  cache.Put("tenant/c/q2", MakeValue("p"));
  EXPECT_EQ(cache.TenantBytes(), (TenantList{{"c", 2 * CostOf("p")}}));
  // "q" matches c's keys after their namespace, not "shared/q".
  EXPECT_EQ(cache.InvalidatePrefix("q"), 2u);
  EXPECT_TRUE(cache.TenantBytes().empty());
  EXPECT_NE(cache.Lookup("shared/q"), nullptr);
}

}  // namespace
}  // namespace tsexplain
