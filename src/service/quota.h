// Per-tenant quotas for the explanation service.
//
// Requests may carry an optional `tenant` identifier. A tenant gets its
// own cache-key namespace ("tenant/<id>/..." via TenantKeyPrefix), and —
// when the service is configured with a per-tenant cache budget — a
// ResultCache prefix budget installed lazily on the tenant's first
// request. The budget bounds the bytes that tenant's entries may occupy,
// so one chatty tenant (or one huge dataset sweep) can no longer evict
// every other tenant's hot results. Per-tenant IN-FLIGHT caps live in
// the AdmissionController (admission.h); this module owns identity and
// cache-side quota plumbing.
//
// Tenant ids are restricted to a conservative charset (IsValidTenantId)
// so the id can be embedded verbatim in cache keys without escaping and
// can never collide with the "session/<id>/" or dataset key framing.

#ifndef TSEXPLAIN_SERVICE_QUOTA_H_
#define TSEXPLAIN_SERVICE_QUOTA_H_

#include <set>
#include <string>
#include <vector>

#include "src/common/mutex.h"
#include "src/service/result_cache.h"

namespace tsexplain {

/// Accepts [A-Za-z0-9._:-], 1..64 chars. Anything else is rejected at
/// the service boundary with bad_request (never silently normalized:
/// two spellings must not alias one quota).
bool IsValidTenantId(const std::string& tenant);

/// "" -> "" (the shared, unbudgeted namespace); "acme" -> "tenant/acme/".
/// Prepended to every cache key the tenant's requests produce, which is
/// exactly the prefix its ResultCache budget scopes.
std::string TenantKeyPrefix(const std::string& tenant);

struct TenantQuotaOptions {
  /// Byte budget installed per tenant prefix; 0 = tenants share the
  /// global LRU with no per-tenant bound.
  size_t cache_budget_bytes = 0;
};

/// Tracks the tenants a service has seen and installs their cache
/// budgets idempotently. Thread-safe.
class TenantQuotaRegistry {
 public:
  TenantQuotaRegistry(ResultCache& cache, TenantQuotaOptions options)
      : cache_(cache), options_(options) {}

  /// Registers `tenant` (must be valid, non-empty) on first sight and
  /// installs its per-prefix cache budget when one is configured.
  void EnsureTenant(const std::string& tenant) TSE_EXCLUDES(mu_);

  /// Key prefixes of every known tenant — dataset drops fan out their
  /// cache invalidation across these so tenant-namespaced entries for
  /// the dropped dataset go too.
  std::vector<std::string> KnownTenantPrefixes() const TSE_EXCLUDES(mu_);

  /// Tenant ids in sorted order (the `state` op reports per-tenant cache
  /// namespace byte counts so operators can see who a warm-started cache
  /// belongs to).
  std::vector<std::string> KnownTenants() const TSE_EXCLUDES(mu_);

  size_t NumTenants() const TSE_EXCLUDES(mu_);

 private:
  ResultCache& cache_;
  TenantQuotaOptions options_;
  mutable Mutex mu_;
  std::set<std::string> tenants_ TSE_GUARDED_BY(mu_);
};

}  // namespace tsexplain

#endif  // TSEXPLAIN_SERVICE_QUOTA_H_
