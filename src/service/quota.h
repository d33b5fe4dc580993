// Tenants of the explanation service.
//
// Requests may carry an optional `tenant` identifier. A tenant's cache-key
// namespace ("tenant/<id>/...", built by TenantKeyPrefix) is its only
// record: the ResultCache reads each key's namespace back at insert
// (ParseTenantKey), counts the tenant's resident bytes only while it holds
// entries, and — when the service sets a per-tenant cache budget — evicts
// within the namespace, so one chatty tenant (or one huge dataset sweep)
// cannot evict every other tenant's hot results. Per-tenant IN-FLIGHT caps
// live in the AdmissionController (admission.h), which forgets a tenant
// once it has nothing in flight.
//
// Tenant ids are restricted to a conservative charset (IsValidTenantId)
// so the id can be embedded verbatim in cache keys without escaping and
// can never collide with the "session/<id>/" or dataset key framing.

#ifndef TSEXPLAIN_SERVICE_QUOTA_H_
#define TSEXPLAIN_SERVICE_QUOTA_H_

#include <string>
#include <string_view>

namespace tsexplain {

/// Accepts [A-Za-z0-9._:-], 1..64 chars. Anything else is rejected at
/// the service boundary with bad_request (never silently normalized:
/// two spellings must not alias one quota).
bool IsValidTenantId(std::string_view tenant);

/// "" -> "" (the shared, unbudgeted namespace); "acme" -> "tenant/acme/".
/// Prepended to every cache key the tenant's requests produce.
std::string TenantKeyPrefix(const std::string& tenant);

/// Splits a cache key at its tenant namespace: `*tenant` gets the id of a
/// "tenant/<id>/..." key and `*rest` what follows the namespace. A key
/// outside every namespace (shared and session keys) gets "" and the whole
/// key. Returns false — with "" and the whole key — when the key opens
/// "tenant/" but the id is malformed. Both views point into `key`.
bool ParseTenantKey(std::string_view key, std::string_view* tenant,
                    std::string_view* rest);

}  // namespace tsexplain

#endif  // TSEXPLAIN_SERVICE_QUOTA_H_
