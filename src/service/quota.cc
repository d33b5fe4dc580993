#include "src/service/quota.h"

namespace tsexplain {
namespace {

constexpr std::string_view kTenantOpen = "tenant/";

}  // namespace

bool IsValidTenantId(std::string_view tenant) {
  if (tenant.empty() || tenant.size() > 64) return false;
  for (char c : tenant) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == ':' || c == '-';
    if (!ok) return false;
  }
  return true;
}

std::string TenantKeyPrefix(const std::string& tenant) {
  if (tenant.empty()) return std::string();
  return std::string(kTenantOpen) + tenant + "/";
}

bool ParseTenantKey(std::string_view key, std::string_view* tenant,
                    std::string_view* rest) {
  *tenant = {};
  *rest = key;
  if (key.substr(0, kTenantOpen.size()) != kTenantOpen) return true;
  const size_t slash = key.find('/', kTenantOpen.size());
  if (slash == std::string_view::npos) return false;
  const std::string_view id =
      key.substr(kTenantOpen.size(), slash - kTenantOpen.size());
  if (!IsValidTenantId(id)) return false;
  *tenant = id;
  *rest = key.substr(slash + 1);
  return true;
}

}  // namespace tsexplain
