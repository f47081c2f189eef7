#include "net/tenant.hpp"

namespace tda::net {

const char* to_string(Admission a) {
  switch (a) {
    case Admission::Ok: return "ok";
    case Admission::QuotaInflight: return "quota_inflight";
    case Admission::QuotaBytes: return "quota_bytes";
    case Admission::QuotaRate: return "quota_rate";
  }
  return "?";
}

void TenantRegistry::add(TenantConfig cfg) {
  if (cfg.weight < 0.01) cfg.weight = 0.01;
  if (cfg.burst <= 0.0) {
    cfg.burst = cfg.requests_per_sec > 4.0 ? cfg.requests_per_sec / 4.0
                                           : 1.0;
  }
  auto t = std::make_unique<Tenant>();
  t->cfg = std::move(cfg);
  t->bucket = TokenBucket(t->cfg.requests_per_sec, t->cfg.burst);
  std::lock_guard lk(mu_);
  tenants_.push_back(std::move(t));
}

Tenant* TenantRegistry::authenticate(const std::string& token) {
  std::lock_guard lk(mu_);
  for (auto& t : tenants_) {
    if (!t->disabled && t->cfg.token == token) return t.get();
  }
  return nullptr;
}

Admission TenantRegistry::admit(Tenant& t, std::size_t systems,
                                std::size_t bytes, double now_s) {
  std::lock_guard lk(mu_);
  // Check every quota before charging any: an all-or-nothing verdict
  // keeps partial charges from leaking when the last check fails.
  if (t.disabled) {
    ++t.rejected;
    return Admission::QuotaRate;
  }
  if (t.cfg.max_inflight > 0 &&
      t.inflight_systems + systems > t.cfg.max_inflight) {
    ++t.rejected;
    return Admission::QuotaInflight;
  }
  if (t.cfg.max_inflight_bytes > 0 &&
      t.inflight_bytes + bytes > t.cfg.max_inflight_bytes) {
    ++t.rejected;
    return Admission::QuotaBytes;
  }
  if (!t.bucket.try_take(now_s)) {
    ++t.rejected;
    return Admission::QuotaRate;
  }
  t.inflight_systems += systems;
  t.inflight_bytes += bytes;
  ++t.admitted;
  return Admission::Ok;
}

void TenantRegistry::release(Tenant& t, std::size_t systems,
                             std::size_t bytes) {
  std::lock_guard lk(mu_);
  t.inflight_systems -= systems <= t.inflight_systems
                            ? systems
                            : t.inflight_systems;
  t.inflight_bytes -= bytes <= t.inflight_bytes ? bytes
                                                : t.inflight_bytes;
}

std::size_t TenantRegistry::inflight_bytes() const {
  std::lock_guard lk(mu_);
  std::size_t total = 0;
  for (const auto& t : tenants_) total += t->inflight_bytes;
  return total;
}

std::size_t TenantRegistry::size() const {
  std::lock_guard lk(mu_);
  return tenants_.size();
}

Tenant* TenantRegistry::find(const std::string& name) {
  std::lock_guard lk(mu_);
  for (auto& t : tenants_) {
    if (t->cfg.name == name) return t.get();
  }
  return nullptr;
}

bool TenantRegistry::update(const std::string& name,
                            const TenantConfig& cfg) {
  std::lock_guard lk(mu_);
  for (auto& t : tenants_) {
    if (t->cfg.name != name) continue;
    TenantConfig next = cfg;
    next.name = name;  // the name is the identity; it never changes
    if (next.weight < 0.01) next.weight = 0.01;
    if (next.burst <= 0.0) {
      next.burst = next.requests_per_sec > 4.0
                       ? next.requests_per_sec / 4.0
                       : 1.0;
    }
    const bool rate_changed =
        next.requests_per_sec != t->cfg.requests_per_sec ||
        next.burst != t->cfg.burst;
    t->cfg = std::move(next);
    if (rate_changed)
      t->bucket = TokenBucket(t->cfg.requests_per_sec, t->cfg.burst);
    return true;
  }
  return false;
}

bool TenantRegistry::disable(const std::string& name, bool disabled) {
  std::lock_guard lk(mu_);
  for (auto& t : tenants_) {
    if (t->cfg.name != name) continue;
    t->disabled = disabled;
    return true;
  }
  return false;
}

std::vector<TenantRegistry::Row> TenantRegistry::rows() const {
  std::lock_guard lk(mu_);
  std::vector<Row> out;
  out.reserve(tenants_.size());
  for (const auto& t : tenants_) out.push_back(*t);
  return out;
}

}  // namespace tda::net
