#include "faults/faults.hpp"

#include <cstdlib>
#include <sstream>

#include "common/log.hpp"
#include "common/rng.hpp"

namespace tda::faults {

namespace {

/// Uniform double in [0, 1) from (seed, site, decision index).
double decision_uniform(std::uint64_t seed, int site, std::uint64_t index) {
  const std::uint64_t h =
      mix64(seed ^ mix64(static_cast<std::uint64_t>(site + 1)) ^
            mix64(index * 0x2545F4914F6CDD1Dull));
  return unit_double(h);
}

struct KeyName {
  const char* key;
  Site site;
};
constexpr KeyName kRateKeys[] = {
    {"launch_fail", Site::DeviceLaunch},
    {"alloc_fail", Site::DeviceAlloc},
    {"oom", Site::DeviceOOM},
    {"worker_stall", Site::WorkerStall},
    {"worker_crash", Site::WorkerCrash},
    {"cache_corrupt", Site::CacheCorrupt},
    {"nan_systems", Site::PoisonNaN},
    {"zero_pivot_systems", Site::PoisonZeroPivot},
    {"net_drop", Site::NetDrop},
    {"net_corrupt", Site::NetCorrupt},
};

}  // namespace

const char* to_string(Site s) {
  switch (s) {
    case Site::DeviceLaunch: return "launch_fail";
    case Site::DeviceAlloc: return "alloc_fail";
    case Site::DeviceOOM: return "oom";
    case Site::WorkerStall: return "worker_stall";
    case Site::WorkerCrash: return "worker_crash";
    case Site::CacheCorrupt: return "cache_corrupt";
    case Site::PoisonNaN: return "nan_systems";
    case Site::PoisonZeroPivot: return "zero_pivot_systems";
    case Site::NetDrop: return "net_drop";
    case Site::NetCorrupt: return "net_corrupt";
  }
  return "?";
}

bool FaultConfig::any() const {
  for (const double r : rate) {
    if (r > 0.0) return true;
  }
  return false;
}

std::string FaultConfig::describe() const {
  std::ostringstream os;
  os << "seed=" << seed;
  for (const auto& [key, site] : kRateKeys) {
    if (rate_of(site) > 0.0) os << ',' << key << '=' << rate_of(site);
  }
  if (rate_of(Site::WorkerStall) > 0.0) os << ",stall_ms=" << stall_ms;
  return os.str();
}

FaultConfig parse_fault_config(const std::string& spec) {
  FaultConfig cfg;
  std::istringstream ss(spec);
  for (std::string item; std::getline(ss, item, ',');) {
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      TDA_WARN("faults: ignoring malformed TDA_FAULTS item '" << item
                                                              << "'");
      continue;
    }
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    char* end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    const bool numeric = end != nullptr && *end == '\0' && !value.empty();
    if (!numeric) {
      TDA_WARN("faults: ignoring non-numeric TDA_FAULTS value '" << item
                                                                 << "'");
      continue;
    }
    if (key == "seed") {
      cfg.seed = static_cast<std::uint64_t>(v);
      continue;
    }
    if (key == "stall_ms") {
      cfg.stall_ms = v >= 0.0 ? v : 0.0;
      continue;
    }
    bool matched = false;
    for (const auto& [name, site] : kRateKeys) {
      if (key == name) {
        double r = v;
        if (r < 0.0 || r > 1.0) {
          TDA_WARN("faults: clamping rate " << key << "=" << r
                                            << " into [0,1]");
          r = r < 0.0 ? 0.0 : 1.0;
        }
        cfg.rate_of(site) = r;
        matched = true;
        break;
      }
    }
    if (!matched) {
      TDA_WARN("faults: ignoring unknown TDA_FAULTS key '" << key << "'");
    }
  }
  return cfg;
}

void FaultInjector::configure(const FaultConfig& cfg) {
  std::lock_guard lk(mu_);
  cfg_ = cfg;
  for (int i = 0; i < kSiteCount; ++i) {
    decisions_[i] = 0;
    injected_[i] = 0;
  }
}

FaultConfig FaultInjector::config() const {
  std::lock_guard lk(mu_);
  return cfg_;
}

bool FaultInjector::enabled() const {
  std::lock_guard lk(mu_);
  return cfg_.any();
}

bool FaultInjector::fire(Site site) {
  const int i = static_cast<int>(site);
  std::lock_guard lk(mu_);
  const double rate = cfg_.rate[i];
  if (rate <= 0.0) return false;
  const std::uint64_t index = decisions_[i]++;
  const bool hit = decision_uniform(cfg_.seed, i, index) < rate;
  if (hit) ++injected_[i];
  return hit;
}

std::uint64_t FaultInjector::decisions(Site site) const {
  std::lock_guard lk(mu_);
  return decisions_[static_cast<int>(site)];
}

std::uint64_t FaultInjector::injected(Site site) const {
  std::lock_guard lk(mu_);
  return injected_[static_cast<int>(site)];
}

std::uint64_t FaultInjector::total_injected() const {
  std::lock_guard lk(mu_);
  std::uint64_t total = 0;
  for (const std::uint64_t v : injected_) total += v;
  return total;
}

void FaultInjector::reset_counters() {
  std::lock_guard lk(mu_);
  for (int i = 0; i < kSiteCount; ++i) {
    decisions_[i] = 0;
    injected_[i] = 0;
  }
}

void FaultInjector::maybe_device_fault(Site site,
                                       const std::string& detail) {
  if (!fire(site)) return;
  throw DeviceFault(std::string("injected ") + to_string(site) + " (" +
                    detail + ")");
}

FaultInjector& FaultInjector::global() {
  static FaultInjector injector;
  static const bool initialized = [] {
    if (const char* env = std::getenv("TDA_FAULTS");
        env != nullptr && *env != '\0') {
      const FaultConfig cfg = parse_fault_config(env);
      injector.configure(cfg);
      if (cfg.any()) {
        TDA_INFO("faults: injection enabled from TDA_FAULTS ("
                 << cfg.describe() << ")");
      }
    }
    return true;
  }();
  (void)initialized;
  return injector;
}

void corrupt_bytes(std::string& bytes, std::uint64_t seed,
                   std::size_t flips) {
  if (bytes.empty()) return;
  // Finalize the seed before xoring in the flip index: nearby seeds must
  // not produce permutations of the same flip set.
  const std::uint64_t state = mix64(seed);
  for (std::size_t f = 0; f < flips; ++f) {
    const std::uint64_t h = mix64(state ^ mix64(f + 1));
    const std::size_t pos = static_cast<std::size_t>(h % bytes.size());
    const unsigned bit = static_cast<unsigned>((h >> 32) & 7u);
    bytes[pos] = static_cast<char>(
        static_cast<unsigned char>(bytes[pos]) ^ (1u << bit));
  }
}

}  // namespace tda::faults
