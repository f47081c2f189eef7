#include "gpusim/memory.hpp"

#include <cctype>
#include <cstdlib>
#include <sstream>

#include "common/log.hpp"

namespace tda::gpusim {

std::size_t parse_mem_bytes(const std::string& text) {
  if (text.empty()) return 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || v < 0.0) return 0;
  double scale = 1.0;
  if (end != nullptr && *end != '\0') {
    switch (std::tolower(static_cast<unsigned char>(*end))) {
      case 'k': scale = 1024.0; break;
      case 'm': scale = 1024.0 * 1024.0; break;
      case 'g': scale = 1024.0 * 1024.0 * 1024.0; break;
      default: return 0;
    }
    if (*(end + 1) != '\0') return 0;
  }
  return static_cast<std::size_t>(v * scale);
}

std::size_t mem_budget_from_env(std::size_t device_default) {
  const char* env = std::getenv("TDA_MEM_BUDGET");
  if (env == nullptr || *env == '\0') return device_default;
  const std::size_t parsed = parse_mem_bytes(env);
  if (parsed == 0) {
    TDA_WARN("memory: ignoring unparsable TDA_MEM_BUDGET '" << env << "'");
    return device_default;
  }
  return parsed;
}

void MemoryTracker::allocate(std::size_t bytes, const char* what) {
  telemetry::Telemetry* tel = nullptr;
  {
    std::lock_guard lk(mu_);
    if (budget_ != 0 && in_use_ + bytes > budget_) {
      ++oom_count_;
      if (tel_ != nullptr) tel_->metrics.add("device.oom");
      std::ostringstream os;
      os << "device memory budget exceeded: requested " << bytes
         << " B for " << what << ", " << in_use_ << " B in use of "
         << budget_ << " B budget";
      throw OutOfMemory(os.str());
    }
    in_use_ += bytes;
    if (in_use_ > high_water_) high_water_ = in_use_;
    ++allocations_;
    tel = tel_;
  }
  if (tel != nullptr) {
    tel->metrics.set("device.mem_in_use", static_cast<double>(in_use()));
    tel->metrics.set("device.mem_high_water",
                     static_cast<double>(high_water()));
  }
}

void MemoryTracker::release(std::size_t bytes) {
  telemetry::Telemetry* tel = nullptr;
  {
    std::lock_guard lk(mu_);
    in_use_ = bytes < in_use_ ? in_use_ - bytes : 0;
    tel = tel_;
  }
  if (tel != nullptr) {
    tel->metrics.set("device.mem_in_use", static_cast<double>(in_use()));
  }
}

}  // namespace tda::gpusim
