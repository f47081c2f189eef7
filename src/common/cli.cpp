#include "common/cli.hpp"

#include <cstdlib>

namespace tda {

Cli::Cli(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      auto eq = arg.find('=');
      if (eq == std::string::npos) {
        flags_.emplace_back(arg.substr(2), "1");
      } else {
        flags_.emplace_back(arg.substr(2, eq - 2), arg.substr(eq + 1));
      }
    } else {
      positional_.push_back(std::move(arg));
    }
  }
}

std::string Cli::get(const std::string& key, const std::string& fallback) const {
  for (const auto& [k, v] : flags_)
    if (k == key) return v;
  return fallback;
}

long long Cli::get_int(const std::string& key, long long fallback) const {
  for (const auto& [k, v] : flags_)
    if (k == key) return std::strtoll(v.c_str(), nullptr, 10);
  return fallback;
}

double Cli::get_double(const std::string& key, double fallback) const {
  for (const auto& [k, v] : flags_)
    if (k == key) return std::strtod(v.c_str(), nullptr);
  return fallback;
}

bool Cli::has(const std::string& key) const {
  for (const auto& [k, v] : flags_) {
    (void)v;
    if (k == key) return true;
  }
  return false;
}

bool env_flag(const char* name, bool fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  return env[0] != '0';
}

}  // namespace tda
