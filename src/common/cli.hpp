#pragma once
// Minimal --key=value command-line parsing for examples and benches,
// and the one reader of on/off environment flags.

#include <string>
#include <vector>

namespace tda {

/// Parses flags of the form --key=value or bare --flag (value "1").
/// Unknown positional arguments are kept in `positional`.
class Cli {
 public:
  Cli(int argc, const char* const* argv);

  /// Returns the flag value or `fallback` when absent.
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback = "") const;
  [[nodiscard]] long long get_int(const std::string& key,
                                  long long fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  [[nodiscard]] bool has(const std::string& key) const;

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

 private:
  std::vector<std::pair<std::string, std::string>> flags_;
  std::vector<std::string> positional_;
};

/// Reads the on/off environment flag `name`: on when it is set,
/// non-empty and its first character is not '0' ("1", "yes" on; "0",
/// "00" off). Unset or empty returns `fallback`.
[[nodiscard]] bool env_flag(const char* name, bool fallback = false);

}  // namespace tda
