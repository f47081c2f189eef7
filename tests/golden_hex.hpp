#pragma once
// Lowercase hex of raw bytes, for the golden-byte fixtures that pin wire
// frames, cache files and snapshots exactly.

#include <string>
#include <string_view>

namespace tda::golden {

inline std::string to_hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(2 * bytes.size());
  for (const char ch : bytes) {
    const auto b = static_cast<unsigned char>(ch);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 15]);
  }
  return out;
}

}  // namespace tda::golden
