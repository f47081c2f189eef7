#pragma once
// FNV-1a, 32- and 64-bit: the one definition behind every frame checksum,
// checksummed file and wire payload fingerprint.

#include <cstdint>
#include <string_view>

namespace tda {

inline constexpr std::uint32_t kFnv32Basis = 0x811C9DC5u;
inline constexpr std::uint64_t kFnv64Basis = 0xCBF29CE484222325ull;

/// 64-bit start state of the ops snapshot checksum and of the Solve
/// payload fingerprint: the published decimal basis
/// (14695981039346656037) without its last digit. Both hashes are
/// persisted in snapshots, so this state must stay as it is.
inline constexpr std::uint64_t kFnv64LegacyBasis = 1469598103934665603ull;

/// FNV-1a-32 over `bytes`, continuing from `state` (the offset basis for
/// a fresh hash). Every step s' = (s ^ byte) * prime is a bijection of
/// the state, so any single changed byte changes the result.
inline std::uint32_t fnv1a32(std::string_view bytes,
                             std::uint32_t state = kFnv32Basis) {
  for (const char c : bytes) {
    state ^= static_cast<std::uint8_t>(c);
    state *= 0x01000193u;
  }
  return state;
}

/// FNV-1a-64 over `bytes`, continuing from `state`.
inline std::uint64_t fnv1a64(std::string_view bytes,
                             std::uint64_t state = kFnv64Basis) {
  for (const char c : bytes) {
    state ^= static_cast<std::uint8_t>(c);
    state *= 0x100000001B3ull;
  }
  return state;
}

}  // namespace tda
