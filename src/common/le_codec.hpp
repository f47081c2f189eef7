#pragma once
// Little-endian byte codec and frame checksum rule shared by the TDAP
// data plane (net/protocol) and the TDAO admin plane (ops/admin). Each
// protocol keeps its own header layout, magic and decoder; only the
// byte helpers and the checksum live here.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/hash.hpp"

namespace tda::le {

template <typename U>
void put(std::string& out, U v) {
  for (std::size_t i = 0; i < sizeof(U); ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

/// Reads a U at offset `at`; the caller has checked `b` holds it.
template <typename U>
U get(std::string_view b, std::size_t at) {
  U v = 0;
  for (std::size_t i = sizeof(U); i-- > 0;) {
    v = static_cast<U>((v << 8) | static_cast<std::uint8_t>(b[at + i]));
  }
  return v;
}

inline void put_u16(std::string& out, std::uint16_t v) { put(out, v); }
inline void put_u32(std::string& out, std::uint32_t v) { put(out, v); }
inline void put_u64(std::string& out, std::uint64_t v) { put(out, v); }
inline void put_f64(std::string& out, double v) {
  put(out, std::bit_cast<std::uint64_t>(v));
}

inline std::uint16_t get_u16(std::string_view b, std::size_t at) {
  return get<std::uint16_t>(b, at);
}
inline std::uint32_t get_u32(std::string_view b, std::size_t at) {
  return get<std::uint32_t>(b, at);
}
inline std::uint64_t get_u64(std::string_view b, std::size_t at) {
  return get<std::uint64_t>(b, at);
}
inline double get_f64(std::string_view b, std::size_t at) {
  return std::bit_cast<double>(get<std::uint64_t>(b, at));
}

/// Checksum of a frame in either protocol: FNV-1a-32 over the header
/// bytes before the checksum field, continued over the payload.
inline std::uint32_t frame_checksum(std::string_view header_prefix,
                                    std::string_view payload) {
  return fnv1a32(payload, fnv1a32(header_prefix));
}

}  // namespace tda::le
