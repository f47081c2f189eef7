#pragma once
// Portable fixed-width SIMD abstraction for the interleaved kernels.
//
// The element-major kernels put one SIMD lane per system: every inner
// loop runs stride-1 across a strip of adjacent systems with no
// cross-iteration dependence, which any modern compiler auto-vectorizes
// at -O3. Correctness therefore requires NO intrinsics — the strip loops
// are plain scalar C++ — while the strip width below controls how many
// systems one simulated GPU block (and one host vector pass) owns.
//
// TDA_SIMD_WIDTH (env) overrides the strip width in systems (clamped to
// a power of two in [1, 1024]); unset/0 picks a default sized to a few
// hardware vectors of T. The choice is a pure performance knob: every
// system's arithmetic is independent and elementwise, so the solution is
// bitwise identical at every strip width and every TDA_THREADS count.

#include <cstddef>
#include <cstdlib>

#include "common/simd_loop.hpp"

namespace tda::kernels {

/// Hardware vector width in bytes the build can use. Detected from the
/// compiler's target features; the fallback (16) matches SSE2/NEON,
/// which baseline x86-64 and aarch64 both guarantee.
inline constexpr std::size_t simd_vector_bytes() {
#if defined(__AVX512F__)
  return 64;
#elif defined(__AVX2__) || defined(__AVX__)
  return 32;
#else
  return 16;  // SSE2 (x86-64 baseline) / NEON (aarch64 baseline)
#endif
}

/// SIMD lanes of element type T in one hardware vector.
template <typename T>
inline constexpr std::size_t simd_lanes() {
  constexpr std::size_t lanes = simd_vector_bytes() / sizeof(T);
  return lanes >= 1 ? lanes : 1;
}

/// Strip width (systems per block) of the interleaved kernels:
/// $TDA_SIMD_WIDTH when set and valid, else 4 hardware vectors — wide
/// enough to amortize the serial Thomas recurrence over full vector
/// issues, narrow enough that a strip's working rows stay cache-warm.
template <typename T>
inline std::size_t simd_strip_width() {
  static const std::size_t from_env = [] {
    if (const char* env = std::getenv("TDA_SIMD_WIDTH");
        env != nullptr && *env != '\0') {
      char* end = nullptr;
      const long v = std::strtol(env, &end, 10);
      if (end != nullptr && *end == '\0' && v >= 1 && v <= 1024) {
        // Round down to a power of two so strips tile block grids evenly.
        std::size_t p = 1;
        while (p * 2 <= static_cast<std::size_t>(v)) p *= 2;
        return p;
      }
    }
    return std::size_t{0};
  }();
  if (from_env != 0) return from_env;
  return 4 * simd_lanes<T>();
}

}  // namespace tda::kernels
