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
// The host PCR core and the interleaved Thomas sweep (tridiag/pcr.hpp,
// tridiag/thomas.hpp) also dispatch at run time to AVX2 and AVX-512
// variants of that same scalar C++ (tridiag/isa.hpp), still with no
// intrinsics. The strip width stays a compile-time constant of the
// build's own target, so block tiling never depends on the CPU.
//
// The strip width is a pure performance choice: every system's
// arithmetic is independent and elementwise, so the solution is bitwise
// identical at every TDA_THREADS count.

#include <cstddef>

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

/// Strip width (systems per block) of the interleaved kernels: 4
/// hardware vectors — wide enough to amortize the serial Thomas
/// recurrence over full vector issues, narrow enough that a strip's
/// working rows stay cache-warm.
template <typename T>
inline constexpr std::size_t simd_strip_width() {
  return 4 * simd_lanes<T>();
}

}  // namespace tda::kernels
