#pragma once
// Runtime ISA dispatch for the host's hot PCR, Thomas, transpose and
// guard-scan loops.
//
// pcr_step_range, pcr_split_step_range and thomas_solve_interleaved run
// the paper's split core and the stage-4 sweep with one vector lane per
// GPU thread, transpose_tile flips a tile between the two batch layouts,
// and screen_verdict and relative_residual (tridiag/guard_scans.hpp)
// read every coefficient once before and after the kernels. A default
// build targets the ISA baseline (SSE2 on x86-64), so isa.cpp compiles
// each of those loop nests once per variant below: a non-template
// wrapper with a target attribute that inlines the whole nest. The
// widest variant the CPU runs is picked once per process. There is no
// knob and no intrinsic: every variant is the same scalar C++, widened
// by the vectorizer, with a*b+c never contracted into an FMA, so every
// variant gives the same bits.

#include <type_traits>

#include "tridiag/batch.hpp"

namespace tda::tridiag::detail {

/// One compiled variant of the hot loops. Default is the build's own
/// target; the others exist only in x86-64 builds.
enum class Isa { Default, Avx2, Avx512 };

/// True when this build has the variant and the CPU can run it.
bool isa_supported(Isa isa);

/// The widest supported variant; detected on the first call, then cached.
Isa host_isa();

/// Element types that have compiled variants; any other T runs the
/// templates directly.
template <typename T>
inline constexpr bool kIsaDispatched =
    std::is_same_v<T, float> || std::is_same_v<T, double>;

/// Four coefficient lanes: raw unit-stride pointers (the loops vectorize)
/// or StridedViews (any stride).
template <typename V>
struct Lanes {
  V a, b, c, d;
};

template <typename T>
Lanes<T*> unit_lanes(const SystemView<T>& v) {
  return {v.a.data(), v.b.data(), v.c.data(), v.d.data()};
}

template <typename T>
Lanes<StridedView<T>> view_lanes(const SystemView<T>& v) {
  return {v.a, v.b, v.c, v.d};
}

}  // namespace tda::tridiag::detail
