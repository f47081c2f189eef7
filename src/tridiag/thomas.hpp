#pragma once
// Thomas algorithm (tridiagonal LU without pivoting).
//
// O(n) work, strictly serial — the paper's Stage 4 runs one instance per
// GPU thread on an interleaved shared-memory subsystem, which is why the
// implementation below works on StridedView rather than raw arrays.
//
// thomas_solve_interleaved runs a window of a block's interleaved
// subsystems as one row-by-row sweep whose inner loops are unit-stride
// across the subsystems (one vector lane per GPU thread), with each
// subsystem's arithmetic in thomas_solve_inplace's exact order, on the
// host's widest ISA variant (tridiag/isa.hpp). Stage 4 sweeps all of a
// block's subsystems; the element-major kernel sweeps one strip of an
// element-major batch, whose systems are its interleaved subsystems.
//
// Requires nonzero pivots (guaranteed for strictly diagonally dominant or
// symmetric positive definite systems). For general systems use
// tda::cpu::gtsv_solve, which pivots.

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/check.hpp"
#include "common/simd_loop.hpp"
#include "common/strided_view.hpp"
#include "tridiag/batch.hpp"
#include "tridiag/isa.hpp"

namespace tda::tridiag {

/// Solves sys in place (forward sweep overwrites c and d) and writes the
/// unknowns to x. x may alias d. Returns false if a zero pivot was hit
/// (solution is then invalid).
template <typename T>
bool thomas_solve_inplace(SystemView<T> sys, StridedView<T> x) {
  const std::size_t n = sys.size();
  TDA_REQUIRE(x.size() == n, "solution view size mismatch");
  if (n == 0) return true;

  // Forward elimination: c[i] and d[i] become the c'/d' of the standard
  // formulation.
  T denom = sys.b[0];
  if (denom == T{0}) return false;
  sys.c[0] = sys.c[0] / denom;
  sys.d[0] = sys.d[0] / denom;
  for (std::size_t i = 1; i < n; ++i) {
    denom = sys.b[i] - sys.a[i] * sys.c[i - 1];
    if (denom == T{0}) return false;
    const T inv = T{1} / denom;
    if (i + 1 < n) sys.c[i] = sys.c[i] * inv;
    sys.d[i] = (sys.d[i] - sys.a[i] * sys.d[i - 1]) * inv;
  }

  // Back substitution.
  x[n - 1] = sys.d[n - 1];
  for (std::size_t i = n - 1; i-- > 0;) {
    x[i] = sys.d[i] - sys.c[i] * x[i + 1];
  }
  return true;
}

namespace detail {

/// Forward-elimination rows [i0, i1) of an interleaved sweep, every one
/// at least the second row of its subsystem (its predecessor is row
/// i - parts). KeepC is false for a subsystem's last row, whose c is
/// never read again. Zero pivots are masked to 1 and flagged in the
/// returned mask, so the body stays branch-free. V is a raw unit-stride
/// pointer (the loop vectorizes) or a StridedView.
template <typename T, bool KeepC, typename V>
unsigned thomas_forward_rows(V a, V b, V c, V d, std::size_t parts,
                             std::size_t i0, std::size_t i1) {
  TDA_FP_CONTRACT_OFF
  unsigned bad = 0;
  TDA_SIMD_LOOP
  for (std::size_t i = i0; i < i1; ++i) {
    const T denom = b[i] - a[i] * c[i - parts];
    const unsigned zero = denom == T{0} ? 1u : 0u;
    bad |= zero;
    const T inv = T{1} / (zero != 0u ? T{1} : denom);
    if constexpr (KeepC) c[i] = c[i] * inv;
    d[i] = (d[i] - a[i] * d[i - parts]) * inv;
  }
  return bad;
}

/// The interleaved sweep of subsystems [0, width) of the `parts`
/// interleaved subsystems of one n-row system over array-like lanes,
/// writing their unknowns to x.
template <typename V>
struct ThomasSweep {
  Lanes<V> sys;
  V x;
  std::size_t n, parts, width;
};

/// The sweep of thomas_solve_interleaved. Row r is the equations
/// [r*parts, r*parts + width) below n, one of each swept subsystem.
template <typename T, typename V>
bool thomas_interleaved_rows(const ThomasSweep<V>& p) {
  TDA_FP_CONTRACT_OFF
  const auto [a, b, c, d] = p.sys;
  const V x = p.x;
  const std::size_t n = p.n;
  const std::size_t parts = p.parts;
  const std::size_t width = p.width;
  // Row 0 opens every subsystem; equations from `last` on close one.
  const std::size_t head = std::min(width, n);
  const std::size_t last = n - std::min(parts, n);
  unsigned bad = 0;
  TDA_SIMD_LOOP
  for (std::size_t i = 0; i < head; ++i) {
    const T denom = b[i];
    const unsigned zero = denom == T{0} ? 1u : 0u;
    bad |= zero;
    const T pivot = zero != 0u ? T{1} : denom;
    c[i] = c[i] / pivot;
    d[i] = d[i] / pivot;
  }
  for (std::size_t lo = parts; lo < n; lo += parts) {
    const std::size_t hi = std::min(lo + width, n);
    const std::size_t mid = std::clamp(last, lo, hi);
    bad |= thomas_forward_rows<T, true>(a, b, c, d, parts, lo, mid);
    bad |= thomas_forward_rows<T, false>(a, b, c, d, parts, mid, hi);
  }
  if (bad != 0u) return false;

  // Back substitution, one row at a time walking toward row 0; every
  // equation that does not close its subsystem reads the row below it.
  for (std::size_t r = (n + parts - 1) / parts; r-- > 0;) {
    const std::size_t lo = r * parts;
    const std::size_t hi = std::min(lo + width, n);
    const std::size_t mid = std::clamp(last, lo, hi);
    TDA_SIMD_LOOP
    for (std::size_t i = lo; i < mid; ++i) x[i] = d[i] - c[i] * x[i + parts];
    TDA_SIMD_LOOP
    for (std::size_t i = mid; i < hi; ++i) x[i] = d[i];
  }
  return true;
}

/// thomas_interleaved_rows compiled for `isa`. Defined in isa.cpp for
/// float and double over unit (T*) and strided (StridedView) lanes.
template <typename T, typename V>
bool thomas_interleaved_rows_isa(Isa isa, const ThomasSweep<V>& p);

/// thomas_solve_interleaved on the given variant, which must be
/// supported.
template <typename T>
bool thomas_solve_interleaved_on(Isa isa, SystemView<T> sys,
                                 StridedView<T> x, std::size_t parts,
                                 std::size_t width) {
  const std::size_t n = sys.size();
  TDA_REQUIRE(x.size() == n, "solution view size mismatch");
  TDA_REQUIRE(parts >= 1, "need at least one subsystem");
  TDA_REQUIRE(width <= parts, "window wider than the subsystem count");
  const auto run = [isa](const auto& p) {
    if constexpr (kIsaDispatched<T>) {
      return thomas_interleaved_rows_isa<T>(isa, p);
    } else {
      return thomas_interleaved_rows<T>(p);
    }
  };
  if (sys.unit_stride() && x.stride() == 1) {
    return run(ThomasSweep<T*>{unit_lanes(sys), x.data(), n, parts, width});
  }
  return run(
      ThomasSweep<StridedView<T>>{view_lanes(sys), x, n, parts, width});
}

}  // namespace detail

/// Solves subsystems [0, width) of the `parts` interleaved subsystems of
/// sys (subsystem q is rows q, q+parts, q+2*parts, ...; any parts >= 1,
/// width <= parts, subsystems past n are empty) in one pass, walking the
/// rows in order so every inner loop runs across the subsystems; the
/// other subsystems are not touched. Each swept subsystem sees exactly
/// the operations of thomas_solve_inplace on it, so x is bitwise the
/// same. Overwrites c and d; x may alias d. Returns false if any swept
/// subsystem hit a zero pivot (x is then invalid).
template <typename T>
bool thomas_solve_interleaved(SystemView<T> sys, StridedView<T> x,
                              std::size_t parts, std::size_t width) {
  return detail::thomas_solve_interleaved_on(detail::host_isa(), sys, x,
                                             parts, width);
}

}  // namespace tda::tridiag
