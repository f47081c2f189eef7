#pragma once
// Thomas algorithm (tridiagonal LU without pivoting).
//
// O(n) work, strictly serial — the paper's Stage 4 runs one instance per
// GPU thread on an interleaved shared-memory subsystem, which is why the
// implementation below works on StridedView rather than raw arrays.
//
// thomas_solve_interleaved runs all of a block's interleaved subsystems
// as one row-by-row sweep whose inner loops are unit-stride across the
// subsystems (one vector lane per GPU thread), with each subsystem's
// arithmetic in thomas_solve_inplace's exact order, on the host's widest
// ISA variant (tridiag/isa.hpp).
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

/// The interleaved sweep of one n-row system of `parts` subsystems over
/// array-like lanes, writing the unknowns to x.
template <typename V>
struct ThomasSweep {
  Lanes<V> sys;
  V x;
  std::size_t n, parts;
};

/// The sweep of thomas_solve_interleaved.
template <typename T, typename V>
bool thomas_interleaved_rows(const ThomasSweep<V>& p) {
  TDA_FP_CONTRACT_OFF
  const auto [a, b, c, d] = p.sys;
  const V x = p.x;
  const std::size_t n = p.n;
  const std::size_t parts = p.parts;
  // Rows [0, head) open a subsystem each; rows [last, n) close one.
  const std::size_t head = std::min(parts, n);
  const std::size_t last = n - head;
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
  for (std::size_t lo = head; lo < n; lo += parts) {
    const std::size_t hi = std::min(lo + parts, n);
    const std::size_t mid = std::clamp(last, lo, hi);
    bad |= thomas_forward_rows<T, true>(a, b, c, d, parts, lo, mid);
    bad |= thomas_forward_rows<T, false>(a, b, c, d, parts, mid, hi);
  }
  if (bad != 0u) return false;

  // Back substitution, one block of `parts` rows at a time walking
  // toward row 0; every row reads the block below it.
  TDA_SIMD_LOOP
  for (std::size_t i = last; i < n; ++i) x[i] = d[i];
  for (std::size_t hi = last; hi > 0;) {
    const std::size_t lo = hi > parts ? hi - parts : 0;
    TDA_SIMD_LOOP
    for (std::size_t i = lo; i < hi; ++i) x[i] = d[i] - c[i] * x[i + parts];
    hi = lo;
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
                                 StridedView<T> x, std::size_t parts) {
  const std::size_t n = sys.size();
  TDA_REQUIRE(x.size() == n, "solution view size mismatch");
  TDA_REQUIRE(parts >= 1, "need at least one subsystem");
  const auto run = [isa](const auto& p) {
    if constexpr (kIsaDispatched<T>) {
      return thomas_interleaved_rows_isa<T>(isa, p);
    } else {
      return thomas_interleaved_rows<T>(p);
    }
  };
  if (sys.unit_stride() && x.stride() == 1) {
    return run(ThomasSweep<T*>{unit_lanes(sys), x.data(), n, parts});
  }
  return run(ThomasSweep<StridedView<T>>{view_lanes(sys), x, n, parts});
}

}  // namespace detail

/// Solves the `parts` interleaved subsystems of sys (subsystem q is rows
/// q, q+parts, q+2*parts, ...; any parts >= 1, subsystems past n are
/// empty) in one pass, walking the rows in order so every inner loop
/// runs across the subsystems. Each subsystem sees exactly the
/// operations of thomas_solve_inplace on sys.subsystem(log2 parts, q),
/// so x is bitwise the same. Overwrites c and d; x may alias d. Returns
/// false if any subsystem hit a zero pivot (x is then invalid).
template <typename T>
bool thomas_solve_interleaved(SystemView<T> sys, StridedView<T> x,
                              std::size_t parts) {
  return detail::thomas_solve_interleaved_on(detail::host_isa(), sys, x,
                                             parts);
}

/// Non-destructive Thomas solve: copies coefficients into caller-provided
/// scratch (cs, ds; each of size n) first.
template <typename T>
bool thomas_solve(const SystemView<const T>& sys, StridedView<T> x,
                  StridedView<T> cs, StridedView<T> ds) {
  const std::size_t n = sys.size();
  TDA_REQUIRE(cs.size() == n && ds.size() == n, "scratch size mismatch");
  if (n == 0) return true;

  T denom = sys.b[0];
  if (denom == T{0}) return false;
  cs[0] = sys.c[0] / denom;
  ds[0] = sys.d[0] / denom;
  for (std::size_t i = 1; i < n; ++i) {
    denom = sys.b[i] - sys.a[i] * cs[i - 1];
    if (denom == T{0}) return false;
    const T inv = T{1} / denom;
    cs[i] = (i + 1 < n) ? sys.c[i] * inv : T{0};
    ds[i] = (sys.d[i] - sys.a[i] * ds[i - 1]) * inv;
  }
  x[n - 1] = ds[n - 1];
  for (std::size_t i = n - 1; i-- > 0;) x[i] = ds[i] - cs[i] * x[i + 1];
  return true;
}

}  // namespace tda::tridiag
