#pragma once
// Parallel cyclic reduction (PCR).
//
// One PCR step with shift s rewrites every equation i by eliminating its
// couplings to i-s and i+s using those equations, leaving i coupled to
// i-2s and i+2s instead. After one shift-1 step the even and odd equations
// form two independent interleaved subsystems; this is the splitting
// primitive behind every stage of the multi-stage solver. Running steps
// with shifts 1, 2, 4, ... ⌈log2 n⌉ times decouples every unknown:
// x[i] = d[i] / b[i].
//
// All functions operate on SystemView (strided), so the same code serves
// the CPU reference, the global-memory splitting kernels and the
// shared-memory stage. A step splits its equations by neighbour set into
// branch-free loops; when every view is unit-stride those loops run on
// raw pointers and vectorize, with the same per-equation arithmetic as
// the strided path.

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/check.hpp"
#include "common/simd_loop.hpp"
#include "tridiag/batch.hpp"

namespace tda::tridiag {

namespace detail {

/// Equations [i0, i1) of one PCR step, all of which have the same
/// neighbour set: HasLeft says i-s exists, HasRight says i+s exists.
/// The body has no branches, so with raw unit-stride pointers for In/Out
/// the loop vectorizes; with StridedViews it serves any stride. Every
/// instantiation evaluates one equation in the same operation order,
/// so the result is bitwise independent of which loop an equation
/// lands in.
template <typename T, bool HasLeft, bool HasRight, typename In, typename Out>
void pcr_equations(In a, In b, In c, In d, Out oa, Out ob, Out oc, Out od,
                   std::size_t s, std::size_t i0, std::size_t i1) {
  TDA_SIMD_LOOP
  for (std::size_t i = i0; i < i1; ++i) {
    T nb = b[i];
    T na{0}, nc{0};
    T nd = d[i];
    if constexpr (HasLeft) {
      const std::size_t im = i - s;
      const T alpha = -a[i] / b[im];
      nb += alpha * c[im];
      na = alpha * a[im];
      nd += alpha * d[im];
    }
    if constexpr (HasRight) {
      const std::size_t ip = i + s;
      const T gamma = -c[i] / b[ip];
      nb += gamma * a[ip];
      nc = gamma * c[ip];
      nd += gamma * d[ip];
    }
    oa[i] = na;
    ob[i] = nb;
    oc[i] = nc;
    od[i] = nd;
  }
}

/// Splits [begin, end) of a PCR step over n equations by neighbour set:
/// the left edge (i < s: no i-s), the middle (both neighbours when
/// n > 2s, neither when n < 2s) and the right edge (i >= n-s: no i+s).
template <typename T, typename In, typename Out>
void pcr_step_regions(In a, In b, In c, In d, Out oa, Out ob, Out oc,
                      Out od, std::size_t n, std::size_t s,
                      std::size_t begin, std::size_t end) {
  const std::size_t r = n > s ? n - s : 0;  // first equation without i+s
  const auto clip = [&](std::size_t i) { return std::clamp(i, begin, end); };
  const std::size_t lo = clip(std::min(s, r));
  const std::size_t hi = clip(std::max(s, r));
  pcr_equations<T, false, true>(a, b, c, d, oa, ob, oc, od, s, begin, lo);
  if (s < r) {
    pcr_equations<T, true, true>(a, b, c, d, oa, ob, oc, od, s, lo, hi);
  } else {
    pcr_equations<T, false, false>(a, b, c, d, oa, ob, oc, od, s, lo, hi);
  }
  pcr_equations<T, true, false>(a, b, c, d, oa, ob, oc, od, s, hi, end);
}

}  // namespace detail

/// PCR step restricted to equations [begin, end) of the view — the work a
/// single cooperating block contributes to a grid-wide split (Stage 1).
/// Reads src, writes dst; src and dst must not alias and must have the
/// same size. Boundary neighbours (i-s < 0, i+s >= n) are treated as
/// absent, which makes the step valid for any n, power of two or not.
/// Neighbour reads may fall outside [begin, end); they read `src`, which
/// holds pre-step values, so chunked execution equals a full pcr_step.
template <typename T>
void pcr_step_range(const SystemView<const T>& src, const SystemView<T>& dst,
                    std::size_t shift, std::size_t begin, std::size_t end) {
  const std::size_t n = src.size();
  TDA_REQUIRE(dst.size() == n, "pcr_step: size mismatch");
  TDA_REQUIRE(begin <= end && end <= n, "pcr_step: bad range");
  TDA_REQUIRE(shift >= 1, "pcr_step: shift must be >= 1");
  const bool unit = src.a.stride() == 1 && src.b.stride() == 1 &&
                    src.c.stride() == 1 && src.d.stride() == 1 &&
                    dst.a.stride() == 1 && dst.b.stride() == 1 &&
                    dst.c.stride() == 1 && dst.d.stride() == 1;
  if (unit) {
    detail::pcr_step_regions<T>(src.a.data(), src.b.data(), src.c.data(),
                                src.d.data(), dst.a.data(), dst.b.data(),
                                dst.c.data(), dst.d.data(), n, shift, begin,
                                end);
  } else {
    detail::pcr_step_regions<T>(src.a, src.b, src.c, src.d, dst.a, dst.b,
                                dst.c, dst.d, n, shift, begin, end);
  }
}

/// One PCR step with the given shift (in view-local index space) over
/// the whole view.
template <typename T>
void pcr_step(const SystemView<const T>& src, const SystemView<T>& dst,
              std::size_t shift) {
  pcr_step_range(src, dst, shift, 0, src.size());
}

/// Number of PCR steps with doubling shifts needed to fully decouple a
/// system of size n (⌈log2 n⌉; 0 for n <= 1).
inline std::size_t pcr_steps_to_decouple(std::size_t n) {
  std::size_t steps = 0;
  std::size_t shift = 1;
  while (shift < n) {
    shift *= 2;
    ++steps;
  }
  return steps;
}

/// Flop count of one PCR step over n equations (for cost accounting).
inline std::size_t pcr_step_flops(std::size_t n) { return 14 * n; }

/// Full PCR solve of a single system using caller-visible scratch of the
/// same shape. Overwrites both sys and scratch; writes unknowns to x.
/// This is the CPU reference for the pure-PCR GPU kernel.
template <typename T>
void pcr_solve(SystemView<T> sys, SystemView<T> scratch, StridedView<T> x) {
  const std::size_t n = sys.size();
  TDA_REQUIRE(scratch.size() == n, "pcr_solve: scratch size mismatch");
  TDA_REQUIRE(x.size() == n, "pcr_solve: solution size mismatch");

  SystemView<T>* src = &sys;
  SystemView<T>* dst = &scratch;
  for (std::size_t shift = 1; shift < n; shift *= 2) {
    pcr_step(src->as_const(), *dst, shift);
    std::swap(src, dst);
  }
  for (std::size_t i = 0; i < n; ++i) x[i] = src->d[i] / src->b[i];
}

}  // namespace tda::tridiag
