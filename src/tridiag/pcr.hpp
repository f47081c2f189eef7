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
// The steps operate on SystemView (strided), so the same code serves the
// CPU reference and the shared-memory stage. A step splits its equations
// by neighbour set into branch-free loops; a unit-stride view's side of
// those loops runs on raw pointers and vectorizes, with the same
// per-equation arithmetic as the strided path, compiled per ISA variant
// (tridiag/isa.hpp). The splitting step (pcr_split_step_range) is the
// shift-1 step over a contiguous system that also moves each equation
// into its child, even half first: the host split kernels keep every
// subsystem contiguous with it (kernels/device_batch.hpp).
//
// In a diagonally dominant system each split squares the coupling ratio,
// so after a few splits the couplings of float systems fall into the
// subnormal range, and every x86 vector multiply that yields a subnormal
// takes a microcode assist. The splitting step therefore forms its four
// coupling products of float in double and narrows them once (mul),
// which gives the bits of the float multiply without the assists.
// pcr_step keeps the plain multiply. It serves stage 3, the
// shared-memory kernels and the CPU reference, whose steps run in L1,
// are compute-bound and meet few subnormals, so the widening would only
// cost there (docs/PERFORMANCE.md).

#include <algorithm>
#include <cstddef>
#include <type_traits>
#include <vector>

#include "common/check.hpp"
#include "common/simd_loop.hpp"
#include "tridiag/batch.hpp"
#include "tridiag/isa.hpp"

namespace tda::tridiag {

namespace detail {

/// New coefficients of one equation after a PCR step.
template <typename T>
struct PcrEquation {
  T a, b, c, d;
};

/// x*y rounded to T. With Widen and T = float the product is formed in
/// double, where it is exact (24 + 24 <= 53 significand bits, and every
/// float product lies inside double's normal range), and narrowed once.
/// That single rounding is IEEE float multiplication, gradual underflow
/// included, so the bits are those of x*y. But where x*y is subnormal
/// an x86 float multiply takes a microcode assist, and the narrowing
/// (vcvtpd2ps on AVX-512) takes none. The barrier keeps the compiler
/// from folding the pair back into a float multiply; without it the
/// bits are the same and only the speed is lost.
template <bool Widen, typename T>
inline T mul(T x, T y) {
  TDA_FP_CONTRACT_OFF
  if constexpr (Widen && std::is_same_v<T, float>) {
    return static_cast<float>(
        TDA_FOLD_BARRIER(static_cast<double>(x) * static_cast<double>(y)));
  } else {
    return x * y;
  }
}

/// Equation i of a PCR step with shift s: HasLeft says i-s exists,
/// HasRight says i+s exists, Widen forms the coupling products through
/// mul's double product (the splitting step). Every loop below evaluates
/// an equation through this one body, in the same operation order, so
/// the result is bitwise independent of which loop an equation lands in
/// and of Widen.
template <typename T, bool HasLeft, bool HasRight, bool Widen, typename In>
inline PcrEquation<T> pcr_equation(const Lanes<In>& src, std::size_t s,
                                   std::size_t i) {
  TDA_FP_CONTRACT_OFF
  const auto& [a, b, c, d] = src;
  T nb = b[i];
  T na{0}, nc{0};
  T nd = d[i];
  if constexpr (HasLeft) {
    const std::size_t im = i - s;
    const T alpha = -a[i] / b[im];
    nb += mul<Widen, T>(alpha, c[im]);
    na = mul<Widen, T>(alpha, a[im]);
    nd += alpha * d[im];
  }
  if constexpr (HasRight) {
    const std::size_t ip = i + s;
    const T gamma = -c[i] / b[ip];
    nb += mul<Widen, T>(gamma, a[ip]);
    nc = mul<Widen, T>(gamma, c[ip]);
    nd += gamma * d[ip];
  }
  return {na, nb, nc, nd};
}

/// Stores equation e into row r of dst.
template <typename T, typename Out>
inline void store_equation(const Lanes<Out>& dst, std::size_t r,
                           const PcrEquation<T>& e) {
  dst.a[r] = e.a;
  dst.b[r] = e.b;
  dst.c[r] = e.c;
  dst.d[r] = e.d;
}

/// Equations [i0, i1) of one PCR step, all of which have the same
/// neighbour set. The body has no branches, so with raw unit-stride
/// pointers for In/Out the loop vectorizes; with StridedViews it serves
/// any stride.
template <typename T, bool HasLeft, bool HasRight, typename In, typename Out>
void pcr_equations(Lanes<In> src, Lanes<Out> dst, std::size_t s,
                   std::size_t i0, std::size_t i1) {
  TDA_FP_CONTRACT_OFF
  TDA_SIMD_LOOP
  for (std::size_t i = i0; i < i1; ++i) {
    store_equation(dst, i,
                   pcr_equation<T, HasLeft, HasRight, false>(src, s, i));
  }
}

/// Equations [begin, end) of one PCR step with the given shift over an
/// n-equation system: reads src, writes dst.
template <typename In, typename Out>
struct PcrStep {
  Lanes<In> src;
  Lanes<Out> dst;
  std::size_t n, shift, begin, end;
};

/// Splits a PCR step by neighbour set: the left edge (i < s: no i-s),
/// the middle (both neighbours when n > 2s, neither when n < 2s) and the
/// right edge (i >= n-s: no i+s).
template <typename T, typename In, typename Out>
void pcr_step_regions(const PcrStep<In, Out>& p) {
  const std::size_t s = p.shift;
  const std::size_t r = p.n > s ? p.n - s : 0;  // first equation without i+s
  const auto clip = [&](std::size_t i) {
    return std::clamp(i, p.begin, p.end);
  };
  const std::size_t lo = clip(std::min(s, r));
  const std::size_t hi = clip(std::max(s, r));
  pcr_equations<T, false, true>(p.src, p.dst, s, p.begin, lo);
  if (s < r) {
    pcr_equations<T, true, true>(p.src, p.dst, s, lo, hi);
  } else {
    pcr_equations<T, false, false>(p.src, p.dst, s, lo, hi);
  }
  pcr_equations<T, true, false>(p.src, p.dst, s, hi, p.end);
}

/// Equations [begin, end) of the splitting step over a contiguous
/// n-equation system (pcr_split_step_range).
template <typename T>
struct PcrSplit {
  Lanes<const T*> src;
  Lanes<T*> dst;
  std::size_t n, begin, end;
};

/// One equation of a splitting step, stored in its child's row.
template <typename T, bool HasLeft, bool HasRight>
void pcr_split_equation(const PcrSplit<T>& p, std::size_t i) {
  const std::size_t row = i / 2 + (i % 2) * ((p.n + 1) / 2);
  store_equation(p.dst, row,
                 pcr_equation<T, HasLeft, HasRight, true>(p.src, 1, i));
}

/// The interior pairs (2j, 2j+1), j in [j0, j1), of a splitting step:
/// both equations have both neighbours, and they land in row j of the
/// even and of the odd child.
template <typename T>
void pcr_split_pairs(const PcrSplit<T>& p, std::size_t j0, std::size_t j1) {
  TDA_FP_CONTRACT_OFF
  const Lanes<T*> even = p.dst;
  const std::size_t half = (p.n + 1) / 2;
  const Lanes<T*> odd{even.a + half, even.b + half, even.c + half,
                      even.d + half};
  TDA_SIMD_LOOP
  for (std::size_t j = j0; j < j1; ++j) {
    store_equation(even, j,
                   pcr_equation<T, true, true, true>(p.src, 1, 2 * j));
    store_equation(odd, j,
                   pcr_equation<T, true, true, true>(p.src, 1, 2 * j + 1));
  }
}

/// pcr_split_step_range's loops: row 0 (no left neighbour), the
/// interior in pairs with single equations at odd edges, row n-1 (no
/// right neighbour).
template <typename T>
void pcr_split_regions(const PcrSplit<T>& p) {
  std::size_t i = p.begin;
  if (i >= p.end) return;
  if (i == 0) {
    if (p.n == 1) {
      pcr_split_equation<T, false, false>(p, 0);
    } else {
      pcr_split_equation<T, false, true>(p, 0);
    }
    ++i;
  }
  const std::size_t inner_end = std::min(p.end, p.n - 1);
  if (i < inner_end && i % 2 == 1) pcr_split_equation<T, true, true>(p, i++);
  if (i < inner_end) {
    const std::size_t pairs = (inner_end - i) / 2;
    pcr_split_pairs<T>(p, i / 2, i / 2 + pairs);
    i += 2 * pairs;
  }
  if (i < inner_end) pcr_split_equation<T, true, true>(p, i++);
  if (i < p.end) pcr_split_equation<T, true, false>(p, i);
}

/// pcr_split_regions compiled for `isa`. Defined in isa.cpp for float
/// and double.
template <typename T>
void pcr_split_regions_isa(Isa isa, const PcrSplit<T>& p);

/// pcr_split_step_range on the given variant, which must be supported.
template <typename T>
void pcr_split_step_range_on(Isa isa, const SystemView<const T>& src,
                             const SystemView<T>& dst, std::size_t begin,
                             std::size_t end) {
  const std::size_t n = src.size();
  TDA_REQUIRE(dst.size() == n, "pcr_split_step: size mismatch");
  TDA_REQUIRE(begin <= end && end <= n, "pcr_split_step: bad range");
  TDA_REQUIRE(src.unit_stride() && dst.unit_stride(),
              "pcr_split_step: views must be contiguous");
  const PcrSplit<T> p{unit_lanes(src), unit_lanes(dst), n, begin, end};
  if constexpr (kIsaDispatched<T>) {
    pcr_split_regions_isa<T>(isa, p);
  } else {
    pcr_split_regions<T>(p);
  }
}

/// pcr_step_regions compiled for `isa`. Defined in isa.cpp for float and
/// double over every pairing of unit (const T*, T*) and strided
/// (StridedView) lanes.
template <typename T, typename In, typename Out>
void pcr_step_regions_isa(Isa isa, const PcrStep<In, Out>& p);

/// pcr_step_range on the given variant, which must be supported. Each
/// side runs on raw pointers when its lanes are contiguous, so a step
/// between a strided subsystem and contiguous scratch keeps one
/// unit-stride side.
template <typename T>
void pcr_step_range_on(Isa isa, const SystemView<const T>& src,
                       const SystemView<T>& dst, std::size_t shift,
                       std::size_t begin, std::size_t end) {
  const std::size_t n = src.size();
  TDA_REQUIRE(dst.size() == n, "pcr_step: size mismatch");
  TDA_REQUIRE(begin <= end && end <= n, "pcr_step: bad range");
  TDA_REQUIRE(shift >= 1, "pcr_step: shift must be >= 1");
  const auto run = [&](auto in, auto out) {
    using Step = PcrStep<decltype(in.a), decltype(out.a)>;
    const Step p{in, out, n, shift, begin, end};
    if constexpr (kIsaDispatched<T>) {
      pcr_step_regions_isa<T>(isa, p);
    } else {
      pcr_step_regions<T>(p);
    }
  };
  const bool in_unit = src.unit_stride();
  const bool out_unit = dst.unit_stride();
  if (in_unit && out_unit) {
    run(unit_lanes(src), unit_lanes(dst));
  } else if (in_unit) {
    run(unit_lanes(src), view_lanes(dst));
  } else if (out_unit) {
    run(view_lanes(src), unit_lanes(dst));
  } else {
    run(view_lanes(src), view_lanes(dst));
  }
}

}  // namespace detail

/// PCR step restricted to equations [begin, end) of the view — the work a
/// single cooperating block contributes to a grid-wide split (Stage 1).
/// Reads src, writes dst; src and dst must not alias and must have the
/// same size. Boundary neighbours (i-s < 0, i+s >= n) are treated as
/// absent, which makes the step valid for any n, power of two or not.
/// Neighbour reads may fall outside [begin, end); they read `src`, which
/// holds pre-step values, so chunked execution equals a full pcr_step.
/// Runs on the host's widest ISA variant.
template <typename T>
void pcr_step_range(const SystemView<const T>& src, const SystemView<T>& dst,
                    std::size_t shift, std::size_t begin, std::size_t end) {
  detail::pcr_step_range_on(detail::host_isa(), src, dst, shift, begin, end);
}

/// The splitting step: a shift-1 PCR step over equations [begin, end)
/// of a contiguous system that writes each equation into the child
/// subsystem it now belongs to, even equation i to row i/2 and odd i to
/// row ⌈n/2⌉ + i/2 of dst. So dst holds the even child in rows
/// [0, ⌈n/2⌉) and the odd child after it, each contiguous, with every
/// equation's arithmetic exactly that of pcr_step. Neighbour reads may
/// fall outside [begin, end), as in pcr_step_range.
template <typename T>
void pcr_split_step_range(const SystemView<const T>& src,
                          const SystemView<T>& dst, std::size_t begin,
                          std::size_t end) {
  detail::pcr_split_step_range_on(detail::host_isa(), src, dst, begin, end);
}

/// The splitting step over the whole system.
template <typename T>
void pcr_split_step(const SystemView<const T>& src, const SystemView<T>& dst) {
  pcr_split_step_range(src, dst, 0, src.size());
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
