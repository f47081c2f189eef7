#pragma once
// The O(n) scans behind the solve pipeline's numerical guards
// (solver/guards.hpp): the pre-solve screen and the residual check of a
// candidate solution. Each reads every coefficient of a contiguous
// system once, so they run on the host's widest ISA variant
// (tridiag/isa.hpp), like the kernels they bracket. Every variant gives
// the same verdict and the same residual bits: the loops only compare,
// take maxima and form each row's terms in a fixed order, with a*b+c
// never contracted.

#include <cmath>
#include <cstddef>
#include <limits>
#include <type_traits>

#include "common/check.hpp"
#include "common/simd_loop.hpp"
#include "tridiag/batch.hpp"
#include "tridiag/isa.hpp"

namespace tda::tridiag {

/// Pre-solve classification of one system.
enum class ScreenVerdict {
  Pass,           ///< safe for the pivot-free GPU chain
  NeedsPivoting,  ///< finite but with a zero diagonal entry
  NonFinite,      ///< contains NaN or Inf
};

namespace detail {

/// The screen's input: n >= 1 contiguous rows.
template <typename T>
struct ScreenScan {
  Lanes<const T*> sys;
  std::size_t n;
};

/// The residual scan's input: n >= 1 contiguous rows and their solution.
template <typename T>
struct ResidualScan {
  Lanes<const T*> sys;
  const T* x;
  std::size_t n;
};

/// True when every one of `count` contiguous elements is finite.
/// v - v is 0 exactly when v is finite, so the scan is a branch-free
/// compare-and-or (an unsigned accumulator: a bool one does not
/// vectorize).
template <typename T>
[[nodiscard]] bool all_finite(const T* p, std::size_t count) {
  unsigned bad = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const T v = p[i];
    bad |= v - v != T{0};
  }
  return bad == 0;
}

/// One pass per coefficient lane: NonFinite when any coefficient inside
/// the matrix (a[0] and c[n-1] lie outside it) is NaN/Inf, NeedsPivoting
/// on a zero diagonal entry, else Pass.
template <typename T>
[[nodiscard]] ScreenVerdict screen_rows(const ScreenScan<T>& p) {
  const std::size_t n = p.n;
  const T* b = p.sys.b;
  unsigned bad = 0, zero = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const T v = b[i];
    bad |= v - v != T{0};
    zero |= v == T{0};
  }
  if (bad != 0 || !all_finite(p.sys.a + 1, n - 1) ||
      !all_finite(p.sys.c, n - 1) || !all_finite(p.sys.d, n)) {
    return ScreenVerdict::NonFinite;
  }
  return zero != 0 ? ScreenVerdict::NeedsPivoting : ScreenVerdict::Pass;
}

/// max_i |d_i - (A x)_i| / (||A||_inf * ||x||_inf + ||d||_inf), or +inf
/// when x holds a non-finite entry. Interior rows run in blocks of
/// kLanes independent accumulators, so the loop vectorizes without
/// reassociating anything: every row's terms are formed in the same
/// order as a scalar loop would, and a maximum does not depend on the
/// order it is taken in.
template <typename T>
[[nodiscard]] double residual_rows(const ResidualScan<T>& p) {
  TDA_FP_CONTRACT_OFF
  constexpr std::size_t kLanes = 8;
  const std::size_t n = p.n;
  const auto [A, B, C, D] = p.sys;
  const T* X = p.x;
  // Per lane: max |d - Ax|, max row sum, max |x|, max |d|, and the sum of
  // x - x, which stays 0 exactly while every x is finite.
  double res[kLanes] = {}, row[kLanes] = {}, xmax[kLanes] = {},
         dmax[kLanes] = {}, nonfinite[kLanes] = {};
  const auto keep_max = [](double& acc, double v) { acc = acc < v ? v : acc; };
  // Row i with its neighbours passed in, so the boundary rows can pass 0
  // for the term outside the matrix.
  const auto add_row = [&](std::size_t lane, double ai, double bi, double ci,
                           double di, double xl, double xi, double xr) {
    TDA_FP_CONTRACT_OFF
    double ax = bi * xi;
    ax += ai * xl;
    ax += ci * xr;
    keep_max(res[lane], std::abs(di - ax));
    keep_max(row[lane], std::abs(ai) + std::abs(bi) + std::abs(ci));
    keep_max(xmax[lane], std::abs(xi));
    keep_max(dmax[lane], std::abs(di));
    nonfinite[lane] += xi - xi;
  };
  const auto at = [](const T* q, std::size_t i) {
    return static_cast<double>(q[i]);
  };
  const bool two = n > 1;
  add_row(0, 0.0, at(B, 0), two ? at(C, 0) : 0.0, at(D, 0), 0.0, at(X, 0),
          two ? at(X, 1) : 0.0);
  std::size_t i = 1;
  for (; i + kLanes < n; i += kLanes) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      const std::size_t k = i + l;
      add_row(l, at(A, k), at(B, k), at(C, k), at(D, k), at(X, k - 1),
              at(X, k), at(X, k + 1));
    }
  }
  for (; i + 1 < n; ++i) {
    add_row(0, at(A, i), at(B, i), at(C, i), at(D, i), at(X, i - 1),
            at(X, i), at(X, i + 1));
  }
  if (two) {
    add_row(0, at(A, n - 1), at(B, n - 1), 0.0, at(D, n - 1), at(X, n - 2),
            at(X, n - 1), 0.0);
  }
  double max_r = 0.0, norm_a = 0.0, norm_x = 0.0, norm_d = 0.0;
  for (std::size_t l = 0; l < kLanes; ++l) {
    if (nonfinite[l] != 0.0) return std::numeric_limits<double>::infinity();
    keep_max(max_r, res[l]);
    keep_max(norm_a, row[l]);
    keep_max(norm_x, xmax[l]);
    keep_max(norm_d, dmax[l]);
  }
  const double scale = norm_a * norm_x + norm_d;
  if (scale == 0.0) return max_r;
  return max_r / scale;
}

/// screen_rows / residual_rows compiled for `isa`, which must be
/// supported. Defined in isa.cpp for float and double.
template <typename T>
ScreenVerdict screen_rows_isa(Isa isa, const ScreenScan<T>& p);
template <typename T>
double residual_rows_isa(Isa isa, const ResidualScan<T>& p);

/// screen_verdict on the given variant, which must be supported.
template <typename T>
[[nodiscard]] ScreenVerdict screen_verdict_on(Isa isa,
                                              const SystemView<const T>& sys) {
  TDA_REQUIRE(sys.unit_stride(), "screen: system view must be contiguous");
  if (sys.size() == 0) return ScreenVerdict::Pass;
  const ScreenScan<T> p{unit_lanes(sys), sys.size()};
  if constexpr (kIsaDispatched<T>) {
    return screen_rows_isa(isa, p);
  } else {
    return screen_rows(p);
  }
}

/// relative_residual on the given variant, which must be supported.
template <typename T>
[[nodiscard]] double relative_residual_on(Isa isa,
                                          const SystemView<const T>& sys,
                                          const StridedView<const T>& x) {
  TDA_REQUIRE(x.size() == sys.size(), "residual: solution size mismatch");
  TDA_REQUIRE(sys.unit_stride() && x.stride() == 1,
              "residual: views must be contiguous");
  if (sys.size() == 0) return 0.0;
  const ResidualScan<T> p{unit_lanes(sys), x.data(), sys.size()};
  if constexpr (kIsaDispatched<T>) {
    return residual_rows_isa(isa, p);
  } else {
    return residual_rows(p);
  }
}

}  // namespace detail

/// The pipeline's screen of one contiguous system, on the host's widest
/// ISA variant: NonFinite when any coefficient inside the matrix (a[0]
/// and c[n-1] lie outside it) is NaN/Inf, NeedsPivoting on a zero
/// diagonal entry, else Pass. T may be const.
template <typename T>
[[nodiscard]] ScreenVerdict screen_verdict(const SystemView<T>& sys) {
  return detail::screen_verdict_on<std::remove_const_t<T>>(detail::host_isa(),
                                                           sys.as_const());
}

/// Relative infinity-norm residual of a candidate solution, on the
/// host's widest ISA variant:
/// max_i |d_i - (A x)_i| / (||A||_inf * ||x||_inf + ||d||_inf).
/// Returns +inf when x contains non-finite entries. Both views must be
/// contiguous. T may be const.
template <typename T>
[[nodiscard]] double relative_residual(const SystemView<T>& sys,
                                       const StridedView<T>& x) {
  return detail::relative_residual_on<std::remove_const_t<T>>(
      detail::host_isa(), sys.as_const(), x.as_const());
}

}  // namespace tda::tridiag
