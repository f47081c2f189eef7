#pragma once
// Per-system numerical guards of the solve pipeline (docs/ROBUSTNESS.md).
//
// The paper's PCR/Thomas chain is pivot-free: it is fast and exact on
// diagonally dominant systems and silently wrong (or worse, throwing from
// a zero pivot mid-batch) outside that envelope. These are the checks
// solver::Pipeline (solver/pipeline.hpp) runs around it, one system at a
// time:
//
//   * screen_verdict — finiteness and zero-diagonal classification
//     before the GPU runs;
//   * relative_residual — verification of a candidate solution;
//   * pivoting_fallback — the pivoting CPU solve (cpu/gtsv.hpp) for
//     every system the chain cannot be trusted with;
//
// plus the typed per-system outcome, SystemStatus, and its one tally.

#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/strided_view.hpp"
#include "cpu/gtsv.hpp"
#include "tridiag/batch.hpp"

namespace tda::solver {

/// Per-system outcome of a guarded solve.
enum class SystemStatus {
  Ok,            ///< GPU solution accepted
  FallbackUsed,  ///< solved correctly, but by the pivoting CPU fallback
  Singular,      ///< numerically singular; no finite solution produced
  NonFinite,     ///< input contained NaN/Inf coefficients
};

/// How many systems ended in each status.
struct StatusCounts {
  std::size_t ok = 0;
  std::size_t fallback_used = 0;
  std::size_t singular = 0;
  std::size_t nonfinite = 0;

  /// Systems with a correct solution (Ok or FallbackUsed).
  [[nodiscard]] std::size_t solved() const { return ok + fallback_used; }
};

[[nodiscard]] inline StatusCounts tally(std::span<const SystemStatus> st) {
  StatusCounts c;
  for (const SystemStatus s : st) {
    switch (s) {
      case SystemStatus::Ok: ++c.ok; break;
      case SystemStatus::FallbackUsed: ++c.fallback_used; break;
      case SystemStatus::Singular: ++c.singular; break;
      case SystemStatus::NonFinite: ++c.nonfinite; break;
    }
  }
  return c;
}

/// The residual tolerance for element type T. Generous enough for
/// legitimate weakly-dominant systems, tight enough that a PCR chain
/// that lost the solution cannot pass.
template <typename T>
[[nodiscard]] constexpr double auto_residual_tol() {
  return 1e4 * static_cast<double>(std::numeric_limits<T>::epsilon());
}

/// Pre-solve classification of one system.
enum class ScreenVerdict {
  Pass,           ///< safe for the pivot-free GPU chain
  NeedsPivoting,  ///< finite but with a zero diagonal entry
  NonFinite,      ///< contains NaN or Inf
};

namespace detail {
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
}  // namespace detail

/// The pipeline's screen, one O(n) pass per coefficient lane: NonFinite
/// when any coefficient inside the matrix (a[0] and c[n-1] lie outside
/// it) is NaN/Inf, NeedsPivoting on a zero diagonal entry, else Pass.
/// `sys` must be contiguous, as every batch system is.
template <typename T>
[[nodiscard]] ScreenVerdict screen_verdict(const tridiag::SystemView<T>& sys) {
  TDA_REQUIRE(sys.stride() == 1, "screen: system view must be contiguous");
  const std::size_t n = sys.size();
  if (n == 0) return ScreenVerdict::Pass;
  const T* b = sys.b.data();
  unsigned bad = 0, zero = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const T v = b[i];
    bad |= v - v != T{0};
    zero |= v == T{0};
  }
  if (bad != 0 || !detail::all_finite(sys.a.data() + 1, n - 1) ||
      !detail::all_finite(sys.c.data(), n - 1) ||
      !detail::all_finite(sys.d.data(), n)) {
    return ScreenVerdict::NonFinite;
  }
  return zero != 0 ? ScreenVerdict::NeedsPivoting : ScreenVerdict::Pass;
}

namespace detail {
/// relative_residual's scan over n >= 1 contiguous rows. Interior rows
/// run in blocks of kLanes independent accumulators, so the loop
/// vectorizes without reassociating anything: every row's terms are
/// formed in the same order as a scalar loop would, and a maximum does
/// not depend on the order it is taken in.
template <typename T>
[[nodiscard]] double residual_scan(const tridiag::SystemView<T>& sys,
                                   const StridedView<T>& x) {
  constexpr std::size_t kLanes = 8;
  const std::size_t n = sys.size();
  const T *A = sys.a.data(), *B = sys.b.data(), *C = sys.c.data(),
          *D = sys.d.data(), *X = x.data();
  // Per lane: max |d - Ax|, max row sum, max |x|, max |d|, and the sum of
  // x - x, which stays 0 exactly while every x is finite.
  double res[kLanes] = {}, row[kLanes] = {}, xmax[kLanes] = {},
         dmax[kLanes] = {}, nonfinite[kLanes] = {};
  const auto keep_max = [](double& acc, double v) { acc = acc < v ? v : acc; };
  // Row i with its neighbours passed in, so the boundary rows can pass 0
  // for the term outside the matrix.
  const auto add_row = [&](std::size_t lane, double ai, double bi, double ci,
                           double di, double xl, double xi, double xr) {
    double ax = bi * xi;
    ax += ai * xl;
    ax += ci * xr;
    keep_max(res[lane], std::abs(di - ax));
    keep_max(row[lane], std::abs(ai) + std::abs(bi) + std::abs(ci));
    keep_max(xmax[lane], std::abs(xi));
    keep_max(dmax[lane], std::abs(di));
    nonfinite[lane] += xi - xi;
  };
  const auto at = [](const T* p, std::size_t i) {
    return static_cast<double>(p[i]);
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
}  // namespace detail

/// Relative infinity-norm residual of a candidate solution:
/// max_i |d_i - (A x)_i| / (||A||_inf * ||x||_inf + ||d||_inf).
/// Returns +inf when x contains non-finite entries. Both views must be
/// contiguous, as every batch system is.
template <typename T>
[[nodiscard]] double relative_residual(const tridiag::SystemView<T>& sys,
                                       const StridedView<T>& x) {
  TDA_REQUIRE(x.size() == sys.size(), "residual: solution size mismatch");
  TDA_REQUIRE(sys.stride() == 1 && x.stride() == 1,
              "residual: views must be contiguous");
  if (sys.size() == 0) return 0.0;
  return detail::residual_scan(sys, x);
}

/// Solves one system with the pivoting CPU solver (cpu/gtsv.hpp). The
/// inputs are copied (gtsv consumes its coefficients); the solution is
/// written to x only on success. Never returns Ok: a solution produced
/// here is by definition FallbackUsed.
template <typename T>
SystemStatus pivoting_fallback(const tridiag::SystemView<T>& sys,
                               StridedView<T> x) {
  const std::size_t n = sys.size();
  TDA_REQUIRE(x.size() == n, "fallback: solution size mismatch");
  std::vector<T> a(n), b(n), c(n), d(n), xs(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = sys.a[i];
    b[i] = sys.b[i];
    c[i] = sys.c[i];
    d[i] = sys.d[i];
    if (!std::isfinite(static_cast<double>(a[i])) ||
        !std::isfinite(static_cast<double>(b[i])) ||
        !std::isfinite(static_cast<double>(c[i])) ||
        !std::isfinite(static_cast<double>(d[i]))) {
      return SystemStatus::NonFinite;
    }
  }
  const bool ok = cpu::gtsv_solve(std::span<T>(a), std::span<T>(b),
                                  std::span<T>(c), std::span<T>(d),
                                  std::span<T>(xs));
  if (!ok) return SystemStatus::Singular;
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(static_cast<double>(xs[i]))) {
      return SystemStatus::Singular;
    }
  }
  for (std::size_t i = 0; i < n; ++i) x[i] = xs[i];
  return SystemStatus::FallbackUsed;
}

}  // namespace tda::solver
