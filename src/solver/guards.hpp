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
#include "tridiag/guard_scans.hpp"

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

// The screen and residual scans (tridiag/guard_scans.hpp), which run on
// the host's widest ISA variant.
using tridiag::relative_residual;
using tridiag::screen_verdict;
using tridiag::ScreenVerdict;

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
