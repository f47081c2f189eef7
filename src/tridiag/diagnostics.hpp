#pragma once
// Input diagnostics: the checks a production solver runs before
// committing a batch to a pivot-free algorithm chain (Thomas/PCR/CR all
// assume nonzero pivots; strict diagonal dominance guarantees them).

#include <cmath>
#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "tridiag/batch.hpp"
#include "tridiag/thomas.hpp"

namespace tda::tridiag {

/// Summary of a batch's numerical character.
struct BatchDiagnostics {
  /// min_i |b_i| / (|a_i| + |c_i|); > 1 means strictly diagonally
  /// dominant (safe for every pivot-free solver in this library).
  double dominance = 0.0;
  /// True when every row is strictly diagonally dominant.
  bool strictly_dominant = false;
  /// True when some diagonal entry is exactly zero (Thomas/PCR will
  /// divide by zero on the first step; use the pivoting CPU solver).
  bool zero_diagonal = false;
  /// True when boundary convention a[0] = c[n-1] = 0 holds everywhere.
  bool boundaries_normalized = true;
  /// Index of the worst (least dominant) row, as (system, equation).
  std::size_t worst_system = 0;
  std::size_t worst_equation = 0;
  /// 1-norm condition estimate of the worst system (see
  /// estimate_condition); 0 if not computed.
  double condition_estimate = 0.0;
};

/// Scans a batch and reports its numerical character. Cheap: one pass.
template <typename T>
BatchDiagnostics diagnose(const TridiagBatch<T>& batch) {
  BatchDiagnostics diag;
  diag.dominance = std::numeric_limits<double>::infinity();
  const std::size_t m = batch.num_systems();
  const std::size_t n = batch.system_size();
  auto a = batch.a();
  auto b = batch.b();
  auto c = batch.c();
  for (std::size_t s = 0; s < m; ++s) {
    const std::size_t off = s * n;
    if (a[off] != T{0} || c[off + n - 1] != T{0}) {
      diag.boundaries_normalized = false;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t k = off + i;
      const double bd = std::abs(static_cast<double>(b[k]));
      if (bd == 0.0) diag.zero_diagonal = true;
      double offsum = 0.0;
      if (i > 0) offsum += std::abs(static_cast<double>(a[k]));
      if (i + 1 < n) offsum += std::abs(static_cast<double>(c[k]));
      const double ratio =
          (offsum == 0.0) ? std::numeric_limits<double>::infinity()
                          : bd / offsum;
      if (ratio < diag.dominance) {
        diag.dominance = ratio;
        diag.worst_system = s;
        diag.worst_equation = i;
      }
    }
  }
  diag.strictly_dominant = diag.dominance > 1.0 && !diag.zero_diagonal;
  return diag;
}

/// 1-norm condition number estimate of one tridiagonal system using the
/// classic Hager/Higham-style power iteration on |A^{-1}|:
/// cond ≈ ||A||_1 * ||A^{-1}||_1, with ||A^{-1}||_1 estimated from a few
/// solves. Requires a nonsingular system solvable by Thomas (use for
/// dominant systems). O(iterations * n).
template <typename T>
double estimate_condition(const SystemView<const T>& sys,
                          int iterations = 5) {
  const std::size_t n = sys.size();
  TDA_REQUIRE(n >= 1, "condition estimate needs a system");

  // ||A||_1 = max column sum.
  double norm_a = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    double col = std::abs(static_cast<double>(sys.b[j]));
    if (j > 0) col += std::abs(static_cast<double>(sys.c[j - 1]));
    if (j + 1 < n) col += std::abs(static_cast<double>(sys.a[j + 1]));
    norm_a = std::max(norm_a, col);
  }

  // Power iteration on A^{-1}: repeatedly solve A x = v with v a
  // (sign-refined) probe; ||A^{-1}||_1 >= ||x||_1 / ||v||_1.
  std::vector<double> v(n, 1.0 / static_cast<double>(n));
  std::vector<double> x(n), av(n), bv(n), cv(n);
  const auto view = [n](std::vector<double>& lane) {
    return StridedView<double>(lane.data(), n, 1);
  };
  double best = 0.0;
  for (int it = 0; it < iterations; ++it) {
    for (std::size_t i = 0; i < n; ++i) {
      av[i] = static_cast<double>(sys.a[i]);
      bv[i] = static_cast<double>(sys.b[i]);
      cv[i] = static_cast<double>(sys.c[i]);
    }
    // The solve overwrites cv and the probe v, which is refined from x
    // below anyway.
    if (!thomas_solve_inplace<double>({view(av), view(bv), view(cv), view(v)},
                                      view(x))) {
      return std::numeric_limits<double>::infinity();
    }
    double norm_x = 0.0;
    for (double xi : x) norm_x += std::abs(xi);
    best = std::max(best, norm_x);
    // Refine the probe towards the maximizing sign pattern.
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = (x[i] >= 0.0 ? 1.0 : -1.0) / static_cast<double>(n);
    }
  }
  return norm_a * best;
}

/// Human-readable one-line report.
inline std::string to_string(const BatchDiagnostics& d) {
  std::string s = "dominance=" + std::to_string(d.dominance);
  s += d.strictly_dominant ? " (strictly dominant)" : " (NOT dominant)";
  if (d.zero_diagonal) s += " ZERO-DIAGONAL";
  if (!d.boundaries_normalized) s += " boundaries-not-normalized";
  if (d.condition_estimate > 0.0) {
    s += " cond~" + std::to_string(d.condition_estimate);
  }
  return s;
}

}  // namespace tda::tridiag
