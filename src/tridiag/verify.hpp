#pragma once
// Solution verification: residuals and a dense Gaussian-elimination
// reference for small systems.

#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "tridiag/batch.hpp"

namespace tda::tridiag {

/// Scaled max residual of one system: max_i |A x - d|_i / max(1, |d|_inf,
/// |x|_inf * |A|_row). A good solve of a well-conditioned system yields a
/// value near machine epsilon of T. Returns +inf when any term is not
/// finite (a NaN or inf in x or in the coefficients).
template <typename T>
double residual_inf(const SystemView<const T>& sys,
                    const StridedView<const T>& x) {
  const std::size_t n = sys.size();
  TDA_REQUIRE(x.size() == n, "residual: size mismatch");
  double worst = 0.0;
  double scale = 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    double acc = static_cast<double>(sys.b[i]) * static_cast<double>(x[i]);
    double row = std::abs(static_cast<double>(sys.b[i]));
    if (i > 0) {
      acc += static_cast<double>(sys.a[i]) * static_cast<double>(x[i - 1]);
      row += std::abs(static_cast<double>(sys.a[i]));
    }
    if (i + 1 < n) {
      acc += static_cast<double>(sys.c[i]) * static_cast<double>(x[i + 1]);
      row += std::abs(static_cast<double>(sys.c[i]));
    }
    const double term = std::abs(acc - static_cast<double>(sys.d[i]));
    const double weight = row * std::abs(static_cast<double>(x[i]));
    // std::max drops NaN, so a non-finite term is caught here: a NaN or
    // inf solution never verifies.
    if (!std::isfinite(term) || !std::isfinite(weight)) {
      return std::numeric_limits<double>::infinity();
    }
    worst = std::max(worst, term);
    scale = std::max(scale, weight);
    scale = std::max(scale, std::abs(static_cast<double>(sys.d[i])));
  }
  return worst / scale;
}

/// Max scaled residual across every system of a batch, checking the
/// solution already stored in batch.x(). Coefficients must still hold the
/// ORIGINAL system (pass a pristine copy if the solver destroyed them).
template <typename T>
double batch_residual_inf(const TridiagBatch<T>& original,
                          std::span<const T> x) {
  const std::size_t m = original.num_systems();
  const std::size_t n = original.system_size();
  TDA_REQUIRE(x.size() == m * n, "batch residual: size mismatch");
  double worst = 0.0;
  for (std::size_t s = 0; s < m; ++s) {
    const std::size_t off = s * n;
    SystemView<const T> sys{
        StridedView<const T>(original.a().data() + off, n, 1),
        StridedView<const T>(original.b().data() + off, n, 1),
        StridedView<const T>(original.c().data() + off, n, 1),
        StridedView<const T>(original.d().data() + off, n, 1)};
    StridedView<const T> xv(x.data() + off, n, 1);
    worst = std::max(worst, residual_inf(sys, xv));
  }
  return worst;
}

/// Overload: accepts a mutable span (template deduction cannot apply the
/// span<T> -> span<const T> conversion by itself).
template <typename T>
double batch_residual_inf(const TridiagBatch<T>& original, std::span<T> x) {
  return batch_residual_inf(original, std::span<const T>(x));
}

/// Convenience: residual of the batch against its own stored solution.
template <typename T>
double batch_residual_inf(const TridiagBatch<T>& original) {
  return batch_residual_inf(original, original.x());
}

/// Dense Gaussian elimination with partial pivoting — an algorithm-
/// independent reference for small n (O(n^3), tests only).
template <typename T>
std::vector<double> dense_solve(const SystemView<const T>& sys) {
  const std::size_t n = sys.size();
  std::vector<double> mat(n * n, 0.0);
  std::vector<double> rhs(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) mat[i * n + i - 1] = static_cast<double>(sys.a[i]);
    mat[i * n + i] = static_cast<double>(sys.b[i]);
    if (i + 1 < n) mat[i * n + i + 1] = static_cast<double>(sys.c[i]);
    rhs[i] = static_cast<double>(sys.d[i]);
  }
  // Forward elimination with partial pivoting.
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t piv = k;
    for (std::size_t r = k + 1; r < n; ++r) {
      if (std::abs(mat[r * n + k]) > std::abs(mat[piv * n + k])) piv = r;
    }
    if (piv != k) {
      for (std::size_t col = 0; col < n; ++col)
        std::swap(mat[k * n + col], mat[piv * n + col]);
      std::swap(rhs[k], rhs[piv]);
    }
    const double p = mat[k * n + k];
    TDA_REQUIRE(p != 0.0, "dense_solve: singular matrix");
    for (std::size_t r = k + 1; r < n; ++r) {
      const double f = mat[r * n + k] / p;
      if (f == 0.0) continue;
      for (std::size_t col = k; col < n; ++col)
        mat[r * n + col] -= f * mat[k * n + col];
      rhs[r] -= f * rhs[k];
    }
  }
  // Back substitution.
  std::vector<double> x(n);
  for (std::size_t i = n; i-- > 0;) {
    double acc = rhs[i];
    for (std::size_t col = i + 1; col < n; ++col)
      acc -= mat[i * n + col] * x[col];
    x[i] = acc / mat[i * n + i];
  }
  return x;
}

}  // namespace tda::tridiag
