#pragma once
// Periodic (cyclic) tridiagonal systems.
//
// Spectral Poisson solvers and ocean models on periodic domains (both in
// the paper's motivation list) produce "tridiagonal" systems with two
// corner entries: equation 0 couples to x[n-1] and equation n-1 couples
// to x[0]. The Sherman-Morrison formula reduces such a system to two
// solves of an ordinary tridiagonal system, so ANY solver in this library
// (CPU Thomas/gtsv or the multi-stage GPU solver) can serve as the inner
// engine. With the corner entries alpha = A[0][n-1], beta = A[n-1][0]:
//
//   gamma = -b[0],  u = (gamma, 0, ..., 0, beta)^T,
//   v = (1, 0, ..., 0, alpha/gamma)^T,  A_cyclic = A' + u v^T,
//
// where A' is the ordinary tridiagonal part with b[0] -= gamma and
// b[n-1] -= alpha*beta/gamma. Solve A' y = d and A' z = u, then
// x = y - (v^T y / (1 + v^T z)) z.

#include <cstddef>
#include <functional>
#include <vector>

#include "common/check.hpp"
#include "tridiag/batch.hpp"

namespace tda::tridiag {

/// Batch of periodic systems sharing one size.
template <typename T>
struct PeriodicBatch {
  TridiagBatch<T> core;        ///< the tridiagonal parts
  std::vector<T> alpha, beta;  ///< corner entries, one per system

  PeriodicBatch(std::size_t m, std::size_t n)
      : core(m, n), alpha(m, T{}), beta(m, T{}) {}
};

/// Solves a batch of periodic systems given a callback that solves an
/// ordinary TridiagBatch in place (results in batch.x()). The callback is
/// invoked exactly twice with a batch of the same shape (Sherman-Morrison
/// needs the pair of solves); this is how the GPU multi-stage solver or
/// the CPU baseline plugs in.
///
/// Returns the solutions (m*n, system-major). Requires n >= 3 and
/// non-singular modified systems (diagonally dominant periodic systems
/// with |b| > |a|+|c|+|corner| are always safe).
template <typename T>
std::vector<T> solve_periodic_batch(
    PeriodicBatch<T>& batch,
    const std::function<void(TridiagBatch<T>&)>& solve_tridiag) {
  const std::size_t m = batch.core.num_systems();
  const std::size_t n = batch.core.system_size();
  TDA_REQUIRE(n >= 3, "periodic solve needs at least 3 equations");

  // Build the modified system A' = A - u v^T with
  //   u = (gamma, 0, ..., 0, beta)^T, v = (1, 0, ..., 0, alpha/gamma)^T,
  // which zeroes the corners when gamma is chosen per system. We use the
  // classic choice gamma = -b[0].
  TridiagBatch<T> modified(m, n);
  std::copy(batch.core.a().begin(), batch.core.a().end(),
            modified.a().begin());
  std::copy(batch.core.b().begin(), batch.core.b().end(),
            modified.b().begin());
  std::copy(batch.core.c().begin(), batch.core.c().end(),
            modified.c().begin());
  std::copy(batch.core.d().begin(), batch.core.d().end(),
            modified.d().begin());

  std::vector<T> gamma(m);
  for (std::size_t s = 0; s < m; ++s) {
    const std::size_t off = s * n;
    const T g = -modified.b()[off];
    TDA_REQUIRE(g != T{0}, "periodic solve: b[0] must be nonzero");
    gamma[s] = g;
    modified.b()[off] -= g;  // b0' = b0 - gamma (= 2 b0)
    modified.b()[off + n - 1] -=
        batch.alpha[s] * batch.beta[s] / g;  // b_{n-1}' -= alpha*beta/gamma
  }

  // First solve: A' y = d.
  solve_tridiag(modified);
  std::vector<T> y(modified.x().begin(), modified.x().end());

  // Second solve: A' z = u.
  for (std::size_t s = 0; s < m; ++s) {
    const std::size_t off = s * n;
    for (std::size_t i = 0; i < n; ++i) modified.d()[off + i] = T{0};
    modified.d()[off] = gamma[s];
    modified.d()[off + n - 1] = batch.beta[s];
  }
  solve_tridiag(modified);
  std::span<const T> z = modified.x();

  // Combine: x = y - ((y0 + alpha/gamma * y_{n-1}) /
  //                   (1 + z0 + alpha/gamma * z_{n-1})) * z.
  std::vector<T> x(m * n);
  for (std::size_t s = 0; s < m; ++s) {
    const std::size_t off = s * n;
    const T va = batch.alpha[s] / gamma[s];
    const T num = y[off] + va * y[off + n - 1];
    const T den = T{1} + z[off] + va * z[off + n - 1];
    TDA_REQUIRE(den != T{0}, "periodic solve: singular correction");
    const T factor = num / den;
    for (std::size_t i = 0; i < n; ++i) {
      x[off + i] = y[off + i] - factor * z[off + i];
    }
  }
  return x;
}

/// Scaled max residual of a periodic batch against a candidate solution.
template <typename T>
double periodic_residual_inf(const PeriodicBatch<T>& batch,
                             std::span<const T> x) {
  const std::size_t m = batch.core.num_systems();
  const std::size_t n = batch.core.system_size();
  TDA_REQUIRE(x.size() == m * n, "periodic residual: size mismatch");
  double worst = 0.0;
  double scale = 1.0;
  auto a = batch.core.a();
  auto b = batch.core.b();
  auto c = batch.core.c();
  auto d = batch.core.d();
  for (std::size_t s = 0; s < m; ++s) {
    const std::size_t off = s * n;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t k = off + i;
      double acc = static_cast<double>(b[k]) * x[k];
      if (i > 0) acc += static_cast<double>(a[k]) * x[k - 1];
      if (i + 1 < n) acc += static_cast<double>(c[k]) * x[k + 1];
      if (i == 0) acc += static_cast<double>(batch.alpha[s]) * x[off + n - 1];
      if (i == n - 1) acc += static_cast<double>(batch.beta[s]) * x[off];
      worst = std::max(worst, std::abs(acc - static_cast<double>(d[k])));
      scale = std::max(scale, std::abs(static_cast<double>(d[k])));
      scale = std::max(scale, std::abs(acc));
    }
  }
  return worst / scale;
}

}  // namespace tda::tridiag
