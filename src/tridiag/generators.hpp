#pragma once
// Workload generators for tests, benchmarks and examples.
//
// The paper evaluates batches described as m×n ("1K×1K is 1024 systems of
// 1024 equations"). These generators synthesize such batches with
// controllable numerical character. All are deterministic in the seed.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "tridiag/batch.hpp"

namespace tda::tridiag {

/// Strictly diagonally dominant random batch — safe for every algorithm
/// in the library (no pivoting needed, PCR/CR pivots never vanish).
/// `dominance` > 1 controls how dominant the diagonal is.
template <typename T>
TridiagBatch<T> make_diag_dominant(std::size_t m, std::size_t n,
                                   std::uint64_t seed,
                                   double dominance = 2.0) {
  TDA_REQUIRE(dominance > 1.0, "dominance must exceed 1");
  TridiagBatch<T> batch(m, n);
  Rng rng(seed);
  auto a = batch.a();
  auto b = batch.b();
  auto c = batch.c();
  auto d = batch.d();
  for (std::size_t s = 0; s < m; ++s) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t k = s * n + i;
      const double av = (i == 0) ? 0.0 : rng.uniform(-1.0, 1.0);
      const double cv = (i == n - 1) ? 0.0 : rng.uniform(-1.0, 1.0);
      const double mag =
          dominance * (std::abs(av) + std::abs(cv)) + rng.uniform(0.1, 1.0);
      a[k] = static_cast<T>(av);
      c[k] = static_cast<T>(cv);
      b[k] = static_cast<T>(rng.sign() * mag);
      d[k] = static_cast<T>(rng.uniform(-1.0, 1.0));
    }
  }
  return batch;
}

/// 1-D Poisson (second difference) systems: a = c = -1, b = 2, random
/// right-hand side. Symmetric positive definite; the classic substrate for
/// ADI and spectral Poisson solvers cited in the paper's introduction.
template <typename T>
TridiagBatch<T> make_poisson(std::size_t m, std::size_t n,
                             std::uint64_t seed) {
  TridiagBatch<T> batch(m, n);
  Rng rng(seed);
  auto a = batch.a();
  auto b = batch.b();
  auto c = batch.c();
  auto d = batch.d();
  for (std::size_t s = 0; s < m; ++s) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t k = s * n + i;
      a[k] = (i == 0) ? T{0} : T{-1};
      c[k] = (i == n - 1) ? T{0} : T{-1};
      b[k] = T{2};
      d[k] = static_cast<T>(rng.uniform(-1.0, 1.0));
    }
  }
  return batch;
}

/// Natural cubic-spline second-derivative systems: diag 4, off-diag 1,
/// right-hand side from random knot values (diagonally dominant).
template <typename T>
TridiagBatch<T> make_spline(std::size_t m, std::size_t n,
                            std::uint64_t seed) {
  TridiagBatch<T> batch(m, n);
  Rng rng(seed);
  auto a = batch.a();
  auto b = batch.b();
  auto c = batch.c();
  auto d = batch.d();
  for (std::size_t s = 0; s < m; ++s) {
    double prev = rng.uniform(-1.0, 1.0);
    double cur = rng.uniform(-1.0, 1.0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t k = s * n + i;
      const double next = rng.uniform(-1.0, 1.0);
      a[k] = (i == 0) ? T{0} : T{1};
      c[k] = (i == n - 1) ? T{0} : T{1};
      b[k] = T{4};
      d[k] = static_cast<T>(6.0 * (next - 2.0 * cur + prev));
      prev = cur;
      cur = next;
    }
  }
  return batch;
}

/// Constant-coefficient (Toeplitz) batch with user-chosen stencil.
template <typename T>
TridiagBatch<T> make_toeplitz(std::size_t m, std::size_t n, T sub, T diag,
                              T sup, std::uint64_t seed) {
  TridiagBatch<T> batch(m, n);
  Rng rng(seed);
  auto a = batch.a();
  auto b = batch.b();
  auto c = batch.c();
  auto d = batch.d();
  for (std::size_t s = 0; s < m; ++s) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t k = s * n + i;
      a[k] = (i == 0) ? T{0} : sub;
      c[k] = (i == n - 1) ? T{0} : sup;
      b[k] = diag;
      d[k] = static_cast<T>(rng.uniform(-1.0, 1.0));
    }
  }
  return batch;
}

/// Non-dominant random batch. Thomas/PCR pivots may blow up or vanish —
/// used to exercise the pivoting LU baseline and robustness checks.
template <typename T>
TridiagBatch<T> make_random_general(std::size_t m, std::size_t n,
                                    std::uint64_t seed) {
  TridiagBatch<T> batch(m, n);
  Rng rng(seed);
  auto a = batch.a();
  auto b = batch.b();
  auto c = batch.c();
  auto d = batch.d();
  for (std::size_t s = 0; s < m; ++s) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t k = s * n + i;
      a[k] = (i == 0) ? T{0} : static_cast<T>(rng.uniform(-1.0, 1.0));
      c[k] = (i == n - 1) ? T{0} : static_cast<T>(rng.uniform(-1.0, 1.0));
      b[k] = static_cast<T>(rng.uniform(-1.0, 1.0));
      d[k] = static_cast<T>(rng.uniform(-1.0, 1.0));
    }
  }
  return batch;
}

/// Batch with a known exact solution: coefficients are diagonally
/// dominant random, x* is random, and d is computed as A·x*. Lets tests
/// compare against the true solution instead of a residual.
template <typename T>
TridiagBatch<T> make_with_known_solution(std::size_t m, std::size_t n,
                                         std::uint64_t seed,
                                         std::vector<T>* x_true = nullptr) {
  TridiagBatch<T> batch = make_diag_dominant<T>(m, n, seed);
  Rng rng(seed ^ 0x5eedu);
  std::vector<T> xs(m * n);
  for (auto& v : xs) v = static_cast<T>(rng.uniform(-1.0, 1.0));
  auto a = batch.a();
  auto b = batch.b();
  auto c = batch.c();
  auto d = batch.d();
  for (std::size_t s = 0; s < m; ++s) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t k = s * n + i;
      T acc = b[k] * xs[k];
      if (i > 0) acc += a[k] * xs[k - 1];
      if (i + 1 < n) acc += c[k] * xs[k + 1];
      d[k] = acc;
    }
  }
  if (x_true != nullptr) *x_true = std::move(xs);
  return batch;
}

}  // namespace tda::tridiag
