#pragma once
// Sequential tridiagonal LU solver with partial pivoting — the algorithm
// behind LAPACK's ?gtsv, which is what the Intel MKL solver the paper
// benchmarks against runs. Pivoting introduces a second superdiagonal of
// fill-in but makes the solver robust on systems that are not diagonally
// dominant (where Thomas/PCR pivots can vanish).

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "common/check.hpp"

namespace tda::cpu {

/// Solves one tridiagonal system with LU + partial pivoting.
///
/// Inputs follow the library convention: a (sub-diagonal, a[0] unused),
/// b (diagonal), c (super-diagonal, c[n-1] unused), d (right-hand side).
/// All spans have length n. Coefficients are consumed destructively; the
/// solution is written to x (which may alias d). Returns false when the
/// matrix is numerically singular (zero pivot after pivoting).
template <typename T>
bool gtsv_solve(std::span<T> a, std::span<T> b, std::span<T> c,
                std::span<T> d, std::span<T> x) {
  const std::size_t n = b.size();
  TDA_REQUIRE(a.size() == n && c.size() == n && d.size() == n &&
                  x.size() == n,
              "gtsv: span size mismatch");
  if (n == 0) return true;
  if (n == 1) {
    if (b[0] == T{0}) return false;
    x[0] = d[0] / b[0];
    return true;
  }

  // Second superdiagonal created by row swaps.
  std::vector<T> c2(n, T{0});

  // Forward elimination with row-wise partial pivoting.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (std::abs(static_cast<double>(b[i])) >=
        std::abs(static_cast<double>(a[i + 1]))) {
      // No swap.
      if (b[i] == T{0}) return false;
      const T f = a[i + 1] / b[i];
      b[i + 1] -= f * c[i];
      if (i + 2 < n) c2[i] = T{0};
      d[i + 1] -= f * d[i];
    } else {
      // Swap rows i and i+1.
      const T f = b[i] / a[i + 1];
      // Row i becomes old row i+1; row i+1 becomes the update.
      b[i] = a[i + 1];
      const T tmp_c = c[i];
      c[i] = b[i + 1];
      b[i + 1] = tmp_c - f * b[i + 1];
      if (i + 2 < n) {
        c2[i] = c[i + 1];
        c[i + 1] = -f * c[i + 1];
      }
      const T tmp_d = d[i];
      d[i] = d[i + 1];
      d[i + 1] = tmp_d - f * d[i + 1];
    }
  }
  if (b[n - 1] == T{0}) return false;

  // Back substitution with the (up to) two superdiagonals.
  x[n - 1] = d[n - 1] / b[n - 1];
  if (n >= 2) {
    x[n - 2] = (d[n - 2] - c[n - 2] * x[n - 1]) / b[n - 2];
  }
  for (std::size_t i = n - 2; i-- > 0;) {
    x[i] = (d[i] - c[i] * x[i + 1] - c2[i] * x[i + 2]) / b[i];
  }
  return true;
}

}  // namespace tda::cpu
