#pragma once
// Cyclic reduction (CR), the Göddeke-style GPU baseline.
//
// Forward phase: at step s each equation i with (i+1) divisible by 2s
// eliminates its couplings to i-s and i+s, halving the active system.
// Backward phase: unknowns are recovered level by level. CR does O(n) total
// work (work-efficient, unlike PCR) but needs 2·log n dependent steps and
// its active thread count halves every step — exactly the step-vs-work
// tradeoff the paper's hybrid solvers navigate.
//
// The formulation below supports arbitrary n via boundary guards.

#include <bit>
#include <cstddef>

#include "common/check.hpp"
#include "tridiag/batch.hpp"

namespace tda::tridiag {

/// One CR forward update of equation i using neighbours at distance s.
/// Modifies the system in place.
template <typename T>
void cr_forward_update(const SystemView<T>& sys, std::size_t i,
                       std::size_t s) {
  const std::size_t n = sys.size();
  TDA_ASSERT(i < n);
  T alpha{0}, gamma{0};
  T na{0}, nc{0};
  T nb = sys.b[i];
  T nd = sys.d[i];
  if (i >= s) {
    alpha = -sys.a[i] / sys.b[i - s];
    nb += alpha * sys.c[i - s];
    na = alpha * sys.a[i - s];
    nd += alpha * sys.d[i - s];
  }
  if (i + s < n) {
    gamma = -sys.c[i] / sys.b[i + s];
    nb += gamma * sys.a[i + s];
    nc = gamma * sys.c[i + s];
    nd += gamma * sys.d[i + s];
  }
  sys.a[i] = na;
  sys.b[i] = nb;
  sys.c[i] = nc;
  sys.d[i] = nd;
}

/// One CR forward level with stride s: every equation i = 2s-1, 4s-1,
/// ... eliminates its couplings to i-s and i+s. Returns how many
/// equations it updated.
template <typename T>
std::size_t cr_forward_level(const SystemView<T>& sys, std::size_t s) {
  std::size_t active = 0;
  for (std::size_t i = 2 * s - 1; i < sys.size(); i += 2 * s, ++active) {
    cr_forward_update(sys, i, s);
  }
  return active;
}

/// One CR back-substitution level s: the unknowns i = s-1, 3s-1, 5s-1,
/// ..., each of which couples only to i±s, whose unknowns belong to
/// higher levels and are already solved (or fall outside the system).
/// Returns how many unknowns it solved.
template <typename T>
std::size_t cr_backward_level(const SystemView<T>& sys, StridedView<T> x,
                              std::size_t s) {
  const std::size_t n = sys.size();
  std::size_t active = 0;
  for (std::size_t i = s - 1; i < n; i += 2 * s, ++active) {
    T acc = sys.d[i];
    if (i >= s) acc -= sys.a[i] * x[i - s];
    if (i + s < n) acc -= sys.c[i] * x[i + s];
    x[i] = acc / sys.b[i];
  }
  return active;
}

/// Full cyclic reduction solve of one system (in place; x gets the
/// unknowns). Works for any n >= 1.
template <typename T>
void cr_solve(SystemView<T> sys, StridedView<T> x) {
  const std::size_t n = sys.size();
  TDA_REQUIRE(x.size() == n, "cr_solve: solution size mismatch");
  if (n == 0) return;

  for (std::size_t s = 1; s < n; s *= 2) cr_forward_level(sys, s);
  for (std::size_t s = std::bit_ceil(n); s >= 1; s /= 2) {
    cr_backward_level(sys, x, s);
  }
}

}  // namespace tda::tridiag
