// Tests for periodic (cyclic) tridiagonal systems solved via
// Sherman-Morrison around an ordinary inner solver, CPU or GPU — the
// §VII extension that examples/heat_ring drives.

#include <gtest/gtest.h>

#include <vector>

#include "cpu/batch_solver.hpp"
#include "gpusim/launch.hpp"
#include "solver/gpu_solver.hpp"
#include "tridiag/generators.hpp"
#include "tridiag/periodic.hpp"
#include "tuning/tuners.hpp"

namespace {

using namespace tda;
using namespace tda::tridiag;

// ---------- periodic tridiagonal ----------

template <typename T>
PeriodicBatch<T> make_periodic(std::size_t m, std::size_t n,
                               std::uint64_t seed) {
  PeriodicBatch<T> batch(m, n);
  auto core = make_diag_dominant<T>(m, n, seed, /*dominance=*/3.0);
  std::copy(core.a().begin(), core.a().end(), batch.core.a().begin());
  std::copy(core.b().begin(), core.b().end(), batch.core.b().begin());
  std::copy(core.c().begin(), core.c().end(), batch.core.c().begin());
  std::copy(core.d().begin(), core.d().end(), batch.core.d().begin());
  Rng rng(seed ^ 0xC0FFEE);
  for (std::size_t s = 0; s < m; ++s) {
    batch.alpha[s] = static_cast<T>(rng.uniform(-0.3, 0.3));
    batch.beta[s] = static_cast<T>(rng.uniform(-0.3, 0.3));
  }
  return batch;
}

void cpu_inner_solver(TridiagBatch<double>& batch) {
  cpu::BatchCpuSolver solver(1);
  auto st = solver.solve(batch);
  ASSERT_EQ(st.failures, 0u);
}

TEST(Periodic, SolvesWithCpuInnerSolver) {
  auto batch = make_periodic<double>(4, 64, 9001);
  auto x = solve_periodic_batch<double>(batch, cpu_inner_solver);
  EXPECT_LT(periodic_residual_inf(batch, std::span<const double>(x)),
            1e-12);
}

TEST(Periodic, SolvesWithGpuInnerSolver) {
  auto batch = make_periodic<double>(8, 1024, 9002);
  gpusim::Device dev(gpusim::geforce_gtx_470());
  solver::GpuTridiagonalSolver<double> gpu(
      dev, tuning::default_switch_points<double>());
  auto x = solve_periodic_batch<double>(
      batch, [&](TridiagBatch<double>& b) { gpu.solve(b); });
  EXPECT_LT(periodic_residual_inf(batch, std::span<const double>(x)),
            1e-10);
}

TEST(Periodic, ZeroCornersReduceToOrdinarySolve) {
  auto batch = make_periodic<double>(2, 32, 9003);
  for (auto& v : batch.alpha) v = 0.0;
  for (auto& v : batch.beta) v = 0.0;
  auto x = solve_periodic_batch<double>(batch, cpu_inner_solver);
  // Must equal the plain tridiagonal solution.
  auto plain = batch.core;
  cpu::BatchCpuSolver solver(1);
  solver.solve(plain);
  for (std::size_t k = 0; k < x.size(); ++k) {
    EXPECT_NEAR(x[k], plain.x()[k], 1e-12);
  }
}

TEST(Periodic, CirculantMatrixKnownSolution) {
  // Circulant [4, 1, ..., 1]: x = all-ones solves d = 6 everywhere.
  const std::size_t n = 16;
  PeriodicBatch<double> batch(1, n);
  auto a = batch.core.a();
  auto b = batch.core.b();
  auto c = batch.core.c();
  auto d = batch.core.d();
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = (i == 0) ? 0.0 : 1.0;
    c[i] = (i == n - 1) ? 0.0 : 1.0;
    b[i] = 4.0;
    d[i] = 6.0;
  }
  batch.alpha[0] = 1.0;
  batch.beta[0] = 1.0;
  auto x = solve_periodic_batch<double>(batch, cpu_inner_solver);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], 1.0, 1e-12);
}

TEST(Periodic, RejectsTinySystems) {
  PeriodicBatch<double> batch(1, 2);
  EXPECT_THROW((void)solve_periodic_batch<double>(batch, cpu_inner_solver),
               ContractError);
}

TEST(Periodic, FloatPath) {
  auto batch = make_periodic<float>(4, 128, 9004);
  auto x = solve_periodic_batch<float>(batch, [](TridiagBatch<float>& b) {
    cpu::BatchCpuSolver solver(1);
    solver.solve(b);
  });
  EXPECT_LT(periodic_residual_inf(batch, std::span<const float>(x)), 1e-4);
}

}  // namespace
