// Deterministic fuzz: randomized workload shapes, generators, devices and
// switch points, always cross-checked against the pivoting CPU solver.
// These tests are the library's broadest net — every case exercises
// upload, splitting, the base kernel, download and verification.

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "cpu/batch_solver.hpp"
#include "gpusim/launch.hpp"
#include "solver/gpu_solver.hpp"
#include "solver/guards.hpp"
#include "tridiag/diagnostics.hpp"
#include "tridiag/generators.hpp"
#include "tridiag/verify.hpp"
#include "tuning/tuners.hpp"

namespace {

using namespace tda;

// A fuzz case's batch in precision T from generator `family` (0-3).
template <typename T>
tridiag::TridiagBatch<T> fuzz_batch(std::uint64_t family, std::size_t m,
                                    std::size_t n, std::uint64_t seed) {
  switch (family) {
    case 0:
      return tridiag::make_diag_dominant<T>(m, n, seed, 1.5);
    case 1:
      return tridiag::make_poisson<T>(m, n, seed);
    case 2:
      return tridiag::make_spline<T>(m, n, seed);
    default:
      return tridiag::make_toeplitz<T>(m, n, -1.0, 3.0, -1.5, seed);
  }
}

// Every GPU path of one fuzz case in precision T: the staged path with
// both load variants, and the element-major path (transpose, one Thomas
// lane per system, transpose back). Each is held to the residual bound
// `tol`; with a pivoting CPU solution `cpu` of the same batch, also to
// 1e-6 of it.
template <typename T>
void check_gpu_paths(gpusim::Device& dev, const solver::SwitchPoints& sp,
                     const tridiag::TridiagBatch<T>& pristine, double tol,
                     std::span<const T> cpu, const std::string& what) {
  const auto max_diff = [&](std::span<const T> x) {
    double worst = 0.0;
    for (std::size_t k = 0; k < x.size(); ++k) {
      worst = std::max(worst, static_cast<double>(std::abs(x[k] - cpu[k])));
    }
    return worst;
  };
  const auto check = [&](const solver::SwitchPoints& path) {
    auto batch = pristine;
    solver::GpuTridiagonalSolver<T> gpu(dev, path);
    gpu.solve(batch);
    const std::string where = what + " " + solver::describe(path) + " " +
                              tridiag::to_string(path.layout) + "-major";
    EXPECT_LT(tridiag::batch_residual_inf(pristine, batch.x()), tol)
        << where;
    if (!cpu.empty()) {
      EXPECT_LT(max_diff(batch.x()), 1e-6) << where;
    }
  };
  for (const auto variant :
       {kernels::LoadVariant::Strided, kernels::LoadVariant::Coalesced}) {
    solver::SwitchPoints staged = sp;
    staged.variant = variant;
    check(staged);
  }
  solver::SwitchPoints element = sp;
  element.layout = tridiag::BatchLayout::ElementMajor;
  check(element);
}

// One fuzz iteration: random shape, random generator, random legal
// switch points, random device; every GPU path in double and in float
// must pass its residual bound, and in double agree with the CPU.
class SolverFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SolverFuzz, GpuMatchesPivotingCpu) {
  Rng rng(GetParam() * 0x9E3779B9u + 7);

  // Shape: n in [1, 5000], m in [1, 40], skewed toward interesting sizes.
  const std::size_t n = 1 + rng.below(rng.below(2) ? 300 : 5000);
  const std::size_t m = 1 + rng.below(40);
  const std::uint64_t family = rng.below(4);

  // Device + legal random switch points.
  auto specs = gpusim::device_registry();
  gpusim::Device dev(specs[rng.below(specs.size())]);
  const std::size_t cap =
      kernels::max_shared_system_size(dev.query(), sizeof(double));
  solver::SwitchPoints sp;
  sp.stage3_system_size = std::size_t{1} << (1 + rng.below(10));
  while (sp.stage3_system_size > cap) sp.stage3_system_size /= 2;
  sp.thomas_switch = std::size_t{1} << rng.below(10);
  sp.stage1_target_systems = std::size_t{1} << rng.below(9);

  const auto pristine = fuzz_batch<double>(family, m, n, GetParam());
  auto cpu_batch = pristine;
  cpu::BatchCpuSolver host(1);
  auto st = host.solve(cpu_batch);
  ASSERT_EQ(st.failures, 0u);
  EXPECT_LT(tridiag::batch_residual_inf(pristine, cpu_batch.x()), 1e-8);

  const std::string what = "seed=" + std::to_string(GetParam()) +
                           " m=" + std::to_string(m) +
                           " n=" + std::to_string(n) +
                           " dev=" + dev.spec().name;
  check_gpu_paths<double>(dev, sp, pristine, 1e-8, cpu_batch.x(),
                          what + " double");
  check_gpu_paths<float>(dev, sp,
                         fuzz_batch<float>(family, m, n, GetParam()),
                         solver::auto_residual_tol<float>(), {},
                         what + " float");
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverFuzz,
                         ::testing::Range<std::uint64_t>(0, 40));

// Diagnostics gate: every generator the fuzz uses must pass the
// pre-flight checks the library recommends before pivot-free solving.
TEST(SolverFuzzPreflight, FuzzGeneratorsAreSafeOrBorderline) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    auto dom = tridiag::make_diag_dominant<double>(3, 100, seed, 1.5);
    EXPECT_TRUE(tridiag::diagnose(dom).strictly_dominant);
    auto poi = tridiag::make_poisson<double>(3, 100, seed);
    EXPECT_GE(tridiag::diagnose(poi).dominance, 1.0);
    auto spl = tridiag::make_spline<double>(3, 100, seed);
    EXPECT_TRUE(tridiag::diagnose(spl).strictly_dominant);
  }
}

// Simulated time must be positive, finite, and monotone-ish in problem
// size for a fixed configuration (cost-model sanity under fuzz).
class CostMonotonicity : public ::testing::TestWithParam<int> {};

TEST_P(CostMonotonicity, BiggerWorkloadsCostMore) {
  auto specs = gpusim::device_registry();
  gpusim::Device dev(specs[static_cast<std::size_t>(GetParam())]);
  solver::GpuTridiagonalSolver<float> s(
      dev, tuning::default_switch_points<float>());
  // Monotonicity only holds on a SATURATED machine: below saturation,
  // doubling the work can more than double the achieved bandwidth
  // (latency hiding) and the bigger workload finishes sooner — the very
  // effect the stage-1/2 switch points exist to manage. Start well above
  // saturation on every registry device.
  double prev = 0.0;
  for (std::size_t scale = 1; scale <= 16; scale *= 2) {
    const double ms = s.simulate_ms({256 * scale, 1024});
    EXPECT_GT(ms, prev);
    EXPECT_TRUE(std::isfinite(ms));
    prev = ms;
  }
  // The n sweep must run on a FULL machine (m large): at small m, growing
  // n can get cheaper because splitting manufactures parallelism — that
  // is the whole point of the multi-stage design, not a model bug.
  prev = 0.0;
  for (std::size_t scale = 1; scale <= 16; scale *= 2) {
    const double ms = s.simulate_ms({256, 1024 * scale});
    EXPECT_GT(ms, prev);
    prev = ms;
  }
}

INSTANTIATE_TEST_SUITE_P(Devices, CostMonotonicity, ::testing::Values(0, 1, 2));

// The solver must reject only what it documents rejecting, and never
// crash: sweep degenerate shapes.
TEST(SolverEdges, DegenerateShapesHandled) {
  gpusim::Device dev(gpusim::geforce_gtx_470());
  solver::GpuTridiagonalSolver<double> s(
      dev, tuning::default_switch_points<double>());
  for (std::size_t n : {1u, 2u, 3u, 4u, 5u}) {
    for (std::size_t m : {1u, 2u}) {
      auto batch = tridiag::make_diag_dominant<double>(m, n, n * 7 + m);
      auto pristine = batch;
      EXPECT_NO_THROW(s.solve(batch)) << "m=" << m << " n=" << n;
      EXPECT_LT(tridiag::batch_residual_inf(pristine, batch.x()), 1e-10);
    }
  }
}

// Ill-conditioned (weakly dominant, large) systems: the solve should
// still produce small residuals in double precision.
TEST(SolverEdges, LargePoissonStaysAccurate) {
  gpusim::Device dev(gpusim::geforce_gtx_280());
  solver::GpuTridiagonalSolver<double> s(
      dev, tuning::static_switch_points<double>(dev.query()));
  auto batch = tridiag::make_poisson<double>(2, 1 << 15, 3);
  auto pristine = batch;
  s.solve(batch);
  EXPECT_LT(tridiag::batch_residual_inf(pristine, batch.x()), 1e-7);
}

}  // namespace
