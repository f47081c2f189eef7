// Tests for the multi-stage solver: plan construction (Figure 1 workflow),
// end-to-end correctness over a workload grid, switch-point edge cases and
// the simulate/cost-only path.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string_view>
#include <tuple>

#include "common/hash.hpp"
#include "gpusim/launch.hpp"
#include "solver/auto_solver.hpp"
#include "solver/gpu_solver.hpp"
#include "solver/plan.hpp"
#include "tridiag/generators.hpp"
#include "tridiag/verify.hpp"
#include "tuning/tuners.hpp"

namespace {

using namespace tda;
using namespace tda::solver;
using tridiag::make_diag_dominant;

// ---------- splits_needed ----------

TEST(Plan, SplitsNeeded) {
  EXPECT_EQ(splits_needed(256, 256), 0u);
  EXPECT_EQ(splits_needed(257, 256), 1u);
  EXPECT_EQ(splits_needed(512, 256), 1u);
  EXPECT_EQ(splits_needed(1024, 256), 2u);
  EXPECT_EQ(splits_needed(2 * 1024 * 1024, 1024), 11u);
  EXPECT_EQ(splits_needed(1, 256), 0u);
  EXPECT_EQ(splits_needed(1000, 256), 2u);  // ceil(1000/4)=250 <= 256
}

// ---------- plan construction ----------

TEST(Plan, SmallSystemsSkipSplitting) {
  SwitchPoints sp;
  sp.stage3_system_size = 256;
  auto plan = make_plan({1024, 256}, sp);
  EXPECT_EQ(plan.stage1_steps, 0u);
  EXPECT_EQ(plan.stage2_steps, 0u);
  EXPECT_EQ(plan.stage3_sub_size, 256u);
}

TEST(Plan, ManySystemsUseStageTwoOnly) {
  SwitchPoints sp;
  sp.stage1_target_systems = 16;
  sp.stage3_system_size = 256;
  auto plan = make_plan({1024, 1024}, sp);  // already 1024 systems
  EXPECT_EQ(plan.stage1_steps, 0u);
  EXPECT_EQ(plan.stage2_steps, 2u);
}

TEST(Plan, SingleHugeSystemStartsCooperative) {
  SwitchPoints sp;
  sp.stage1_target_systems = 16;
  sp.stage3_system_size = 1024;
  auto plan = make_plan({1, 2 * 1024 * 1024}, sp);
  EXPECT_EQ(plan.stage1_steps, 4u);  // 2^4 = 16 independent systems
  EXPECT_EQ(plan.stage2_steps, 7u);  // total 11 splits to reach 1024
  EXPECT_EQ(plan.stage3_sub_size, 1024u);
}

TEST(Plan, StageOneCappedByTotalSplits) {
  SwitchPoints sp;
  sp.stage1_target_systems = 1024;  // unreachable
  sp.stage3_system_size = 256;
  auto plan = make_plan({1, 1024}, sp);
  EXPECT_EQ(plan.stage1_steps, 2u);  // only 2 splits exist in total
  EXPECT_EQ(plan.stage2_steps, 0u);
}

TEST(Plan, NonPowerOfTwoSizes) {
  SwitchPoints sp;
  sp.stage3_system_size = 100;
  auto plan = make_plan({20, 777}, sp);
  // 777 -> 389 -> 195 -> 98
  EXPECT_EQ(plan.total_splits, 3u);
  EXPECT_EQ(plan.stage3_sub_size, 98u);
}

TEST(Plan, RejectsDegenerateInputs) {
  SwitchPoints sp;
  sp.stage3_system_size = 0;
  EXPECT_THROW((void)make_plan({1, 16}, sp), ContractError);
  SwitchPoints sp2;
  EXPECT_THROW((void)make_plan({0, 16}, sp2), ContractError);
}

// ---------- solver end-to-end over a workload grid ----------

class SolverGrid
    : public ::testing::TestWithParam<
          std::tuple<int, std::size_t, std::size_t>> {};

TEST_P(SolverGrid, ResidualTiny) {
  const auto [dev_idx, m, n] = GetParam();
  auto specs = gpusim::device_registry();
  gpusim::Device dev(specs[static_cast<std::size_t>(dev_idx)]);
  auto points = tuning::default_switch_points<double>();
  GpuTridiagonalSolver<double> solver(dev, points);

  auto batch = make_diag_dominant<double>(m, n, 100 + m * 7 + n);
  auto pristine = batch;
  auto stats = solver.solve(batch);
  EXPECT_GT(stats.total_ms, 0.0);
  EXPECT_LT(tridiag::batch_residual_inf(pristine, batch.x()), 1e-9)
      << "device=" << dev_idx << " m=" << m << " n=" << n;
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, SolverGrid,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(1, 2, 17),
                       ::testing::Values(1, 2, 3, 100, 256, 1000, 4096)));

TEST(Solver, LargeSingleSystem) {
  gpusim::Device dev(gpusim::geforce_gtx_470());
  auto points = tuning::static_switch_points<double>(dev.query());
  GpuTridiagonalSolver<double> solver(dev, points);
  const std::size_t n = 1 << 17;  // 131072 equations
  auto batch = make_diag_dominant<double>(1, n, 555);
  auto pristine = batch;
  auto stats = solver.solve(batch);
  EXPECT_GT(stats.plan.stage1_steps, 0u);
  EXPECT_GT(stats.plan.stage2_steps, 0u);
  EXPECT_LT(tridiag::batch_residual_inf(pristine, batch.x()), 1e-9);
}

TEST(Solver, StatsBreakdownSumsToTotal) {
  gpusim::Device dev(gpusim::geforce_gtx_280());
  GpuTridiagonalSolver<double> solver(
      dev, tuning::default_switch_points<double>());
  auto batch = make_diag_dominant<double>(4, 4096, 7);
  auto stats = solver.solve(batch);
  EXPECT_NEAR(stats.total_ms,
              stats.stage1_ms + stats.stage2_ms + stats.stage3_ms, 1e-12);
  EXPECT_EQ(stats.kernel_launches,
            stats.plan.stage1_steps + (stats.plan.stage2_steps ? 1 : 0) + 1);
}

TEST(Solver, CoefficientArraysPreserved) {
  gpusim::Device dev(gpusim::geforce_gtx_470());
  GpuTridiagonalSolver<double> solver(
      dev, tuning::default_switch_points<double>());
  auto batch = make_diag_dominant<double>(2, 512, 8);
  const double b0 = batch.b()[100];
  const double d0 = batch.d()[100];
  solver.solve(batch);
  EXPECT_EQ(batch.b()[100], b0);
  EXPECT_EQ(batch.d()[100], d0);
}

TEST(Solver, RejectsOversizedStage3) {
  gpusim::Device dev(gpusim::geforce_8800_gtx());
  SwitchPoints sp;
  sp.stage3_system_size = 4096;  // way beyond 8800 capacity
  EXPECT_THROW(GpuTridiagonalSolver<double> solver(dev, sp), ContractError);
}

TEST(Solver, MaxOnChipSizeMatchesConfigHelper) {
  gpusim::Device dev(gpusim::geforce_gtx_280());
  GpuTridiagonalSolver<float> solver(
      dev, tuning::default_switch_points<float>());
  EXPECT_EQ(solver.max_on_chip_size(), 512u);
}

// ---------- switch-point extremes still give correct answers ----------

class SwitchPointExtremes
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(SwitchPointExtremes, CorrectAnywhereInParameterSpace) {
  const auto [stage3, thomas] = GetParam();
  gpusim::Device dev(gpusim::geforce_gtx_470());
  SwitchPoints sp;
  sp.stage3_system_size = stage3;
  sp.thomas_switch = thomas;
  sp.stage1_target_systems = 8;
  GpuTridiagonalSolver<double> solver(dev, sp);
  auto batch = make_diag_dominant<double>(3, 1500, stage3 * 31 + thomas);
  auto pristine = batch;
  solver.solve(batch);
  EXPECT_LT(tridiag::batch_residual_inf(pristine, batch.x()), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Extremes, SwitchPointExtremes,
    ::testing::Combine(::testing::Values(2, 16, 256, 512),  // fp64 cap on 470
                       ::testing::Values(1, 2, 64, 1024)));

// ---------- simulate path ----------

TEST(Solver, SimulateMatchesFullSolveTime) {
  gpusim::Device dev(gpusim::geforce_gtx_280());
  GpuTridiagonalSolver<double> solver(
      dev, tuning::default_switch_points<double>());
  auto batch = make_diag_dominant<double>(8, 2048, 9);
  const double full_ms = solver.solve(batch).total_ms;
  const double sim_ms = solver.simulate_ms({8, 2048});
  EXPECT_DOUBLE_EQ(full_ms, sim_ms);
}

TEST(Solver, VariantChangesTimeNotResult) {
  gpusim::Device dev(gpusim::geforce_gtx_280());
  SwitchPoints sp = tuning::default_switch_points<double>();
  auto batch1 = make_diag_dominant<double>(4, 4096, 10);
  auto batch2 = batch1;
  auto pristine = batch1;

  sp.variant = kernels::LoadVariant::Strided;
  GpuTridiagonalSolver<double> s1(dev, sp);
  auto t1 = s1.solve(batch1);

  sp.variant = kernels::LoadVariant::Coalesced;
  GpuTridiagonalSolver<double> s2(dev, sp);
  auto t2 = s2.solve(batch2);

  EXPECT_NE(t1.total_ms, t2.total_ms);
  for (std::size_t k = 0; k < batch1.total_equations(); ++k)
    EXPECT_EQ(batch1.x()[k], batch2.x()[k]);
  EXPECT_LT(tridiag::batch_residual_inf(pristine, batch1.x()), 1e-9);
}

// ---------- double precision capacity is respected ----------

TEST(Solver, DoublePrecisionUsesSmallerOnChipSystems) {
  gpusim::Device dev(gpusim::geforce_gtx_280());
  auto spf = tuning::static_switch_points<float>(dev.query());
  auto spd = tuning::static_switch_points<double>(dev.query());
  EXPECT_EQ(spf.stage3_system_size, 512u);
  EXPECT_EQ(spd.stage3_system_size, 256u);
}

// ---------- golden solve: solutions and cost accounting are pinned ----------

struct GoldenSolve {
  std::uint64_t x_fnv;
  SolveStats stats;
};

// FNV-1a over the solution bytes: any change to the host arithmetic,
// however small, changes the digest. The pinned digests were taken from
// the wire fingerprint's start state.
template <typename T>
std::uint64_t digest(std::span<const T> x) {
  return fnv1a64(std::string_view(reinterpret_cast<const char*>(x.data()),
                                  x.size_bytes()),
                 kFnv64LegacyBasis);
}

template <typename T>
GoldenSolve golden_solve(std::size_t m, std::size_t n,
                         const SwitchPoints& sp) {
  gpusim::Device dev(gpusim::geforce_gtx_470());
  GpuTridiagonalSolver<T> solver(dev, sp);
  auto batch = make_diag_dominant<T>(m, n, 2011);
  const SolveStats stats = solver.solve(batch);
  return {digest<T>(batch.x()), stats};
}

// Fixed switch points so stage 1 (cooperative split), stage 2
// (independent split) and stage 3/4 (on-chip PCR-Thomas) all run.
template <typename T>
GoldenSolve golden_solve(std::size_t m, std::size_t n,
                         kernels::LoadVariant variant) {
  SwitchPoints sp;
  sp.stage1_target_systems = 16;
  sp.stage3_system_size = 256;
  sp.thomas_switch = 32;
  sp.variant = variant;
  return golden_solve<T>(m, n, sp);
}

// Values recorded from the scalar strided PCR path that preceded the
// unit-stride host core. A change to the host arithmetic moves the
// digest; a change to the charged access pattern moves the sim fields.
TEST(SolverGolden, FloatStridedSolveIsPinned) {
  const auto g = golden_solve<float>(4, 4096, kernels::LoadVariant::Strided);
  EXPECT_EQ(g.stats.plan.stage1_steps, 2u);
  EXPECT_EQ(g.stats.plan.stage2_steps, 2u);
  EXPECT_EQ(g.x_fnv, 0xdfc5628b25ab560aull);
  EXPECT_EQ(g.stats.total_ms, 0x1.9a905a415361bp-2);
  EXPECT_EQ(g.stats.stage1_ms, 0x1.3692ae7c45c7dp-3);
  EXPECT_EQ(g.stats.stage2_ms, 0x1.dd15ad73d3cb7p-3);
  EXPECT_EQ(g.stats.stage3_ms, 0x1.0bc2c4946980dp-6);
  EXPECT_EQ(g.stats.transpose_ms, 0.0);
  EXPECT_EQ(g.stats.kernel_launches, 4u);
}

// Odd n leaves uneven subsystems at every split; the coalesced variant
// charges the window-boundary leakage on top of the strided load.
TEST(SolverGolden, DoubleCoalescedRaggedSolveIsPinned) {
  const auto g =
      golden_solve<double>(3, 5001, kernels::LoadVariant::Coalesced);
  EXPECT_EQ(g.stats.plan.stage1_steps, 3u);
  EXPECT_EQ(g.stats.plan.stage2_steps, 2u);
  EXPECT_EQ(g.x_fnv, 0xc91169f35f48042eull);
  EXPECT_EQ(g.stats.total_ms, 0x1.f90566f977204p-1);
  EXPECT_EQ(g.stats.stage1_ms, 0x1.05fa01a2bc9c4p-1);
  EXPECT_EQ(g.stats.stage2_ms, 0x1.af591cf2430ffp-2);
  EXPECT_EQ(g.stats.stage3_ms, 0x1.b5ed6dd98fbfdp-5);
  EXPECT_EQ(g.stats.transpose_ms, 0.0);
  EXPECT_EQ(g.stats.kernel_launches, 5u);
}

// Stage 2 alone (three systems already fill the stage-1 target) on a
// ragged n: five independent splits leave subsystems of 157 and 156
// equations.
TEST(SolverGolden, FloatStage2OnlyRaggedSolveIsPinned) {
  SwitchPoints sp;
  sp.stage1_target_systems = 3;
  sp.stage3_system_size = 256;
  sp.thomas_switch = 32;
  sp.variant = kernels::LoadVariant::Strided;
  const auto g = golden_solve<float>(3, 5001, sp);
  EXPECT_EQ(g.stats.plan.stage1_steps, 0u);
  EXPECT_EQ(g.stats.plan.stage2_steps, 5u);
  EXPECT_EQ(g.x_fnv, 0xb69e9cb566e140c9ull);
  EXPECT_EQ(g.stats.total_ms, 0x1.91327cc8b9403p-2);
  EXPECT_EQ(g.stats.stage1_ms, 0.0);
  EXPECT_EQ(g.stats.stage2_ms, 0x1.7f2b451f78bbp-2);
  EXPECT_EQ(g.stats.stage3_ms, 0x1.20737a9408529p-6);
  EXPECT_EQ(g.stats.transpose_ms, 0.0);
  EXPECT_EQ(g.stats.kernel_launches, 2u);
}

// Nine splits of n = 700 hand stage 3 subsystems of one and two
// equations: the one-equation ones go straight to Thomas, the others
// take one on-chip PCR step first.
TEST(SolverGolden, DoubleTinySubsystemsSolveIsPinned) {
  SwitchPoints sp;
  sp.stage1_target_systems = 8;
  sp.stage3_system_size = 2;
  sp.thomas_switch = 2;
  sp.variant = kernels::LoadVariant::Coalesced;
  const auto g = golden_solve<double>(3, 700, sp);
  EXPECT_EQ(g.stats.plan.stage1_steps, 2u);
  EXPECT_EQ(g.stats.plan.stage2_steps, 7u);
  EXPECT_EQ(g.stats.plan.stage3_sub_size, 2u);
  EXPECT_EQ(g.x_fnv, 0x3d84286f549334eeull);
  EXPECT_EQ(g.stats.total_ms, 0x1.f60538520bf64p+2);
  EXPECT_EQ(g.stats.stage1_ms, 0x1.5de93791f178ap-3);
  EXPECT_EQ(g.stats.stage2_ms, 0x1.ad5ed0a7f4c79p-3);
  EXPECT_EQ(g.stats.stage3_ms, 0x1.ddaaf8103cc44p+2);
  EXPECT_EQ(g.stats.transpose_ms, 0.0);
  EXPECT_EQ(g.stats.kernel_launches, 4u);
}

// The public entry point, tuned on the GTX 470 the benches use. These
// values were recorded from the unguarded AutoSolver::solve; they must
// not move when the numerical guards run on the same clean batch.
template <typename T>
GoldenSolve golden_auto_solve(std::size_t m, std::size_t n) {
  gpusim::Device dev(gpusim::geforce_gtx_470());
  AutoSolver<T> solver(dev);
  auto batch = make_diag_dominant<T>(m, n, 2011);
  const SolveStats stats = solver.solve(batch);
  return {digest<T>(batch.x()), stats};
}

TEST(SolverGolden, AutoSolverSystemMajorSolveIsPinned) {
  const auto g = golden_auto_solve<float>(4, 4096);
  EXPECT_EQ(g.stats.plan.layout, tridiag::BatchLayout::SystemMajor);
  EXPECT_EQ(g.x_fnv, 0xea6fd6748f45ea0bull);
  EXPECT_EQ(g.stats.total_ms, 0x1.6ecdf89c8b2bp-3);
  EXPECT_EQ(g.stats.stage1_ms, 0x1.3692ae7c45c7dp-3);
  EXPECT_EQ(g.stats.stage2_ms, 0.0);
  EXPECT_EQ(g.stats.stage3_ms, 0x1.c1da51022b19ap-6);
  EXPECT_EQ(g.stats.transpose_ms, 0.0);
  EXPECT_EQ(g.stats.kernel_launches, 3u);
}

// 16 systems of 65,536: the large-system shape, where every stage runs.
TEST(SolverGolden, AutoSolverLargeSolveIsPinned) {
  const auto g = golden_auto_solve<float>(16, 65536);
  EXPECT_EQ(g.stats.plan.layout, tridiag::BatchLayout::SystemMajor);
  EXPECT_EQ(g.stats.plan.stage1_steps, 2u);
  EXPECT_EQ(g.stats.plan.stage2_steps, 4u);
  EXPECT_EQ(g.stats.plan.thomas_switch, 512u);
  EXPECT_EQ(g.stats.plan.variant, kernels::LoadVariant::Strided);
  EXPECT_EQ(g.x_fnv, 0xaced874adb5ea267ull);
  EXPECT_EQ(g.stats.total_ms, 0x1.837f5e7864d7ap+3);
  EXPECT_EQ(g.stats.stage1_ms, 0x1.0506553e80d4dp+2);
  EXPECT_EQ(g.stats.stage2_ms, 0x1.a4f46eaafab01p+2);
  EXPECT_EQ(g.stats.stage3_ms, 0x1.740fe41d38a96p+0);
  EXPECT_EQ(g.stats.transpose_ms, 0.0);
  EXPECT_EQ(g.stats.kernel_launches, 4u);
}

// 21,504 systems of 64: the many-small shape, where the tuner picks the
// interleaved (element-major) pipeline and its two transposes. x is each
// system's thomas_solve_inplace, bit for bit, so the digest is also that
// of the per-system reference solve.
TEST(SolverGolden, AutoSolverElementMajorSolveIsPinned) {
  const auto g = golden_auto_solve<float>(21504, 64);
  EXPECT_EQ(g.stats.plan.layout, tridiag::BatchLayout::ElementMajor);
  EXPECT_EQ(g.x_fnv, 0xe19c93bf886ea9deull);
  EXPECT_EQ(g.stats.total_ms, 0x1.97a0747915b13p-1);
  EXPECT_EQ(g.stats.stage1_ms, 0.0);
  EXPECT_EQ(g.stats.stage2_ms, 0.0);
  EXPECT_EQ(g.stats.stage3_ms, 0x1.800456a10fb32p-2);
  EXPECT_EQ(g.stats.transpose_ms, 0x1.af3c92511baf4p-2);
  EXPECT_EQ(g.stats.kernel_launches, 3u);
}

}  // namespace
