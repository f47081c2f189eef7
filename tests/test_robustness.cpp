// End-to-end numerical robustness: the guards of solver::Pipeline
// (prescreen, quarantine bisect, residual postcheck, pivoting fallback)
// and ill-conditioned inputs pushed through every stage of the
// multi-stage solver — stage-1/2 splits and both stage-3 shared-memory
// variants.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "faults/faults.hpp"
#include "gpusim/device.hpp"
#include "solver/gpu_solver.hpp"
#include "solver/guards.hpp"
#include "solver/pipeline.hpp"
#include "tridiag/generators.hpp"
#include "tridiag/verify.hpp"

namespace {

using namespace tda;
using namespace tda::solver;

void poison(tridiag::TridiagBatch<double>& batch, std::size_t s,
            faults::Poison kind) {
  const std::size_t n = batch.system_size();
  faults::poison_system<double>(
      batch.a().subspan(s * n, n), batch.b().subspan(s * n, n),
      batch.c().subspan(s * n, n), batch.d().subspan(s * n, n), kind);
}

double system_residual(tridiag::TridiagBatch<double>& pristine,
                       tridiag::TridiagBatch<double>& solved,
                       std::size_t s) {
  return relative_residual<double>(pristine.system(s), solved.solution(s));
}

// ---------- screen_verdict ----------

TEST(Prescreen, PassesDominantSystem) {
  auto batch = tridiag::make_diag_dominant<double>(1, 64, 1);
  EXPECT_EQ(screen_verdict<double>(batch.system(0)), ScreenVerdict::Pass);
}

TEST(Prescreen, FlagsNonFinite) {
  auto batch = tridiag::make_diag_dominant<double>(1, 64, 2);
  poison(batch, 0, faults::Poison::NaN);
  EXPECT_EQ(screen_verdict<double>(batch.system(0)), ScreenVerdict::NonFinite);
}

TEST(Prescreen, FlagsZeroDiagonal) {
  auto batch = tridiag::make_diag_dominant<double>(1, 64, 3);
  poison(batch, 0, faults::Poison::ZeroPivot);
  EXPECT_EQ(screen_verdict<double>(batch.system(0)),
            ScreenVerdict::NeedsPivoting);
}

// ---------- relative_residual ----------

TEST(Residual, ExactSolutionIsTiny) {
  std::vector<double> x_true;
  auto batch = tridiag::make_with_known_solution<double>(1, 128, 5, &x_true);
  for (std::size_t i = 0; i < x_true.size(); ++i) batch.x()[i] = x_true[i];
  EXPECT_LT(system_residual(batch, batch, 0), 1e-12);
}

TEST(Residual, WrongSolutionIsLarge) {
  auto batch = tridiag::make_diag_dominant<double>(1, 128, 6);
  for (auto& v : batch.x()) v = 1e6;
  EXPECT_GT(system_residual(batch, batch, 0), 1e-3);
}

TEST(Residual, NonFiniteSolutionIsInfinite) {
  auto batch = tridiag::make_diag_dominant<double>(1, 32, 7);
  batch.x()[3] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isinf(system_residual(batch, batch, 0)));
}

// The vectorized scans must reproduce the plain scalar definitions
// exactly — every verdict and every residual bit — for short systems
// and every corrupted position, including the a[0] and c[n-1] slots
// outside the matrix.

ScreenVerdict scalar_verdict(const tridiag::SystemView<float>& sys) {
  const std::size_t n = sys.size();
  bool zero = false;
  for (std::size_t i = 0; i < n; ++i) {
    const double ai = i > 0 ? sys.a[i] : 0.0;
    const double ci = i + 1 < n ? sys.c[i] : 0.0;
    if (!std::isfinite(ai) || !std::isfinite(double{sys.b[i]}) ||
        !std::isfinite(ci) || !std::isfinite(double{sys.d[i]})) {
      return ScreenVerdict::NonFinite;
    }
    zero |= sys.b[i] == 0.0f;
  }
  return zero ? ScreenVerdict::NeedsPivoting : ScreenVerdict::Pass;
}

double scalar_residual(const tridiag::SystemView<float>& sys,
                       const StridedView<float>& x) {
  const std::size_t n = sys.size();
  double max_r = 0.0, norm_a = 0.0, norm_x = 0.0, norm_d = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double xi = x[i];
    if (!std::isfinite(xi)) return std::numeric_limits<double>::infinity();
    const double ai = i > 0 ? sys.a[i] : 0.0;
    const double bi = sys.b[i];
    const double ci = i + 1 < n ? sys.c[i] : 0.0;
    const double di = sys.d[i];
    double ax = bi * xi;
    if (i > 0) ax += ai * static_cast<double>(x[i - 1]);
    if (i + 1 < n) ax += ci * static_cast<double>(x[i + 1]);
    max_r = std::max(max_r, std::abs(di - ax));
    norm_a = std::max(norm_a, std::abs(ai) + std::abs(bi) + std::abs(ci));
    norm_x = std::max(norm_x, std::abs(xi));
    norm_d = std::max(norm_d, std::abs(di));
  }
  const double scale = norm_a * norm_x + norm_d;
  return scale == 0.0 ? max_r : max_r / scale;
}

TEST(Residual, VectorizedScansMatchScalarDefinitions) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  for (const std::size_t n : {1u, 2u, 3u, 9u, 17u, 100u}) {
    auto batch = tridiag::make_random_general<float>(3, n, 30 + n);
    Rng rng(n);
    for (auto& v : batch.x()) v = static_cast<float>(rng.uniform(-2, 2));
    for (std::size_t s = 0; s < 3; ++s) {
      EXPECT_EQ(screen_verdict<float>(batch.system(s)),
                scalar_verdict(batch.system(s)));
      EXPECT_EQ(relative_residual<float>(batch.system(s),
                                         batch.solution(s)),
                scalar_residual(batch.system(s), batch.solution(s)));
    }
    // One bad value at a time, in every lane and row.
    auto sys = batch.system(1);
    auto x = batch.solution(1);
    for (std::size_t i = 0; i < n; ++i) {
      for (StridedView<float>* lane : {&sys.a, &sys.b, &sys.c, &sys.d, &x}) {
        for (const float bad : {nan, inf, 0.0f}) {
          const float keep = (*lane)[i];
          (*lane)[i] = bad;
          EXPECT_EQ(screen_verdict<float>(sys), scalar_verdict(sys))
              << "n=" << n << " row " << i;
          const double want = scalar_residual(sys, x);
          const double got = relative_residual<float>(sys, x);
          EXPECT_TRUE(got == want || (std::isnan(got) && std::isnan(want)))
              << "n=" << n << " row " << i << ": " << got << " vs " << want;
          (*lane)[i] = keep;
        }
      }
    }
  }
}

// Every batch system is contiguous; the scans reject any other view.
TEST(Residual, StridedViewsAreRejected) {
  auto batch = tridiag::make_diag_dominant<float>(1, 8, 4);
  const auto strided = batch.system(0).split().first;
  EXPECT_THROW((void)screen_verdict<float>(strided), ContractError);
  EXPECT_THROW(
      (void)relative_residual<float>(strided, batch.solution(0).split().first),
      ContractError);
}

// ---------- pivoting_fallback ----------

TEST(PivotingFallback, SolvesZeroLeadingPivot) {
  // b[0] = 0 but the system is solvable with row pivoting.
  auto batch = tridiag::make_diag_dominant<double>(1, 64, 8);
  batch.b()[0] = 0.0;
  batch.c()[0] = 1.0;
  auto pristine = batch;
  const auto st =
      pivoting_fallback<double>(batch.system(0), batch.solution(0));
  EXPECT_EQ(st, SystemStatus::FallbackUsed);
  EXPECT_LT(system_residual(pristine, batch, 0), 1e-10);
}

TEST(PivotingFallback, ReportsSingular) {
  auto batch = tridiag::make_diag_dominant<double>(1, 64, 9);
  poison(batch, 0, faults::Poison::ZeroPivot);
  const auto st =
      pivoting_fallback<double>(batch.system(0), batch.solution(0));
  EXPECT_EQ(st, SystemStatus::Singular);
}

TEST(PivotingFallback, ReportsNonFinite) {
  auto batch = tridiag::make_diag_dominant<double>(1, 64, 10);
  poison(batch, 0, faults::Poison::NaN);
  const auto st =
      pivoting_fallback<double>(batch.system(0), batch.solution(0));
  EXPECT_EQ(st, SystemStatus::NonFinite);
}

// ---------- the guard stages of Pipeline ----------

// Rows 0-1 of system s become [[1, 1], [1, 1 + eps]]: finite, nonzero
// diagonal — the screen passes it — but Thomas elimination's second
// pivot is 1 + eps - 1 = eps. The rest of the system stays dominant, so
// it remains solvable with pivoting.
void manufacture_pivot(tridiag::TridiagBatch<double>& batch, std::size_t s,
                       double eps) {
  const std::size_t k = s * batch.system_size();
  batch.b()[k] = 1.0;
  batch.c()[k] = 1.0;
  batch.a()[k + 1] = 1.0;
  batch.b()[k + 1] = 1.0 + eps;
}

TEST(GuardedSolver, CleanBatchSolvesOnGpu) {
  gpusim::Device dev(gpusim::geforce_gtx_470());
  Pipeline<double> pipe(dev, SwitchPoints{});
  auto batch = tridiag::make_diag_dominant<double>(8, 1024, 11);
  auto pristine = batch;
  const auto r = pipe.solve(batch);
  const auto c = r.counts();
  EXPECT_EQ(c.ok, 8u);
  EXPECT_EQ(c.fallback_used, 0u);
  EXPECT_EQ(r.quarantined, 0u);
  EXPECT_LT(tridiag::batch_residual_inf(pristine, batch.x()), 1e-10);
}

TEST(GuardedSolver, PoisonedSystemsGetTypedStatusAndBatchmatesSolve) {
  gpusim::Device dev(gpusim::geforce_gtx_470());
  Pipeline<double> pipe(dev, SwitchPoints{});
  auto batch = tridiag::make_diag_dominant<double>(8, 512, 12);
  poison(batch, 2, faults::Poison::NaN);
  poison(batch, 5, faults::Poison::ZeroPivot);
  auto pristine = batch;

  const auto r = pipe.solve(batch);
  const auto c = r.counts();
  EXPECT_EQ(r.status[2], SystemStatus::NonFinite);
  EXPECT_EQ(r.status[5], SystemStatus::Singular);
  EXPECT_EQ(c.nonfinite, 1u);
  EXPECT_EQ(c.singular, 1u);
  EXPECT_EQ(c.ok, 6u);
  for (std::size_t s : {0u, 1u, 3u, 4u, 6u, 7u}) {
    EXPECT_EQ(r.status[s], SystemStatus::Ok) << "system " << s;
    EXPECT_LT(system_residual(pristine, batch, s), 1e-10) << "system " << s;
  }
}

TEST(GuardedSolver, RecoverablePivotProblemUsesFallback) {
  gpusim::Device dev(gpusim::geforce_gtx_280());
  Pipeline<double> pipe(dev, SwitchPoints{});
  auto batch = tridiag::make_diag_dominant<double>(4, 256, 13);
  // System 1: zero leading pivot but solvable with pivoting.
  batch.b()[256] = 0.0;
  batch.c()[256] = 1.0;
  auto pristine = batch;

  const auto r = pipe.solve(batch);
  EXPECT_EQ(r.status[1], SystemStatus::FallbackUsed);
  EXPECT_EQ(r.counts().fallback_used, 1u);
  EXPECT_EQ(r.prescreen_routed, 1u);
  EXPECT_EQ(r.counts().solved(), 4u);
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_LT(system_residual(pristine, batch, s), 1e-10) << "system " << s;
  }
}

TEST(GuardedSolver, BisectQuarantinesCulpritWithoutPrescreen) {
  // The screen cannot see a pivot that elimination manufactures.
  // thomas_switch = 1 asks for one subsystem, so no PCR step splits the
  // system and Thomas meets the zero pivot, whose check throws
  // ContractError deterministically; the bisect must isolate the single
  // culprit, the fallback must solve it, and every batchmate must keep
  // its GPU solution.
  gpusim::Device dev(gpusim::geforce_gtx_470());
  SwitchPoints points;
  points.stage3_system_size = 64;
  points.thomas_switch = 1;
  Pipeline<double> pipe(dev, points);

  auto batch = tridiag::make_diag_dominant<double>(8, 64, 15);
  manufacture_pivot(batch, 3, 0.0);
  auto pristine = batch;
  ASSERT_EQ(screen_verdict<double>(pristine.system(3)), ScreenVerdict::Pass);

  const auto r = pipe.solve(batch);
  EXPECT_EQ(r.prescreen_routed, 0u);
  EXPECT_EQ(r.quarantined, 1u);
  EXPECT_EQ(r.status[3], SystemStatus::FallbackUsed);
  for (std::size_t s = 0; s < 8; ++s) {
    if (s != 3) {
      EXPECT_EQ(r.status[s], SystemStatus::Ok) << "system " << s;
    }
    EXPECT_LT(system_residual(pristine, batch, s), 1e-10) << "system " << s;
  }
}

TEST(GuardedSolver, ResidualPostcheckEscalatesToFallback) {
  // A near-zero manufactured pivot neither trips the screen nor throws,
  // but the pivot-free solution it yields fails the automatic residual
  // tolerance; the fallback must deliver correct solutions instead.
  gpusim::Device dev(gpusim::geforce_gtx_470());
  SwitchPoints points;
  points.stage3_system_size = 256;
  points.thomas_switch = 1;  // pure Thomas, as above
  Pipeline<double> pipe(dev, points);
  auto batch = tridiag::make_diag_dominant<double>(4, 256, 16);
  manufacture_pivot(batch, 1, 1e-12);
  manufacture_pivot(batch, 2, 1e-12);
  auto pristine = batch;

  const auto r = pipe.solve(batch);
  EXPECT_EQ(r.prescreen_routed, 0u);
  EXPECT_EQ(r.quarantined, 0u);
  EXPECT_EQ(r.residual_rejects, 2u);
  EXPECT_EQ(r.status[0], SystemStatus::Ok);
  EXPECT_EQ(r.status[1], SystemStatus::FallbackUsed);
  EXPECT_EQ(r.status[2], SystemStatus::FallbackUsed);
  EXPECT_EQ(r.status[3], SystemStatus::Ok);
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_LT(system_residual(pristine, batch, s), 1e-10) << "system " << s;
  }
}

// ---------- ill-conditioned inputs through every solver stage ----------

// Satellite (c): push poisoned systems through the stage-1/2 splitting
// path (n >> stage3_system_size) and through both stage-3 shared-memory
// variants; statuses must be typed and batchmates must stay correct.

struct StageCase {
  const char* name;
  std::size_t m, n;
  SwitchPoints points;
};

std::vector<StageCase> stage_cases() {
  SwitchPoints strided;
  strided.variant = kernels::LoadVariant::Strided;
  SwitchPoints coalesced;
  coalesced.variant = kernels::LoadVariant::Coalesced;
  SwitchPoints deep = strided;
  deep.stage1_target_systems = 32;  // force extra stage-1 splitting
  return {
      {"stage3_strided_direct", 8, 256, strided},
      {"stage3_coalesced_direct", 8, 256, coalesced},
      {"stage12_strided_large", 4, 4096, strided},
      {"stage12_coalesced_large", 4, 4096, coalesced},
      {"stage1_deep_split", 2, 8192, deep},
  };
}

TEST(IllConditioned, TypedStatusAcrossAllStages) {
  for (const auto& tc : stage_cases()) {
    SCOPED_TRACE(tc.name);
    gpusim::Device dev(gpusim::geforce_gtx_470());
    Pipeline<double> pipe(dev, tc.points);
    auto batch = tridiag::make_diag_dominant<double>(tc.m, tc.n, 18);
    poison(batch, 0, faults::Poison::NaN);
    poison(batch, tc.m - 1, faults::Poison::ZeroPivot);
    auto pristine = batch;

    const auto r = pipe.solve(batch);
    EXPECT_EQ(r.status[0], SystemStatus::NonFinite);
    EXPECT_EQ(r.status[tc.m - 1], SystemStatus::Singular);
    for (std::size_t s = 1; s + 1 < tc.m; ++s) {
      EXPECT_EQ(r.status[s], SystemStatus::Ok) << "system " << s;
      EXPECT_LT(system_residual(pristine, batch, s), 1e-9) << "system " << s;
    }
  }
}

TEST(IllConditioned, UnguardedSolverThrowsContractError) {
  // Without guards the raw solver keeps its contract behavior: a poisoned
  // pivot surfaces as ContractError, not silent garbage.
  gpusim::Device dev(gpusim::geforce_gtx_470());
  SwitchPoints points;
  points.stage3_system_size = 64;
  points.thomas_switch = 64;
  GpuTridiagonalSolver<double> solver(dev, points);
  auto batch = tridiag::make_diag_dominant<double>(4, 64, 19);
  poison(batch, 1, faults::Poison::ZeroPivot);
  EXPECT_THROW(solver.solve(batch), ContractError);
}

TEST(IllConditioned, NonDominantSolvableSystemPassesPostcheck) {
  // A weakly/non-dominant but well-posed system: the GPU result is kept
  // only if the residual check accepts it; either way the answer must be
  // correct.
  gpusim::Device dev(gpusim::geforce_gtx_470());
  Pipeline<double> pipe(dev, SwitchPoints{});
  auto batch = tridiag::make_random_general<double>(4, 512, 20);
  auto pristine = batch;
  const auto r = pipe.solve(batch);
  EXPECT_EQ(r.counts().solved(), 4u);
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_LT(system_residual(pristine, batch, s), 1e-8) << "system " << s;
  }
}

}  // namespace
