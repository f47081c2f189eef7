// Tests for solver::Pipeline, the one guarded solve path behind every
// entry point: stats accounting, equivalence of Pipeline, AutoSolver and
// SolveService on a mixed batch, the typed error of AutoSolver, and
// AutoSolver surviving a memory budget smaller than its batch.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <future>
#include <vector>

#include "faults/faults.hpp"
#include "gpusim/device.hpp"
#include "kernels/device_batch.hpp"
#include "service/solve_service.hpp"
#include "solver/auto_solver.hpp"
#include "solver/pipeline.hpp"
#include "tridiag/generators.hpp"
#include "tridiag/verify.hpp"
#include "tuning/cache.hpp"

namespace {

using namespace tda;
using namespace tda::solver;

// ---------- stats accounting ----------

TEST(Pipeline, StatsAccumulatorSumsEveryField) {
  SolveStats part;
  part.plan.stage1_steps = 3;
  part.total_ms = 1.0;
  part.stage1_ms = 2.0;
  part.stage2_ms = 3.0;
  part.stage3_ms = 4.0;
  part.transpose_ms = 5.0;
  part.host_total_ms = 6.0;
  part.host_stage1_ms = 7.0;
  part.host_stage2_ms = 8.0;
  part.host_stage3_ms = 9.0;
  part.host_transpose_ms = 10.0;
  part.kernel_launches = 11;

  SolveStats sum;
  sum += part;
  sum += part;
  EXPECT_EQ(sum.plan.stage1_steps, 3u);
  EXPECT_EQ(sum.total_ms, 2.0);
  EXPECT_EQ(sum.stage1_ms, 4.0);
  EXPECT_EQ(sum.stage2_ms, 6.0);
  EXPECT_EQ(sum.stage3_ms, 8.0);
  EXPECT_EQ(sum.transpose_ms, 10.0);
  EXPECT_EQ(sum.host_total_ms, 12.0);
  EXPECT_EQ(sum.host_stage1_ms, 14.0);
  EXPECT_EQ(sum.host_stage2_ms, 16.0);
  EXPECT_EQ(sum.host_stage3_ms, 18.0);
  EXPECT_EQ(sum.host_transpose_ms, 20.0);
  EXPECT_EQ(sum.kernel_launches, 22u);
}

// A clean batch that fits in one chunk must come back exactly as the raw
// solver leaves it: the same x bits and the same simulated stats, and
// the host timings of that solve rather than zeros.
TEST(Pipeline, OneChunkStatsMatchRawSolveInBothLayouts) {
  for (const auto layout : {tridiag::BatchLayout::SystemMajor,
                            tridiag::BatchLayout::ElementMajor}) {
    SCOPED_TRACE(tridiag::to_string(layout));
    gpusim::Device dev(gpusim::geforce_gtx_470());
    SwitchPoints points;
    points.layout = layout;
    auto raw_batch = tridiag::make_diag_dominant<float>(512, 64, 7);
    auto pipe_batch = raw_batch;

    GpuTridiagonalSolver<float> raw(dev, points);
    const SolveStats want = raw.solve(raw_batch);
    Pipeline<float> pipe(dev, points);
    const PipelineResult got = pipe.solve(pipe_batch);

    ASSERT_EQ(got.chunks, 1u);
    ASSERT_EQ(got.counts().ok, 512u);
    EXPECT_EQ(std::memcmp(raw_batch.x().data(), pipe_batch.x().data(),
                          raw_batch.x().size_bytes()),
              0);
    const SolveStats& s = got.stats;
    EXPECT_EQ(s.plan.layout, layout);
    EXPECT_EQ(s.plan.stage1_steps, want.plan.stage1_steps);
    EXPECT_EQ(s.plan.stage2_steps, want.plan.stage2_steps);
    EXPECT_EQ(s.total_ms, want.total_ms);
    EXPECT_EQ(s.stage1_ms, want.stage1_ms);
    EXPECT_EQ(s.stage2_ms, want.stage2_ms);
    EXPECT_EQ(s.stage3_ms, want.stage3_ms);
    EXPECT_EQ(s.transpose_ms, want.transpose_ms);
    EXPECT_EQ(s.kernel_launches, want.kernel_launches);
    // Host fields are wall clock, so they cannot match a second solve;
    // they must be this solve's, consistent with one another.
    EXPECT_GT(s.host_total_ms, 0.0);
    EXPECT_GT(s.host_stage3_ms, 0.0);
    EXPECT_GE(s.host_total_ms, s.host_stage1_ms + s.host_stage2_ms +
                                   s.host_stage3_ms + s.host_transpose_ms);
    if (layout == tridiag::BatchLayout::ElementMajor) {
      EXPECT_GT(s.transpose_ms, 0.0);
      EXPECT_GT(s.host_transpose_ms, 0.0);
    }
  }
}

// ---------- one result from every entry point ----------

constexpr std::size_t kMixedM = 16;
constexpr std::size_t kMixedN = 64;
constexpr std::size_t kNaN = 2, kZeroDiag = 5, kManufactured = 9;

// Clean dominant systems, plus one NaN system, one exactly singular
// zero-diagonal system, and one whose rows 0-1 are [[1, 1], [1, 1]]:
// finite with a nonzero diagonal, so it passes the screen, but
// elimination manufactures an exact zero pivot from it (Thomas at its
// second row; the tuned PCR chain at its first, after one step). With
// pivoting it solves.
tridiag::TridiagBatch<double> mixed_batch() {
  auto batch = tridiag::make_diag_dominant<double>(kMixedM, kMixedN, 41);
  const auto row = [](std::size_t s) { return s * kMixedN; };
  batch.d()[row(kNaN) + 7] = std::nan("");
  batch.b()[row(kZeroDiag)] = 0.0;
  batch.c()[row(kZeroDiag)] = 0.0;
  batch.b()[row(kManufactured)] = 1.0;
  batch.c()[row(kManufactured)] = 1.0;
  batch.a()[row(kManufactured) + 1] = 1.0;
  batch.b()[row(kManufactured) + 1] = 1.0;
  return batch;
}

std::vector<SystemStatus> expected_statuses() {
  std::vector<SystemStatus> want(kMixedM, SystemStatus::Ok);
  want[kNaN] = SystemStatus::NonFinite;
  want[kZeroDiag] = SystemStatus::Singular;
  want[kManufactured] = SystemStatus::FallbackUsed;
  return want;
}

std::vector<double> row_of(const tridiag::TridiagBatch<double>& batch,
                           std::size_t s) {
  const auto x = batch.x().subspan(s * kMixedN, kMixedN);
  return {x.begin(), x.end()};
}

double residual(tridiag::TridiagBatch<double>& pristine,
                tridiag::TridiagBatch<double>& solved, std::size_t s) {
  return relative_residual<double>(pristine.system(s), solved.solution(s));
}

bool solved(SystemStatus s) {
  return s == SystemStatus::Ok || s == SystemStatus::FallbackUsed;
}

TEST(Pipeline, EntryPointsAgreeOnMixedBatch) {
  faults::ScopedFaultConfig quiet{faults::FaultConfig{}};
  auto pristine = mixed_batch();

  // Pipeline, tuned the way both entry points tune.
  gpusim::Device dev(gpusim::geforce_gtx_470());
  tuning::TuningCache cache;
  Pipeline<double> pipe(dev, cache, {kMixedM, kMixedN});
  auto pipe_batch = pristine;
  const PipelineResult ref = pipe.solve(pipe_batch);
  ASSERT_EQ(ref.status, expected_statuses());
  EXPECT_EQ(ref.prescreen_routed, 1u);
  // The manufactured pivot got past the screen and was caught on the
  // GPU side, by the bisect or by the residual check.
  EXPECT_EQ(ref.quarantined + ref.residual_rejects, 1u);
  for (std::size_t s = 0; s < kMixedM; ++s) {
    if (!solved(ref.status[s])) continue;
    EXPECT_LT(residual(pristine, pipe_batch, s), 1e-12) << "system " << s;
  }

  // AutoSolver: the same statuses through the typed error, and the same
  // x bits for every solved system.
  {
    gpusim::Device adev(gpusim::geforce_gtx_470());
    AutoSolver<double> autos(adev);
    auto batch = pristine;
    try {
      autos.solve(batch);
      ADD_FAILURE() << "AutoSolver::solve must throw UnsolvedSystems";
    } catch (const UnsolvedSystems& e) {
      EXPECT_EQ(e.statuses(), ref.status);
    }
    for (std::size_t s = 0; s < kMixedM; ++s) {
      if (solved(ref.status[s])) {
        EXPECT_EQ(row_of(batch, s), row_of(pipe_batch, s)) << "system " << s;
      }
    }
  }

  // SolveService: one request per system, coalesced into one batch in
  // submission order.
  {
    service::ServiceConfig cfg;
    cfg.flush_systems = kMixedM;
    cfg.flush_interval_ms = 60'000.0;
    service::SolveService<double> svc({gpusim::geforce_gtx_470()}, cfg);
    std::vector<std::future<service::SolveResponse<double>>> futs;
    for (std::size_t s = 0; s < kMixedM; ++s) {
      service::SolveRequest<double> req;
      const auto lane = [&](std::span<const double> v) {
        const auto part = v.subspan(s * kMixedN, kMixedN);
        return std::vector<double>(part.begin(), part.end());
      };
      req.a = lane(pristine.a());
      req.b = lane(pristine.b());
      req.c = lane(pristine.c());
      req.d = lane(pristine.d());
      futs.push_back(svc.submit(std::move(req)));
    }
    for (std::size_t s = 0; s < kMixedM; ++s) {
      const auto resp = futs[s].get();
      EXPECT_EQ(resp.batch_systems, kMixedM);
      SystemStatus got = SystemStatus::Ok;
      if (resp.status == service::SolveStatus::Singular) {
        got = SystemStatus::Singular;
      } else if (resp.status == service::SolveStatus::NonFinite) {
        got = SystemStatus::NonFinite;
      } else if (resp.fallback_used) {
        got = SystemStatus::FallbackUsed;
      }
      EXPECT_EQ(got, ref.status[s]) << "system " << s;
      if (solved(ref.status[s])) {
        EXPECT_EQ(resp.x, row_of(pipe_batch, s)) << "system " << s;
      }
    }
  }
}

TEST(Pipeline, AutoSolverTypedErrorIsAContractError) {
  gpusim::Device dev(gpusim::geforce_gtx_470());
  AutoSolver<double> autos(dev);
  auto batch = tridiag::make_diag_dominant<double>(4, 128, 5);
  batch.b()[128 + 3] = std::nan("");
  auto pristine = batch;
  EXPECT_THROW(autos.solve(batch), ContractError);
  // Every other system was still solved and written.
  for (const std::size_t s : {0u, 2u, 3u}) {
    EXPECT_LT(residual(pristine, batch, s), 1e-12) << "system " << s;
  }
}

// ---------- memory pressure ----------

TEST(Pipeline, AutoSolverChunksUnderHalfTheFootprint) {
  faults::ScopedFaultConfig quiet{faults::FaultConfig{}};
  const std::size_t m = 32, n = 1024;
  gpusim::Device dev(gpusim::geforce_gtx_470());
  dev.set_mem_budget(kernels::DeviceBatch<float>::footprint_bytes(m, n) / 2 +
                     kernels::DeviceBatch<float>::footprint_bytes(1, n));
  AutoSolver<float> autos(dev);
  autos.telemetry().metrics.enable();
  auto batch = tridiag::make_diag_dominant<float>(m, n, 9);
  const auto pristine = batch;

  const SolveStats stats = autos.solve(batch);
  EXPECT_GE(autos.telemetry().metrics.counter("solver.chunks"), 2.0);
  EXPECT_DOUBLE_EQ(autos.telemetry().metrics.counter("solver.split_solves"),
                   1.0);
  EXPECT_GE(stats.kernel_launches, 2u);
  EXPECT_LT(tridiag::batch_residual_inf(pristine, batch.x()), 1e-4);
}

}  // namespace
