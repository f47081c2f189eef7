// Google-benchmark microbenchmarks: real wall-clock throughput of the
// host-side algorithm implementations (the functional core the simulator
// executes) and of the simulator machinery itself. These complement the
// figure harnesses, which report simulated time.

#include <benchmark/benchmark.h>

#include <cstddef>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "cpu/batch_solver.hpp"
#include "cpu/gtsv.hpp"
#include "gpusim/launch.hpp"
#include "kernels/device_batch.hpp"
#include "kernels/pcr_thomas_kernel.hpp"
#include "kernels/split_kernels.hpp"
#include "solver/plan.hpp"
#include "tridiag/cr.hpp"
#include "tridiag/generators.hpp"
#include "tridiag/guard_scans.hpp"
#include "tridiag/hybrid.hpp"
#include "tridiag/pcr.hpp"
#include "tridiag/thomas.hpp"

namespace {

using namespace tda;
using namespace tda::tridiag;

template <typename T>
SystemView<T> scratch_view(AlignedBuffer<T>& buf, std::size_t n) {
  return SystemView<T>{StridedView<T>(buf.data(), n, 1),
                       StridedView<T>(buf.data() + n, n, 1),
                       StridedView<T>(buf.data() + 2 * n, n, 1),
                       StridedView<T>(buf.data() + 3 * n, n, 1)};
}

void BM_Thomas(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto batch = make_diag_dominant<double>(1, n, 1);
  for (auto _ : state) {
    state.PauseTiming();
    auto work = batch;
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        thomas_solve_inplace(work.system(0), work.solution(0)));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_Thomas)->Arg(256)->Arg(4096)->Arg(65536);

void BM_PcrSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto batch = make_diag_dominant<double>(1, n, 2);
  AlignedBuffer<double> buf(4 * n);
  for (auto _ : state) {
    state.PauseTiming();
    auto work = batch;
    state.ResumeTiming();
    pcr_solve(work.system(0), scratch_view(buf, n), work.solution(0));
    benchmark::DoNotOptimize(work.x().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_PcrSolve)->Arg(256)->Arg(4096);

void BM_CrSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto batch = make_diag_dominant<double>(1, n, 3);
  for (auto _ : state) {
    state.PauseTiming();
    auto work = batch;
    state.ResumeTiming();
    cr_solve(work.system(0), work.solution(0));
    benchmark::DoNotOptimize(work.x().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_CrSolve)->Arg(256)->Arg(4096);

void BM_PcrThomasHybrid(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto batch = make_diag_dominant<double>(1, n, 4);
  AlignedBuffer<double> buf(4 * n);
  for (auto _ : state) {
    state.PauseTiming();
    auto work = batch;
    state.ResumeTiming();
    pcr_thomas_solve(work.system(0), scratch_view(buf, n),
                     work.solution(0), 64);
    benchmark::DoNotOptimize(work.x().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_PcrThomasHybrid)->Arg(256)->Arg(4096);

void BM_GtsvPivoting(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto batch = make_random_general<double>(1, n, 5);
  std::vector<double> a(n), b(n), c(n), d(n), x(n);
  for (auto _ : state) {
    state.PauseTiming();
    std::copy(batch.a().begin(), batch.a().end(), a.begin());
    std::copy(batch.b().begin(), batch.b().end(), b.begin());
    std::copy(batch.c().begin(), batch.c().end(), c.begin());
    std::copy(batch.d().begin(), batch.d().end(), d.begin());
    state.ResumeTiming();
    benchmark::DoNotOptimize(cpu::gtsv_solve<double>(a, b, c, d, x));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_GtsvPivoting)->Arg(256)->Arg(4096);

void BM_CpuBatchSolver(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  auto batch = make_diag_dominant<double>(m, 1024, 6);
  cpu::BatchCpuSolver solver(2);
  for (auto _ : state) {
    auto st = solver.solve(batch);
    benchmark::DoNotOptimize(st.failures);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(m) * 1024);
}
BENCHMARK(BM_CpuBatchSolver)->Arg(16)->Arg(256);

void BM_SimulatedSolve(benchmark::State& state) {
  // Wall-clock cost of a fully functional simulated multi-stage solve —
  // what a user pays to run the simulator, not the simulated time itself.
  const auto n = static_cast<std::size_t>(state.range(0));
  gpusim::Device dev(gpusim::geforce_gtx_470());
  auto host = make_diag_dominant<float>(16, n, 7);
  for (auto _ : state) {
    state.PauseTiming();
    kernels::DeviceBatch<float> dbatch(host);
    kernels::SplitState st;
    state.ResumeTiming();
    if (n > 1024) {
      kernels::stage2_split(dev, dbatch, st,
                            solver::splits_needed(n, 1024));
    }
    auto ks = kernels::pcr_thomas_stage(dev, dbatch, st, 128,
                                        kernels::LoadVariant::Strided);
    benchmark::DoNotOptimize(ks.seconds);
  }
  state.SetItemsProcessed(state.iterations() * 16 * static_cast<long>(n));
}
BENCHMARK(BM_SimulatedSolve)->Arg(1024)->Arg(8192);

void BM_CostOnlySolve(benchmark::State& state) {
  // The tuner's evaluation cost: cost-only runs skip the arithmetic.
  const auto n = static_cast<std::size_t>(state.range(0));
  gpusim::Device dev(gpusim::geforce_gtx_470());
  kernels::DeviceBatch<float> dbatch(16, n);
  for (auto _ : state) {
    kernels::SplitState st;
    if (n > 1024) {
      kernels::stage2_split(dev, dbatch, st,
                            solver::splits_needed(n, 1024),
                            kernels::ExecMode::CostOnly);
    }
    auto ks = kernels::pcr_thomas_stage(dev, dbatch, st, 128,
                                        kernels::LoadVariant::Strided,
                                        kernels::ExecMode::CostOnly);
    benchmark::DoNotOptimize(ks.seconds);
  }
  state.SetItemsProcessed(state.iterations() * 16 * static_cast<long>(n));
}
BENCHMARK(BM_CostOnlySolve)->Arg(1024)->Arg(8192);

// The solve pipeline's guard scans over solve_large's shape (16 x 65,536
// float), one system per call on one thread. range(0) picks the ISA
// variant: 0 the build's default, 1 the host's widest.
tridiag::detail::Isa guard_isa(const benchmark::State& state) {
  return state.range(0) == 0 ? tridiag::detail::Isa::Default : tridiag::detail::host_isa();
}

void BM_GuardScreen(benchmark::State& state) {
  const auto isa = guard_isa(state);
  auto host = make_diag_dominant<float>(16, 65536, 8);
  for (auto _ : state) {
    for (std::size_t s = 0; s < host.num_systems(); ++s) {
      benchmark::DoNotOptimize(
          tridiag::detail::screen_verdict_on(isa, host.system(s).as_const()));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(host.total_equations()));
}
BENCHMARK(BM_GuardScreen)->Arg(0)->Arg(1);

void BM_GuardResidual(benchmark::State& state) {
  const auto isa = guard_isa(state);
  auto host = make_diag_dominant<float>(16, 65536, 8);
  for (auto& v : host.x()) v = 0.5f;
  for (auto _ : state) {
    for (std::size_t s = 0; s < host.num_systems(); ++s) {
      benchmark::DoNotOptimize(tridiag::detail::relative_residual_on(
          isa, host.system(s).as_const(), host.solution(s).as_const()));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(host.total_equations()));
}
BENCHMARK(BM_GuardResidual)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
