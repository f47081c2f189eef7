// Reproduces paper Figure 8: the dynamically tuned GTX 470 solver vs the
// Intel MKL CPU baseline for the four paper workloads.
//
// Paper numbers (fp32):
//   workload   GPU ms   CPU ms   speedup
//   1Kx1K      0.96     10.70    11x
//   2Kx2K      5.52     37.90     7x
//   4Kx4K     27.92    168.30     6x
//   1x2M      50.40     34.00    0.7x   (CPU wins: PCR-dominated)
//
// The CPU column is the calibrated Core-i5/MKL model (DESIGN.md §2); the
// measured wall-clock of our own LU solver on the build host is printed
// alongside for reference (different machine, different absolute scale).
// That wall-clock column differs from run to run, so a byte-for-byte
// comparison of two runs' output needs --no-host-measure, which skips it.

#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "cpu/batch_solver.hpp"
#include "cpu/cost_model.hpp"
#include "tridiag/generators.hpp"
#include "tridiag/verify.hpp"

using namespace tda;

namespace {
struct Row {
  const char* label;
  std::size_t m, n;
  double paper_gpu_ms;
  double paper_cpu_ms;
};
}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const bool skip_host = cli.has("no-host-measure");

  const std::vector<Row> rows = {
      {"1Kx1K", 1024, 1024, 0.96, 10.70},
      {"2Kx2K", 2048, 2048, 5.52, 37.90},
      {"4Kx4K", 4096, 4096, 27.92, 168.30},
      {"1x2M", 1, 2 * 1024 * 1024, 50.40, 34.00},
  };

  std::cout << "Figure 8 — GPU (GTX 470, dynamically tuned) vs CPU "
               "(Core i5 MKL model), fp32\n\n";

  gpusim::Device dev(gpusim::geforce_gtx_470());
  bench::TelemetryScope telemetry_scope(dev);
  const auto cpu_spec = cpu::paper_core_i5();

  TextTable table("GPU vs CPU");
  table.set_header({"workload", "gpu_ms", "cpu_ms", "speedup", "paper_gpu",
                    "paper_cpu", "paper_speedup", "host_cpu_ms"});

  for (const auto& r : rows) {
    tuning::DynamicTuner<float> tuner(dev);
    auto dyn = tuner.tune({r.m, r.n});
    const double gpu_ms =
        solver::GpuTridiagonalSolver<float>(dev, dyn.points)
            .simulate_ms({r.m, r.n});
    const double cpu_ms = cpu::mkl_model_ms(cpu_spec, r.m, r.n, 4);

    double host_ms = 0.0;
    if (!skip_host) {
      auto batch = tridiag::make_diag_dominant<float>(r.m, r.n, 777);
      cpu::BatchCpuSolver host_solver(0);  // paper policy: 2 threads / 1
      host_ms = host_solver.solve(batch).wall_ms;
    }

    table.add_row({r.label, TextTable::num(gpu_ms, 2),
                   TextTable::num(cpu_ms, 2),
                   TextTable::num(cpu_ms / gpu_ms, 1) + "x",
                   TextTable::num(r.paper_gpu_ms, 2),
                   TextTable::num(r.paper_cpu_ms, 2),
                   TextTable::num(r.paper_cpu_ms / r.paper_gpu_ms, 1) + "x",
                   skip_host ? "-" : TextTable::num(host_ms, 2)});
  }
  table.print(std::cout);

  // Functional validation: both solvers produce correct answers on a
  // shared workload.
  {
    auto batch_gpu = tridiag::make_diag_dominant<float>(64, 1024, 99);
    auto batch_cpu = batch_gpu;
    auto pristine = batch_gpu;
    tuning::DynamicTuner<float> tuner(dev);
    auto dyn = tuner.tune({64, 1024});
    solver::GpuTridiagonalSolver<float> s(dev, dyn.points);
    s.solve(batch_gpu);
    cpu::BatchCpuSolver host_solver(2);
    host_solver.solve(batch_cpu);
    const double res_gpu =
        tridiag::batch_residual_inf(pristine, batch_gpu.x());
    const double res_cpu =
        tridiag::batch_residual_inf(pristine, batch_cpu.x());
    std::cout << "\nvalidation: GPU residual " << res_gpu
              << ", CPU residual " << res_cpu
              << ((res_gpu < 1e-3 && res_cpu < 1e-3) ? "  [OK]" : "  [FAIL]")
              << "\n";
  }

  std::cout << "\n";
  bench::report_alloc_gauges(std::cout,
                             &telemetry_scope.telemetry().metrics);

  std::cout << "\nCSV:\n";
  table.print_csv(std::cout);
  return 0;
}
