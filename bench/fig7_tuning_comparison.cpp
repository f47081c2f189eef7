// Reproduces paper Figure 7: non-tuned vs statically tuned vs dynamically
// tuned execution time for the four paper workloads on all three GPUs,
// normalized to the non-tuned (default-parameter) time.
//
// Paper observations to reproduce:
//  * static tuning beats default by ~17 % on average (up to 60 %);
//  * dynamic tuning beats default by ~32 % on average, up to 5x,
//    with the largest wins on the largest systems;
//  * default OUTPERFORMS static on 4K×4K (static switches to shared
//    memory too early; default's extra splits buy occupancy).

#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "tridiag/generators.hpp"
#include "tridiag/verify.hpp"

using namespace tda;

namespace {

struct WorkloadRow {
  const char* label;
  std::size_t m, n;
};

// Paper Fig. 7: untuned execution times (ms) printed above the columns.
const double kPaperUntunedMs[3][4] = {
    {12, 68, 347, 279},     // GeForce 8800
    {3, 16, 101, 225},      // GTX 280
    {1.3, 6.3, 31, 241},    // GTX 470
};

template <typename T>
int run_fig7(const Cli& cli);

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  // --fp64 runs the same comparison in double precision (halved on-chip
  // capacity; the paper's precision discussion, not a paper figure).
  return cli.has("fp64") ? run_fig7<double>(cli) : run_fig7<float>(cli);
}

namespace {

template <typename T>
int run_fig7(const Cli& cli) {
  const bool quick = cli.has("quick");

  const std::vector<WorkloadRow> workloads = {
      {"1Kx1K", 1024, 1024},
      {"2Kx2K", 2048, 2048},
      {"4Kx4K", 4096, 4096},
      {"1x2M", 1, 2 * 1024 * 1024},
  };

  std::cout << "Figure 7 — default vs static vs dynamic tuning, fp"
            << sizeof(T) * 8 << "\n"
            << "(times normalized to the non-tuned run; absolute times are "
               "simulated ms)\n\n";

  TextTable table("tuning comparison");
  table.set_header({"device", "workload", "untuned_ms", "static", "dynamic",
                    "paper_untuned_ms"});

  std::vector<double> static_gains, dynamic_gains;
  double max_dyn_speedup = 0.0;

  int di = 0;
  for (const auto& spec : gpusim::device_registry()) {
    gpusim::Device dev(spec);
    bench::TelemetryScope telemetry_scope(dev, spec.name);
    int wi = 0;
    for (const auto& w : workloads) {
      if (quick && w.n > 2048 && w.m > 1) {
        ++wi;
        continue;
      }
      const auto def = tuning::default_switch_points<T>();
      const auto sta = tuning::static_switch_points<T>(dev.query());
      tuning::DynamicTuner<T> tuner(dev);
      const auto dyn = tuner.tune({w.m, w.n});

      const auto sim_ms = [&](const solver::SwitchPoints& sp) {
        return solver::GpuTridiagonalSolver<T>(dev, sp).simulate_ms(
            {w.m, w.n});
      };
      const double t_def = sim_ms(def);
      const double t_sta = sim_ms(sta);
      const double t_dyn = sim_ms(dyn.points);

      table.add_row({bench::short_name(spec.name), w.label,
                     TextTable::num(t_def, 2), TextTable::num(t_sta / t_def, 3),
                     TextTable::num(t_dyn / t_def, 3),
                     TextTable::num(kPaperUntunedMs[di][wi], 1)});

      static_gains.push_back(1.0 - t_sta / t_def);
      dynamic_gains.push_back(1.0 - t_dyn / t_def);
      max_dyn_speedup = std::max(max_dyn_speedup, t_def / t_dyn);
      ++wi;
    }
    ++di;
  }
  table.print(std::cout);

  std::cout << "\nsummary (paper: static ~17% avg, dynamic ~32% avg, "
               "max 5x)\n";
  std::cout << "  static tuning avg runtime reduction : "
            << TextTable::num(100.0 * mean(static_gains), 1) << " %\n";
  std::cout << "  dynamic tuning avg runtime reduction: "
            << TextTable::num(100.0 * mean(dynamic_gains), 1) << " %\n";
  std::cout << "  max dynamic speedup over untuned    : "
            << TextTable::num(max_dyn_speedup, 2) << " x\n";

  // Functional spot-check: the dynamically tuned solver must still solve.
  {
    gpusim::Device dev(gpusim::geforce_gtx_470());
    bench::TelemetryScope telemetry_scope(dev, "search");
    tuning::DynamicTuner<T> tuner(dev);
    auto dyn = tuner.tune({1024, 1024});
    solver::GpuTridiagonalSolver<T> s(dev, dyn.points);
    auto batch = tridiag::make_diag_dominant<T>(1024, 1024, 4242);
    auto pristine = batch;
    s.solve(batch);
    const double res = tridiag::batch_residual_inf(pristine, batch.x());
    std::cout << "\nvalidation: tuned 1Kx1K solve residual = " << res
              << (res < 1e-3 ? "  [OK]" : "  [FAIL]") << "\n";
    std::cout << "\n";
    bench::report_alloc_gauges(std::cout,
                               &telemetry_scope.telemetry().metrics);
  }

  std::cout << "\nCSV:\n";
  table.print_csv(std::cout);
  return 0;
}

}  // namespace
