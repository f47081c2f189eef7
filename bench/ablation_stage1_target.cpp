// Ablation for §III-C / Figure 4: the stage-1→2 switch point (how many
// independent systems cooperative splitting should create before handing
// over to independent splitting) for a single huge system.
//
// Sweeps the target over the power-of-two ladder and reports per-device
// times, the optimum, and where the default (16) and machine guess
// (#processors) land. The landscape shows the tension the paper
// describes: too little stage 1 starves stage 2 of parallelism; too much
// pays the per-split synchronization penalty.

#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"

using namespace tda;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::size_t n =
      static_cast<std::size_t>(cli.get_int("n", 1 << 21));  // 2M

  std::cout << "Ablation — stage-1 target sweep for a single system of "
            << n << " equations (fp32, simulated ms)\n\n";

  const std::vector<std::size_t> targets{1,  2,  4,   8,   16,  32,
                                         64, 128, 256, 512, 1024};

  TextTable table;
  std::vector<std::string> header{"device"};
  for (auto t : targets) header.push_back(std::to_string(t));
  header.push_back("best");
  header.push_back("default(16)");
  header.push_back("machine guess");
  table.set_header(header);

  for (const auto& spec : gpusim::device_registry()) {
    gpusim::Device dev(spec);
    bench::TelemetryScope telemetry_scope(dev, spec.name);
    // Group-A parameters from the tuner so only stage 1 varies.
    tuning::DynamicTuner<float> tuner(dev);
    auto tuned = tuner.tune({1, n});

    std::vector<std::string> row{bench::short_name(spec.name)};
    double best = 1e300;
    std::size_t best_t = 0;
    double at_default = 0.0, at_guess = 0.0;
    const std::size_t guess =
        tuning::static_switch_points<float>(dev.query())
            .stage1_target_systems;
    for (auto t : targets) {
      auto sp = tuned.points;
      sp.stage1_target_systems = t;
      const double ms =
          solver::GpuTridiagonalSolver<float>(dev, sp).simulate_ms({1, n});
      row.push_back(TextTable::num(ms, 1));
      if (ms < best) {
        best = ms;
        best_t = t;
      }
      if (t == 16) at_default = ms;
      if (t <= guess) at_guess = ms;
    }
    row.push_back(std::to_string(best_t));
    row.push_back(TextTable::num(at_default / best, 2) + "x best");
    row.push_back(TextTable::num(at_guess / best, 2) + "x best");
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  return 0;
}
