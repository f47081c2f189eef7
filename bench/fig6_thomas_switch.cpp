// Reproduces paper Figure 6: performance of the PCR-Thomas solver at
// various stage-3 to stage-4 switch points (the number of subsystems
// handed to per-thread Thomas), normalized to the best switch point.
//
// Paper observations: best switch point is 64 subsystems on the
// GeForce 8800 and 128 on the GTX 280 and 470 — which is why the static
// tuner's universal guess of 64 leaves performance behind on newer parts.

#include <iostream>
#include <limits>
#include <vector>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"

using namespace tda;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::size_t m = static_cast<std::size_t>(cli.get_int("m", 4096));

  std::cout << "Figure 6 — PCR-Thomas (stage-3 to stage-4) switch point "
               "sweep\nworkload: "
            << m
            << " systems, each sized to the device's tuned on-chip system "
               "size, fp32\n\n";

  const std::vector<std::size_t> sweep{16, 32, 64, 128, 256, 512};
  const char* paper_best[] = {"64", "128", "128"};

  TextTable table("relative performance (1.0 = best switch point)");
  table.set_header({"device", "n_onchip", "16", "32", "64", "128", "256",
                    "512", "best", "paper-best"});

  int di = 0;
  for (const auto& spec : gpusim::device_registry()) {
    gpusim::Device dev(spec);
    bench::TelemetryScope telemetry_scope(dev, spec.name);
    // Tune the stage-3 size first (the decoupling the paper prescribes),
    // then sweep the Thomas switch at that size.
    tuning::DynamicTuner<float> tuner(dev);
    auto tuned = tuner.tune({m, 2048});
    const std::size_t n = tuned.points.stage3_system_size;

    auto base = tuned.points;

    std::vector<double> ms(sweep.size(),
                           std::numeric_limits<double>::infinity());
    double best_ms = std::numeric_limits<double>::infinity();
    std::size_t best_th = 0;
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      if (sweep[i] > n) continue;
      auto sp = base;
      sp.thomas_switch = sweep[i];
      ms[i] = solver::GpuTridiagonalSolver<float>(dev, sp).simulate_ms(
          {m, n});
      if (ms[i] < best_ms) {
        best_ms = ms[i];
        best_th = sweep[i];
      }
    }

    std::vector<std::string> row{bench::short_name(spec.name),
                                 std::to_string(n)};
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      row.push_back(std::isinf(ms[i]) ? "n/a"
                                      : TextTable::num(best_ms / ms[i], 3));
    }
    row.push_back(std::to_string(best_th));
    row.push_back(paper_best[di++]);
    table.add_row(std::move(row));
  }
  table.print(std::cout);

  std::cout << "\nCSV:\n";
  table.print_csv(std::cout);
  return 0;
}
