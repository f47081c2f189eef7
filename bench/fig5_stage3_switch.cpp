// Reproduces paper Figure 5: relative performance at various switch
// points from stage 2 (global splitting) to stage 3 (solving in shared
// memory), per GPU, normalized to the best switch point.
//
// Paper observations this harness should reproduce:
//  * valid on-chip sizes top out at 256 / 512 / 1024 (8800 / 280 / 470);
//  * the 470 prefers 512 over 1024 even though 1024 fits (occupancy);
//  * the 280 performs comparably at 256 and 512;
//  * the 8800 prefers 256 over 128.

#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"

using namespace tda;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::size_t m = static_cast<std::size_t>(cli.get_int("m", 2048));
  const std::size_t n = static_cast<std::size_t>(cli.get_int("n", 2048));

  std::cout << "Figure 5 — stage-2 to stage-3 switch point sweep\n"
            << "workload: " << m << " systems x " << n
            << " equations, fp32\n\n";

  const std::vector<std::size_t> sweep{128, 256, 512, 1024};

  TextTable table("relative performance (1.0 = best switch point)");
  table.set_header({"device", "128", "256", "512", "1024", "best",
                    "paper-best"});
  const char* paper_best[] = {"256", "256-512", "512"};

  int di = 0;
  for (const auto& spec : gpusim::device_registry()) {
    gpusim::Device dev(spec);
    bench::TelemetryScope telemetry_scope(dev, spec.name);
    const std::size_t cap =
        kernels::max_shared_system_size(dev.query(), sizeof(float));
    auto base = tuning::static_switch_points<float>(dev.query());

    std::vector<double> ms(sweep.size(), 0.0);
    double best_ms = std::numeric_limits<double>::infinity();
    std::size_t best_size = 0;
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      if (sweep[i] > cap) continue;  // unlaunchable on this device
      auto [sp, t] = bench::best_inner<float>(dev, {m, n}, base, sweep[i]);
      ms[i] = t;
      if (t < best_ms) {
        best_ms = t;
        best_size = sweep[i];
      }
    }

    std::vector<std::string> row{bench::short_name(spec.name)};
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      row.push_back(ms[i] == 0.0 ? "n/a"
                                 : TextTable::num(best_ms / ms[i], 3));
    }
    row.push_back(std::to_string(best_size));
    row.push_back(paper_best[di++]);
    table.add_row(std::move(row));
  }
  table.print(std::cout);

  std::cout << "\nCSV:\n";
  table.print_csv(std::cout);
  return 0;
}
