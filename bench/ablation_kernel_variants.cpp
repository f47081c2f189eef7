// Ablation for §III-A's two base-kernel variants: strided (uncoalesced
// gather, full shared reuse) vs coalesced (windowed streaming with
// boundary leakage), swept over the subsystem stride — "repeat this stage
// increasing the stride count ... until we know how large systems must be
// until the uncoalesced version is preferred".
//
// The crossover stride is device-specific because it depends on the
// (unqueryable) transaction segment size and cache behaviour — the reason
// the self-tuner must measure rather than model it.

// A second sweep covers the interleaved (element-major) path: transpose
// + one-thread-per-system Thomas — the layout dimension the tuner weighs
// against the staged pipeline (src/kernels/interleaved_kernels.hpp).

#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "kernels/interleaved_kernels.hpp"
#include "kernels/pcr_thomas_kernel.hpp"
#include "kernels/split_kernels.hpp"

using namespace tda;

namespace {

/// Simulated seconds of the staged system-major path: enough stage-2
/// splits to bring subsystems to <= 256 equations, then the hybrid
/// PCR+Thomas base kernel (strided variant, the tuner default).
double staged_seconds(gpusim::Device& dev, std::size_t m, std::size_t n) {
  std::size_t splits = 0;
  while ((n >> splits) > 256) ++splits;
  kernels::DeviceBatch<float> d(m, n);
  kernels::SplitState st;
  double s = 0.0;
  if (splits > 0) {
    s += kernels::stage2_split(dev, d, st, splits,
                               kernels::ExecMode::CostOnly).seconds;
  }
  s += kernels::pcr_thomas_stage(dev, d, st, 64,
                                 kernels::LoadVariant::Strided,
                                 kernels::ExecMode::CostOnly).seconds;
  return s;
}

/// Simulated seconds of the interleaved path: transpose in, the vector
/// Thomas sweep, transpose out.
double interleaved_seconds(gpusim::Device& dev, std::size_t m,
                           std::size_t n) {
  kernels::DeviceBatch<float> d(m, n);
  double s = 0.0;
  s += kernels::transpose_in_stage(dev, d,
                                   kernels::ExecMode::CostOnly).seconds;
  s += kernels::interleaved_thomas_stage(dev, d,
                                         kernels::ExecMode::CostOnly).seconds;
  s += kernels::transpose_out_stage(dev, d,
                                    kernels::ExecMode::CostOnly).seconds;
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::size_t m = static_cast<std::size_t>(cli.get_int("m", 64));
  const std::size_t n_sub = static_cast<std::size_t>(cli.get_int("nsub", 256));

  std::cout << "Ablation — strided vs coalesced base-kernel load, stride "
               "sweep (ratio = strided time / coalesced time; >1 means "
               "coalesced wins)\nper-subsystem size "
            << n_sub << ", " << m << " systems, fp32\n\n";

  const std::vector<std::size_t> split_counts{0, 1, 2, 3, 4, 5, 6, 7};

  TextTable table;
  std::vector<std::string> header{"device"};
  for (auto k : split_counts)
    header.push_back("s=" + std::to_string(std::size_t{1} << k));
  header.push_back("crossover");
  table.set_header(header);

  for (const auto& spec : gpusim::device_registry()) {
    gpusim::Device dev(spec);
    bench::TelemetryScope telemetry_scope(dev, spec.name);
    std::vector<std::string> row{bench::short_name(spec.name)};
    std::size_t crossover = 0;
    bool crossed = false;
    for (auto k : split_counts) {
      const std::size_t stride = std::size_t{1} << k;
      const std::size_t n = n_sub * stride;
      double times[2];
      int vi = 0;
      for (auto variant : {kernels::LoadVariant::Strided,
                           kernels::LoadVariant::Coalesced}) {
        kernels::DeviceBatch<float> d(m, n);
        kernels::SplitState st;
        if (k > 0) kernels::stage2_split(dev, d, st, k,
                                         kernels::ExecMode::CostOnly);
        times[vi++] = kernels::pcr_thomas_stage(dev, d, st, 64, variant,
                                                kernels::ExecMode::CostOnly)
                          .seconds;
      }
      const double ratio = times[0] / times[1];
      row.push_back(TextTable::num(ratio, 2));
      if (!crossed && ratio < 1.0 && k > 0) {
        crossover = stride;
        crossed = true;
      }
    }
    row.push_back(crossed ? "s=" + std::to_string(crossover) : ">max");
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  std::cout << "\n(strided preferred from the crossover stride on; the "
               "crossover differs per device)\n";

  std::cout << "\nAblation — staged pipeline vs interleaved (element-major) "
               "path, simulated ms\n(il-thomas = transpose + vector "
               "Thomas + transpose back)\n\n";
  struct Shape {
    const char* label;
    std::size_t m, n;
  };
  const Shape shapes[] = {
      {"21504x64", 21504, 64},
      {"2048x256", 2048, 256},
      {"512x1024", 512, 1024},
  };
  TextTable itable;
  itable.set_header({"device", "shape", "staged", "il-thomas", "best"});
  for (const auto& spec : gpusim::device_registry()) {
    gpusim::Device dev(spec);
    for (const auto& sh : shapes) {
      const double staged = staged_seconds(dev, sh.m, sh.n) * 1e3;
      const double il_th = interleaved_seconds(dev, sh.m, sh.n) * 1e3;
      itable.add_row({bench::short_name(spec.name), sh.label,
                      TextTable::num(staged, 3), TextTable::num(il_th, 3),
                      il_th < staged ? "il-thomas" : "staged"});
    }
  }
  itable.print(std::cout);
  std::cout << "\n(the interleaved path wins where one thread per system "
               "fills the device; the transposes and the half-empty grid "
               "hand smaller batches back to the staged pipeline)\n";
  return 0;
}
