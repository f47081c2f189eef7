// telemetry_report — showcase of the telemetry subsystem: runs the
// micro-benchmark probes, an auto-tuning search and a solve with full
// span tracing enabled, prints the span tree and the metrics
// registry, and can export both machine-readable files.
//
//   ./telemetry_report [--m=64] [--n=4096] [--device="GeForce GTX 470"]
//                      [--trace=out.json] [--metrics=metrics.json]
//                      [--max-spans=40]
//
// The exports are also env-gated (TDA_TRACE / TDA_METRICS), like every
// other binary in the repo. Open the trace file in chrome://tracing or
// https://ui.perfetto.dev.

#include <iostream>
#include <string>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "gpusim/launch.hpp"
#include "gpusim/probes.hpp"
#include "solver/gpu_solver.hpp"
#include "telemetry/export.hpp"
#include "tridiag/generators.hpp"
#include "tridiag/verify.hpp"
#include "tuning/dynamic_tuner.hpp"

using namespace tda;

namespace {

void print_span_tree(const telemetry::Tracer& tracer,
                     std::size_t max_spans) {
  std::cout << "span tree (" << tracer.spans().size() << " spans";
  if (tracer.spans().size() > max_spans) {
    std::cout << ", first " << max_spans << " shown; --max-spans raises";
  }
  std::cout << "):\n";
  std::size_t shown = 0;
  for (const auto& sp : tracer.spans()) {
    if (++shown > max_spans) break;
    std::cout << "  " << std::string(2 * sp.depth, ' ') << sp.name << "  "
              << TextTable::num((sp.end_s - sp.begin_s) * 1e3, 4) << " ms";
    for (const auto& [k, v] : sp.attrs) {
      std::cout << "  " << k << "=" << v;
    }
    std::cout << "\n";
  }
}

void print_metrics(const telemetry::MetricsRegistry& metrics) {
  std::cout << "\ncounters:\n";
  for (const auto& [name, value] : metrics.counters()) {
    std::cout << "  " << name << " = " << TextTable::num(value, 0) << "\n";
  }
  std::cout << "gauges:\n";
  for (const auto& [name, value] : metrics.gauges()) {
    std::cout << "  " << name << " = " << TextTable::num(value, 3) << "\n";
  }
  std::cout << "histograms:\n";
  TextTable t;
  t.set_header({"name", "count", "min", "p50", "p95", "max", "mean"});
  for (const auto& [name, h] : metrics.histograms()) {
    t.add_row({name, std::to_string(h.count), TextTable::num(h.min, 4),
               TextTable::num(h.quantile(0.50), 4),
               TextTable::num(h.quantile(0.95), 4),
               TextTable::num(h.max, 4), TextTable::num(h.mean(), 4)});
  }
  t.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::size_t m = static_cast<std::size_t>(cli.get_int("m", 64));
  const std::size_t n = static_cast<std::size_t>(cli.get_int("n", 4096));
  const auto max_spans =
      static_cast<std::size_t>(cli.get_int("max-spans", 40));
  const std::string device_name = cli.get("device", "GeForce GTX 470");

  auto spec = gpusim::device_by_name(device_name);
  if (!spec) {
    std::cerr << "unknown device: " << device_name << "\n";
    return 1;
  }
  gpusim::Device dev(*spec);

  telemetry::Telemetry tel;
  telemetry::EnvExport tel_export(tel);
  tel.tracer.enable();  // this binary's whole point is the telemetry
  dev.set_telemetry(&tel);

  std::cout << "device: " << spec->name << "\nworkload: " << m << " x "
            << n << " (fp32)\n\n";

  // 1. Probes (one span per micro-benchmark).
  auto probes = gpusim::run_probes(dev);
  std::cout << "probes: peak " << TextTable::num(probes.peak_bandwidth_gb_s, 1)
            << " GB/s, launch overhead "
            << TextTable::num(probes.launch_overhead_us, 2) << " us\n";

  // 2. Tune (one span per candidate evaluated) and solve (stage spans
  //    with per-launch children).
  tuning::DynamicTuner<float> tuner(dev);
  auto tuned = tuner.tune({m, n});
  auto batch = tridiag::make_diag_dominant<float>(m, n, 42);
  auto pristine = batch;
  solver::GpuTridiagonalSolver<float> solver(dev, tuned.points);
  auto stats = solver.solve(batch);
  const double residual = tridiag::batch_residual_inf(pristine, batch.x());
  std::cout << "solve: " << TextTable::num(stats.total_ms, 4)
            << " simulated ms, residual " << residual << "\n\n";

  print_span_tree(tel.tracer, max_spans);
  print_metrics(tel.metrics);

  // 3. Exports: explicit flags win; env vars (EnvExport) also work.
  const std::string trace_path = cli.get("trace", "");
  if (!trace_path.empty()) {
    if (!telemetry::write_text_file(
            trace_path, telemetry::to_chrome_trace(tel.tracer))) {
      std::cerr << "cannot write " << trace_path << "\n";
      return 1;
    }
    std::cout << "\nwrote Chrome trace: " << trace_path
              << " (open in chrome://tracing or ui.perfetto.dev)\n";
  }
  const std::string metrics_path = cli.get("metrics", "");
  if (!metrics_path.empty()) {
    if (!telemetry::write_text_file(
            metrics_path, telemetry::to_metrics_json(tel.metrics))) {
      std::cerr << "cannot write " << metrics_path << "\n";
      return 1;
    }
    std::cout << "wrote metrics: " << metrics_path << "\n";
  }

  return residual < 1e-3 ? 0 : 1;
}
