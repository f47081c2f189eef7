// tridiag_cli — one binary that drives the whole library from the shell:
// pick or load a device, synthesize or describe a workload, diagnose it,
// tune, solve, trace and report. The "kitchen sink" example.
//
//   ./tridiag_cli --m=256 --n=4096                         # tune + solve
//   ./tridiag_cli --device="GeForce GTX 280" --gen=poisson --trace
//   ./tridiag_cli --device-file=myGPU.txt --tuner=static
//   ./tridiag_cli --save-device="GeForce GTX 470" --out=profile.txt

#include <algorithm>
#include <chrono>
#include <iostream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "net/client.hpp"
#include "cpu/batch_solver.hpp"
#include "gpusim/device_file.hpp"
#include "gpusim/launch.hpp"
#include "solver/gpu_solver.hpp"
#include "telemetry/export.hpp"
#include "telemetry/json.hpp"
#include "tridiag/diagnostics.hpp"
#include "tridiag/generators.hpp"
#include "tridiag/verify.hpp"
#include "tuning/cache.hpp"
#include "tuning/dynamic_tuner.hpp"
#include "tuning/tuners.hpp"

using namespace tda;

namespace {

int usage() {
  std::cout <<
      R"(tridiag_cli — auto-tuned multi-stage tridiagonal solver driver

workload:   --m=<systems> --n=<equations>   (default 64 x 4096)
            --gen=dominant|poisson|spline|toeplitz   --seed=<u64>
device:     --device=<registry name>        (default GeForce GTX 470)
            --device-file=<profile.txt>     load a custom device
            --list-devices                  print the registry and exit
            --save-device=<name> --out=<f>  export a registry profile
tuning:     --tuner=dynamic|static|default  (default dynamic)
            --cache=<file>                  persistent tuning cache
output:     --trace                         print the kernel timeline
            --json=<path>                   dump solve result + metrics JSON
            --cpu                           also run the CPU baseline
            --fp32                          solve in single precision
remote:     --connect=<host:port|unix:path> solve on a wire front door
            --token=<tenant token>          tenant auth for --connect
            --window=<k>                    requests in flight (default 8)
telemetry:  TDA_TRACE=<path>                write a Chrome trace (Perfetto)
            TDA_METRICS=<path>              write a metrics JSON
)";
  return 0;
}

template <typename T>
int run(const Cli& cli, gpusim::Device& dev) {
  // Telemetry: TDA_TRACE / TDA_METRICS write files on scope exit;
  // --json and --trace read the session directly.
  telemetry::Telemetry tel;
  telemetry::EnvExport tel_export(tel);
  dev.set_telemetry(&tel);
  const std::string json_path = cli.get("json", "");

  const std::size_t m = static_cast<std::size_t>(cli.get_int("m", 64));
  const std::size_t n = static_cast<std::size_t>(cli.get_int("n", 4096));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  const std::string gen = cli.get("gen", "dominant");

  tridiag::TridiagBatch<T> batch(1, 1);
  if (gen == "dominant") {
    batch = tridiag::make_diag_dominant<T>(m, n, seed);
  } else if (gen == "poisson") {
    batch = tridiag::make_poisson<T>(m, n, seed);
  } else if (gen == "spline") {
    batch = tridiag::make_spline<T>(m, n, seed);
  } else if (gen == "toeplitz") {
    batch = tridiag::make_toeplitz<T>(m, n, T{-1}, T{3}, T{-1}, seed);
  } else {
    std::cerr << "unknown generator: " << gen << "\n";
    return 1;
  }
  auto pristine = batch;

  std::cout << "device   : " << dev.spec().name << "\n";
  std::cout << "workload : " << m << " x " << n << " (" << gen << ", fp"
            << sizeof(T) * 8 << ")\n";

  // Pre-flight diagnostics.
  auto diag = tridiag::diagnose(batch);
  std::cout << "diagnose : " << tridiag::to_string(diag) << "\n";
  if (!diag.strictly_dominant && diag.dominance < 1.0) {
    std::cout << "           warning: not diagonally dominant; pivot-free "
                 "solvers may fail (consider the CPU gtsv path)\n";
  }

  // Parameter selection.
  const std::string tuner_kind = cli.get("tuner", "dynamic");
  solver::SwitchPoints points;
  if (tuner_kind == "default") {
    points = tuning::default_switch_points<T>();
  } else if (tuner_kind == "static") {
    points = tuning::static_switch_points<T>(dev.query());
  } else if (tuner_kind == "dynamic") {
    tuning::TuningCache cache;
    const std::string cache_path = cli.get("cache", "");
    if (!cache_path.empty()) cache.load(cache_path);
    tuning::DynamicTuner<T> tuner(dev, &cache);
    auto result = tuner.tune({m, n});
    points = result.points;
    std::cout << "tuning   : " << result.evaluations << " evaluations"
              << (result.from_cache ? " (cache hit)" : "") << "\n";
    if (!cache_path.empty()) cache.save(cache_path);
  } else {
    std::cerr << "unknown tuner: " << tuner_kind << "\n";
    return 1;
  }
  const std::string points_desc = solver::describe(points);
  std::cout << "points   : " << points_desc << "\n";

  // Solve.
  const std::size_t first_span = tel.tracer.spans().size();
  if (cli.has("trace")) tel.tracer.enable();
  solver::GpuTridiagonalSolver<T> solver(dev, points);
  auto stats = solver.solve(batch);
  std::cout << "plan     : " << stats.plan.stage1_steps
            << " cooperative splits, " << stats.plan.stage2_steps
            << " independent splits, on-chip size "
            << stats.plan.stage3_sub_size << "\n";
  std::cout << "time     : " << stats.total_ms << " simulated ms (stage1 "
            << stats.stage1_ms << ", stage2 " << stats.stage2_ms
            << ", stage3+4 " << stats.stage3_ms << ")\n";

  const double residual = tridiag::batch_residual_inf(pristine, batch.x());
  std::cout << "residual : " << residual
            << (residual < (sizeof(T) == 4 ? 1e-3 : 1e-9) ? "  [OK]"
                                                          : "  [FAIL]")
            << "\n";

  if (cli.has("trace")) {
    std::cout << "\nkernel trace:\n";
    telemetry::kernel_table(tel.tracer.spans(), first_span).print(std::cout);
  }

  if (!json_path.empty()) {
    std::ostringstream js;
    js << "{\"device\":\"" << telemetry::json_escape(dev.spec().name)
       << "\",\"workload\":{\"m\":" << m << ",\"n\":" << n
       << ",\"generator\":\"" << telemetry::json_escape(gen)
       << "\",\"precision_bits\":" << sizeof(T) * 8 << "},\"points\":\""
       << telemetry::json_escape(points_desc) << "\",\"result\":{"
       << "\"total_ms\":" << telemetry::json_number(stats.total_ms)
       << ",\"stage1_ms\":" << telemetry::json_number(stats.stage1_ms)
       << ",\"stage2_ms\":" << telemetry::json_number(stats.stage2_ms)
       << ",\"stage3_ms\":" << telemetry::json_number(stats.stage3_ms)
       << ",\"kernel_launches\":" << stats.kernel_launches
       << ",\"residual\":" << telemetry::json_number(residual)
       << "},\"metrics\":" << telemetry::to_metrics_json(tel.metrics)
       << "}";
    if (telemetry::write_text_file(json_path, js.str())) {
      std::cout << "json     : wrote " << json_path << "\n";
    } else {
      std::cerr << "cannot write " << json_path << "\n";
      return 1;
    }
  }

  if (cli.has("cpu")) {
    auto cpu_batch = pristine;
    cpu::BatchCpuSolver host(0);
    auto cpu_stats = host.solve(cpu_batch);
    std::cout << "\ncpu      : " << cpu_stats.wall_ms
              << " wall ms on this host (" << cpu_stats.threads_used
              << " threads, " << cpu_stats.failures << " failures)\n";
  }
  return residual < (sizeof(T) == 4 ? 1e-3 : 1e-9) ? 0 : 1;
}

/// --connect mode: the same workload, solved by a remote front door
/// over the wire protocol instead of the in-process solver. Requests
/// are pipelined `--window` deep; solutions land back in the batch and
/// are verified with the same residual check as the local path.
template <typename T>
int remote_run(const Cli& cli) {
  const std::size_t m = static_cast<std::size_t>(cli.get_int("m", 64));
  const std::size_t n = static_cast<std::size_t>(cli.get_int("n", 4096));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  const std::string gen = cli.get("gen", "dominant");

  tridiag::TridiagBatch<T> batch(1, 1);
  if (gen == "dominant") {
    batch = tridiag::make_diag_dominant<T>(m, n, seed);
  } else if (gen == "poisson") {
    batch = tridiag::make_poisson<T>(m, n, seed);
  } else if (gen == "spline") {
    batch = tridiag::make_spline<T>(m, n, seed);
  } else if (gen == "toeplitz") {
    batch = tridiag::make_toeplitz<T>(m, n, T{-1}, T{3}, T{-1}, seed);
  } else {
    std::cerr << "unknown generator: " << gen << "\n";
    return 1;
  }

  const std::string spec = cli.get("connect");
  net::Client client;
  std::string err;
  if (!client.connect(spec, cli.get("token", ""), &err)) {
    std::cerr << "cannot connect to " << spec << ": " << err << "\n";
    return 1;
  }
  std::cout << "remote   : " << spec
            << (client.tenant().empty() ? std::string()
                                        : " (tenant " + client.tenant() + ")")
            << "\n";
  std::cout << "workload : " << m << " x " << n << " (" << gen << ", fp"
            << sizeof(T) * 8 << ")\n";

  const std::size_t window =
      std::max<std::size_t>(1, static_cast<std::size_t>(
                                   cli.get_int("window", 8)));
  const auto lane = [n](std::span<const T> s, std::size_t i) {
    return std::vector<T>(s.begin() + static_cast<std::ptrdiff_t>(i * n),
                          s.begin() + static_cast<std::ptrdiff_t>((i + 1) * n));
  };

  const auto t0 = std::chrono::steady_clock::now();
  std::size_t solved = 0;
  double server_solve_ms = 0.0, server_wait_ms = 0.0;
  const auto run = client.run_window<T>(
      window, m,
      [&](std::size_t i) {
        return net::WindowRequest<T>{lane(batch.a(), i), lane(batch.b(), i),
                                     lane(batch.c(), i), lane(batch.d(), i)};
      },
      [&](std::size_t i, const net::WindowRequest<T>&,
          const net::WireResult<T>& r) {
        if (!r.ok()) {
          std::cerr << "system " << i << ": " << net::to_string(r.code) << " "
                    << r.error << "\n";
          return net::Verdict::Settle;
        }
        ++solved;
        server_solve_ms += r.solve_ms;
        server_wait_ms += r.wait_ms;
        std::copy(r.x.begin(), r.x.end(),
                  batch.x().begin() + static_cast<std::ptrdiff_t>(i * n));
        return net::Verdict::Settle;
      });
  if (!run.error.empty()) {
    std::cerr << "transport failed: " << run.error << "\n";
  }
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  client.close();

  std::cout << "solved   : " << solved << " / " << m << " systems in "
            << wall_ms << " wall ms (window " << window << ")\n";
  if (solved > 0) {
    std::cout << "server   : mean solve " << server_solve_ms / double(solved)
              << " ms, mean wait " << server_wait_ms / double(solved)
              << " ms per request\n";
  }
  if (solved < m) {
    std::cout << "residual : skipped (" << m - solved
              << " unsolved)  [FAIL]\n";
    return 1;
  }
  const double residual = tridiag::batch_residual_inf(batch, batch.x());
  const bool ok = residual < (sizeof(T) == 4 ? 1e-3 : 1e-9);
  std::cout << "residual : " << residual << (ok ? "  [OK]" : "  [FAIL]")
            << "\n";
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  if (cli.has("help")) return usage();

  if (cli.has("connect")) {
    return cli.has("fp32") ? remote_run<float>(cli) : remote_run<double>(cli);
  }

  if (cli.has("list-devices")) {
    for (const auto& spec : gpusim::device_registry()) {
      std::cout << spec.name << "  (" << spec.sm_count << " SMs, "
                << spec.shared_mem_per_sm / 1024 << " KB shared, "
                << spec.global_bw_gb_s << " GB/s)\n";
    }
    return 0;
  }

  if (cli.has("save-device")) {
    auto spec = gpusim::device_by_name(cli.get("save-device"));
    if (!spec) {
      std::cerr << "unknown device\n";
      return 1;
    }
    const std::string out = cli.get("out", "device_profile.txt");
    if (!gpusim::save_device_profile(out, *spec)) {
      std::cerr << "cannot write " << out << "\n";
      return 1;
    }
    std::cout << "wrote " << out << "\n";
    return 0;
  }

  gpusim::DeviceSpec spec = gpusim::geforce_gtx_470();
  if (cli.has("device-file")) {
    spec = gpusim::load_device_profile(cli.get("device-file"));
  } else if (cli.has("device")) {
    auto found = gpusim::device_by_name(cli.get("device"));
    if (!found) {
      std::cerr << "unknown device: " << cli.get("device")
                << " (try --list-devices)\n";
      return 1;
    }
    spec = *found;
  }
  gpusim::Device dev(spec);

  return cli.has("fp32") ? run<float>(cli, dev) : run<double>(cli, dev);
}
