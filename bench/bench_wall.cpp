// Wall-clock throughput benchmark of the block-execution engine
// (docs/PERFORMANCE.md). Unlike the figure harnesses — which report
// SIMULATED GPU milliseconds from the cost model — this bench measures
// real host time: systems solved per wall second, per-stage host
// milliseconds, host allocation counts, and a thread-scaling curve over
// engine lane counts. Its JSON output (BENCH_wall.json) is the perf
// baseline that scripts/bench_diff.py gates CI regressions against.
//
// Flags:
//   --systems=512    systems per batch (m)
//   --size=1024      equations per system (n)
//   --repeat=5       timed solve repetitions per lane count
//   --threads=1,2,4,0  lane counts to sweep (0 = hardware_concurrency)
//   --layout=system  system | element | auto | sweep
//   --out=BENCH_wall.json
//
// --layout selects the batch layout the solver runs:
//   system   the staged PCR pipeline on the wire layout (the baseline)
//   element  transpose + interleaved SIMD-lane-per-system Thomas
//   auto     whatever the dynamic tuner picks for the workload
//   sweep    three (m, n) regimes × {system, element, auto}, with a
//            GATED summary: auto must beat the system-major pipeline
//            ≥ 1.3x in at least one regime, stay within 15% of the best
//            fixed layout in every regime, and the tuner must pick
//            element-major where it wins and system-major where the
//            transpose cost dominates. CI runs this as the layout gate.
//
// The default workload runs the full stage 1 -> 2 -> 3/4 pipeline in
// float (m=512, n=1024 is ISSUE 5's reference point). Determinism of
// the engine means every lane count produces bitwise-identical
// solutions WITHIN a layout choice; this harness asserts that while it
// measures. (The two layouts run different arithmetic, so solutions
// across layouts agree only to residual tolerance, not bitwise.)

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/alloc_stats.hpp"
#include "common/buffer_pool.hpp"
#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/timer.hpp"
#include "gpusim/device.hpp"
#include "gpusim/launch.hpp"
#include "gpusim/thread_pool.hpp"
#include "solver/gpu_solver.hpp"
#include "telemetry/json.hpp"
#include "tridiag/generators.hpp"
#include "tridiag/verify.hpp"
#include "tuning/dynamic_tuner.hpp"

namespace {

using namespace tda;
using telemetry::json_number;

struct LaneResult {
  int lanes = 0;
  double systems_per_sec = 0.0;
  double solve_ms = 0.0;  ///< mean wall ms per batched solve
  double host_stage1_ms = 0.0;
  double host_stage2_ms = 0.0;
  double host_stage3_ms = 0.0;
  double host_transpose_ms = 0.0;  ///< element-major layout conversion
  double sim_ms = 0.0;             ///< simulated ms (layout crossover)
  std::uint64_t host_allocs = 0;      ///< counted allocs across timed reps
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  double speedup = 1.0;  ///< vs the 1-lane row
};

std::vector<int> parse_threads(const std::string& spec) {
  std::vector<int> lanes;
  std::stringstream ss(spec);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    try {
      int v = std::stoi(tok);
      if (v == 0) v = static_cast<int>(std::thread::hardware_concurrency());
      if (v >= 1 && std::find(lanes.begin(), lanes.end(), v) == lanes.end()) {
        lanes.push_back(v);
      }
    } catch (...) {  // skip malformed entries
    }
  }
  if (lanes.empty()) lanes.push_back(1);
  return lanes;
}

/// Tuned switch points for (m, n) — the --layout=auto / sweep choice.
solver::SwitchPoints tuned_points(std::size_t m, std::size_t n) {
  gpusim::Device dev(gpusim::geforce_gtx_470());
  dev.set_arena_poison(false);
  tuning::DynamicTuner<float> tuner(dev);
  return tuner.tune({m, n}).points;
}

/// Times `repeat` solves of an (m, n) batch with the given switch points
/// at each lane count, asserting bitwise determinism across lane counts.
std::vector<LaneResult> run_lane_sweep(std::size_t m, std::size_t n,
                                       const solver::SwitchPoints& points,
                                       const std::vector<int>& lane_counts,
                                       int repeat) {
  auto batch = tridiag::make_diag_dominant<float>(m, n, 20260806);
  const auto pristine = batch;

  std::vector<LaneResult> rows;
  std::vector<float> reference_x;
  for (int lanes : lane_counts) {
    gpusim::ThreadPool::global().resize(lanes);
    gpusim::Device dev(gpusim::geforce_gtx_470());
    dev.set_arena_poison(false);  // measure the release-mode fill path
    solver::GpuTridiagonalSolver<float> solver(dev, points);

    // Warm-up: pool slab, lane scratch arenas, page faults.
    solver.solve(batch);

    LaneResult r;
    r.lanes = lanes;
    const auto allocs0 = host_alloc_count();
    const auto pool0 = BufferPool::global().stats();
    WallTimer timer;
    for (int it = 0; it < repeat; ++it) {
      auto stats = solver.solve(batch);
      r.host_stage1_ms += stats.host_stage1_ms;
      r.host_stage2_ms += stats.host_stage2_ms;
      r.host_stage3_ms += stats.host_stage3_ms;
      r.host_transpose_ms += stats.host_transpose_ms;
      r.sim_ms = stats.total_ms;
    }
    const double wall_s = timer.seconds();
    const auto pool1 = BufferPool::global().stats();
    r.host_allocs = host_alloc_count() - allocs0;
    r.pool_hits = pool1.hits - pool0.hits;
    r.pool_misses = pool1.misses - pool0.misses;
    r.solve_ms = wall_s * 1e3 / repeat;
    r.systems_per_sec = static_cast<double>(m) * repeat / wall_s;
    r.host_stage1_ms /= repeat;
    r.host_stage2_ms /= repeat;
    r.host_stage3_ms /= repeat;
    r.host_transpose_ms /= repeat;

    // Engine contract: the solution must not depend on the lane count.
    TDA_ENSURE(tridiag::batch_residual_inf(pristine, batch.x()) < 1e-3f,
               "bench solve produced a bad solution");
    if (reference_x.empty()) {
      reference_x.assign(batch.x().begin(), batch.x().end());
    } else {
      TDA_ENSURE(std::memcmp(reference_x.data(), batch.x().data(),
                             reference_x.size() * sizeof(float)) == 0,
                 "solutions differ across lane counts");
    }
    rows.push_back(r);
  }

  for (auto& r : rows) {
    r.speedup = r.solve_ms > 0.0 ? rows.front().solve_ms / r.solve_ms : 1.0;
  }
  return rows;
}

// ------------------------------------------------------------ sweep mode

struct RegimeResult {
  const char* name;
  std::size_t m = 0, n = 0;
  tridiag::BatchLayout tuner_choice = tridiag::BatchLayout::SystemMajor;
  LaneResult system, element, autop;
};

int run_layout_sweep(int repeat, int lanes, const std::string& out) {
  // Three regimes spanning the layout crossover. many_small is the
  // interleaved kernels' home turf: enough systems for one-thread-per-
  // system to fill the machine, and systems so short that the staged
  // pipeline runs one under-occupied block per system. The other two are
  // the staged pipeline's: fewer/longer systems where the transposes and
  // the half-empty interleaved grid dominate.
  struct Regime {
    const char* name;
    std::size_t m, n;
  };
  const Regime regimes[] = {
      {"many_small", 21504, 64},
      {"reference", 512, 1024},
      {"wide", 2048, 256},
  };

  std::vector<RegimeResult> results;
  for (const Regime& reg : regimes) {
    RegimeResult rr;
    rr.name = reg.name;
    rr.m = reg.m;
    rr.n = reg.n;

    const solver::SwitchPoints auto_points = tuned_points(reg.m, reg.n);
    rr.tuner_choice = auto_points.layout;
    solver::SwitchPoints sys_points;  // defaults are system-major
    solver::SwitchPoints elem_points;
    elem_points.layout = tridiag::BatchLayout::ElementMajor;

    const std::vector<int> lane_counts{lanes};
    rr.system = run_lane_sweep(reg.m, reg.n, sys_points, lane_counts,
                               repeat).front();
    rr.element = run_lane_sweep(reg.m, reg.n, elem_points, lane_counts,
                                repeat).front();
    rr.autop = run_lane_sweep(reg.m, reg.n, auto_points, lane_counts,
                              repeat).front();
    results.push_back(rr);
  }

  std::printf("%-10s %10s %8s  %14s %14s %14s %12s\n", "regime", "m x n",
              "tuner", "system sys/s", "element sys/s", "auto sys/s",
              "transpose%");
  for (const auto& rr : results) {
    const double tshare =
        rr.element.solve_ms > 0.0
            ? 100.0 * rr.element.host_transpose_ms / rr.element.solve_ms
            : 0.0;
    char shape[32];
    std::snprintf(shape, sizeof(shape), "%zux%zu", rr.m, rr.n);
    std::printf("%-10s %10s %8s  %14.0f %14.0f %14.0f %11.1f%%\n", rr.name,
                shape, tridiag::to_string(rr.tuner_choice),
                rr.system.systems_per_sec, rr.element.systems_per_sec,
                rr.autop.systems_per_sec, tshare);
  }

  // ---- gated summary ----
  // Wall-clock gates only where they are robust (the 1.3x headline and
  // confirming an element-major pick); the within-15% regression gate
  // rides the SIMULATED cost, which is deterministic on every host —
  // the tuner optimizes simulated time, so that is the metric on which
  // "auto matches the best fixed layout" must hold exactly.
  bool saw_element = false, saw_system = false;
  double best_gain = 0.0;
  bool auto_within_15 = true;
  bool choices_sound = true;
  for (const auto& rr : results) {
    const double gain =
        rr.system.systems_per_sec > 0.0
            ? rr.autop.systems_per_sec / rr.system.systems_per_sec
            : 0.0;
    best_gain = std::max(best_gain, gain);
    const double best_fixed_sim = std::min(rr.system.sim_ms,
                                           rr.element.sim_ms);
    if (rr.autop.sim_ms > 1.15 * best_fixed_sim) {
      auto_within_15 = false;
      std::printf("GATE: auto is >15%% behind the best fixed layout in %s\n",
                  rr.name);
    }
    if (rr.tuner_choice == tridiag::BatchLayout::ElementMajor) {
      saw_element = true;
      // Where the tuner chose element-major, the interleaved path must
      // actually win wall-clock over the staged pipeline.
      if (rr.element.systems_per_sec <= rr.system.systems_per_sec) {
        choices_sound = false;
        std::printf("GATE: tuner chose element in %s but it loses "
                    "wall-clock\n", rr.name);
      }
    } else {
      saw_system = true;
      // Where the tuner chose system-major, the element path's simulated
      // cost (transposes + the half-empty interleaved grid) must indeed
      // be higher than the tuned pipeline's.
      if (rr.element.sim_ms <= rr.autop.sim_ms) {
        choices_sound = false;
        std::printf("GATE: tuner chose system in %s but element simulates "
                    "faster\n", rr.name);
      }
    }
  }
  std::printf("gated summary: best auto/system gain %.2fx, tuner picked "
              "element in %s, system in %s\n", best_gain,
              saw_element ? "some regime" : "NO regime",
              saw_system ? "some regime" : "NO regime");

  std::ostringstream js;
  js << "{\n";
  js << "  \"bench\": \"bench_wall_layout\",\n";
  js << "  \"repeat\": " << repeat << ",\n";
  js << "  \"threads\": " << lanes << ",\n";
  js << "  \"best_auto_gain\": " << json_number(best_gain) << ",\n";
  js << "  \"regimes\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& rr = results[i];
    js << "    {\"regime\": \"" << rr.name << "\", \"systems\": " << rr.m
       << ", \"size\": " << rr.n << ", \"tuner_layout\": \""
       << tridiag::to_string(rr.tuner_choice) << "\",\n"
       << "     \"system_sys_per_sec\": "
       << json_number(rr.system.systems_per_sec)
       << ", \"element_sys_per_sec\": "
       << json_number(rr.element.systems_per_sec)
       << ", \"auto_sys_per_sec\": "
       << json_number(rr.autop.systems_per_sec) << ",\n"
       << "     \"element_transpose_ms\": "
       << json_number(rr.element.host_transpose_ms)
       << ", \"system_sim_ms\": " << json_number(rr.system.sim_ms)
       << ", \"element_sim_ms\": " << json_number(rr.element.sim_ms)
       << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  js << "  ]\n";
  js << "}\n";
  if (!out.empty()) {
    std::ofstream file(out);
    TDA_ENSURE(file.good(), "cannot open output file");
    file << js.str();
  }

  // A failed gate throws past main's return: flush first, so a run whose
  // stdout is a pipe or file still shows the table it failed on.
  std::fflush(stdout);
  TDA_ENSURE(best_gain >= 1.3,
             "layout gate: auto must beat the system-major pipeline >= "
             "1.3x in at least one regime");
  TDA_ENSURE(auto_within_15,
             "layout gate: auto fell > 15% behind the best fixed layout");
  TDA_ENSURE(saw_element && saw_system,
             "layout gate: sweep must exercise both tuner choices");
  TDA_ENSURE(choices_sound, "layout gate: a tuner layout choice was wrong");
  std::printf("layout gates passed\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const std::size_t m = static_cast<std::size_t>(cli.get_int("systems", 512));
  const std::size_t n = static_cast<std::size_t>(cli.get_int("size", 1024));
  const int repeat = static_cast<int>(cli.get_int("repeat", 5));
  const std::string layout = cli.get("layout", "system");
  const std::string out = cli.get(
      "out", layout == "sweep" ? "BENCH_wall_layout.json" : "BENCH_wall.json");
  const std::string threads_spec = cli.get("threads", "1,2,4,0");

  std::vector<int> lane_counts = parse_threads(threads_spec);

  if (layout == "sweep") {
    const int lanes = *std::max_element(lane_counts.begin(),
                                        lane_counts.end());
    return run_layout_sweep(repeat, lanes, out);
  }

  solver::SwitchPoints points;
  if (layout == "element") {
    points.layout = tridiag::BatchLayout::ElementMajor;
  } else if (layout == "auto") {
    points = tuned_points(m, n);
  } else {
    TDA_ENSURE(layout == "system",
               "--layout must be system, element, auto or sweep");
  }

  const std::vector<LaneResult> rows =
      run_lane_sweep(m, n, points, lane_counts, repeat);

  // The row bench_diff.py gates on: the widest sweep entry.
  const LaneResult& best =
      *std::max_element(rows.begin(), rows.end(),
                        [](const LaneResult& a, const LaneResult& b) {
                          return a.lanes < b.lanes;
                        });

  std::ostringstream js;
  js << "{\n";
  js << "  \"bench\": \"bench_wall\",\n";
  js << "  \"workload\": {\"systems\": " << m << ", \"size\": " << n
     << ", \"dtype\": \"float\", \"repeat\": " << repeat << "},\n";
  js << "  \"layout\": \"" << layout << "\",\n";
  js << "  \"solver_layout\": \"" << tridiag::to_string(points.layout)
     << "\",\n";
  js << "  \"hardware_concurrency\": "
     << std::thread::hardware_concurrency() << ",\n";
  js << "  \"default_threads\": " << best.lanes << ",\n";
  js << "  \"systems_per_sec\": " << json_number(best.systems_per_sec)
     << ",\n";
  js << "  \"solve_ms\": " << json_number(best.solve_ms) << ",\n";
  js << "  \"host_stage1_ms\": " << json_number(best.host_stage1_ms)
     << ",\n";
  js << "  \"host_stage2_ms\": " << json_number(best.host_stage2_ms)
     << ",\n";
  js << "  \"host_stage3_ms\": " << json_number(best.host_stage3_ms)
     << ",\n";
  js << "  \"host_transpose_ms\": " << json_number(best.host_transpose_ms)
     << ",\n";
  js << "  \"host_allocs\": " << best.host_allocs << ",\n";
  js << "  \"pool_hits\": " << best.pool_hits << ",\n";
  js << "  \"pool_misses\": " << best.pool_misses << ",\n";
  js << "  \"thread_scaling\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const LaneResult& r = rows[i];
    js << "    {\"threads\": " << r.lanes << ", \"systems_per_sec\": "
       << json_number(r.systems_per_sec) << ", \"solve_ms\": "
       << json_number(r.solve_ms) << ", \"speedup\": "
       << json_number(r.speedup) << ", \"host_allocs\": " << r.host_allocs
       << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  js << "  ]\n";
  js << "}\n";

  std::ofstream file(out);
  TDA_ENSURE(file.good(), "cannot open output file");
  file << js.str();
  file.close();

  std::printf("%-8s %14s %10s %8s %12s\n", "threads", "systems/sec",
              "solve_ms", "speedup", "host_allocs");
  for (const auto& r : rows) {
    std::printf("%-8d %14.0f %10.3f %8.2fx %12llu\n", r.lanes,
                r.systems_per_sec, r.solve_ms, r.speedup,
                static_cast<unsigned long long>(r.host_allocs));
  }
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
