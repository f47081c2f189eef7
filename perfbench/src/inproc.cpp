// In-process workloads: solver::AutoSolver<float> on a simulated
// GeForce GTX 470.
//
//   solve_large       16 x 65,536. The tuner picks system-major and every
//                     solve runs stage 1, stage 2 and stages 3/4: the
//                     paper's large-system regime. No transposes.
//   solve_many_small  21,504 x 64. The tuner picks element-major: host
//                     transposes plus the interleaved Thomas kernel, and
//                     stages 1-2 never run.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "bench.hpp"
#include "common/alloc_stats.hpp"
#include "common/buffer_pool.hpp"
#include "common/rng.hpp"
#include "cpu/gtsv.hpp"
#include "gpusim/device.hpp"
#include "gpusim/launch.hpp"
#include "kernels/device_batch.hpp"
#include "solver/auto_solver.hpp"
#include "solver/gpu_solver.hpp"
#include "tridiag/generators.hpp"
#include "tridiag/verify.hpp"
#include "tuning/cache.hpp"
#include "tuning/dynamic_tuner.hpp"

namespace perfbench {
namespace {

using T = float;
using Batch = tda::tridiag::TridiagBatch<T>;

constexpr int kSetupReps = 5;
/// p90 needs at least ten samples beyond it.
constexpr std::size_t kMinSamples = 100;
/// A run stops adding samples after this long whatever it has.
constexpr double kMaxLoopSeconds = 90.0;
constexpr double kResidualTol = 1e-4;
constexpr double kForwardTol = 1e-4;
constexpr std::size_t kReferenceSystems = 16;
constexpr int kColdTuneReps = 3;

struct Shape {
  std::size_t m, n;
};

Shape shape_of(const std::string& workload) {
  return workload == "solve_large" ? Shape{16, 65536} : Shape{21504, 64};
}

/// Systems of `x` that are not a correct solution of `pristine`. The
/// batch-wide residual is the gate; per-system residuals only count the
/// damage once it fails. Non-finite values fail outright, since a NaN
/// residual compares false against any tolerance.
std::uint64_t wrong_systems(const Batch& pristine, std::span<const T> x) {
  const bool finite = std::all_of(x.begin(), x.end(),
                                  [](T v) { return std::isfinite(v); });
  if (finite && tda::tridiag::batch_residual_inf(pristine, x) <= kResidualTol)
    return 0;
  const std::size_t n = pristine.system_size();
  std::uint64_t bad = 0;
  for (std::size_t s = 0; s < pristine.num_systems(); ++s) {
    const std::size_t off = s * n;
    const auto xs = x.subspan(off, n);
    const auto view = [&](std::span<const T> lane) {
      return tda::StridedView<const T>(lane.data() + off, n, 1);
    };
    const tda::tridiag::SystemView<const T> sys{
        view(pristine.a()), view(pristine.b()), view(pristine.c()),
        view(pristine.d())};
    const bool ok =
        std::all_of(xs.begin(), xs.end(),
                    [](T v) { return std::isfinite(v); }) &&
        tda::tridiag::residual_inf(
            sys, tda::StridedView<const T>(xs.data(), n, 1)) <= kResidualTol;
    bad += ok ? 0 : 1;
  }
  return bad;
}

/// Sampled systems whose solution differs from the pivoting CPU
/// reference by more than kForwardTol, relative.
std::uint64_t reference_mismatches(const Batch& pristine,
                                   std::span<const T> x,
                                   std::uint64_t seed) {
  const std::size_t n = pristine.system_size();
  tda::Rng rng(seed ^ 0x5eedf00dULL);
  std::uint64_t bad = 0;
  for (std::size_t k = 0; k < kReferenceSystems; ++k) {
    const std::size_t off = (rng() % pristine.num_systems()) * n;
    bad += matches_gtsv<T>(pristine.a().subspan(off, n),
                           pristine.b().subspan(off, n),
                           pristine.c().subspan(off, n),
                           pristine.d().subspan(off, n), x.subspan(off, n),
                           kForwardTol)
               ? 0
               : 1;
  }
  return bad;
}

void poison(Batch& batch) {
  std::fill(batch.x().begin(), batch.x().end(),
            std::numeric_limits<T>::quiet_NaN());
}

struct Loop {
  std::vector<double> latency_ms;
  double solve_s = 0.0;  ///< summed wall time inside solve calls
  double sim_ms = 0.0;
  std::uint64_t systems = 0;
  std::uint64_t failed = 0;
};

/// Times AutoSolver::solve one call at a time for `seconds` (and at
/// least `min_samples` calls), verifying every result.
Loop timed_loop(tda::solver::AutoSolver<T>& solver, Batch& batch,
                const Batch& pristine, double seconds,
                std::size_t min_samples) {
  Loop loop;
  const auto start = Clock::now();
  for (;;) {
    const double elapsed = ms_between(start, Clock::now()) / 1e3;
    if (elapsed >= kMaxLoopSeconds ||
        (elapsed >= seconds && loop.latency_ms.size() >= min_samples))
      break;
    poison(batch);
    const auto t0 = Clock::now();
    const auto stats = solver.solve(batch);
    const double ms = ms_between(t0, Clock::now());
    loop.latency_ms.push_back(ms);
    loop.solve_s += ms / 1e3;
    loop.sim_ms = stats.total_ms;
    loop.systems += batch.num_systems();
    loop.failed += wrong_systems(pristine, batch.x());
  }
  return loop;
}

/// Per-call samples of the traced run, one vector per layer.
struct TracedSamples {
  std::vector<double> total, lookup, upload, run, download, release;
  std::vector<double> stage1, stage2, stage3, transpose;
  tda::solver::SolveStats last;
  std::uint64_t misses = 0;
  std::uint64_t systems = 0;
  std::uint64_t failed = 0;
};

/// Repeats each solve as the public steps AutoSolver::solve composes —
/// tune lookup, DeviceBatch upload, GpuTridiagonalSolver::run, download —
/// timing each from the outside and keeping the spans in `log`.
TracedSamples traced_loop(tda::gpusim::Device& dev,
                          tda::tuning::TuningCache& cache, Batch& batch,
                          const Batch& pristine, double seconds,
                          SpanLog& log) {
  TracedSamples s;
  const tda::solver::Workload w{batch.num_systems(), batch.system_size()};
  const auto start = Clock::now();
  std::uint64_t trace = 0;
  for (;;) {
    const double elapsed = ms_between(start, Clock::now()) / 1e3;
    if (elapsed >= kMaxLoopSeconds ||
        (elapsed >= seconds && s.total.size() >= 20))
      break;
    poison(batch);
    const auto t0 = Clock::now();
    tda::tuning::DynamicTuner<T> tuner(dev, &cache);
    const auto tuned = tuner.tune(w);
    const auto t1 = Clock::now();
    std::optional<tda::kernels::DeviceBatch<T>> dbatch;
    dbatch.emplace(dev, batch);
    const auto t2 = Clock::now();
    tda::solver::GpuTridiagonalSolver<T> gpu(dev, tuned.points);
    const auto stats = gpu.run(*dbatch, tda::kernels::ExecMode::Full);
    const auto t3 = Clock::now();
    dbatch->download(batch);
    const auto t4 = Clock::now();
    dbatch.reset();
    const auto t5 = Clock::now();

    ++trace;
    const auto root = log.add("solve", 0, trace, t0, t5);
    log.add("tuning.lookup", root, trace, t0, t1);
    log.add("kernels.upload", root, trace, t1, t2);
    const auto run = log.add("solver.run", root, trace, t2, t3);
    // Stage children are laid end to end from SolveStats' host times.
    auto at = t2;
    const auto stage = [&](const char* name, double ms) {
      if (ms <= 0.0) return;
      const auto end =
          at + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double, std::milli>(ms));
      log.add(name, run, trace, at, end);
      at = end;
    };
    stage("solver.stage1", stats.host_stage1_ms);
    stage("solver.stage2", stats.host_stage2_ms);
    stage("solver.transpose", stats.host_transpose_ms);
    stage("solver.stage3", stats.host_stage3_ms);
    log.add("kernels.download", root, trace, t3, t4);
    log.add("kernels.release", root, trace, t4, t5);

    s.total.push_back(ms_between(t0, t5));
    s.lookup.push_back(ms_between(t0, t1));
    s.upload.push_back(ms_between(t1, t2));
    s.run.push_back(ms_between(t2, t3));
    s.download.push_back(ms_between(t3, t4));
    s.release.push_back(ms_between(t4, t5));
    s.stage1.push_back(stats.host_stage1_ms);
    s.stage2.push_back(stats.host_stage2_ms);
    s.stage3.push_back(stats.host_stage3_ms);
    s.transpose.push_back(stats.host_transpose_ms);
    s.last = stats;
    s.misses += tuned.from_cache ? 0 : 1;
    s.systems += batch.num_systems();
    s.failed += wrong_systems(pristine, batch.x());
  }
  return s;
}

/// Single-threaded pivoting gtsv over the same inputs: the plain CPU
/// baseline, and a control no GPU-path change should move.
double gtsv_equations_per_s(const Batch& pristine) {
  const std::size_t m = pristine.num_systems(), n = pristine.system_size();
  std::vector<T> a(n), b(n), c(n), d(n), x(n);
  return median_rate([&] {
    for (std::size_t s = 0; s < m; ++s) {
      const std::size_t off = s * n;
      std::copy_n(pristine.a().data() + off, n, a.data());
      std::copy_n(pristine.b().data() + off, n, b.data());
      std::copy_n(pristine.c().data() + off, n, c.data());
      std::copy_n(pristine.d().data() + off, n, d.data());
      if (!tda::cpu::gtsv_solve<T>(a, b, c, d, x))
        throw std::runtime_error("gtsv baseline hit a singular system");
    }
    return static_cast<double>(m * n);
  });
}

}  // namespace

Report run_inproc(const Options& opt) {
  const Shape shape = shape_of(opt.workload);
  // Inputs are made before any clock starts.
  Batch batch =
      tda::tridiag::make_diag_dominant<T>(shape.m, shape.n, opt.seed);
  const Batch pristine = batch;
  const double meq = static_cast<double>(shape.m * shape.n) / 1e6;
  Report r;

  // Set-up: device and solver construction, a cold tune, the first solve
  // and its verification. Repeated from an empty buffer pool; the last
  // solver carries on into the timed loop.
  std::vector<double> setup_s;
  std::unique_ptr<tda::gpusim::Device> dev;
  std::unique_ptr<tda::solver::AutoSolver<T>> solver;
  const int reps = opt.trace ? 1 : kSetupReps;
  for (int rep = 0; rep < reps; ++rep) {
    solver.reset();
    dev.reset();
    tda::BufferPool::global().trim();
    poison(batch);
    const auto t0 = Clock::now();
    dev = std::make_unique<tda::gpusim::Device>(
        tda::gpusim::geforce_gtx_470());
    solver = std::make_unique<tda::solver::AutoSolver<T>>(*dev);
    solver->solve(batch);
    r.failed += wrong_systems(pristine, batch.x());
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
    r.attempted += shape.m;
  }
  std::printf("setup_s per rep:");
  for (double s : setup_s) std::printf(" %.4f", s);
  std::printf("\n");

  if (!opt.trace) {
    const Loop loop =
        timed_loop(*solver, batch, pristine, opt.seconds, kMinSamples);
    r.attempted += loop.systems;
    r.failed += loop.failed;
    r.failed += reference_mismatches(pristine, batch.x(), opt.seed);
    std::printf("timed solves: %zu\n", loop.latency_ms.size());
    r.set("setup_s", median(setup_s));
    r.set("equations_per_s",
          static_cast<double>(loop.systems * shape.n) / loop.solve_s);
    r.set("latency_p50_ms", percentile(loop.latency_ms, 0.5));
    r.set("latency_p90_ms", percentile(loop.latency_ms, 0.9));
    r.set("sim_ms_per_meq", loop.sim_ms / meq);
    r.set("rss_mb", peak_rss_mib());
    r.set("verified_ratio",
          1.0 - static_cast<double>(r.failed) /
                    static_cast<double>(r.attempted));
    return r;
  }

  // Traced run: half the time untraced for the overhead baseline, half
  // through the composed public steps with spans.
  const Loop plain =
      timed_loop(*solver, batch, pristine, opt.seconds / 2, 20);
  r.attempted += plain.systems;
  r.failed += plain.failed;

  tda::tuning::TuningCache cache;
  (void)tda::tuning::DynamicTuner<T>(*dev, &cache).tune(
      {shape.m, shape.n});
  SpanLog log;
  const auto allocs0 = tda::host_alloc_count();
  const auto pool0 = tda::BufferPool::global().stats();
  const TracedSamples ts =
      traced_loop(*dev, cache, batch, pristine, opt.seconds / 2, log);
  const auto pool1 = tda::BufferPool::global().stats();
  const auto allocs1 = tda::host_alloc_count();
  const double solves = static_cast<double>(ts.total.size());
  r.attempted += ts.systems;
  r.failed += ts.failed;
  r.failed += reference_mismatches(pristine, batch.x(), opt.seed);

  std::vector<double> cold_ms;
  std::size_t evaluations = 0;
  for (int rep = 0; rep < kColdTuneReps; ++rep) {
    tda::tuning::TuningCache fresh;
    const auto t0 = Clock::now();
    const auto tuned =
        tda::tuning::DynamicTuner<T>(*dev, &fresh).tune({shape.m, shape.n});
    cold_ms.push_back(ms_between(t0, Clock::now()));
    if (rep > 0 && tuned.evaluations != evaluations)
      throw std::runtime_error("tuner evaluation count is not repeatable");
    evaluations = tuned.evaluations;
  }

  const double p50 = median(ts.total);
  const double transpose_ms = median(ts.transpose);
  const double transpose_bytes =
      10.0 * static_cast<double>(shape.m * shape.n * sizeof(T));
  const auto& st = ts.last;

  r.layers = {
      {"tuning.lookup", median(ts.lookup)},
      {"kernels.upload", median(ts.upload)},
      {"solver.stage1", median(ts.stage1)},
      {"solver.stage2", median(ts.stage2)},
      {"solver.transpose", transpose_ms},
      {"solver.stage3", median(ts.stage3)},
  };
  {
    std::vector<double> other;
    for (std::size_t i = 0; i < ts.run.size(); ++i)
      other.push_back(ts.run[i] - ts.stage1[i] - ts.stage2[i] -
                      ts.stage3[i] - ts.transpose[i]);
    r.layers.push_back({"solver.run_other", median(other)});
  }
  r.layers.push_back({"kernels.download", median(ts.download)});
  r.layers.push_back({"kernels.release", median(ts.release)});
  r.latency_p50_ms = p50;
  double layer_sum = 0.0;
  for (const auto& row : r.layers) layer_sum += row.ms;

  r.set("tuning.cold_tune_ms", median(cold_ms));
  r.set("tuning.evaluations", static_cast<double>(evaluations));
  r.set("tuning.lookup_us", median(ts.lookup) * 1e3);
  r.set("tuning.misses", static_cast<double>(ts.misses));
  r.set("kernels.upload_ms", median(ts.upload));
  r.set("kernels.download_ms", median(ts.download));
  r.set("solver.host_stage1_ms", median(ts.stage1));
  r.set("solver.host_stage2_ms", median(ts.stage2));
  r.set("solver.host_stage3_ms", median(ts.stage3));
  r.set("solver.host_transpose_ms", transpose_ms);
  // Computed bytes: transpose-in reads and writes a, b, c, d; transpose-
  // out reads and writes x.
  r.set("solver.transpose_gbps",
        transpose_ms > 0.0 ? transpose_bytes / (transpose_ms * 1e-3) / 1e9
                           : 0.0);
  r.set("solver.sim_stage1_ms", st.stage1_ms);
  r.set("solver.sim_stage2_ms", st.stage2_ms);
  r.set("solver.sim_stage3_ms", st.stage3_ms);
  r.set("solver.sim_transpose_ms", st.transpose_ms);
  r.set("solver.kernel_launches", static_cast<double>(st.kernel_launches));
  r.set("common.host_allocs_per_solve",
        static_cast<double>(allocs1 - allocs0) / solves);
  const double acquires =
      static_cast<double>(pool1.acquires - pool0.acquires);
  r.set("common.pool_hit_ratio",
        acquires > 0 ? static_cast<double>(pool1.hits - pool0.hits) / acquires
                     : 0.0);
  r.set("cpu.gtsv_equations_per_s", gtsv_equations_per_s(pristine));
  const double plain_p50 = median(plain.latency_ms);
  r.set("trace.overhead_frac", (p50 - plain_p50) / plain_p50);
  r.set("trace.latency_p50_ms", p50);
  r.set("trace.unaccounted_ms", p50 - layer_sum);

  r.spans = log.spans();
  return r;
}

}  // namespace perfbench
