#pragma once
// The multi-stage GPU tridiagonal solver — the paper's primary
// contribution. Composes the Stage-1 cooperative splitter, the Stage-2
// independent splitter and the Stage-3/4 PCR-Thomas base kernel according
// to a SolvePlan derived from the configured switch points.
//
// Typical use:
//
//   gpusim::Device dev(gpusim::geforce_gtx_470());
//   solver::GpuTridiagonalSolver<float> solver(dev, tuned_points);
//   auto stats = solver.solve(batch);            // batch.x() now holds x
//   std::cout << stats.total_ms << " simulated ms\n";

#include <cstddef>
#include <string>

#include "common/check.hpp"
#include "common/timer.hpp"
#include "gpusim/launch.hpp"
#include "kernels/config.hpp"
#include "kernels/device_batch.hpp"
#include "kernels/interleaved_kernels.hpp"
#include "kernels/pcr_thomas_kernel.hpp"
#include "kernels/split_kernels.hpp"
#include "solver/cancel.hpp"
#include "solver/plan.hpp"
#include "solver/switch_points.hpp"
#include "telemetry/telemetry.hpp"
#include "tridiag/batch.hpp"

namespace tda::solver {

/// Timing breakdown of one multi-stage solve. The `*_ms` fields are
/// SIMULATED milliseconds from the cost model (deterministic, identical
/// across TDA_THREADS settings); the `host_*_ms` fields are measured
/// wall-clock time the host actually spent executing each stage — what
/// bench_wall and scripts/bench_diff.py track (docs/PERFORMANCE.md).
struct SolveStats {
  SolvePlan plan;
  double total_ms = 0.0;
  double stage1_ms = 0.0;
  double stage2_ms = 0.0;
  double stage3_ms = 0.0;
  /// Layout-conversion time of the element-major path (both transposes);
  /// 0 on the system-major pipeline. stage3_ms then holds the
  /// interleaved Thomas kernel, so transpose overhead vs. compute is
  /// directly visible in the breakdown (and as per-stage spans).
  double transpose_ms = 0.0;
  double host_total_ms = 0.0;
  double host_stage1_ms = 0.0;
  double host_stage2_ms = 0.0;
  double host_stage3_ms = 0.0;
  double host_transpose_ms = 0.0;
  std::size_t kernel_launches = 0;

  /// Accumulates another solve of the same batch (a chunk or a bisect
  /// half) into this one: every timing field and the launch count add
  /// up; the plan is the first solve's.
  SolveStats& operator+=(const SolveStats& o) {
    if (kernel_launches == 0) plan = o.plan;
    total_ms += o.total_ms;
    stage1_ms += o.stage1_ms;
    stage2_ms += o.stage2_ms;
    stage3_ms += o.stage3_ms;
    transpose_ms += o.transpose_ms;
    host_total_ms += o.host_total_ms;
    host_stage1_ms += o.host_stage1_ms;
    host_stage2_ms += o.host_stage2_ms;
    host_stage3_ms += o.host_stage3_ms;
    host_transpose_ms += o.host_transpose_ms;
    kernel_launches += o.kernel_launches;
    return *this;
  }
};

template <typename T>
class GpuTridiagonalSolver {
 public:
  GpuTridiagonalSolver(gpusim::Device& dev, SwitchPoints points)
      : dev_(&dev), points_(points) {
    validate();
  }

  [[nodiscard]] const SwitchPoints& switch_points() const { return points_; }

  /// Largest stage-3 system size this device supports for element type T.
  [[nodiscard]] std::size_t max_on_chip_size() const {
    return kernels::max_shared_system_size(dev_->query(), sizeof(T));
  }

  /// Builds the plan this solver would execute for a workload.
  [[nodiscard]] SolvePlan plan_for(const Workload& w) const {
    return make_plan(w, points_);
  }

  /// Optional cooperative cancellation: when set, run() polls the token
  /// at every stage boundary (ticking its heartbeat) and throws
  /// SolveCancelled once cancel() has been called. Not owned; nullptr
  /// detaches. The service's watchdog drives this.
  void set_cancel_token(CancelToken* token) { cancel_ = token; }

  /// Solves every system of the batch; the solution lands in batch.x().
  /// Coefficient arrays of `batch` are left untouched: the device batch
  /// reads them in place and writes only its own buffers. Returns the
  /// simulated timing breakdown. The device batch counts against the
  /// device's memory budget (throws gpusim::OutOfMemory when it does not
  /// fit — see solver::Pipeline).
  SolveStats solve(tridiag::TridiagBatch<T>& batch) {
    kernels::DeviceBatch<T> dbatch(*dev_, batch);
    SolveStats stats = run(dbatch, kernels::ExecMode::Full);
    dbatch.download(batch);
    return stats;
  }

  /// Runs the full stage pipeline on a pre-allocated device batch. With
  /// ExecMode::CostOnly the arithmetic is skipped but the simulated time
  /// is identical — this is what the self-tuner's search measures.
  SolveStats run(kernels::DeviceBatch<T>& dbatch, kernels::ExecMode mode) {
    const Workload w{dbatch.num_systems(), dbatch.system_size()};
    const SolvePlan plan = plan_for(w);
    SolveStats stats;
    stats.plan = plan;

    telemetry::Telemetry* tel = dev_->telemetry();
    telemetry::ScopedSpan solve_span(telemetry::tracer_of(tel), "solve",
                                     "solver");
    solve_span.attr("m", static_cast<double>(w.num_systems));
    solve_span.attr("n", static_cast<double>(w.system_size));
    solve_span.attr("mode", mode == kernels::ExecMode::Full ? "full"
                                                            : "cost_only");
    solve_span.attr("layout", tridiag::to_string(plan.layout));

    poll_cancel();
    WallTimer host_total;
    double stage1_bytes = 0.0, stage2_bytes = 0.0, stage3_bytes = 0.0;
    double transpose_bytes = 0.0;
    if (plan.layout == tridiag::BatchLayout::ElementMajor) {
      run_element_major(dbatch, mode, tel, stats, stage3_bytes,
                        transpose_bytes);
    } else {
      run_system_major(dbatch, plan, mode, tel, stats, stage1_bytes,
                       stage2_bytes, stage3_bytes);
    }
    stats.total_ms = stats.stage1_ms + stats.stage2_ms + stats.stage3_ms +
                     stats.transpose_ms;
    stats.host_total_ms = host_total.millis();
    solve_span.attr("total_ms", stats.total_ms);

    if (tel != nullptr) {
      auto& mx = tel->metrics;
      mx.add(mode == kernels::ExecMode::Full ? "solver.solves"
                                             : "solver.cost_only_runs");
      if (mode == kernels::ExecMode::Full) {
        mx.add(plan.layout == tridiag::BatchLayout::SystemMajor
                   ? R"(solver.layout{choice="system"})"
                   : R"(solver.layout{choice="element"})");
      }
      mx.observe("solve.total_ms", stats.total_ms);
      const auto stage_bw = [&mx](const char* ms_key, const char* bw_key,
                                  double ms, double bytes) {
        if (ms <= 0.0) return;
        mx.observe(ms_key, ms);
        if (bytes > 0.0) mx.observe(bw_key, bytes / (ms * 1e-3) / 1e9);
      };
      stage_bw("solve.stage1_ms", "solve.stage1.bandwidth_gb_s",
               stats.stage1_ms, stage1_bytes);
      stage_bw("solve.stage2_ms", "solve.stage2.bandwidth_gb_s",
               stats.stage2_ms, stage2_bytes);
      stage_bw("solve.stage3_ms", "solve.stage3.bandwidth_gb_s",
               stats.stage3_ms, stage3_bytes);
      stage_bw("solve.transpose_ms", "solve.transpose.bandwidth_gb_s",
               stats.transpose_ms, transpose_bytes);
    }
    return stats;
  }

  /// Simulated solve time (ms) for a workload shape, without real data:
  /// a cost-only run on a shape-only device batch, which owns no memory.
  double simulate_ms(const Workload& w) {
    kernels::DeviceBatch<T> dbatch(w.num_systems, w.system_size);
    return run(dbatch, kernels::ExecMode::CostOnly).total_ms;
  }

 private:
  /// The paper's staged pipeline on the wire (system-major) layout.
  void run_system_major(kernels::DeviceBatch<T>& dbatch,
                        const SolvePlan& plan, kernels::ExecMode mode,
                        telemetry::Telemetry* tel, SolveStats& stats,
                        double& stage1_bytes, double& stage2_bytes,
                        double& stage3_bytes) {
    kernels::SplitState st;
    if (plan.stage1_steps > 0) {
      telemetry::ScopedSpan span(telemetry::tracer_of(tel), "stage1",
                                 "solver");
      WallTimer host;
      for (std::size_t i = 0; i < plan.stage1_steps; ++i) {
        poll_cancel();
        auto ks = kernels::stage1_split_step(*dev_, dbatch, st, mode);
        stats.stage1_ms += ks.seconds * 1e3;
        stage1_bytes += ks.bytes_moved;
        ++stats.kernel_launches;
      }
      stats.host_stage1_ms = host.millis();
      span.attr("steps", static_cast<double>(plan.stage1_steps));
      span.attr("ms", stats.stage1_ms);
    }
    poll_cancel();
    if (plan.stage2_steps > 0) {
      telemetry::ScopedSpan span(telemetry::tracer_of(tel), "stage2",
                                 "solver");
      WallTimer host;
      auto ks =
          kernels::stage2_split(*dev_, dbatch, st, plan.stage2_steps, mode);
      stats.stage2_ms += ks.seconds * 1e3;
      stage2_bytes += ks.bytes_moved;
      ++stats.kernel_launches;
      stats.host_stage2_ms = host.millis();
      span.attr("steps", static_cast<double>(plan.stage2_steps));
      span.attr("ms", stats.stage2_ms);
    }
    poll_cancel();
    {
      telemetry::ScopedSpan span(telemetry::tracer_of(tel), "stage3_4",
                                 "solver");
      WallTimer host;
      auto ks = kernels::pcr_thomas_stage(
          *dev_, dbatch, st, plan.thomas_switch, plan.variant, mode);
      stats.stage3_ms += ks.seconds * 1e3;
      stage3_bytes += ks.bytes_moved;
      ++stats.kernel_launches;
      stats.host_stage3_ms = host.millis();
      span.attr("thomas_switch", static_cast<double>(plan.thomas_switch));
      span.attr("variant", kernels::to_string(plan.variant));
      span.attr("ms", stats.stage3_ms);
    }
  }

  /// The interleaved pipeline: transpose to element-major, run the
  /// one-pass SIMD-lane-per-system Thomas kernel, transpose the
  /// solution back. The transposes land in stats.transpose_ms so the
  /// crossover against the staged pipeline is visible per solve; the
  /// kernel itself is accounted as stage3 (it plays the base kernel's
  /// role). The batch is re-tagged system-major on exit, so it can be
  /// reused safely.
  void run_element_major(kernels::DeviceBatch<T>& dbatch,
                         kernels::ExecMode mode, telemetry::Telemetry* tel,
                         SolveStats& stats, double& stage3_bytes,
                         double& transpose_bytes) {
    {
      telemetry::ScopedSpan span(telemetry::tracer_of(tel), "transpose_in",
                                 "solver");
      WallTimer host;
      auto ks = kernels::transpose_in_stage(*dev_, dbatch, mode);
      stats.transpose_ms += ks.seconds * 1e3;
      transpose_bytes += ks.bytes_moved;
      ++stats.kernel_launches;
      stats.host_transpose_ms += host.millis();
      span.attr("ms", ks.seconds * 1e3);
    }
    poll_cancel();
    {
      telemetry::ScopedSpan span(telemetry::tracer_of(tel),
                                 "interleaved_thomas", "solver");
      WallTimer host;
      auto ks = kernels::interleaved_thomas_stage(*dev_, dbatch, mode);
      stats.stage3_ms += ks.seconds * 1e3;
      stage3_bytes += ks.bytes_moved;
      ++stats.kernel_launches;
      stats.host_stage3_ms = host.millis();
      span.attr("ms", stats.stage3_ms);
    }
    poll_cancel();
    {
      telemetry::ScopedSpan span(telemetry::tracer_of(tel), "transpose_out",
                                 "solver");
      WallTimer host;
      auto ks = kernels::transpose_out_stage(*dev_, dbatch, mode);
      stats.transpose_ms += ks.seconds * 1e3;
      transpose_bytes += ks.bytes_moved;
      ++stats.kernel_launches;
      stats.host_transpose_ms += host.millis();
      span.attr("ms", ks.seconds * 1e3);
    }
  }

  /// Stage-boundary cancellation poll: ticks the heartbeat, then throws
  /// if a watchdog cancelled the token.
  void poll_cancel() {
    if (cancel_ == nullptr) return;
    cancel_->beat();
    if (cancel_->cancelled()) {
      throw SolveCancelled("solve cancelled at stage boundary");
    }
  }

  void validate() const {
    TDA_REQUIRE(points_.stage1_target_systems >= 1,
                "stage1 target must be positive");
    TDA_REQUIRE(points_.thomas_switch >= 1,
                "thomas switch must be positive");
    const std::size_t cap =
        kernels::max_shared_system_size(dev_->query(), sizeof(T));
    TDA_REQUIRE(cap >= 2, "device cannot run the base kernel at all");
    TDA_REQUIRE(points_.stage3_system_size >= 1 &&
                    points_.stage3_system_size <= cap,
                "stage3 system size exceeds on-chip capacity");
  }

  gpusim::Device* dev_;
  SwitchPoints points_;
  CancelToken* cancel_ = nullptr;
};

}  // namespace tda::solver
