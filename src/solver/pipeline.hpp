#pragma once
// The one numerical solve path behind every public entry point:
// AutoSolver::solve and the solve service's workers (docs/ROBUSTNESS.md).
//
// The paper's PCR/Thomas chain is pivot-free: exact on diagonally
// dominant input, silently wrong or throwing outside it. Pipeline turns
// numerical trouble into a typed per-system SystemStatus and memory
// pressure into more, smaller solves, in this order:
//
//   1. tune — look up (or run) the switch points, with the device's
//      fault sites disarmed: the search is not production traffic;
//   2. screen — NaN/Inf systems are NonFinite; zero-diagonal systems go
//      straight to the pivoting fallback;
//   3. chunk — sub-batches sized to the memory budget, halved on
//      OutOfMemory down to one system, which then goes to the fallback;
//   4. solve — a sub-batch that throws a numerical ContractError
//      (elimination can manufacture a zero pivot from input that passed
//      the screen) is bisected until the culprits are isolated;
//   5. check — each GPU solution's relative residual must be within
//      auto_residual_tol<T>();
//   6. fall back — failures of 3-5 go to cpu::gtsv_solve (partial
//      pivoting): FallbackUsed, or Singular.
//
// The two scans (2, 5) run on the engine's thread pool and alter no
// solution, so a clean batch that fits in one chunk gets bit-for-bit
// the raw solver's x and simulated stats. Device faults and
// cancellation propagate: the service owns retry and failover.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "gpusim/launch.hpp"
#include "gpusim/memory.hpp"
#include "gpusim/thread_pool.hpp"
#include "kernels/device_batch.hpp"
#include "solver/cancel.hpp"
#include "solver/gpu_solver.hpp"
#include "solver/guards.hpp"
#include "telemetry/telemetry.hpp"
#include "tridiag/batch.hpp"
#include "tuning/cache.hpp"
#include "tuning/dynamic_tuner.hpp"

namespace tda::solver {

/// Outcome of one Pipeline::solve.
struct PipelineResult {
  SolveStats stats;  ///< summed over every GPU sub-solve (zero if none ran)
  std::vector<SystemStatus> status;  ///< one entry per system
  std::size_t prescreen_routed = 0;  ///< sent to the fallback by the screen
  std::size_t quarantined = 0;       ///< isolated by the ContractError bisect
  std::size_t residual_rejects = 0;  ///< GPU solutions failing the check
  std::size_t chunks = 0;            ///< sub-batches solved on the device
  std::size_t planned_chunk_systems = 0;  ///< initial budget-derived size
  std::size_t max_chunk_systems = 0;      ///< largest chunk that ran
  std::size_t oom_events = 0;             ///< OutOfMemory throws absorbed
  std::size_t oom_fallback_systems = 0;   ///< CPU-solved at one system

  [[nodiscard]] StatusCounts counts() const { return tally(status); }
};

/// Thrown by AutoSolver::solve when some system has no solution (it
/// ended Singular or NonFinite). Every other system's x is written
/// before the throw; statuses() says which is which.
class UnsolvedSystems : public ContractError {
 public:
  explicit UnsolvedSystems(std::vector<SystemStatus> status)
      : ContractError(describe(status)), status_(std::move(status)) {}

  [[nodiscard]] const std::vector<SystemStatus>& statuses() const {
    return status_;
  }

 private:
  static std::string describe(const std::vector<SystemStatus>& status) {
    const StatusCounts c = tally(status);
    return std::to_string(c.singular) + " singular and " +
           std::to_string(c.nonfinite) + " non-finite systems unsolved";
  }

  std::vector<SystemStatus> status_;
};

template <typename T>
class Pipeline {
 public:
  /// Tunes (or looks up in `cache`) switch points for shape `w`.
  Pipeline(gpusim::Device& dev, tuning::TuningCache& cache, Workload w)
      : Pipeline(dev, tune(dev, cache, w)) {}

  /// Runs with fixed switch points and no tuning.
  Pipeline(gpusim::Device& dev, SwitchPoints points)
      : Pipeline(dev, tuning::TuneResult{points, 0.0, 0, true, false}) {}

  [[nodiscard]] const SwitchPoints& points() const {
    return solver_.switch_points();
  }
  /// True when the tune lookup missed and a search ran.
  [[nodiscard]] bool tuned_fresh() const { return tuned_fresh_; }

  /// Solves every system of the batch. batch.x() holds the solution of
  /// every system whose status is Ok or FallbackUsed; other systems'
  /// rows are left as they were. `cancel` (optional) is polled at every
  /// stage boundary. Throws only DeviceFault, SolveCancelled
  /// and contract violations of the call itself.
  PipelineResult solve(tridiag::TridiagBatch<T>& batch,
                       CancelToken* cancel = nullptr) {
    const std::size_t m = batch.num_systems();
    PipelineResult r;
    r.status.assign(m, SystemStatus::Ok);
    solver_.set_cancel_token(cancel);

    telemetry::Telemetry* tel = dev_->telemetry();
    telemetry::ScopedSpan span(telemetry::tracer_of(tel), "chunked_solve",
                               "solver");
    span.attr("m", static_cast<double>(m));
    span.attr("n", static_cast<double>(batch.system_size()));

    const std::vector<std::size_t> gpu = screen(batch, r, tel);
    solve_in_chunks(batch, gpu, r);
    postcheck(batch, r, tel);

    span.attr("chunks", static_cast<double>(r.chunks));
    span.attr("oom_events", static_cast<double>(r.oom_events));
    if (tel != nullptr) {
      auto& mx = tel->metrics;
      mx.add("solver.chunked_solves");
      mx.add("solver.chunks", static_cast<double>(r.chunks));
      if (r.chunks > 1) mx.add("solver.split_solves");
      if (r.oom_events > 0) {
        mx.add("solver.chunk_oom", static_cast<double>(r.oom_events));
      }
      if (r.oom_fallback_systems > 0) {
        mx.add("solver.oom_fallback_systems",
               static_cast<double>(r.oom_fallback_systems));
      }
    }
    return r;
  }

 private:
  Pipeline(gpusim::Device& dev, const tuning::TuneResult& tuned)
      : dev_(&dev), solver_(dev, tuned.points),
        tuned_fresh_(!tuned.from_cache) {}

  /// Step 1, with the device's fault sites disarmed for its duration.
  static tuning::TuneResult tune(gpusim::Device& dev,
                                 tuning::TuningCache& cache, Workload w) {
    struct Disarm {
      gpusim::Device& dev;
      bool was = dev.faults_armed();
      explicit Disarm(gpusim::Device& d) : dev(d) { dev.arm_faults(false); }
      Disarm(const Disarm&) = delete;
      ~Disarm() { dev.arm_faults(was); }
    } disarm(dev);
    return tuning::DynamicTuner<T>(dev, &cache).tune(w);
  }

  /// Runs fn(s) for s in [0, count) on the engine's thread pool. fn must
  /// not throw.
  template <typename Fn>
  static void for_each_parallel(std::size_t count, const Fn& fn) {
    gpusim::ThreadPool::global().run(count,
                                     [&fn](std::size_t b, std::size_t e) {
                                       for (std::size_t s = b; s < e; ++s)
                                         fn(s);
                                     });
  }

  /// Step 2: returns the systems that may go to the GPU; the rest get
  /// their final status here.
  std::vector<std::size_t> screen(tridiag::TridiagBatch<T>& batch,
                                  PipelineResult& r,
                                  telemetry::Telemetry* tel) {
    telemetry::ScopedSpan span(telemetry::tracer_of(tel), "screen",
                               "solver");
    const std::size_t m = batch.num_systems();
    std::vector<ScreenVerdict> verdict(m);
    for_each_parallel(m, [&](std::size_t s) {
      verdict[s] = screen_verdict<T>(batch.system(s));
    });
    std::vector<std::size_t> gpu;
    gpu.reserve(m);
    for (std::size_t s = 0; s < m; ++s) {
      switch (verdict[s]) {
        case ScreenVerdict::Pass:
          gpu.push_back(s);
          break;
        case ScreenVerdict::NonFinite:
          r.status[s] = SystemStatus::NonFinite;
          break;
        case ScreenVerdict::NeedsPivoting:
          ++r.prescreen_routed;
          r.status[s] = pivoting_fallback<T>(batch.system(s),
                                             batch.solution(s));
          break;
      }
    }
    span.attr("routed", static_cast<double>(r.prescreen_routed));
    return gpu;
  }

  /// Step 3: solves `list` in budget-sized chunks, halving a chunk on
  /// OutOfMemory and regrowing toward the plan after a success.
  void solve_in_chunks(tridiag::TridiagBatch<T>& batch,
                       std::span<const std::size_t> list,
                       PipelineResult& r) {
    if (list.empty()) return;
    const std::size_t per_system =
        kernels::DeviceBatch<T>::footprint_bytes(1, batch.system_size());
    const std::size_t fit = dev_->memory().available() / per_system;
    const std::size_t planned = std::clamp<std::size_t>(fit, 1, list.size());
    r.planned_chunk_systems = planned;

    std::size_t start = 0, chunk = planned;
    while (start < list.size()) {
      const std::size_t take = std::min(chunk, list.size() - start);
      const auto part = list.subspan(start, take);
      try {
        // An OOM retry re-solves the chunk from scratch: its statuses
        // start over, and its stats and quarantine count only land once
        // the whole chunk got through.
        for (const std::size_t s : part) r.status[s] = SystemStatus::Ok;
        PipelineResult attempt;
        solve_quarantined(batch, part, attempt, r.status);
        r.stats += attempt.stats;
        r.quarantined += attempt.quarantined;
        ++r.chunks;
        r.max_chunk_systems = std::max(r.max_chunk_systems, take);
        start += take;
        chunk = std::max(chunk, planned);
      } catch (const gpusim::OutOfMemory&) {
        ++r.oom_events;
        if (take > 1) {
          chunk = take / 2;
          continue;
        }
        // Not even one system fits: degrade to the pivoting CPU path so
        // the system still terminates with a typed status.
        const std::size_t s = part.front();
        r.status[s] = pivoting_fallback<T>(batch.system(s),
                                           batch.solution(s));
        ++r.oom_fallback_systems;
        ++start;
        chunk = 1;
      }
    }
  }

  /// Step 4: solves `list`, bisecting on a numerical ContractError until
  /// each culprit is alone; culprits go to the fallback.
  void solve_quarantined(tridiag::TridiagBatch<T>& batch,
                         std::span<const std::size_t> list,
                         PipelineResult& attempt,
                         std::vector<SystemStatus>& status) {
    try {
      attempt.stats += solve_list(batch, list);
      return;
    } catch (const ContractError&) {
      // Numerical failure somewhere in this group: bisect.
    }
    if (list.size() == 1) {
      const std::size_t s = list.front();
      ++attempt.quarantined;
      status[s] = pivoting_fallback<T>(batch.system(s), batch.solution(s));
      return;
    }
    const std::size_t half = list.size() / 2;
    solve_quarantined(batch, list.first(half), attempt, status);
    solve_quarantined(batch, list.subspan(half), attempt, status);
  }

  /// One GPU solve of the listed systems: in place when the list is the
  /// whole batch, else through a packed host sub-batch reused while the
  /// size holds.
  SolveStats solve_list(tridiag::TridiagBatch<T>& batch,
                        std::span<const std::size_t> list) {
    if (list.size() == batch.num_systems()) return solver_.solve(batch);
    const std::size_t n = batch.system_size();
    if (sub_.num_systems() != list.size() || sub_.system_size() != n) {
      sub_ = tridiag::TridiagBatch<T>(list.size(), n);
    }
    const auto copy_row = [n](std::span<const T> from, std::size_t src,
                              std::span<T> to, std::size_t dst) {
      std::copy_n(from.data() + src * n, n, to.data() + dst * n);
    };
    for (std::size_t j = 0; j < list.size(); ++j) {
      copy_row(batch.a(), list[j], sub_.a(), j);
      copy_row(batch.b(), list[j], sub_.b(), j);
      copy_row(batch.c(), list[j], sub_.c(), j);
      copy_row(batch.d(), list[j], sub_.d(), j);
    }
    const SolveStats stats = solver_.solve(sub_);
    for (std::size_t j = 0; j < list.size(); ++j) {
      copy_row(sub_.x(), j, batch.x(), list[j]);
    }
    return stats;
  }

  /// Steps 5 and 6: residual-checks every GPU solution; failures go to
  /// the fallback.
  void postcheck(tridiag::TridiagBatch<T>& batch, PipelineResult& r,
                 telemetry::Telemetry* tel) {
    telemetry::ScopedSpan span(telemetry::tracer_of(tel), "postcheck",
                               "solver");
    std::vector<std::size_t> gpu;
    for (std::size_t s = 0; s < r.status.size(); ++s) {
      if (r.status[s] == SystemStatus::Ok) gpu.push_back(s);
    }
    std::vector<std::uint8_t> reject(gpu.size());
    for_each_parallel(gpu.size(), [&](std::size_t j) {
      const std::size_t s = gpu[j];
      reject[j] = !(relative_residual<T>(batch.system(s),
                                         batch.solution(s)) <=
                    auto_residual_tol<T>());
    });
    for (std::size_t j = 0; j < gpu.size(); ++j) {
      if (reject[j] == 0) continue;
      const std::size_t s = gpu[j];
      ++r.residual_rejects;
      r.status[s] = pivoting_fallback<T>(batch.system(s), batch.solution(s));
    }
    span.attr("checked", static_cast<double>(gpu.size()));
    span.attr("rejects", static_cast<double>(r.residual_rejects));
  }

  gpusim::Device* dev_;
  GpuTridiagonalSolver<T> solver_;
  bool tuned_fresh_;
  tridiag::TridiagBatch<T> sub_;  ///< packed staging for partial solves
};

}  // namespace tda::solver
