#pragma once
// AutoSolver — the friendly front door of the library.
//
// Owns a device, a tuning cache and the per-shape tuned switch points:
// the first solve of a new (m, n) shape triggers the §IV-D self-tuning
// run (sub-second), later solves of that shape reuse the cached result —
// exactly the deployment model the paper advocates ("save those results
// for future runs"). Handles uniform and ragged batches.
//
// Every solve runs through solver::Pipeline, the same guarded path the
// solve service uses: screened, chunked to the device memory budget,
// residual-checked, with the pivoting CPU fallback behind it. A batch
// either comes back fully solved or throws UnsolvedSystems.

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "gpusim/launch.hpp"
#include "solver/gpu_solver.hpp"
#include "solver/pipeline.hpp"
#include "solver/ragged.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "tridiag/batch.hpp"
#include "tuning/cache.hpp"

namespace tda::solver {

template <typename T>
class AutoSolver {
 public:
  /// `cache_path` (optional) persists tuning results across processes.
  ///
  /// The solver owns a telemetry session whose metrics always record.
  /// Tracing turns on with TDA_TRACE or `telemetry().tracer.enable()`;
  /// TDA_TRACE / TDA_METRICS also write files on destruction. The
  /// session is attached to the device unless the caller already
  /// attached their own.
  explicit AutoSolver(gpusim::Device& dev, std::string cache_path = {})
      : dev_(&dev), cache_path_(std::move(cache_path)) {
    if (!cache_path_.empty()) cache_.load(cache_path_);
    if (dev_->telemetry() == nullptr) {
      dev_->set_telemetry(&telemetry_);
      attached_telemetry_ = true;
    }
  }

  ~AutoSolver() {
    // Merge-on-save: another solver pointed at the same cache_path may
    // have persisted entries since we loaded — keep those instead of
    // clobbering the file with only our view.
    if (!cache_path_.empty()) cache_.save_merged(cache_path_);
    if (attached_telemetry_) dev_->set_telemetry(nullptr);
  }

  AutoSolver(const AutoSolver&) = delete;
  AutoSolver& operator=(const AutoSolver&) = delete;

  /// Tuned switch points for a workload shape (tunes on first use).
  SwitchPoints points_for(const Workload& w) {
    return pipeline_for(w).points();
  }

  /// Solves a uniform batch with per-shape tuned parameters. Systems the
  /// pivot-free GPU chain cannot be trusted with (zero diagonal, failed
  /// residual check, a zero pivot mid-chain) are solved by the pivoting
  /// CPU fallback; a batch too large for the device budget is solved in
  /// chunks. Returns the summed stats of the GPU sub-solves. Throws
  /// UnsolvedSystems, after writing every solved x, when a system is
  /// singular or has non-finite coefficients.
  SolveStats solve(tridiag::TridiagBatch<T>& batch) {
    RequestRoot root(*this, "uniform");
    PipelineResult r =
        pipeline_for({batch.num_systems(), batch.system_size()}).solve(batch);
    throw_if_unsolved(std::move(r.status));
    return r.stats;
  }

  /// Solves a ragged batch by grouping equal-sized systems; each group
  /// is solved with its own tuned parameters. Returns the total
  /// simulated milliseconds. Throws UnsolvedSystems (statuses in ragged
  /// order) like the uniform solve, after every group is scattered back.
  double solve(RaggedBatch<T>& batch) {
    RequestRoot root(*this, "ragged");
    double total_ms = 0.0;
    std::vector<SystemStatus> status(batch.num_systems());
    for (auto& [n, members] : batch.groups_by_size()) {
      auto group = batch.gather_group(n, members);
      const PipelineResult r =
          pipeline_for({members.size(), n}).solve(group);
      total_ms += r.stats.total_ms;
      for (std::size_t i = 0; i < members.size(); ++i) {
        status[members[i]] = r.status[i];
      }
      batch.scatter_group(group, members);
    }
    throw_if_unsolved(std::move(status));
    return total_ms;
  }

  [[nodiscard]] const tuning::TuningCache& cache() const { return cache_; }
  [[nodiscard]] std::size_t tunes_performed() const {
    return tunes_performed_;
  }
  [[nodiscard]] gpusim::Device& device() { return *dev_; }

  /// The owned telemetry session (spans + metrics of every solve/tune
  /// on this solver while enabled).
  [[nodiscard]] tda::telemetry::Telemetry& telemetry() {
    return telemetry_;
  }
  [[nodiscard]] const tda::telemetry::Telemetry& telemetry() const {
    return telemetry_;
  }

  /// Programmatic exports; false on I/O failure.
  bool export_trace(const std::string& path) const {
    return tda::telemetry::write_text_file(
        path, tda::telemetry::to_chrome_trace(telemetry_.tracer));
  }
  bool export_metrics(const std::string& path) const {
    return tda::telemetry::write_text_file(
        path, tda::telemetry::to_metrics_json(telemetry_.metrics));
  }

 private:
  Pipeline<T> pipeline_for(const Workload& w) {
    Pipeline<T> pipe(*dev_, cache_, w);
    tunes_performed_ += pipe.tuned_fresh() ? 1 : 0;
    return pipe;
  }

  static void throw_if_unsolved(std::vector<SystemStatus> status) {
    const StatusCounts c = tally(status);
    if (c.singular + c.nonfinite > 0) {
      throw UnsolvedSystems(std::move(status));
    }
  }

  /// Opens a per-call "request" root span with a fresh trace id when the
  /// calling thread is not already inside a trace (the in-process
  /// counterpart of the service's admission-time minting). Joins the
  /// ambient trace silently when one is live — a nested solve() (ragged
  /// groups) or a service-managed call never forks a second tree.
  class RequestRoot {
   public:
    RequestRoot(AutoSolver& s, const char* kind) {
      auto* tel = s.dev_->telemetry();
      if (tel == nullptr || !tel->tracer.enabled()) return;
      if (tel->tracer.ambient().valid()) return;
      tracer_ = &tel->tracer;
      prev_ = tracer_->ambient();
      tracer_->set_ambient({tda::telemetry::next_trace_id(),
                            tda::telemetry::kInvalidSpan});
      span_ = tracer_->begin("request", "solver");
      tracer_->attr(span_, "kind", kind);
    }

    ~RequestRoot() {
      if (tracer_ == nullptr) return;
      if (span_ != tda::telemetry::kInvalidSpan) tracer_->end(span_);
      tracer_->set_ambient(prev_);
    }

    RequestRoot(const RequestRoot&) = delete;
    RequestRoot& operator=(const RequestRoot&) = delete;

   private:
    tda::telemetry::Tracer* tracer_ = nullptr;
    tda::telemetry::SpanId span_ = tda::telemetry::kInvalidSpan;
    tda::telemetry::TraceContext prev_;
  };

  gpusim::Device* dev_;
  std::string cache_path_;
  tuning::TuningCache cache_;
  std::size_t tunes_performed_ = 0;
  tda::telemetry::Telemetry telemetry_;
  tda::telemetry::EnvExport env_export_{telemetry_};
  bool attached_telemetry_ = false;
};

}  // namespace tda::solver
