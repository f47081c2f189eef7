#pragma once
// Shared helpers for the figure/table reproduction harnesses.

#include <iostream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/alloc_stats.hpp"
#include "common/buffer_pool.hpp"
#include "common/table.hpp"
#include "gpusim/device.hpp"
#include "gpusim/launch.hpp"
#include "kernels/device_batch.hpp"
#include "solver/gpu_solver.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "tuning/dynamic_tuner.hpp"
#include "tuning/tuners.hpp"

namespace tda::bench {

/// Env-gated telemetry for a bench run: with TDA_TRACE / TDA_METRICS
/// set, every solve the scoped device performs records spans + metrics,
/// and the machine-readable files are written at scope exit — each
/// figure table gains a per-stage timing sidecar for free. `suffix`
/// keeps multi-device sweeps from clobbering one file (it is inserted
/// before the extension, e.g. "out.Geforce_GTX_280.json").
class TelemetryScope {
 public:
  explicit TelemetryScope(gpusim::Device& dev, std::string suffix = {})
      : env_(tel_, std::move(suffix)), dev_(&dev) {
    if (env_.active()) dev_->set_telemetry(&tel_);
  }
  ~TelemetryScope() {
    if (env_.active()) dev_->set_telemetry(nullptr);
  }
  TelemetryScope(const TelemetryScope&) = delete;
  TelemetryScope& operator=(const TelemetryScope&) = delete;

  [[nodiscard]] bool active() const { return env_.active(); }
  [[nodiscard]] tda::telemetry::Telemetry& telemetry() { return tel_; }

 private:
  tda::telemetry::Telemetry tel_;
  tda::telemetry::EnvExport env_;
  gpusim::Device* dev_;
};

/// Prints the buffer-pool / host-allocation picture of the run and, when
/// a registry is given, publishes it through the service sampler's
/// telemetry::sample_process_gauges.
inline void report_alloc_gauges(std::ostream& os,
                                tda::telemetry::MetricsRegistry* mx =
                                    nullptr) {
  if (mx != nullptr) tda::telemetry::sample_process_gauges(*mx);
  const auto ps = tda::BufferPool::global().stats();
  os << "allocations: pool acquires " << ps.acquires << " (hits " << ps.hits
     << ", misses " << ps.misses << ", hit rate "
     << TextTable::num(100.0 * ps.hit_rate(), 1) << "%), cached "
     << ps.cached_bytes / 1024 << " KiB, host allocs "
     << host_alloc_count() << "\n";
}

/// Short device labels used in the paper's figures.
inline std::string short_name(const std::string& full) {
  if (full.find("8800") != std::string::npos) return "Geforce 8800";
  if (full.find("280") != std::string::npos) return "Geforce 280";
  if (full.find("470") != std::string::npos) return "Geforce 470";
  return full;
}

/// Simulated solve time for a workload under given switch points
/// (cost-only run on a reusable scratch batch).
template <typename T>
double timed_ms(gpusim::Device& dev, kernels::DeviceBatch<T>& scratch,
                const solver::SwitchPoints& sp) {
  solver::GpuTridiagonalSolver<T> s(dev, sp);
  return s.run(scratch, kernels::ExecMode::CostOnly).total_ms;
}

/// Best Thomas switch / variant for a fixed stage-3 size (the "tune for
/// the ideal stage-3 to stage-4 switch point for each setting" step the
/// paper prescribes before comparing stage-3 sizes).
template <typename T>
std::pair<solver::SwitchPoints, double> best_inner(
    gpusim::Device& dev, kernels::DeviceBatch<T>& scratch,
    solver::SwitchPoints base, std::size_t stage3_size) {
  base.stage3_system_size = stage3_size;
  solver::SwitchPoints best = base;
  double best_ms = std::numeric_limits<double>::infinity();
  for (auto variant :
       {kernels::LoadVariant::Strided, kernels::LoadVariant::Coalesced}) {
    for (std::size_t th = 16; th <= stage3_size; th *= 2) {
      solver::SwitchPoints sp = base;
      sp.variant = variant;
      sp.thomas_switch = th;
      const double ms = timed_ms(dev, scratch, sp);
      if (ms < best_ms) {
        best_ms = ms;
        best = sp;
      }
    }
  }
  return {best, best_ms};
}

}  // namespace tda::bench
