#pragma once
// Shared pieces of the end-to-end benchmark: run options, per-sample
// statistics, the in-memory span log of the traced run, and the report
// every workload fills in and main() prints.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "cpu/gtsv.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Engine lanes every workload runs with. Four lanes on a four-core
/// host measure the OS scheduler more than the solver; two leave cores
/// for the wire workload's service, door and client threads.
constexpr int kLanes = 2;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";  ///< where the traced run writes its spans
};

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Linear-interpolated percentile (q in [0, 1]) of a sample set; 0 for
/// an empty set.
double percentile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) {
  return percentile(v, 0.5);
}

/// Peak resident set of this process (VmHWM), MiB.
double peak_rss_mib();

/// Median rate of `pass` (which returns the units of work it did) over
/// at least three passes and one second.
double median_rate(const std::function<double()>& pass);

/// Whether `x` solves the system (a, b, c, d) as the pivoting CPU solver
/// does in double: max |x - x_ref| <= tol * max |x_ref|.
template <typename T>
bool matches_gtsv(std::span<const T> a, std::span<const T> b,
                  std::span<const T> c, std::span<const T> d,
                  std::span<const T> x, double tol) {
  std::vector<double> da(a.begin(), a.end()), db(b.begin(), b.end()),
      dc(c.begin(), c.end()), dd(d.begin(), d.end()), ref(b.size());
  if (!tda::cpu::gtsv_solve<double>(da, db, dc, dd, ref)) return false;
  double err = 0.0, scale = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    err = std::max(err, std::abs(static_cast<double>(x[i]) - ref[i]));
    scale = std::max(scale, std::abs(ref[i]));
  }
  return err <= tol * std::max(scale, 1e-30);
}

/// One span of the traced run. Times are ns since the log's origin.
struct Span {
  const char* name;
  std::uint32_t id;
  std::uint32_t parent;  ///< 0 = root
  std::uint64_t trace;   ///< one id per solve / request
  int tid;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

/// Spans kept in memory while the traced run measures and written as
/// Chrome-trace JSON when it ends. Each thread records into its own log.
class SpanLog {
 public:
  explicit SpanLog(int tid = 0, Clock::time_point origin = Clock::now())
      : tid_(tid), origin_(origin) {}

  std::uint32_t add(const char* name, std::uint32_t parent,
                    std::uint64_t trace, Clock::time_point start,
                    Clock::time_point end);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  int tid_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// One row of the traced run's per-layer table (ms per solve/request).
struct LayerRow {
  std::string layer;
  double ms;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Reported with --trace 0. failed/attempted is the top-level pair of
/// the JSON result; verified_ratio is its complement, so the metric is
/// never 0.
inline constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"equations_per_s", "eq/s"},
    {"latency_p50_ms", "ms"},
    {"latency_p90_ms", "ms"},
    {"sim_ms_per_meq", "sim_ms/Meq"},
    {"rss_mb", "MiB"},
    {"verified_ratio", "ratio"},
};

/// Reported with --trace 1. A layer a workload never runs reads 0.
inline constexpr MetricSpec kPerLayer[] = {
    {"tuning.cold_tune_ms", "ms"},
    {"tuning.evaluations", "count"},
    {"tuning.lookup_us", "us"},
    {"tuning.misses", "count"},
    {"kernels.upload_ms", "ms"},
    {"kernels.download_ms", "ms"},
    {"solver.host_stage1_ms", "ms"},
    {"solver.host_stage2_ms", "ms"},
    {"solver.host_stage3_ms", "ms"},
    {"solver.host_transpose_ms", "ms"},
    {"solver.transpose_gbps", "GB/s"},
    {"host.copy_gbps", "GB/s"},
    {"host.copy_buffer_mib", "MiB"},
    {"host.llc_mib", "MiB"},
    {"solver.sim_stage1_ms", "sim_ms"},
    {"solver.sim_stage2_ms", "sim_ms"},
    {"solver.sim_stage3_ms", "sim_ms"},
    {"solver.sim_transpose_ms", "sim_ms"},
    {"solver.kernel_launches", "count"},
    {"common.host_allocs_per_solve", "count"},
    {"common.pool_hit_ratio", "ratio"},
    {"service.wait_p50_ms", "ms"},
    {"service.batch_occupancy", "systems/flush"},
    {"service.recoveries", "count"},
    {"net.send_us", "us"},
    {"net.bytes_per_request", "B"},
    {"net.rejects", "count"},
    {"net.aimd_throttles", "count"},
    {"net.rtt_minus_wait_p50_ms", "ms"},
    {"cpu.gtsv_equations_per_s", "eq/s"},
    {"trace.overhead_frac", "ratio"},
    {"trace.latency_p50_ms", "ms"},
    {"trace.unaccounted_ms", "ms"},
};

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< wrong, failed or refused; any fails the run
  std::vector<Metric> metrics;
  std::vector<LayerRow> layers;  ///< traced run only
  double latency_p50_ms = 0.0;   ///< what the layers sum back to
  std::vector<Span> spans;       ///< traced run only

  /// Records a metric; its unit comes from kEndToEnd / kPerLayer.
  void set(const std::string& name, double value) {
    metrics.push_back({name, value, ""});
  }
};

Report run_inproc(const Options& opt);
Report run_wire(const Options& opt);

}  // namespace perfbench
