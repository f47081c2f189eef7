#pragma once
// Exporters: Chrome trace-event JSON (open in chrome://tracing or
// https://ui.perfetto.dev) for the span tracer, a flat JSON dump for
// the metrics registry, and an OpenMetrics/Prometheus text rendering of
// the same registry. EnvExport is the env-var gate: with
// TDA_TRACE=<path>, TDA_METRICS=<path> and/or TDA_OPENMETRICS=<path>
// set it writes the file(s) when it goes out of scope, and TDA_TRACE
// also enables the tracer (metrics always record).
// TDA_METRICS_INTERVAL=<seconds> additionally rewrites the metrics
// file(s) periodically while the scope lives, so a long service run can
// be scraped mid-flight.

#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>

#include "common/table.hpp"
#include "telemetry/telemetry.hpp"

namespace tda::telemetry {

/// Chrome trace-event JSON ("X" complete events, timestamps in
/// microseconds). Events are ordered so that a parent precedes its
/// children even when they share a begin timestamp. Spans carrying a
/// trace id land on a per-trace tid row and every event's args carry
/// span_id / parent_id / trace_id, so tooling can rebuild the exact
/// request tree (scripts/trace_tree_check.py does).
std::string to_chrome_trace(const Tracer& tracer);

/// Flat metrics JSON: {"counters":{..},"gauges":{..},"histograms":
/// {name:{count,sum,min,max,mean,p50,p95,p99,exemplar_trace_id}}}.
/// count/sum/min/max/mean are exact; the quantiles are bucket estimates.
std::string to_metrics_json(const MetricsRegistry& metrics);

/// OpenMetrics text format (the Prometheus exposition format): counters
/// as <name>_total, gauges plain, histograms as cumulative
/// _bucket{le="..."} series with trace-id exemplars plus _count and
/// _sum, terminated by "# EOF". Metric names are sanitized (dots ->
/// underscores) and prefixed "tda_"; labeled() keys contribute their
/// label sets verbatim.
std::string to_openmetrics(const MetricsRegistry& metrics);

/// Slash-joined names of span `id`'s ancestors, root first
/// ("solve/stage1"); empty for a root span.
std::string ancestor_path(const std::vector<SpanRecord>& spans, SpanId id);

/// The kernel timeline: one row per `kernel` span at index `from` or
/// later, in launch order, with its phase (ancestor_path), launch shape
/// and simulated cost. What `--trace` prints in quickstart and
/// tridiag_cli.
TextTable kernel_table(const std::vector<SpanRecord>& spans,
                       std::size_t from = 0);

/// Writes `content` to `path`; false on I/O failure.
bool write_text_file(const std::string& path, const std::string& content);

/// $TDA_TRACE / $TDA_METRICS / $TDA_OPENMETRICS, empty when unset.
std::string trace_env_path();
std::string metrics_env_path();
std::string openmetrics_env_path();
/// $TDA_METRICS_INTERVAL in seconds; 0 when unset/invalid.
double metrics_interval_env();

/// Env-gated export scope. `suffix` (optional) is sanitized and
/// inserted before the file extension so multi-device runs don't
/// clobber one file ("out.json" + "GTX 280" -> "out.GTX_280.json").
class EnvExport {
 public:
  explicit EnvExport(Telemetry& tel, std::string suffix = {});
  ~EnvExport();

  EnvExport(const EnvExport&) = delete;
  EnvExport& operator=(const EnvExport&) = delete;

  /// True when at least one of the env vars is set.
  [[nodiscard]] bool active() const {
    return !trace_path_.empty() || !metrics_path_.empty() ||
           !openmetrics_path_.empty();
  }
  [[nodiscard]] const std::string& trace_path() const {
    return trace_path_;
  }
  [[nodiscard]] const std::string& metrics_path() const {
    return metrics_path_;
  }
  [[nodiscard]] const std::string& openmetrics_path() const {
    return openmetrics_path_;
  }
  /// Seconds between periodic metrics snapshots (0 = disabled).
  [[nodiscard]] double snapshot_interval_s() const { return interval_s_; }

  /// Writes the export files now. Safe to call any number of times —
  /// the destructor unconditionally writes a final snapshot anyway, so
  /// a mid-run flush (admin `stats`, SIGHUP) never costs the shutdown
  /// one: the on-disk files always end reflecting the whole run.
  void flush();

 private:
  void write_metrics_files() const;
  void snapshot_loop();

  Telemetry* tel_;
  std::string trace_path_;
  std::string metrics_path_;
  std::string openmetrics_path_;
  double interval_s_ = 0.0;

  // Periodic snapshot writer (only spawned when interval > 0 and a
  // metrics path is set).
  std::thread snapshot_thread_;
  std::mutex snap_mu_;
  std::condition_variable snap_cv_;
  bool snap_stop_ = false;
};

}  // namespace tda::telemetry
