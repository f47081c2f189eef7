#pragma once
// Metrics registry: named counters, gauges, sample histograms and
// fixed-bucket latency histograms. Counters accumulate (solves, tunes,
// cache hits, kernel launches, bytes moved), gauges hold the latest
// value (probe results, lane utilization, pool hit rate), sample
// histograms keep raw samples and summarize to count/min/max/mean/
// p50/p95 — the shape of the paper's per-stage timing tables.
//
// Latency histograms are the always-on aggregation path: log-spaced
// fixed bucket bounds (so recording is O(log buckets) with zero
// allocation in steady state), keyed by labeled names built with
// labeled() — e.g. service.request_latency_ms{shape="le64",
// dtype="f64",outcome="ok"} — and each bucket keeps an *exemplar*: the
// trace id of the last request that landed there, so the p99 straggler
// bucket names a concrete trace to go look at.
//
// Counters live in one storage of stable atomic slots. A component
// that counts the same event on every call registers a Counter handle
// once (counter_handle) and then adds to it with one relaxed atomic,
// always on; add(name) reaches the same slot by name, behind the
// enabled flag. Reads (counter, counters, both exporters) see handle
// and named writes alike.
//
// Everything else is thread-safe behind a single mutex; the enabled
// flag is atomic (it is read before the lock on every hot-path call and
// may race a toggle from another thread — a plain bool here is a TSan
// data race), so a disabled registry costs one relaxed load and
// allocates nothing.

#include <cstddef>
#include <cstdint>
#include <atomic>
#include <initializer_list>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tda::telemetry {

/// Percentile summary of one histogram.
struct HistogramSummary {
  std::size_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
};

/// Nearest-rank percentile (q in [0,1]) of an unsorted sample; 0 when
/// empty. Exposed for tests.
double percentile(std::vector<double> samples, double q);

/// Upper bounds (ms) of the fixed latency buckets. The last bound is
/// +Inf, so every sample lands somewhere.
std::span<const double> latency_bucket_bounds();

/// Trace id of a request that landed in a bucket (0 = none yet).
struct LatencyExemplar {
  std::uint64_t trace_id = 0;
  double value = 0.0;
};

/// Locked copy of one latency histogram.
struct LatencySnapshot {
  std::vector<std::uint64_t> counts;     ///< per bucket, non-cumulative
  std::vector<LatencyExemplar> exemplars;  ///< per bucket
  std::uint64_t count = 0;
  double sum = 0.0;

  /// Quantile estimate (q in [0,1]) by linear interpolation inside the
  /// owning bucket; 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  /// Exemplar of the highest non-empty bucket at or above quantile q —
  /// "a p99 straggler's trace id". trace_id 0 when none recorded.
  [[nodiscard]] LatencyExemplar exemplar_at(double q) const;
};

/// Builds a labeled metric key: name + {k="v",...} with keys in the
/// given order. Exporters parse the braces back into label sets.
std::string labeled(
    std::string_view name,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        labels);

/// Handle on one registry counter slot (MetricsRegistry::counter_handle).
/// add() is one relaxed atomic add: no lock, no lookup, no enabled()
/// test. The slot outlives clear(), which zeroes it. A default-built
/// handle has no slot and must be assigned before use.
class Counter {
 public:
  Counter() = default;
  void add(double delta = 1.0) const {
    slot_->fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] double value() const {
    return slot_->load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::atomic<double>* slot) : slot_(slot) {}
  std::atomic<double>* slot_ = nullptr;
};

class MetricsRegistry {
 public:
  void enable(bool on = true) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Returns the handle on counter `name`, creating the slot at 0.
  /// Works whether or not the registry is enabled; every call with one
  /// name yields the same slot.
  [[nodiscard]] Counter counter_handle(std::string_view name);

  /// Adds `delta` to a counter (creating it at 0).
  void add(std::string_view name, double delta = 1.0);
  /// Sets a gauge to `value`.
  void set(std::string_view name, double value);
  /// Appends one sample to a histogram.
  void observe(std::string_view name, double sample);
  /// Records one sample (ms) into a fixed-bucket latency histogram,
  /// stamping `exemplar_trace_id` (when non-zero) on the bucket it
  /// lands in.
  void observe_latency(std::string_view name, double ms,
                       std::uint64_t exemplar_trace_id = 0);

  /// Reads a counter / gauge; 0 for names never written.
  [[nodiscard]] double counter(std::string_view name) const;
  [[nodiscard]] double gauge(std::string_view name) const;
  /// Summarizes a histogram; all-zero for names never observed.
  [[nodiscard]] HistogramSummary histogram(std::string_view name) const;
  /// Snapshot of one latency histogram; empty counts for unknown names.
  [[nodiscard]] LatencySnapshot latency(std::string_view name) const;

  /// Snapshot accessors (copies, so callers need no lock discipline).
  [[nodiscard]] std::map<std::string, double> counters() const;
  [[nodiscard]] std::map<std::string, double> gauges() const;
  [[nodiscard]] std::map<std::string, std::vector<double>> histograms()
      const;
  [[nodiscard]] std::map<std::string, LatencySnapshot> latencies() const;

  /// True when nothing has been recorded (every counter slot is 0).
  [[nodiscard]] bool empty() const;

  /// Drops gauges and histograms and zeroes every counter; counter
  /// slots stay, so handles remain valid.
  void clear();

 private:
  struct LatencyHist {
    std::vector<std::uint64_t> counts;
    std::vector<LatencyExemplar> exemplars;
    std::uint64_t count = 0;
    double sum = 0.0;
  };

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  // Map nodes never move and are never erased, so a slot's address is
  // stable for the registry's lifetime.
  std::map<std::string, std::atomic<double>, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
  std::map<std::string, std::vector<double>, std::less<>> histograms_;
  std::map<std::string, LatencyHist, std::less<>> latencies_;
};

}  // namespace tda::telemetry
