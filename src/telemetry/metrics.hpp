#pragma once
// Metrics registry: named counters, gauges and histograms. Counters
// accumulate (solves, tunes, cache hits, kernel launches, bytes moved),
// gauges hold the latest value (probe results, lane utilization, pool
// hit rate), histograms summarize to count/sum/min/max/mean/quantiles —
// the shape of the paper's per-stage timing tables.
//
// There is one histogram type, and its state is fixed-size per key:
// log-spaced bucket counts over kHistogramBounds (so recording is
// O(log buckets) with zero allocation after a key's first sample), plus
// exact count, sum, min and max. Quantiles are interpolated inside a
// bucket and clamped to [min, max]. Keys may be labeled names built with
// labeled() — e.g. service.request_latency_ms{shape="le64",dtype="f64",
// outcome="ok"} — and each bucket keeps an *exemplar*: the trace id of
// the last traced sample that landed there, so the p99 straggler bucket
// names a concrete trace to go look at.
//
// The registry is always on: every add, set and observe records. Its
// size stays bounded because every key is a fixed name or a labeled name
// whose label values come from bounded sets (tenant, reason, shape
// bucket, outcome, worker, lane, generation).
//
// Counters live in one storage of stable atomic slots. A component
// that counts the same event on every call registers a Counter handle
// once (counter_handle) and then adds to it with one relaxed atomic;
// add(name) reaches the same slot by name. Reads (counter, counters,
// both exporters) see handle and named writes alike. Everything else is
// thread-safe behind a single mutex.

#include <array>
#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>

namespace tda::telemetry {

/// Upper bounds of the fixed histogram buckets: log-spaced 1-2-5 steps
/// from 0.01 to 5000 plus a catch-all +Inf, so every finite sample lands
/// somewhere. Wide enough for queue waits under backpressure and batch
/// sizes, fine enough near the typical sub-millisecond batched solve.
inline constexpr std::array<double, 19> kHistogramBounds = {
    0.01, 0.02, 0.05, 0.1,  0.2,  0.5,  1.0,   2.0,   5.0,  10.0,
    20.0, 50.0, 100., 200., 500., 1e3,  2e3,   5e3,
    std::numeric_limits<double>::infinity()};

/// Trace id of a sample that landed in a bucket (0 = none yet).
struct Exemplar {
  std::uint64_t trace_id = 0;
  double value = 0.0;
};

/// One histogram: fixed-size per-bucket state plus exact count, sum,
/// min and max. The registry stores this per key and hands out copies.
struct HistogramSnapshot {
  /// Per bucket, non-cumulative.
  std::array<std::uint64_t, kHistogramBounds.size()> counts{};
  std::array<Exemplar, kHistogramBounds.size()> exemplars{};
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;

  /// sum / count; 0 when empty.
  [[nodiscard]] double mean() const;
  /// Quantile estimate (q in [0,1]) by linear interpolation inside the
  /// owning bucket, clamped to [min, max]; 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  /// Exemplar of the highest non-empty bucket at or above quantile q —
  /// "a p99 straggler's trace id". trace_id 0 when none recorded.
  [[nodiscard]] Exemplar exemplar_at(double q) const;
};

/// Builds a labeled metric key: name + {k="v",...} with keys in the
/// given order. Exporters parse the braces back into label sets.
std::string labeled(
    std::string_view name,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        labels);

/// Handle on one registry counter slot (MetricsRegistry::counter_handle).
/// add() is one relaxed atomic add: no lock, no lookup. The slot
/// outlives clear(), which zeroes it. A default-built handle has no slot
/// and must be assigned before use.
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
  /// Returns the handle on counter `name`, creating the slot at 0.
  /// Every call with one name yields the same slot.
  [[nodiscard]] Counter counter_handle(std::string_view name);

  /// Adds `delta` to a counter (creating it at 0).
  void add(std::string_view name, double delta = 1.0);
  /// Sets a gauge to `value`.
  void set(std::string_view name, double value);
  /// Records one sample into histogram `name`, stamping
  /// `exemplar_trace_id` (when non-zero) on the bucket it lands in.
  /// Non-finite samples are dropped.
  void observe(std::string_view name, double sample,
               std::uint64_t exemplar_trace_id = 0);

  /// Reads a counter / gauge; 0 for names never written.
  [[nodiscard]] double counter(std::string_view name) const;
  [[nodiscard]] double gauge(std::string_view name) const;
  /// Copy of one histogram; all-zero for names never observed.
  [[nodiscard]] HistogramSnapshot histogram(std::string_view name) const;

  /// Snapshot accessors (copies, so callers need no lock discipline).
  [[nodiscard]] std::map<std::string, double> counters() const;
  [[nodiscard]] std::map<std::string, double> gauges() const;
  [[nodiscard]] std::map<std::string, HistogramSnapshot> histograms()
      const;

  /// True when nothing has been recorded (every counter slot is 0).
  [[nodiscard]] bool empty() const;

  /// Drops gauges and histograms and zeroes every counter; counter
  /// slots stay, so handles remain valid.
  void clear();

 private:
  mutable std::mutex mu_;
  // Map nodes never move and are never erased, so a slot's address is
  // stable for the registry's lifetime.
  std::map<std::string, std::atomic<double>, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
  std::map<std::string, HistogramSnapshot, std::less<>> histograms_;
};

}  // namespace tda::telemetry
