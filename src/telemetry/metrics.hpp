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
// Every series lives in a slot with a stable address. A component
// registers a handle on it once (a labeled series on its first use) and
// then records with no registry lock and no lookup; add/set/observe by
// name reach the same slots. Gauges mirroring state owned elsewhere are
// written by the registry's one sampler, which every gauge read runs
// first. The registry's mutex guards only its maps.

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
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

/// Handle on one registry counter (counter_handle) or gauge
/// (gauge_handle) slot: add() / set() is one relaxed atomic, no lock, no
/// lookup. The slot outlives clear(), which zeroes it. A default-built
/// handle has no slot (it tests false) and must be assigned before use.
class Counter {
 public:
  Counter() = default;
  explicit operator bool() const { return slot_ != nullptr; }
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

class Gauge {
 public:
  Gauge() = default;
  explicit operator bool() const { return slot_ != nullptr; }
  void set(double value) const {
    slot_->store(value, std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::atomic<double>* slot) : slot_(slot) {}
  std::atomic<double>* slot_ = nullptr;
};

/// One histogram series behind its own lock.
struct HistogramSlot {
  mutable std::mutex mu;
  HistogramSnapshot h;
};

/// Handle on one histogram slot (histogram_handle); slot rules as Counter.
class Histogram {
 public:
  Histogram() = default;
  explicit operator bool() const { return slot_ != nullptr; }
  /// Records one sample, stamping `exemplar_trace_id` (when non-zero) on
  /// the bucket it lands in. Non-finite samples are dropped.
  void observe(double sample, std::uint64_t exemplar_trace_id = 0) const;

 private:
  friend class MetricsRegistry;
  explicit Histogram(HistogramSlot* slot) : slot_(slot) {}
  HistogramSlot* slot_ = nullptr;
};

class MetricsRegistry {
 public:
  /// Returns the handle on series `name`, creating its slot empty (0, or
  /// a histogram with no samples). Every call with one name yields the
  /// same slot.
  [[nodiscard]] Counter counter_handle(std::string_view name);
  [[nodiscard]] Gauge gauge_handle(std::string_view name);
  [[nodiscard]] Histogram histogram_handle(std::string_view name);

  /// Adds `delta` to a counter (creating it at 0).
  void add(std::string_view name, double delta = 1.0);
  /// Sets a gauge to `value`.
  void set(std::string_view name, double value);
  /// Records one sample into histogram `name` (see Histogram::observe).
  void observe(std::string_view name, double sample,
               std::uint64_t exemplar_trace_id = 0);

  /// Installs the registry's read-time sampler, replacing any previous
  /// one (an empty function removes it). It runs before every gauge read
  /// and must write gauges only: reading gauges from inside it deadlocks.
  void set_sampler(std::function<void()> sampler);

  /// Reads a counter / gauge; 0 for names never written. gauge() runs
  /// the sampler first.
  [[nodiscard]] double counter(std::string_view name) const;
  [[nodiscard]] double gauge(std::string_view name) const;
  /// Copy of one histogram; all-zero for names never observed.
  [[nodiscard]] HistogramSnapshot histogram(std::string_view name) const;

  /// Snapshot accessors (copies, so callers need no lock discipline).
  /// gauges() runs the sampler first; histograms() lists only series
  /// holding at least one sample.
  [[nodiscard]] std::map<std::string, double> counters() const;
  [[nodiscard]] std::map<std::string, double> gauges() const;
  [[nodiscard]] std::map<std::string, HistogramSnapshot> histograms()
      const;

  /// True when nothing has been recorded (every slot is empty).
  [[nodiscard]] bool empty() const;

  /// Empties every slot; slots stay, so handles remain valid.
  void clear();

 private:
  /// Runs the sampler, if any, outside mu_.
  void sample() const;

  mutable std::mutex mu_;
  // Map nodes never move and are never erased, so a slot's address is
  // stable for the registry's lifetime.
  std::map<std::string, std::atomic<double>, std::less<>> counters_;
  std::map<std::string, std::atomic<double>, std::less<>> gauges_;
  std::map<std::string, HistogramSlot, std::less<>> histograms_;

  /// Held while the sampler runs, so it never runs twice at once and
  /// set_sampler waits out a running one.
  mutable std::mutex sampler_mu_;
  std::function<void()> sampler_;
};

/// Writes the process-wide allocation gauges: pool.hit_rate,
/// pool.cached_bytes, pool.outstanding_bytes and host.alloc_count.
void sample_process_gauges(MetricsRegistry& mx);

}  // namespace tda::telemetry
