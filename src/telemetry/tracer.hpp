#pragma once
// Span tracer — the observability substrate the paper's stage-timing
// figures (5–8) need: nestable, attributed spans over the *simulated*
// timeline (solo runs) or the wall clock (the service). A span is
// opened/closed explicitly (begin/end), by RAII (ScopedSpan), or
// emitted whole with pre-measured timestamps (emit — what
// Device::launch uses, since a launch's duration is only known after
// the cost model runs).
//
// Request-scoped tracing: every span carries a trace id. A TraceContext
// (trace id + parent span id, cheaply copyable) is minted at service
// admission — or at AutoSolver entry for in-process callers — and
// installed per thread (TraceScope). Spans opened with an empty stack
// inherit the ambient context, so a worker thread, a chunk split or a
// CPU-fallback path all parent under the originating request's root
// span even though that root was opened on another thread.
//
// Thread-safety: the span table is guarded by an internal mutex and the
// open-span stack is per (thread, tracer) — concurrent service workers
// can record into one shared tracer without external locking. The
// enabled flag is atomic so snapshot readers racing a toggle are
// well-defined.
//
// Zero overhead when disabled: begin()/emit() return kInvalidSpan and
// allocate nothing, attribute calls no-op. The time source is pluggable
// (set_clock); Device::set_telemetry wires it to the device's simulated
// timeline so spans line up with kernel-launch records.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tda::telemetry {

using SpanId = std::size_t;
inline constexpr SpanId kInvalidSpan = ~static_cast<SpanId>(0);

/// Request identity threaded through the solve path. trace_id 0 means
/// "no context"; parent is the span new work should hang under.
struct TraceContext {
  std::uint64_t trace_id = 0;
  SpanId parent = kInvalidSpan;

  [[nodiscard]] bool valid() const { return trace_id != 0; }
};

/// Process-wide monotonically increasing trace id (never 0).
std::uint64_t next_trace_id();

/// Lower-case hex rendering of a trace id ("1a2b"); what exporters and
/// exemplars stamp on records.
std::string trace_id_hex(std::uint64_t trace_id);

/// One closed (or still-open) span.
struct SpanRecord {
  std::string name;
  std::string category;
  double begin_s = 0.0;  ///< simulated (or wall) seconds
  double end_s = 0.0;
  SpanId parent = kInvalidSpan;
  std::uint64_t trace_id = 0;  ///< request the span belongs to (0 = none)
  int depth = 0;  ///< nesting depth at open time (0 = root)
  std::vector<std::pair<std::string, std::string>> attrs;

  /// Value of the first attribute named `key`; empty when absent.
  [[nodiscard]] std::string_view attr(std::string_view key) const {
    for (const auto& [k, v] : attrs) {
      if (k == key) return v;
    }
    return {};
  }
};

class Tracer {
 public:
  Tracer();

  void enable(bool on = true) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Installs the time source (seconds). Device::set_telemetry points
  /// this at the device's simulated timeline; the service points it at
  /// its wall clock; without a clock all timestamps are 0 (spans still
  /// nest correctly).
  void set_clock(std::function<double()> clock);
  [[nodiscard]] double now() const;

  /// Opens a nested span; returns kInvalidSpan when disabled. Parents
  /// at the calling thread's innermost open span, falling back to the
  /// thread's ambient TraceContext when the stack is empty.
  SpanId begin(std::string_view name, std::string_view category = {});

  /// Closes a span (and any still-open descendants on the calling
  /// thread's stack). No-op for kInvalidSpan.
  void end(SpanId id);

  /// Records a complete span with externally measured timestamps,
  /// parented at the calling thread's innermost open span (or ambient
  /// context). Returns kInvalidSpan when disabled.
  SpanId emit(std::string_view name, std::string_view category,
              double begin_s, double end_s);

  /// emit() with an explicit parent/trace — how the service stamps
  /// per-batch spans under a specific request's root regardless of
  /// which thread runs the batch.
  SpanId emit_at(std::string_view name, std::string_view category,
                 double begin_s, double end_s, TraceContext ctx);

  /// Opens a root-like span with an explicit begin timestamp and
  /// context, NOT pushed on any thread's stack. The service opens one
  /// "request" span per admission and close_at()s it when the request
  /// reaches a terminal state — possibly on another thread.
  SpanId open_at(std::string_view name, std::string_view category,
                 double begin_s, TraceContext ctx);

  /// Patches the end timestamp of an open_at() span.
  void close_at(SpanId id, double end_s);

  /// Attaches a key/value attribute to a span. Numeric overloads print
  /// integers without a decimal point. No-ops for kInvalidSpan.
  void attr(SpanId id, std::string_view key, std::string_view value);
  void attr(SpanId id, std::string_view key, double value);

  /// The calling thread's ambient trace context (install via
  /// TraceScope; returns {} when none is set).
  [[nodiscard]] TraceContext ambient() const;
  void set_ambient(TraceContext ctx);

  /// Borrowing accessor for single-threaded callers (tests, the solo
  /// benches). Concurrent recorders must use snapshot().
  [[nodiscard]] const std::vector<SpanRecord>& spans() const {
    return spans_;
  }
  /// Locked copy of the span table — safe while workers still record.
  [[nodiscard]] std::vector<SpanRecord> snapshot() const;

  /// Open spans on the calling thread's stack.
  [[nodiscard]] std::size_t open_spans() const;

  void clear();

 private:
  struct ThreadState {
    std::uint64_t epoch = 0;
    std::vector<SpanId> stack;
    TraceContext ambient;
  };

  /// The calling thread's state for THIS tracer (reset lazily after
  /// clear() bumps the epoch). Entries for destroyed tracers persist in
  /// the thread-local map — bounded by tracers created, all tiny.
  [[nodiscard]] ThreadState& tls() const;

  SpanId record_locked(std::string_view name, std::string_view category,
                       double begin_s, double end_s, SpanId parent,
                       std::uint64_t trace_id);

  std::atomic<bool> enabled_{false};
  const std::uint64_t uid_;
  std::atomic<std::uint64_t> epoch_{0};
  mutable std::mutex mu_;
  std::function<double()> clock_;  // guarded by mu_
  std::vector<SpanRecord> spans_;  // guarded by mu_
};

/// RAII span: closes on scope exit. Safe on a null tracer or a disabled
/// one — every member degrades to a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string_view name,
             std::string_view category = {})
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->begin(name, category)
                              : kInvalidSpan) {}
  ScopedSpan(Tracer& tracer, std::string_view name,
             std::string_view category = {})
      : ScopedSpan(&tracer, name, category) {}

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() { finish(); }

  /// Closes the span early (idempotent).
  void finish() {
    if (tracer_ != nullptr && id_ != kInvalidSpan) {
      tracer_->end(id_);
      id_ = kInvalidSpan;
    }
  }

  void attr(std::string_view key, std::string_view value) {
    if (tracer_ != nullptr && id_ != kInvalidSpan)
      tracer_->attr(id_, key, value);
  }
  void attr(std::string_view key, double value) {
    if (tracer_ != nullptr && id_ != kInvalidSpan)
      tracer_->attr(id_, key, value);
  }

  [[nodiscard]] bool active() const { return id_ != kInvalidSpan; }
  [[nodiscard]] SpanId id() const { return id_; }

 private:
  Tracer* tracer_;
  SpanId id_;
};

/// RAII ambient-context installer: spans the calling thread opens while
/// the scope lives inherit `ctx` when their stack is empty. Restores
/// the previous ambient context on exit; null tracer no-ops.
class TraceScope {
 public:
  TraceScope(Tracer* tracer, TraceContext ctx) : tracer_(tracer) {
    if (tracer_ != nullptr) {
      prev_ = tracer_->ambient();
      tracer_->set_ambient(ctx);
    }
  }
  TraceScope(Tracer& tracer, TraceContext ctx)
      : TraceScope(&tracer, ctx) {}

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  ~TraceScope() {
    if (tracer_ != nullptr) tracer_->set_ambient(prev_);
  }

 private:
  Tracer* tracer_;
  TraceContext prev_;
};

}  // namespace tda::telemetry
