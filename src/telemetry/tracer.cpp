#include "telemetry/tracer.hpp"

#include <cmath>
#include <sstream>
#include <unordered_map>

#include "telemetry/json.hpp"

namespace tda::telemetry {

namespace {
std::string format_number(double value) {
  if (!std::isfinite(value)) {
    note_nonfinite_dropped();
    return "null";
  }
  // Integral values print without a decimal point (span attrs carry a
  // lot of counts: blocks, threads, steps).
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    std::ostringstream os;
    os << static_cast<long long>(value);
    return os.str();
  }
  std::ostringstream os;
  os.precision(9);
  os << value;
  return os.str();
}

std::atomic<std::uint64_t> g_next_trace{1};
std::atomic<std::uint64_t> g_next_tracer_uid{1};
}  // namespace

std::uint64_t next_trace_id() {
  return g_next_trace.fetch_add(1, std::memory_order_relaxed);
}

std::string trace_id_hex(std::uint64_t trace_id) {
  std::ostringstream os;
  os << std::hex << trace_id;
  return os.str();
}

Tracer::Tracer()
    : uid_(g_next_tracer_uid.fetch_add(1, std::memory_order_relaxed)) {}

Tracer::ThreadState& Tracer::tls() const {
  static thread_local std::unordered_map<std::uint64_t, ThreadState>
      t_states;
  ThreadState& st = t_states[uid_];
  const std::uint64_t epoch = epoch_.load(std::memory_order_acquire);
  if (st.epoch != epoch) {
    st.epoch = epoch;
    st.stack.clear();
    st.ambient = {};
  }
  return st;
}

void Tracer::set_clock(std::function<double()> clock) {
  std::lock_guard lk(mu_);
  clock_ = std::move(clock);
}

double Tracer::now() const {
  std::lock_guard lk(mu_);
  return clock_ ? clock_() : 0.0;
}

SpanId Tracer::record_locked(std::string_view name,
                             std::string_view category, double begin_s,
                             double end_s, SpanId parent,
                             std::uint64_t trace_id) {
  SpanRecord rec;
  rec.name.assign(name);
  rec.category.assign(category);
  rec.begin_s = begin_s;
  rec.end_s = end_s;
  rec.parent = parent;
  rec.trace_id = trace_id;
  rec.depth =
      parent != kInvalidSpan && parent < spans_.size()
          ? spans_[parent].depth + 1
          : 0;
  spans_.push_back(std::move(rec));
  return spans_.size() - 1;
}

SpanId Tracer::begin(std::string_view name, std::string_view category) {
  if (!enabled()) return kInvalidSpan;
  ThreadState& st = tls();
  std::lock_guard lk(mu_);
  SpanId parent;
  std::uint64_t trace;
  if (!st.stack.empty()) {
    parent = st.stack.back();
    trace = parent < spans_.size() ? spans_[parent].trace_id : 0;
  } else {
    parent = st.ambient.parent;
    trace = st.ambient.trace_id;
  }
  const double ts = clock_ ? clock_() : 0.0;
  const SpanId id =
      record_locked(name, category, ts, ts, parent, trace);
  st.stack.push_back(id);
  return id;
}

void Tracer::end(SpanId id) {
  if (id == kInvalidSpan) return;
  ThreadState& st = tls();
  std::lock_guard lk(mu_);
  if (id >= spans_.size()) return;
  const double ts = clock_ ? clock_() : 0.0;
  spans_[id].end_s = ts;
  // Unwind to the ended span, closing any descendants whose end calls
  // were skipped (e.g. an exception unwound past their ScopedSpan).
  while (!st.stack.empty()) {
    const SpanId top = st.stack.back();
    st.stack.pop_back();
    if (top == id) break;
    if (top < spans_.size()) spans_[top].end_s = ts;
  }
}

SpanId Tracer::emit(std::string_view name, std::string_view category,
                    double begin_s, double end_s) {
  if (!enabled()) return kInvalidSpan;
  ThreadState& st = tls();
  std::lock_guard lk(mu_);
  SpanId parent;
  std::uint64_t trace;
  if (!st.stack.empty()) {
    parent = st.stack.back();
    trace = parent < spans_.size() ? spans_[parent].trace_id : 0;
  } else {
    parent = st.ambient.parent;
    trace = st.ambient.trace_id;
  }
  return record_locked(name, category, begin_s, end_s, parent, trace);
}

SpanId Tracer::emit_at(std::string_view name, std::string_view category,
                       double begin_s, double end_s, TraceContext ctx) {
  if (!enabled()) return kInvalidSpan;
  std::lock_guard lk(mu_);
  return record_locked(name, category, begin_s, end_s, ctx.parent,
                       ctx.trace_id);
}

SpanId Tracer::open_at(std::string_view name, std::string_view category,
                       double begin_s, TraceContext ctx) {
  if (!enabled()) return kInvalidSpan;
  std::lock_guard lk(mu_);
  return record_locked(name, category, begin_s, begin_s, ctx.parent,
                       ctx.trace_id);
}

void Tracer::close_at(SpanId id, double end_s) {
  if (id == kInvalidSpan) return;
  std::lock_guard lk(mu_);
  if (id >= spans_.size()) return;
  spans_[id].end_s = end_s;
}

void Tracer::attr(SpanId id, std::string_view key, std::string_view value) {
  if (id == kInvalidSpan) return;
  std::lock_guard lk(mu_);
  if (id >= spans_.size()) return;
  spans_[id].attrs.emplace_back(std::string(key), std::string(value));
}

void Tracer::attr(SpanId id, std::string_view key, double value) {
  if (id == kInvalidSpan) return;
  std::string formatted = format_number(value);
  std::lock_guard lk(mu_);
  if (id >= spans_.size()) return;
  spans_[id].attrs.emplace_back(std::string(key), std::move(formatted));
}

TraceContext Tracer::ambient() const { return tls().ambient; }

void Tracer::set_ambient(TraceContext ctx) { tls().ambient = ctx; }

std::vector<SpanRecord> Tracer::snapshot() const {
  std::lock_guard lk(mu_);
  return spans_;
}

std::size_t Tracer::open_spans() const { return tls().stack.size(); }

void Tracer::clear() {
  std::lock_guard lk(mu_);
  spans_.clear();
  // Bumping the epoch lazily resets every thread's stack and ambient
  // context the next time that thread touches this tracer.
  epoch_.fetch_add(1, std::memory_order_acq_rel);
}

}  // namespace tda::telemetry
