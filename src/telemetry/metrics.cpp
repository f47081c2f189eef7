#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "common/alloc_stats.hpp"
#include "common/buffer_pool.hpp"

namespace tda::telemetry {

namespace {
std::size_t bucket_of(double v) {
  const auto it = std::lower_bound(kHistogramBounds.begin(),
                                   kHistogramBounds.end(), v);
  return static_cast<std::size_t>(it - kHistogramBounds.begin());
}
}  // namespace

double HistogramSnapshot::mean() const {
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

double HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  const double target =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(count);
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] == 0) continue;
    const std::uint64_t prev = cum;
    cum += counts[b];
    if (static_cast<double>(cum) < target) continue;
    const double lo = b == 0 ? 0.0 : kHistogramBounds[b - 1];
    // The overflow bucket has no finite bound; the exact max stands in.
    const double hi = b + 1 == counts.size() ? max : kHistogramBounds[b];
    const double frac = (target - static_cast<double>(prev)) /
                        static_cast<double>(counts[b]);
    return std::clamp(lo + (hi - lo) * frac, min, max);
  }
  return max;
}

Exemplar HistogramSnapshot::exemplar_at(double q) const {
  if (count == 0) return {};
  const double cut = quantile(q);
  // Prefer the highest bucket holding samples at/above the cut; fall
  // back to the highest non-empty bucket with an exemplar.
  for (std::size_t b = counts.size(); b-- > 0;) {
    if (counts[b] == 0 || exemplars[b].trace_id == 0) continue;
    const double lo = b == 0 ? 0.0 : kHistogramBounds[b - 1];
    if (lo >= cut || exemplars[b].value >= cut) return exemplars[b];
  }
  for (std::size_t b = counts.size(); b-- > 0;) {
    if (exemplars[b].trace_id != 0) return exemplars[b];
  }
  return {};
}

std::string labeled(
    std::string_view name,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        labels) {
  std::string key(name);
  if (labels.size() == 0) return key;
  key += '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) key += ',';
    first = false;
    key.append(k);
    key += "=\"";
    key.append(v);
    key += '"';
  }
  key += '}';
  return key;
}

namespace {
/// `name`'s slot in `slots`, created empty. Caller holds the mutex.
template <typename Map>
auto& slot_of(Map& slots, std::string_view name) {
  auto it = slots.find(name);
  if (it == slots.end()) it = slots.try_emplace(std::string(name)).first;
  return it->second;
}
}  // namespace

void Histogram::observe(double sample,
                        std::uint64_t exemplar_trace_id) const {
  if (!std::isfinite(sample)) return;
  const std::size_t b = bucket_of(sample);
  std::lock_guard<std::mutex> lock(slot_->mu);
  HistogramSnapshot& h = slot_->h;
  if (h.count == 0 || sample < h.min) h.min = sample;
  if (h.count == 0 || sample > h.max) h.max = sample;
  ++h.counts[b];
  ++h.count;
  h.sum += sample;
  if (exemplar_trace_id != 0) h.exemplars[b] = {exemplar_trace_id, sample};
}

Counter MetricsRegistry::counter_handle(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  return Counter(&slot_of(counters_, name));
}

Gauge MetricsRegistry::gauge_handle(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  return Gauge(&slot_of(gauges_, name));
}

Histogram MetricsRegistry::histogram_handle(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  return Histogram(&slot_of(histograms_, name));
}

void MetricsRegistry::add(std::string_view name, double delta) {
  counter_handle(name).add(delta);
}

void MetricsRegistry::set(std::string_view name, double value) {
  gauge_handle(name).set(value);
}

void MetricsRegistry::observe(std::string_view name, double sample,
                              std::uint64_t exemplar_trace_id) {
  histogram_handle(name).observe(sample, exemplar_trace_id);
}

void MetricsRegistry::set_sampler(std::function<void()> sampler) {
  std::lock_guard<std::mutex> lock(sampler_mu_);
  sampler_ = std::move(sampler);
}

void MetricsRegistry::sample() const {
  std::lock_guard<std::mutex> lock(sampler_mu_);
  if (sampler_) sampler_();
}

double MetricsRegistry::counter(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0.0
                               : it->second.load(std::memory_order_relaxed);
}

double MetricsRegistry::gauge(std::string_view name) const {
  sample();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0
                             : it->second.load(std::memory_order_relaxed);
}

HistogramSnapshot MetricsRegistry::histogram(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) return {};
  std::lock_guard<std::mutex> slot_lock(it->second.mu);
  return it->second.h;
}

std::map<std::string, double> MetricsRegistry::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> out;
  for (const auto& [name, slot] : counters_) {
    out.emplace(name, slot.load(std::memory_order_relaxed));
  }
  return out;
}

std::map<std::string, double> MetricsRegistry::gauges() const {
  sample();
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> out;
  for (const auto& [name, slot] : gauges_) {
    out.emplace(name, slot.load(std::memory_order_relaxed));
  }
  return out;
}

std::map<std::string, HistogramSnapshot> MetricsRegistry::histograms()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, HistogramSnapshot> out;
  for (const auto& [name, slot] : histograms_) {
    std::lock_guard<std::mutex> slot_lock(slot.mu);
    if (slot.h.count > 0) out.emplace(name, slot.h);
  }
  return out;
}

bool MetricsRegistry::empty() const {
  if (!histograms().empty()) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto* slots : {&counters_, &gauges_}) {
    for (const auto& [name, slot] : *slots) {
      if (slot.load(std::memory_order_relaxed) != 0.0) return false;
    }
  }
  return true;
}

void MetricsRegistry::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto* slots : {&counters_, &gauges_}) {
    for (auto& [name, slot] : *slots) {
      slot.store(0.0, std::memory_order_relaxed);
    }
  }
  for (auto& [name, slot] : histograms_) {
    std::lock_guard<std::mutex> slot_lock(slot.mu);
    slot.h = HistogramSnapshot{};
  }
}

void sample_process_gauges(MetricsRegistry& mx) {
  const BufferPool::Stats ps = BufferPool::global().stats();
  mx.set("pool.hit_rate", ps.hit_rate());
  mx.set("pool.cached_bytes", static_cast<double>(ps.cached_bytes));
  mx.set("pool.outstanding_bytes", static_cast<double>(ps.outstanding_bytes));
  mx.set("host.alloc_count", static_cast<double>(host_alloc_count()));
}

}  // namespace tda::telemetry
