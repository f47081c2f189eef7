#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cmath>

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

Counter MetricsRegistry::counter_handle(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.try_emplace(std::string(name), 0.0).first;
  }
  return Counter(&it->second);
}

void MetricsRegistry::add(std::string_view name, double delta) {
  counter_handle(name).add(delta);
}

void MetricsRegistry::set(std::string_view name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    gauges_.emplace(std::string(name), value);
  } else {
    it->second = value;
  }
}

void MetricsRegistry::observe(std::string_view name, double sample,
                              std::uint64_t exemplar_trace_id) {
  if (!std::isfinite(sample)) return;
  const std::size_t b = bucket_of(sample);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), HistogramSnapshot{}).first;
  }
  HistogramSnapshot& h = it->second;
  if (h.count == 0 || sample < h.min) h.min = sample;
  if (h.count == 0 || sample > h.max) h.max = sample;
  ++h.counts[b];
  ++h.count;
  h.sum += sample;
  if (exemplar_trace_id != 0) h.exemplars[b] = {exemplar_trace_id, sample};
}

double MetricsRegistry::counter(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0.0
                               : it->second.load(std::memory_order_relaxed);
}

double MetricsRegistry::gauge(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

HistogramSnapshot MetricsRegistry::histogram(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  return it == histograms_.end() ? HistogramSnapshot{} : it->second;
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
  std::lock_guard<std::mutex> lock(mu_);
  return {gauges_.begin(), gauges_.end()};
}

std::map<std::string, HistogramSnapshot> MetricsRegistry::histograms()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return {histograms_.begin(), histograms_.end()};
}

bool MetricsRegistry::empty() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, slot] : counters_) {
    if (slot.load(std::memory_order_relaxed) != 0.0) return false;
  }
  return gauges_.empty() && histograms_.empty();
}

void MetricsRegistry::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, slot] : counters_) {
    slot.store(0.0, std::memory_order_relaxed);
  }
  gauges_.clear();
  histograms_.clear();
}

}  // namespace tda::telemetry
