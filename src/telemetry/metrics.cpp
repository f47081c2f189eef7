#include "telemetry/metrics.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

namespace tda::telemetry {

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const std::size_t idx = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(samples.size())));
  return samples[idx - 1];
}

namespace {
// Log-spaced 1-2-5 bounds from 10µs to 5s plus a catch-all: wide enough
// for queue waits under backpressure, fine enough near the typical
// sub-millisecond batched solve.
constexpr std::array<double, 19> kLatencyBounds = {
    0.01, 0.02, 0.05, 0.1,  0.2,  0.5,  1.0,   2.0,   5.0,  10.0,
    20.0, 50.0, 100., 200., 500., 1e3,  2e3,   5e3,
    std::numeric_limits<double>::infinity()};

std::size_t bucket_of(double ms) {
  const auto it = std::lower_bound(kLatencyBounds.begin(),
                                   kLatencyBounds.end(), ms);
  return static_cast<std::size_t>(it - kLatencyBounds.begin());
}
}  // namespace

std::span<const double> latency_bucket_bounds() { return kLatencyBounds; }

double LatencySnapshot::quantile(double q) const {
  if (count == 0 || counts.empty()) return 0.0;
  const double target =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(count);
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    const std::uint64_t prev = cum;
    cum += counts[b];
    if (static_cast<double>(cum) < target) continue;
    const double hi = kLatencyBounds[b];
    const double lo = b == 0 ? 0.0 : kLatencyBounds[b - 1];
    if (!std::isfinite(hi)) return lo;  // overflow bucket: report bound
    const double in_bucket = static_cast<double>(counts[b]);
    if (in_bucket <= 0.0) return hi;
    const double frac =
        (target - static_cast<double>(prev)) / in_bucket;
    return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
  }
  return kLatencyBounds[kLatencyBounds.size() - 2];
}

LatencyExemplar LatencySnapshot::exemplar_at(double q) const {
  if (count == 0 || counts.empty()) return {};
  const double cut = quantile(q);
  // Prefer the highest bucket holding samples at/above the cut; fall
  // back to the highest non-empty bucket with an exemplar.
  for (std::size_t b = counts.size(); b-- > 0;) {
    if (counts[b] == 0 || exemplars[b].trace_id == 0) continue;
    const double lo = b == 0 ? 0.0 : kLatencyBounds[b - 1];
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
  if (!enabled()) return;
  counter_handle(name).add(delta);
}

void MetricsRegistry::set(std::string_view name, double value) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    gauges_.emplace(std::string(name), value);
  } else {
    it->second = value;
  }
}

void MetricsRegistry::observe(std::string_view name, double sample) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    histograms_.emplace(std::string(name),
                        std::vector<double>{sample});
  } else {
    it->second.push_back(sample);
  }
}

void MetricsRegistry::observe_latency(std::string_view name, double ms,
                                      std::uint64_t exemplar_trace_id) {
  if (!enabled()) return;
  if (!std::isfinite(ms)) return;
  const std::size_t b = bucket_of(ms);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = latencies_.find(name);
  if (it == latencies_.end()) {
    LatencyHist h;
    h.counts.assign(kLatencyBounds.size(), 0);
    h.exemplars.assign(kLatencyBounds.size(), {});
    it = latencies_.emplace(std::string(name), std::move(h)).first;
  }
  LatencyHist& h = it->second;
  ++h.counts[b];
  ++h.count;
  h.sum += ms;
  if (exemplar_trace_id != 0) h.exemplars[b] = {exemplar_trace_id, ms};
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

HistogramSummary MetricsRegistry::histogram(std::string_view name) const {
  std::vector<double> samples;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = histograms_.find(name);
    if (it == histograms_.end()) return {};
    samples = it->second;
  }
  HistogramSummary s;
  s.count = samples.size();
  s.min = *std::min_element(samples.begin(), samples.end());
  s.max = *std::max_element(samples.begin(), samples.end());
  double sum = 0.0;
  for (const double v : samples) sum += v;
  s.mean = sum / static_cast<double>(samples.size());
  s.p50 = percentile(samples, 0.50);
  s.p95 = percentile(samples, 0.95);
  return s;
}

LatencySnapshot MetricsRegistry::latency(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = latencies_.find(name);
  if (it == latencies_.end()) return {};
  LatencySnapshot s;
  s.counts = it->second.counts;
  s.exemplars = it->second.exemplars;
  s.count = it->second.count;
  s.sum = it->second.sum;
  return s;
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

std::map<std::string, std::vector<double>> MetricsRegistry::histograms()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return {histograms_.begin(), histograms_.end()};
}

std::map<std::string, LatencySnapshot> MetricsRegistry::latencies() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, LatencySnapshot> out;
  for (const auto& [name, h] : latencies_) {
    LatencySnapshot s;
    s.counts = h.counts;
    s.exemplars = h.exemplars;
    s.count = h.count;
    s.sum = h.sum;
    out.emplace(name, std::move(s));
  }
  return out;
}

bool MetricsRegistry::empty() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, slot] : counters_) {
    if (slot.load(std::memory_order_relaxed) != 0.0) return false;
  }
  return gauges_.empty() && histograms_.empty() && latencies_.empty();
}

void MetricsRegistry::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, slot] : counters_) {
    slot.store(0.0, std::memory_order_relaxed);
  }
  gauges_.clear();
  histograms_.clear();
  latencies_.clear();
}

}  // namespace tda::telemetry
