#include <sys/resource.h>

#include <algorithm>

#include "bench.hpp"

namespace perfbench {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median_rate(const std::function<double()>& pass) {
  std::vector<double> rates;
  const auto start = Clock::now();
  while (rates.size() < 3 || ms_between(start, Clock::now()) < 1000.0) {
    const auto t0 = Clock::now();
    const double units = pass();
    rates.push_back(units / (ms_between(t0, Clock::now()) / 1e3));
  }
  return median(rates);
}

std::uint32_t SpanLog::add(const char* name, std::uint32_t parent,
                           std::uint64_t trace, Clock::time_point start,
                           Clock::time_point end) {
  const auto ns = [this](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  };
  // Ids are unique across thread logs: the thread id sits in the top bits.
  const auto id = static_cast<std::uint32_t>(
      (static_cast<std::uint32_t>(tid_) << 27) | (spans_.size() + 1));
  spans_.push_back({name, id, parent, trace, tid_, ns(start), ns(end)});
  return id;
}

}  // namespace perfbench
