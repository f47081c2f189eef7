#include "telemetry/export.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <numeric>
#include <sstream>
#include <vector>

#include "common/log.hpp"
#include "telemetry/json.hpp"

namespace tda::telemetry {

std::string to_chrome_trace(const Tracer& tracer) {
  const std::vector<SpanRecord> spans = tracer.snapshot();
  // Order: begin ascending, then longer (enclosing) spans first, then
  // shallower first — so viewers that break ties by record order still
  // nest a stage span around its same-timestamp first kernel launch.
  std::vector<std::size_t> order(spans.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     if (spans[a].begin_s != spans[b].begin_s)
                       return spans[a].begin_s < spans[b].begin_s;
                     const double da = spans[a].end_s - spans[a].begin_s;
                     const double db = spans[b].end_s - spans[b].begin_s;
                     if (da != db) return da > db;
                     return spans[a].depth < spans[b].depth;
                   });

  // One tid row per trace id (in first-seen span order), so a request's
  // tree renders as one coherent track; traceless spans share row 1.
  std::map<std::uint64_t, int> trace_rows;
  for (const std::size_t i : order) {
    const std::uint64_t t = spans[i].trace_id;
    if (t != 0 && trace_rows.find(t) == trace_rows.end()) {
      trace_rows.emplace(t, static_cast<int>(trace_rows.size()) + 2);
    }
  }

  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const std::size_t i : order) {
    const SpanRecord& sp = spans[i];
    if (!first) os << ',';
    first = false;
    const double dur_us = std::max(0.0, sp.end_s - sp.begin_s) * 1e6;
    const int tid =
        sp.trace_id != 0 ? trace_rows[sp.trace_id] : 1;
    os << "{\"name\":\"" << json_escape(sp.name) << "\",\"cat\":\""
       << json_escape(sp.category.empty() ? "tda" : sp.category)
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid
       << ",\"ts\":" << json_number(sp.begin_s * 1e6)
       << ",\"dur\":" << json_number(dur_us);
    os << ",\"args\":{\"span_id\":\"" << i << "\",\"parent_id\":\"";
    if (sp.parent != kInvalidSpan) os << sp.parent;
    os << "\",\"trace_id\":\"";
    if (sp.trace_id != 0) os << trace_id_hex(sp.trace_id);
    os << '"';
    for (const auto& [k, v] : sp.attrs) {
      os << ",\"" << json_escape(k) << "\":\"" << json_escape(v) << '"';
    }
    os << "}}";
  }
  os << "]}";
  return os.str();
}

std::string to_metrics_json(const MetricsRegistry& metrics) {
  // Gauges and histograms serialize first (into side buffers) so that
  // any NaN/Inf they drop is already tallied when the counters section —
  // which reports the drop count — is emitted.
  std::ostringstream gs;
  bool first = true;
  for (const auto& [name, value] : metrics.gauges()) {
    if (!first) gs << ',';
    first = false;
    gs << '"' << json_escape(name) << "\":" << json_number(value);
  }
  std::ostringstream hs;
  first = true;
  for (const auto& [name, h] : metrics.histograms()) {
    if (!first) hs << ',';
    first = false;
    const Exemplar ex = h.exemplar_at(0.99);
    hs << '"' << json_escape(name) << "\":{\"count\":"
       << json_number(static_cast<double>(h.count))
       << ",\"sum\":" << json_number(h.sum)
       << ",\"min\":" << json_number(h.min)
       << ",\"max\":" << json_number(h.max)
       << ",\"mean\":" << json_number(h.mean())
       << ",\"p50\":" << json_number(h.quantile(0.50))
       << ",\"p95\":" << json_number(h.quantile(0.95))
       << ",\"p99\":" << json_number(h.quantile(0.99))
       << ",\"exemplar_trace_id\":\""
       << (ex.trace_id != 0 ? trace_id_hex(ex.trace_id) : std::string())
       << "\"}";
  }

  std::ostringstream os;
  os << "{\"counters\":{";
  first = true;
  for (const auto& [name, value] : metrics.counters()) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(name) << "\":" << json_number(value);
  }
  // Process-wide serializer health: how many NaN/Inf values were
  // dropped to null instead of being exported as numbers.
  if (nonfinite_dropped() > 0) {
    if (!first) os << ',';
    os << "\"telemetry.nonfinite_dropped\":"
       << json_number(static_cast<double>(nonfinite_dropped()));
  }
  os << "},\"gauges\":{" << gs.str() << "},\"histograms\":{" << hs.str()
     << "}}";
  return os.str();
}

namespace {

/// Metric-name charset per the OpenMetrics ABNF; dots become
/// underscores, everything else non-conforming too.
std::string om_sanitize(std::string_view raw) {
  std::string out;
  out.reserve(raw.size() + 4);
  if (raw.substr(0, 4) != "tda_" && raw.substr(0, 4) != "tda.") {
    out = "tda_";
  } else if (raw.substr(0, 4) == "tda.") {
    out = "tda_";
    raw.remove_prefix(4);
  }
  for (const char c : raw) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

std::string om_number(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

/// Splits a labeled() key into (sanitized family, label body without
/// braces).
std::pair<std::string, std::string> split_labels(const std::string& key) {
  const std::size_t brace = key.find('{');
  if (brace == std::string::npos) return {om_sanitize(key), ""};
  std::string body = key.substr(brace + 1);
  if (!body.empty() && body.back() == '}') body.pop_back();
  return {om_sanitize(std::string_view(key).substr(0, brace)), body};
}

/// "{a,b}" label bodies merged with an extra label appended.
std::string merge_labels(const std::string& body,
                         const std::string& extra) {
  if (body.empty()) return extra;
  if (extra.empty()) return body;
  return body + "," + extra;
}

struct OmWriter {
  std::ostringstream os;
  std::map<std::string, char> used;  // family -> type tag

  /// Reserves `family`; on a cross-type collision appends a
  /// disambiguating suffix so the output stays parseable.
  std::string claim(std::string family, char type,
                    const char* fallback_suffix) {
    auto it = used.find(family);
    if (it != used.end() && it->second != type) {
      family += fallback_suffix;
    }
    used[family] = type;
    return family;
  }

  void sample(const std::string& name, const std::string& labels,
              double value, const std::string& exemplar = {}) {
    os << name;
    if (!labels.empty()) os << '{' << labels << '}';
    os << ' ' << om_number(value);
    if (!exemplar.empty()) os << " # " << exemplar;
    os << '\n';
  }
};

}  // namespace

std::string to_openmetrics(const MetricsRegistry& metrics) {
  OmWriter w;

  // counters -> <family>_total
  std::map<std::string, std::vector<std::pair<std::string, double>>>
      counter_fams;
  auto counters = metrics.counters();
  if (nonfinite_dropped() > 0) {
    counters["telemetry.nonfinite_dropped"] =
        static_cast<double>(nonfinite_dropped());
  }
  for (const auto& [key, value] : counters) {
    auto [fam, labels] = split_labels(key);
    counter_fams[fam].emplace_back(labels, value);
  }
  for (const auto& [fam, samples] : counter_fams) {
    const std::string name = w.claim(fam, 'c', "_count_metric");
    w.os << "# TYPE " << name << " counter\n";
    for (const auto& [labels, value] : samples) {
      w.sample(name + "_total", labels, value);
    }
  }

  // gauges
  std::map<std::string, std::vector<std::pair<std::string, double>>>
      gauge_fams;
  for (const auto& [key, value] : metrics.gauges()) {
    auto [fam, labels] = split_labels(key);
    gauge_fams[fam].emplace_back(labels, value);
  }
  for (const auto& [fam, samples] : gauge_fams) {
    const std::string name = w.claim(fam, 'g', "_value");
    w.os << "# TYPE " << name << " gauge\n";
    for (const auto& [labels, value] : samples) {
      w.sample(name, labels, value);
    }
  }

  // histograms -> cumulative _bucket{le="..."} series with exemplars
  const auto hists = metrics.histograms();
  std::map<std::string,
           std::vector<std::pair<std::string, const HistogramSnapshot*>>>
      hist_fams;
  for (const auto& [key, h] : hists) {
    auto [fam, labels] = split_labels(key);
    hist_fams[fam].emplace_back(labels, &h);
  }
  for (const auto& [fam, series] : hist_fams) {
    const std::string name = w.claim(fam, 'h', "_hist");
    w.os << "# TYPE " << name << " histogram\n";
    for (const auto& [labels, h] : series) {
      std::uint64_t cum = 0;
      for (std::size_t b = 0; b < h->counts.size(); ++b) {
        cum += h->counts[b];
        const std::string le =
            "le=\"" + om_number(kHistogramBounds[b]) + '"';
        std::string exemplar;
        if (h->exemplars[b].trace_id != 0) {
          exemplar = "{trace_id=\"" +
                     trace_id_hex(h->exemplars[b].trace_id) +
                     "\"} " + om_number(h->exemplars[b].value);
        }
        w.sample(name + "_bucket", merge_labels(labels, le),
                 static_cast<double>(cum), exemplar);
      }
      w.sample(name + "_count", labels, static_cast<double>(h->count));
      w.sample(name + "_sum", labels, h->sum);
    }
  }

  w.os << "# EOF\n";
  return w.os.str();
}

bool write_text_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

namespace {
std::string env_or_empty(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::string(v) : std::string();
}

std::string with_suffix(std::string path, const std::string& suffix) {
  if (path.empty() || suffix.empty()) return path;
  std::string clean;
  for (const char c : suffix) {
    clean += (std::isalnum(static_cast<unsigned char>(c)) != 0) ? c : '_';
  }
  const std::size_t dot = path.rfind('.');
  if (dot == std::string::npos || dot == 0) return path + "." + clean;
  return path.substr(0, dot) + "." + clean + path.substr(dot);
}
}  // namespace

std::string trace_env_path() { return env_or_empty("TDA_TRACE"); }
std::string metrics_env_path() { return env_or_empty("TDA_METRICS"); }
std::string openmetrics_env_path() {
  return env_or_empty("TDA_OPENMETRICS");
}

double metrics_interval_env() {
  const std::string v = env_or_empty("TDA_METRICS_INTERVAL");
  if (v.empty()) return 0.0;
  char* end = nullptr;
  const double s = std::strtod(v.c_str(), &end);
  if (end == nullptr || *end != '\0' || !std::isfinite(s) || s <= 0.0) {
    return 0.0;
  }
  return s;
}

EnvExport::EnvExport(Telemetry& tel, std::string suffix)
    : tel_(&tel),
      trace_path_(with_suffix(trace_env_path(), suffix)),
      metrics_path_(with_suffix(metrics_env_path(), suffix)),
      openmetrics_path_(with_suffix(openmetrics_env_path(), suffix)),
      interval_s_(metrics_interval_env()) {
  if (!trace_path_.empty()) tel_->tracer.enable();
  if (!metrics_path_.empty() || !openmetrics_path_.empty()) {
    tel_->metrics.enable();
  }
  if (interval_s_ > 0.0 &&
      (!metrics_path_.empty() || !openmetrics_path_.empty())) {
    snapshot_thread_ = std::thread([this] { snapshot_loop(); });
  }
}

EnvExport::~EnvExport() {
  if (snapshot_thread_.joinable()) {
    {
      std::lock_guard lk(snap_mu_);
      snap_stop_ = true;
    }
    snap_cv_.notify_all();
    snapshot_thread_.join();
  }
  // Always write the final snapshot: a mid-run flush() must not eat
  // the counters accumulated after it (the old `flushed_` latch did
  // exactly that — metrics between the last manual flush and process
  // exit silently vanished).
  flush();
}

void EnvExport::write_metrics_files() const {
  if (!metrics_path_.empty()) {
    write_text_file(metrics_path_, to_metrics_json(tel_->metrics));
  }
  if (!openmetrics_path_.empty()) {
    write_text_file(openmetrics_path_, to_openmetrics(tel_->metrics));
  }
}

void EnvExport::snapshot_loop() {
  std::unique_lock lk(snap_mu_);
  const auto interval = std::chrono::duration<double>(interval_s_);
  while (!snap_stop_) {
    if (snap_cv_.wait_for(lk, interval, [this] { return snap_stop_; })) {
      return;  // final write happens in flush()
    }
    write_metrics_files();
  }
}

void EnvExport::flush() {
  if (!trace_path_.empty()) {
    if (write_text_file(trace_path_, to_chrome_trace(tel_->tracer))) {
      TDA_INFO("telemetry: wrote Chrome trace to " << trace_path_);
    } else {
      TDA_WARN("telemetry: cannot write trace to " << trace_path_);
    }
  }
  if (!metrics_path_.empty()) {
    if (write_text_file(metrics_path_, to_metrics_json(tel_->metrics))) {
      TDA_INFO("telemetry: wrote metrics to " << metrics_path_);
    } else {
      TDA_WARN("telemetry: cannot write metrics to " << metrics_path_);
    }
  }
  if (!openmetrics_path_.empty()) {
    if (write_text_file(openmetrics_path_,
                        to_openmetrics(tel_->metrics))) {
      TDA_INFO("telemetry: wrote OpenMetrics to " << openmetrics_path_);
    } else {
      TDA_WARN("telemetry: cannot write OpenMetrics to "
               << openmetrics_path_);
    }
  }
}

}  // namespace tda::telemetry
