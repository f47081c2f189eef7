// End-to-end benchmark of the auto-tuned tridiagonal solver.
//
//   perfbench --workload <solve_large|solve_many_small|wire_mixed>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Prints a human-readable report, then, as the last line of stdout, one
// JSON object {"correct", "attempted", "failed", "metrics"}. --trace 0
// reports the end-to-end metrics; --trace 1 reports the per-layer
// metrics and writes the spans as Chrome-trace JSON into --out-dir.
// Exits 1 on any wrong, failed or refused result and 2 on bad usage.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "gpusim/thread_pool.hpp"

extern char** environ;

namespace {

using perfbench::Options;
using perfbench::Report;

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") {
        opt.workload = val;
      } else if (key == "--seed") {
        opt.seed = std::stoull(val);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(val);
      } else if (key == "--trace") {
        opt.trace = val != "0";
      } else if (key == "--out-dir") {
        opt.out_dir = val;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !opt.workload.empty() && opt.seconds > 0.0;
}

void print_env(const Options& opt) {
  std::cout << "workload=" << opt.workload << " seed=" << opt.seed
            << " seconds=" << opt.seconds << " trace=" << opt.trace
            << " nproc=" << std::thread::hardware_concurrency()
            << " lanes=" << tda::gpusim::ThreadPool::global().lanes();
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "TDA_", 4) == 0) std::cout << " " << *e;
  }
  std::cout << "\n";
}

/// Puts the report's metrics in the declared order with their units.
/// An undeclared or missing end-to-end metric is a bug of this program;
/// a per-layer metric the workload never measured reads 0.
bool order_metrics(Report& r, bool trace) {
  std::vector<perfbench::Metric> out;
  const auto specs = trace ? std::span<const perfbench::MetricSpec>(
                                 perfbench::kPerLayer)
                           : std::span<const perfbench::MetricSpec>(
                                 perfbench::kEndToEnd);
  for (const auto& spec : specs) {
    const auto it = std::find_if(
        r.metrics.begin(), r.metrics.end(),
        [&](const perfbench::Metric& m) { return m.name == spec.name; });
    if (it == r.metrics.end() && !trace) {
      std::cerr << "perfbench: metric " << spec.name << " missing\n";
      return false;
    }
    const double v = it == r.metrics.end() ? 0.0 : it->value;
    if (!std::isfinite(v)) {
      std::cerr << "perfbench: metric " << spec.name << " is not finite\n";
      return false;
    }
    out.push_back({spec.name, v, spec.unit});
  }
  for (const auto& m : r.metrics) {
    if (std::none_of(specs.begin(), specs.end(),
                     [&](const auto& s) { return m.name == s.name; })) {
      std::cerr << "perfbench: undeclared metric " << m.name << "\n";
      return false;
    }
  }
  r.metrics = std::move(out);
  return true;
}

/// Writes the traced run's spans as Chrome-trace JSON.
bool write_chrome_trace(const std::string& path,
                        const std::vector<perfbench::Span>& spans) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[320];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const perfbench::Span& s = spans[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                  "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"span\":%u,\"parent\":%u,\"trace\":%llu}}",
                  i == 0 ? "" : ",", s.name, s.tid,
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.id,
                  s.parent, static_cast<unsigned long long>(s.trace));
    out << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

/// Sustained single-threaded copy bandwidth between the two halves of
/// one buffer of 4x the reported last-level cache (64 MiB assumed when
/// none is reported): the reference beside solver.transpose_gbps.
void measure_copy_bandwidth(Report& r) {
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  const std::size_t kMiB = std::size_t{1} << 20;
  const std::size_t llc_bytes =
      llc > 0 ? static_cast<std::size_t>(llc) : 64 * kMiB;
  const std::size_t bytes = 4 * llc_bytes;

  const std::size_t half = bytes / 2;
  std::unique_ptr<char[]> buf(new char[bytes]);
  std::memset(buf.get(), 1, bytes);  // fault every page before timing
  std::vector<double> gbps;
  for (int pass = 0; pass < 6; ++pass) {
    char* src = buf.get() + (pass % 2 ? half : 0);
    char* dst = buf.get() + (pass % 2 ? 0 : half);
    const auto t0 = perfbench::Clock::now();
    std::memcpy(dst, src, half);
    const double s =
        perfbench::ms_between(t0, perfbench::Clock::now()) / 1e3;
    // Computed bytes: one read and one write stream of `half` bytes.
    gbps.push_back(2.0 * static_cast<double>(half) / s / 1e9);
  }
  r.set("host.copy_gbps", perfbench::median(gbps));
  r.set("host.copy_buffer_mib", static_cast<double>(bytes) / kMiB);
  r.set("host.llc_mib", static_cast<double>(llc_bytes) / kMiB);
  std::printf("host.copy_gbps over a %zu MiB buffer (LLC %zu MiB), "
              "single thread\n",
              bytes / kMiB, llc_bytes / kMiB);
}

void print_layers(const Report& r) {
  std::printf("\nper-layer table (ms per call, medians of the traced run)\n");
  double sum = 0.0;
  for (const auto& row : r.layers) {
    std::printf("  %-28s %12.4f\n", row.layer.c_str(), row.ms);
    sum += row.ms;
  }
  std::printf("  %-28s %12.4f\n", "unaccounted_ms",
              r.latency_p50_ms - sum);
  std::printf("  %-28s %12.4f\n\n", "= latency_p50_ms (traced)",
              r.latency_p50_ms);
}

void print_json(const Report& r) {
  std::string out = "{\"correct\": ";
  out += r.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    // All digits: a rounded time would repeat across runs.
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    std::cerr << "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out-dir <dir>]\n";
    return 2;
  }
  tda::gpusim::ThreadPool::global().resize(perfbench::kLanes);
  print_env(opt);

  Report r;
  try {
    if (opt.workload == "solve_large" || opt.workload == "solve_many_small") {
      r = perfbench::run_inproc(opt);
    } else if (opt.workload == "wire_mixed") {
      r = perfbench::run_wire(opt);
    } else {
      std::cerr << "unknown workload: " << opt.workload << "\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  if (opt.trace) {
    measure_copy_bandwidth(r);
    const std::string path = opt.out_dir + "/trace_" + opt.workload + "_" +
                             std::to_string(opt.seed) + ".json";
    if (!write_chrome_trace(path, r.spans)) {
      std::cerr << "perfbench: cannot write " << path << "\n";
      return 1;
    }
    std::printf("spans: %zu written to %s\n", r.spans.size(), path.c_str());
  }
  if (!order_metrics(r, opt.trace)) return 1;
  if (opt.trace) print_layers(r);
  print_json(r);
  return r.failed == 0 ? 0 : 1;
}
