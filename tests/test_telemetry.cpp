// Tests for the telemetry subsystem: span tracer, metrics registry,
// JSON parser, Chrome-trace/metrics exporters, env gating, and the
// integration through Device / solver / tuner / probes — including the
// acceptance guarantees that a disabled tracer records no span and that
// the quickstart-style env-gated export is a valid, nested Chrome trace.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "gpusim/launch.hpp"
#include "gpusim/probes.hpp"
#include "solver/auto_solver.hpp"
#include "solver/gpu_solver.hpp"
#include "telemetry/export.hpp"
#include "telemetry/json.hpp"
#include "telemetry/telemetry.hpp"
#include "tridiag/generators.hpp"
#include "tuning/dynamic_tuner.hpp"

namespace {

using namespace tda;
using telemetry::JsonValue;

// ---------- Tracer ----------

TEST(Tracer, NestingAndOrdering) {
  telemetry::Tracer tracer;
  tracer.enable();
  double clock = 0.0;
  tracer.set_clock([&clock] { return clock; });

  const auto root = tracer.begin("root", "test");
  clock = 1.0;
  const auto child = tracer.begin("child");
  clock = 2.0;
  const auto grandchild = tracer.begin("grandchild");
  clock = 3.0;
  tracer.end(grandchild);
  tracer.end(child);
  clock = 5.0;
  tracer.end(root);

  const auto& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "root");
  EXPECT_EQ(spans[0].depth, 0);
  EXPECT_EQ(spans[0].parent, telemetry::kInvalidSpan);
  EXPECT_EQ(spans[1].name, "child");
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_EQ(spans[1].parent, root);
  EXPECT_EQ(spans[2].depth, 2);
  EXPECT_EQ(spans[2].parent, child);
  EXPECT_DOUBLE_EQ(spans[0].begin_s, 0.0);
  EXPECT_DOUBLE_EQ(spans[0].end_s, 5.0);
  EXPECT_DOUBLE_EQ(spans[2].begin_s, 2.0);
  EXPECT_DOUBLE_EQ(spans[2].end_s, 3.0);
  EXPECT_EQ(tracer.open_spans(), 0u);
  EXPECT_EQ(telemetry::ancestor_path(spans, grandchild), "root/child");
  EXPECT_EQ(telemetry::ancestor_path(spans, root), "");
}

TEST(Tracer, ScopedSpanRaiiAndAttrs) {
  telemetry::Tracer tracer;
  tracer.enable();
  {
    telemetry::ScopedSpan outer(tracer, "outer");
    outer.attr("kind", "demo");
    outer.attr("count", 3.0);
    telemetry::ScopedSpan inner(tracer, "inner", "cat");
    EXPECT_TRUE(inner.active());
  }
  const auto& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(tracer.open_spans(), 0u);
  ASSERT_EQ(spans[0].attrs.size(), 2u);
  EXPECT_EQ(spans[0].attrs[0].first, "kind");
  EXPECT_EQ(spans[0].attrs[0].second, "demo");
  EXPECT_EQ(spans[0].attrs[1].second, "3");  // integral: no decimal point
  EXPECT_EQ(spans[1].category, "cat");
}

TEST(Tracer, EndClosesAbandonedChildren) {
  telemetry::Tracer tracer;
  tracer.enable();
  double clock = 0.0;
  tracer.set_clock([&clock] { return clock; });
  const auto root = tracer.begin("root");
  tracer.begin("leaked");
  clock = 7.0;
  tracer.end(root);  // must unwind "leaked" too
  EXPECT_EQ(tracer.open_spans(), 0u);
  EXPECT_DOUBLE_EQ(tracer.spans()[1].end_s, 7.0);
}

TEST(Tracer, DisabledRecordsNothing) {
  telemetry::Tracer tracer;  // never enabled
  const auto id = tracer.begin("x");
  EXPECT_EQ(id, telemetry::kInvalidSpan);
  tracer.attr(id, "k", "v");
  tracer.end(id);
  EXPECT_EQ(tracer.emit("y", "c", 0.0, 1.0), telemetry::kInvalidSpan);
  EXPECT_TRUE(tracer.spans().empty());
  telemetry::ScopedSpan span(tracer, "scoped");
  EXPECT_FALSE(span.active());
  span.attr("k", 1.0);
  EXPECT_TRUE(tracer.spans().empty());
}

TEST(Tracer, EmitParentsAtOpenSpan) {
  telemetry::Tracer tracer;
  tracer.enable();
  const auto root = tracer.begin("root");
  const auto leaf = tracer.emit("launch", "kernel", 0.5, 0.75);
  tracer.end(root);
  ASSERT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.spans()[leaf].parent, root);
  EXPECT_EQ(tracer.spans()[leaf].depth, 1);
}

// ---------- Metrics ----------

TEST(Metrics, HistogramPercentiles) {
  telemetry::MetricsRegistry mx;
  for (int i = 1; i <= 100; ++i) mx.observe("h", static_cast<double>(i));
  const auto h = mx.histogram("h");
  EXPECT_EQ(h.count, 100u);
  EXPECT_DOUBLE_EQ(h.min, 1.0);
  EXPECT_DOUBLE_EQ(h.max, 100.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.95), 95.0);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
}

TEST(Metrics, SingleSampleAndMissingNames) {
  telemetry::MetricsRegistry mx;
  mx.observe("one", 42.0);
  const auto h = mx.histogram("one");
  EXPECT_EQ(h.count, 1u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.95), 42.0);
  EXPECT_EQ(mx.histogram("absent").count, 0u);
  EXPECT_DOUBLE_EQ(mx.counter("absent"), 0.0);
  EXPECT_DOUBLE_EQ(mx.gauge("absent"), 0.0);
}

TEST(Metrics, HistogramQuantileWithinMinMax) {
  telemetry::MetricsRegistry mx;
  for (int i = 0; i < 3; ++i) mx.observe("flat", 100.0);
  const auto flat = mx.histogram("flat");
  EXPECT_DOUBLE_EQ(flat.quantile(0.0), 100.0);
  EXPECT_DOUBLE_EQ(flat.quantile(1.0), 100.0);

  mx.observe("one", 42.0);
  EXPECT_DOUBLE_EQ(mx.histogram("one").quantile(0.5), 42.0);

  // Beyond the last finite bound, in the overflow bucket.
  mx.observe("big", 9000.0);
  const auto big = mx.histogram("big");
  EXPECT_DOUBLE_EQ(big.quantile(0.5), 9000.0);
  EXPECT_DOUBLE_EQ(big.quantile(1.0), 9000.0);
}

TEST(Metrics, HistogramStateIsFixedSize) {
  telemetry::MetricsRegistry mx;
  double sum = 0.0;
  for (int i = 0; i < 100'000; ++i) {
    const double v = 0.001 * (i % 7919) + 0.5;
    mx.observe("h", v);
    sum += v;
  }
  const auto h = mx.histogram("h");
  EXPECT_EQ(h.counts.size(), telemetry::kHistogramBounds.size());
  EXPECT_EQ(h.exemplars.size(), telemetry::kHistogramBounds.size());
  EXPECT_EQ(h.count, 100'000u);
  EXPECT_DOUBLE_EQ(h.sum, sum);
  EXPECT_DOUBLE_EQ(h.min, 0.5);
  EXPECT_DOUBLE_EQ(h.max, 0.001 * 7918 + 0.5);
  std::uint64_t in_buckets = 0;
  for (const auto c : h.counts) in_buckets += c;
  EXPECT_EQ(in_buckets, h.count);
}

TEST(Metrics, HistogramDropsNonFinite) {
  telemetry::MetricsRegistry mx;
  mx.observe("h", 1.0);
  mx.observe("h", std::nan(""));
  mx.observe("h", std::numeric_limits<double>::infinity());
  mx.observe("h", 3.0);
  const auto h = mx.histogram("h");
  EXPECT_EQ(h.count, 2u);
  EXPECT_DOUBLE_EQ(h.mean(), 2.0);
  EXPECT_TRUE(std::isfinite(h.quantile(0.5)));
  EXPECT_DOUBLE_EQ(h.max, 3.0);
}

TEST(Metrics, HistogramConcurrentObservesSumExactly) {
  telemetry::MetricsRegistry mx;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      for (const auto& [name, h] : mx.histograms()) {
        (void)h.quantile(0.99);
        (void)h.exemplar_at(0.99);
      }
      (void)telemetry::to_openmetrics(mx);
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&mx, t] {
      const char* key = t % 2 == 0 ? "even" : "odd";
      for (int i = 0; i < 10'000; ++i) {
        mx.observe(key, 1.0, static_cast<std::uint64_t>(i + 1));
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true);
  reader.join();
  for (const char* key : {"even", "odd"}) {
    const auto h = mx.histogram(key);
    EXPECT_EQ(h.count, 20'000u) << key;
    EXPECT_EQ(h.sum, 20'000.0) << key;
    EXPECT_EQ(h.min, 1.0) << key;
    EXPECT_EQ(h.max, 1.0) << key;
  }
}

TEST(Metrics, CountersAndGauges) {
  telemetry::MetricsRegistry mx;
  mx.add("c");
  mx.add("c", 2.5);
  mx.set("g", 1.0);
  mx.set("g", -3.0);
  EXPECT_DOUBLE_EQ(mx.counter("c"), 3.5);
  EXPECT_DOUBLE_EQ(mx.gauge("g"), -3.0);
}

// ---------- Counter handles ----------

TEST(Metrics, CounterHandleConcurrentAddsSumExactly) {
  telemetry::MetricsRegistry mx;
  const telemetry::Counter c = mx.counter_handle("hits");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < 25'000; ++i) c.add();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), 100'000.0);
  EXPECT_EQ(mx.counter("hits"), 100'000.0);
}

TEST(Metrics, CounterHandleSharesSlotWithAdd) {
  telemetry::MetricsRegistry mx;
  mx.add("shared", 2.0);
  const telemetry::Counter c = mx.counter_handle("shared");
  EXPECT_EQ(c.value(), 2.0);
  c.add(3.0);
  mx.add("shared");
  EXPECT_EQ(c.value(), 6.0);
  EXPECT_EQ(mx.counter("shared"), 6.0);
  EXPECT_EQ(mx.counters().at("shared"), 6.0);
  // A second handle on the same name is the same slot.
  mx.counter_handle("shared").add();
  EXPECT_EQ(c.value(), 7.0);
}

TEST(Metrics, CounterHandleListedByBothExporters) {
  telemetry::MetricsRegistry mx;
  mx.counter_handle("door.frames").add(4.0);
  mx.counter_handle("door.idle");  // registered, never added

  auto doc = telemetry::json_parse(telemetry::to_metrics_json(mx));
  ASSERT_TRUE(doc.has_value());
  const JsonValue* counters = doc->find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->find("door.frames"), nullptr);
  EXPECT_DOUBLE_EQ(counters->find("door.frames")->number, 4.0);
  ASSERT_NE(counters->find("door.idle"), nullptr);
  EXPECT_DOUBLE_EQ(counters->find("door.idle")->number, 0.0);

  const std::string om = telemetry::to_openmetrics(mx);
  EXPECT_NE(om.find("# TYPE tda_door_frames counter\n"), std::string::npos);
  EXPECT_NE(om.find("tda_door_frames_total 4\n"), std::string::npos);
  EXPECT_NE(om.find("tda_door_idle_total 0\n"), std::string::npos);
}

TEST(Metrics, CounterHandleSurvivesClear) {
  telemetry::MetricsRegistry mx;
  const telemetry::Counter c = mx.counter_handle("kept");
  c.add(5.0);
  mx.set("g", 1.0);
  mx.clear();
  EXPECT_EQ(c.value(), 0.0);
  EXPECT_TRUE(mx.empty());
  c.add(2.0);
  EXPECT_EQ(mx.counter("kept"), 2.0);
  mx.add("kept");
  EXPECT_EQ(c.value(), 3.0);
  EXPECT_FALSE(mx.empty());
}

// ---------- JSON parser ----------

TEST(Json, ParsesScalarsArraysObjects) {
  auto v = telemetry::json_parse(
      R"({"a":1.5,"b":[true,false,null,"s"],"c":{"n":-2e3}})");
  ASSERT_TRUE(v.has_value());
  ASSERT_TRUE(v->is_object());
  EXPECT_DOUBLE_EQ(v->find("a")->number, 1.5);
  ASSERT_TRUE(v->find("b")->is_array());
  EXPECT_EQ(v->find("b")->array.size(), 4u);
  EXPECT_TRUE(v->find("b")->array[0].boolean);
  EXPECT_EQ(v->find("b")->array[3].string, "s");
  EXPECT_DOUBLE_EQ(v->find("c")->find("n")->number, -2000.0);
}

TEST(Json, ParsesEscapes) {
  auto v = telemetry::json_parse(R"("a\"b\\c\nA")");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->string, "a\"b\\c\nA");
}

TEST(Json, RejectsGarbage) {
  EXPECT_FALSE(telemetry::json_parse("{").has_value());
  EXPECT_FALSE(telemetry::json_parse("{}x").has_value());
  EXPECT_FALSE(telemetry::json_parse("[1,]").has_value());
  EXPECT_FALSE(telemetry::json_parse("\"unterminated").has_value());
}

TEST(Json, EscapeRoundTrip) {
  const std::string nasty = "q\"b\\s\nt\tu\x01";
  auto v = telemetry::json_parse('"' + telemetry::json_escape(nasty) + '"');
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->string, nasty);
}

TEST(Json, NonFiniteNumbersSerializeAsNullAndAreCounted) {
  const auto before = telemetry::nonfinite_dropped();
  EXPECT_EQ(telemetry::json_number(std::nan("")), "null");
  EXPECT_EQ(telemetry::json_number(
                std::numeric_limits<double>::infinity()),
            "null");
  EXPECT_EQ(telemetry::json_number(
                -std::numeric_limits<double>::infinity()),
            "null");
  EXPECT_EQ(telemetry::nonfinite_dropped(), before + 3);
  // Finite values are unaffected and not counted.
  EXPECT_EQ(telemetry::json_number(3.0), "3");
  EXPECT_EQ(telemetry::nonfinite_dropped(), before + 3);
}

TEST(Export, NonFiniteMetricEmitsNullAndHealthCounter) {
  telemetry::MetricsRegistry metrics;
  metrics.set("good.gauge", 1.5);
  metrics.set("bad.gauge", std::nan(""));
  const std::string out = telemetry::to_metrics_json(metrics);
  auto v = telemetry::json_parse(out);  // "null" must still be valid JSON
  ASSERT_TRUE(v.has_value()) << out;
  const auto* gauges = v->find("gauges");
  ASSERT_NE(gauges, nullptr);
  const auto* bad = gauges->find("bad.gauge");
  ASSERT_NE(bad, nullptr);
  EXPECT_EQ(bad->kind, telemetry::JsonValue::Kind::Null) << out;
  const auto* counters = v->find("counters");
  ASSERT_NE(counters, nullptr);
  const auto* dropped = counters->find("telemetry.nonfinite_dropped");
  ASSERT_NE(dropped, nullptr) << out;
  EXPECT_GE(dropped->number, 1.0);
}

TEST(Export, NonFiniteSpanAttrSerializesAsNull) {
  telemetry::Tracer tracer;
  tracer.enable();
  const auto before = telemetry::nonfinite_dropped();
  const auto id = tracer.begin("span", "test");
  tracer.attr(id, "bad_attr", std::nan(""));
  tracer.end(id);
  EXPECT_EQ(telemetry::nonfinite_dropped(), before + 1);
  const std::string trace = telemetry::to_chrome_trace(tracer);
  EXPECT_NE(trace.find("\"bad_attr\":\"null\""), std::string::npos) << trace;
  ASSERT_TRUE(telemetry::json_parse(trace).has_value());
}

// ---------- Exporters ----------

TEST(Export, ChromeTraceIsValidAndNested) {
  telemetry::Tracer tracer;
  tracer.enable();
  double clock = 0.0;
  tracer.set_clock([&clock] { return clock; });
  const auto root = tracer.begin("solve", "solver");
  const auto stage = tracer.begin("stage1");
  tracer.attr(stage, "steps", 2.0);
  clock = 0.002;
  tracer.end(stage);
  clock = 0.003;
  tracer.end(root);

  const std::string json = telemetry::to_chrome_trace(tracer);
  auto doc = telemetry::json_parse(json);
  ASSERT_TRUE(doc.has_value()) << json;
  const JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->array.size(), 2u);
  for (const auto& ev : events->array) {
    EXPECT_EQ(ev.find("ph")->string, "X");
    EXPECT_TRUE(ev.find("ts")->is_number());
    EXPECT_TRUE(ev.find("dur")->is_number());
    EXPECT_NE(ev.find("pid"), nullptr);
    EXPECT_NE(ev.find("tid"), nullptr);
  }
  // Enclosing span first on equal ts; child interval inside parent's.
  const auto& parent = events->array[0];
  const auto& child = events->array[1];
  EXPECT_EQ(parent.find("name")->string, "solve");
  EXPECT_EQ(child.find("name")->string, "stage1");
  EXPECT_GE(child.find("ts")->number, parent.find("ts")->number);
  EXPECT_LE(child.find("ts")->number + child.find("dur")->number,
            parent.find("ts")->number + parent.find("dur")->number);
  EXPECT_EQ(child.find("args")->find("steps")->string, "2");
}

TEST(Export, MetricsJsonParses) {
  telemetry::MetricsRegistry mx;
  mx.add("solver.solves", 2.0);
  mx.set("probe.peak_bandwidth_gb_s", 120.5);
  mx.observe("solve.total_ms", 1.0);
  mx.observe("solve.total_ms", 3.0);
  auto doc = telemetry::json_parse(telemetry::to_metrics_json(mx));
  ASSERT_TRUE(doc.has_value());
  EXPECT_DOUBLE_EQ(doc->find("counters")->find("solver.solves")->number,
                   2.0);
  EXPECT_DOUBLE_EQ(
      doc->find("gauges")->find("probe.peak_bandwidth_gb_s")->number,
      120.5);
  const JsonValue* h = doc->find("histograms")->find("solve.total_ms");
  ASSERT_NE(h, nullptr);
  EXPECT_DOUBLE_EQ(h->find("count")->number, 2.0);
  EXPECT_DOUBLE_EQ(h->find("max")->number, 3.0);
  EXPECT_DOUBLE_EQ(h->find("mean")->number, 2.0);
}

TEST(Export, OpenMetricsHasNoSummary) {
  telemetry::MetricsRegistry mx;
  mx.observe("solve.total_ms", 1.0);
  mx.observe("solve.total_ms", 3.0);
  const std::string om = telemetry::to_openmetrics(mx);
  EXPECT_NE(om.find("# TYPE tda_solve_total_ms histogram\n"),
            std::string::npos)
      << om;
  EXPECT_EQ(om.find("summary"), std::string::npos) << om;
  EXPECT_NE(om.find("tda_solve_total_ms_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos)
      << om;
  EXPECT_NE(om.find("tda_solve_total_ms_count 2\n"), std::string::npos);
  EXPECT_NE(om.find("tda_solve_total_ms_sum 4\n"), std::string::npos);
}

// ---------- Device / solver integration ----------

TEST(Integration, SolverEmitsStageAndLaunchSpans) {
  gpusim::Device dev(gpusim::geforce_gtx_470());
  telemetry::Telemetry tel;
  tel.tracer.enable();
  dev.set_telemetry(&tel);

  auto batch = tridiag::make_diag_dominant<float>(4, 4096, 11);
  solver::GpuTridiagonalSolver<float> s(dev, solver::SwitchPoints{});
  auto stats = s.solve(batch);

  const auto& spans = tel.tracer.spans();
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(tel.tracer.open_spans(), 0u);

  std::size_t solve_idx = telemetry::kInvalidSpan;
  bool saw_stage = false, saw_kernel = false;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == "solve") solve_idx = i;
    if (spans[i].name == "stage3_4") {
      saw_stage = true;
      EXPECT_EQ(spans[i].parent, solve_idx);
    }
    if (spans[i].category == "kernel") {
      saw_kernel = true;
      // every launch span is nested under some stage span
      ASSERT_NE(spans[i].parent, telemetry::kInvalidSpan);
      EXPECT_EQ(spans[spans[i].parent].category, "solver");
      EXPECT_GE(spans[i].begin_s, 0.0);
      EXPECT_GE(spans[i].end_s, spans[i].begin_s);
    }
  }
  EXPECT_NE(solve_idx, telemetry::kInvalidSpan);
  EXPECT_TRUE(saw_stage);
  EXPECT_TRUE(saw_kernel);

  EXPECT_DOUBLE_EQ(tel.metrics.counter("device.kernel_launches"),
                   static_cast<double>(stats.kernel_launches));
  EXPECT_DOUBLE_EQ(tel.metrics.counter("solver.solves"), 1.0);
  EXPECT_GT(tel.metrics.counter("device.bytes_moved"), 0.0);
  EXPECT_EQ(tel.metrics.histogram("solve.total_ms").count, 1u);
  EXPECT_GT(tel.metrics.histogram("solve.stage3.bandwidth_gb_s").count,
            0u);
}

TEST(Integration, DisabledTelemetryAllocatesZeroRecords) {
  gpusim::Device dev(gpusim::geforce_gtx_470());
  telemetry::Telemetry tel;  // attached, tracer disabled
  dev.set_telemetry(&tel);

  auto batch = tridiag::make_diag_dominant<float>(4, 4096, 12);
  solver::GpuTridiagonalSolver<float> s(dev, solver::SwitchPoints{});
  s.solve(batch);
  tuning::DynamicTuner<float> tuner(dev);
  tuner.tune({4, 1024});
  gpusim::run_probes(dev);

  EXPECT_TRUE(tel.tracer.spans().empty());
  EXPECT_EQ(tel.tracer.open_spans(), 0u);
  EXPECT_GT(tel.metrics.counter("device.kernel_launches"), 0.0);
}

// Every kernel span of a solve hangs under the solve span, and the
// --trace kernel table prints that ancestry as its phase column.
TEST(Integration, KernelSpansGainPhasePaths) {
  gpusim::Device dev(gpusim::geforce_gtx_280());
  telemetry::Telemetry tel;
  tel.tracer.enable();
  dev.set_telemetry(&tel);

  auto batch = tridiag::make_diag_dominant<float>(4, 4096, 13);
  solver::GpuTridiagonalSolver<float> s(dev, solver::SwitchPoints{});
  s.solve(batch);

  const auto& spans = tel.tracer.spans();
  std::size_t kernels = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].category != "kernel") continue;
    ++kernels;
    const std::string phase = telemetry::ancestor_path(spans, i);
    EXPECT_EQ(phase.rfind("solve", 0), 0u) << phase;
    EXPECT_FALSE(spans[i].attr("hiding").empty()) << spans[i].name;
  }
  ASSERT_GT(kernels, 0u);
  const TextTable table = telemetry::kernel_table(spans);
  EXPECT_EQ(table.rows(), kernels);
}

TEST(Integration, TunerEmitsSearchTrajectory) {
  gpusim::Device dev(gpusim::geforce_gtx_470());
  telemetry::Telemetry tel;
  tel.tracer.enable();
  dev.set_telemetry(&tel);

  tuning::DynamicTuner<float> tuner(dev);
  auto result = tuner.tune({8, 2048});

  std::size_t evals = 0;
  bool saw_tune = false;
  for (const auto& sp : tel.tracer.spans()) {
    if (sp.name == "tune") saw_tune = true;
    if (sp.name == "tune.eval") ++evals;
  }
  EXPECT_TRUE(saw_tune);
  EXPECT_EQ(evals, result.evaluations);
  EXPECT_DOUBLE_EQ(tel.metrics.counter("tuner.evaluations"),
                   static_cast<double>(result.evaluations));
  EXPECT_EQ(tel.metrics.histogram("tuner.eval_ms").count,
            result.evaluations);
}

TEST(Integration, ProbesEmitSpansAndGauges) {
  gpusim::Device dev(gpusim::geforce_gtx_280());
  telemetry::Telemetry tel;
  tel.tracer.enable();
  dev.set_telemetry(&tel);

  auto rep = gpusim::run_probes(dev);
  bool saw_peak = false, saw_stride = false;
  for (const auto& sp : tel.tracer.spans()) {
    if (sp.name == "probe.peak_bandwidth") saw_peak = true;
    if (sp.name == "probe.stride_inflation") saw_stride = true;
  }
  EXPECT_TRUE(saw_peak);
  EXPECT_TRUE(saw_stride);
  EXPECT_DOUBLE_EQ(tel.metrics.gauge("probe.peak_bandwidth_gb_s"),
                   rep.peak_bandwidth_gb_s);
}

TEST(Integration, AutoSolverCacheHitMissCounters) {
  gpusim::Device dev(gpusim::geforce_gtx_470());
  solver::AutoSolver<float> auto_solver(dev);
  auto_solver.telemetry().tracer.enable();

  auto batch = tridiag::make_diag_dominant<float>(8, 1024, 21);
  auto_solver.solve(batch);  // miss: first time this shape is seen
  auto batch2 = tridiag::make_diag_dominant<float>(8, 1024, 22);
  auto_solver.solve(batch2);  // hit

  EXPECT_DOUBLE_EQ(auto_solver.telemetry().metrics.counter(
                       "tuner.cache_misses"), 1.0);
  EXPECT_DOUBLE_EQ(auto_solver.telemetry().metrics.counter(
                       "tuner.cache_hits"), 1.0);
  EXPECT_DOUBLE_EQ(auto_solver.telemetry().metrics.counter(
                       "solver.solves"), 2.0);
  // Both solves ran through the guarded pipeline, one chunk each.
  EXPECT_DOUBLE_EQ(auto_solver.telemetry().metrics.counter(
                       "solver.chunked_solves"), 2.0);
  EXPECT_DOUBLE_EQ(auto_solver.telemetry().metrics.counter(
                       "solver.chunks"), 2.0);
  EXPECT_DOUBLE_EQ(auto_solver.telemetry().metrics.counter(
                       "solver.split_solves"), 0.0);
}

TEST(Integration, AutoSolverDetachesOnDestruction) {
  gpusim::Device dev(gpusim::geforce_gtx_470());
  {
    solver::AutoSolver<float> auto_solver(dev);
    EXPECT_EQ(dev.telemetry(), &auto_solver.telemetry());
  }
  EXPECT_EQ(dev.telemetry(), nullptr);
  // A caller-attached session survives AutoSolver construction.
  telemetry::Telemetry mine;
  dev.set_telemetry(&mine);
  {
    solver::AutoSolver<float> auto_solver(dev);
    EXPECT_EQ(dev.telemetry(), &mine);
  }
  EXPECT_EQ(dev.telemetry(), &mine);
}

// ---------- Env-gated export (the quickstart acceptance path) ----------

TEST(EnvExport, WritesNestedChromeTraceFromSolve) {
  const std::string path = "/tmp/tda_env_trace_test.json";
  std::remove(path.c_str());
  ASSERT_EQ(setenv("TDA_TRACE", path.c_str(), 1), 0);
  {
    gpusim::Device dev(gpusim::geforce_gtx_470());
    telemetry::Telemetry tel;
    telemetry::EnvExport exporter(tel);
    ASSERT_TRUE(exporter.active());
    EXPECT_TRUE(tel.tracer.enabled());
    dev.set_telemetry(&tel);

    tuning::DynamicTuner<float> tuner(dev);
    auto tuned = tuner.tune({8, 2048});
    auto batch = tridiag::make_diag_dominant<float>(8, 2048, 31);
    solver::GpuTridiagonalSolver<float> s(dev, tuned.points);
    s.solve(batch);
  }  // EnvExport flushes here
  unsetenv("TDA_TRACE");

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "trace file was not written";
  std::stringstream buf;
  buf << in.rdbuf();
  auto doc = telemetry::json_parse(buf.str());
  ASSERT_TRUE(doc.has_value()) << "trace file is not valid JSON";
  const JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  bool saw_solve = false, saw_stage = false, saw_launch = false;
  for (const auto& ev : events->array) {
    const std::string& name = ev.find("name")->string;
    const std::string& cat = ev.find("cat")->string;
    if (name == "solve") saw_solve = true;
    if (name.rfind("stage", 0) == 0) saw_stage = true;
    if (cat == "kernel") saw_launch = true;
  }
  EXPECT_TRUE(saw_solve);
  EXPECT_TRUE(saw_stage);
  EXPECT_TRUE(saw_launch);
  std::remove(path.c_str());
}

TEST(EnvExport, InactiveWithoutEnvVars) {
  unsetenv("TDA_TRACE");
  unsetenv("TDA_METRICS");
  telemetry::Telemetry tel;
  telemetry::EnvExport exporter(tel);
  EXPECT_FALSE(exporter.active());
  EXPECT_FALSE(tel.tracer.enabled());
}

// ---------- log_emit formatting ----------

TEST(Log, PrefixHasTimestampAndLevel) {
  std::ostringstream captured;
  auto* old = std::cerr.rdbuf(captured.rdbuf());
  const auto old_level = log_level();
  set_log_level(LogLevel::Info);
  TDA_INFO("hello telemetry");
  set_log_level(old_level);
  std::cerr.rdbuf(old);

  const std::string line = captured.str();
  EXPECT_EQ(line.rfind("[tda:INFO +", 0), 0u) << line;
  EXPECT_NE(line.find("s] hello telemetry\n"), std::string::npos) << line;
}

}  // namespace
