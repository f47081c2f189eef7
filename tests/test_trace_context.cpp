// Trace-context propagation invariants. The acceptance bar for the
// request-scoped tracing work: after any service run, 100% of the spans
// a request's solve path emits are reachable (by walking parent ids)
// from that request's "request" root span — including when the path
// detours through retries, device failover, chunk bisection of poisoned
// batches, or the CPU fallback. Plus the TSan-facing races: tracer and
// metrics snapshots taken while workers are still recording.
//
// Suite names matter: the CI TSan job selects "SolveService*" and
// "TraceTree*" suites by regex.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "faults/faults.hpp"
#include "gpusim/device.hpp"
#include "service/solve_service.hpp"
#include "solver/auto_solver.hpp"
#include "telemetry/export.hpp"
#include "tridiag/generators.hpp"

namespace {

using namespace tda;
using namespace tda::service;
using telemetry::kInvalidSpan;
using telemetry::SpanRecord;

SolveRequest<double> make_request(std::size_t n, std::uint64_t seed) {
  SolveRequest<double> req;
  req.a.resize(n);
  req.b.resize(n);
  req.c.resize(n);
  req.d.resize(n);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    req.a[i] = (i == 0) ? 0.0 : rng.uniform(-1, 1);
    req.c[i] = (i == n - 1) ? 0.0 : rng.uniform(-1, 1);
    req.b[i] = (std::abs(req.a[i]) + std::abs(req.c[i])) * 2.0 + 0.5;
    req.d[i] = rng.uniform(-1, 1);
  }
  return req;
}

bool has_attr(const SpanRecord& s, const std::string& key) {
  for (const auto& [k, v] : s.attrs)
    if (k == key) return true;
  return false;
}

/// Walks `span`'s parent chain; returns the index of the "request" root
/// it lands on, or kInvalidSpan when the chain dangles, leaves the
/// span's trace, or cycles.
std::size_t root_of(const std::vector<SpanRecord>& spans, std::size_t i) {
  std::size_t hops = 0;
  while (hops++ <= spans.size()) {
    const SpanRecord& s = spans[i];
    if (s.name == "request") return i;
    if (s.parent == kInvalidSpan || s.parent >= spans.size())
      return kInvalidSpan;
    if (spans[s.parent].trace_id != s.trace_id) return kInvalidSpan;
    i = s.parent;
  }
  return kInvalidSpan;  // cycle
}

/// The tentpole invariant: every span that carries a trace id is
/// reachable from exactly one "request" root of the same trace id.
void expect_single_rooted(const std::vector<SpanRecord>& spans) {
  std::map<std::uint64_t, std::size_t> roots;  // trace id -> root count
  for (const auto& s : spans)
    if (s.name == "request") {
      EXPECT_NE(s.trace_id, 0u) << "request root without a trace id";
      ++roots[s.trace_id];
    }
  for (const auto& [trace, count] : roots)
    EXPECT_EQ(count, 1u) << "trace " << trace << " has " << count
                         << " roots";
  std::size_t traced = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].trace_id == 0) continue;
    ++traced;
    const std::size_t root = root_of(spans, i);
    ASSERT_NE(root, kInvalidSpan)
        << "span '" << spans[i].name << "' (#" << i
        << ") is not reachable from a request root";
    EXPECT_EQ(spans[root].trace_id, spans[i].trace_id);
  }
  EXPECT_GT(traced, 0u) << "no spans carried a trace id at all";
}

std::vector<gpusim::DeviceSpec> one_device() {
  return {gpusim::geforce_gtx_470()};
}

// ---------- plain traffic ----------

TEST(TraceTree, ServiceSpansFormOneTreePerRequest) {
  ServiceConfig cfg;
  cfg.flush_systems = 4;
  SolveService<double> svc(
      {gpusim::geforce_gtx_470(), gpusim::geforce_gtx_280()}, cfg);
  svc.telemetry().tracer.enable();

  std::vector<std::future<SolveResponse<double>>> futs;
  const std::size_t shapes[] = {33, 64, 128};
  for (int i = 0; i < 30; ++i)
    futs.push_back(svc.submit(make_request(shapes[i % 3], 100 + i)));
  std::set<std::uint64_t> resp_traces;
  for (auto& f : futs) {
    auto resp = f.get();
    ASSERT_EQ(resp.status, SolveStatus::Ok);
    EXPECT_NE(resp.trace_id, 0u);
    resp_traces.insert(resp.trace_id);
  }
  svc.shutdown();

  // Every request minted its own trace id and told the caller.
  EXPECT_EQ(resp_traces.size(), 30u);

  const auto spans = svc.telemetry().tracer.snapshot();
  expect_single_rooted(spans);

  // The response trace ids are exactly the rooted traces, and every
  // root reached a terminal state (outcome attr + closed).
  std::set<std::uint64_t> rooted;
  for (const auto& s : spans)
    if (s.name == "request") {
      rooted.insert(s.trace_id);
      EXPECT_TRUE(has_attr(s, "outcome"))
          << "request root left open (no outcome)";
      EXPECT_GE(s.end_s, s.begin_s);
    }
  EXPECT_EQ(rooted, resp_traces);

  // Solve-path span kinds all made it under the trees.
  std::set<std::string> names;
  for (const auto& s : spans)
    if (s.trace_id != 0) names.insert(s.name);
  for (const char* expected : {"request", "batch", "enqueue", "solve"})
    EXPECT_TRUE(names.count(expected)) << "missing " << expected;
}

TEST(TraceTree, CallerSuppliedContextIsAdopted) {
  ServiceConfig cfg;
  cfg.flush_systems = 1;
  SolveService<double> svc(one_device(), cfg);
  svc.telemetry().tracer.enable();

  auto req = make_request(64, 7);
  req.trace.trace_id = 0xfeedbeef;
  auto resp = svc.submit(std::move(req)).get();
  ASSERT_EQ(resp.status, SolveStatus::Ok);
  EXPECT_EQ(resp.trace_id, 0xfeedbeefu);
  svc.shutdown();

  const auto spans = svc.telemetry().tracer.snapshot();
  bool found = false;
  for (const auto& s : spans)
    if (s.name == "request" && s.trace_id == 0xfeedbeefu) found = true;
  EXPECT_TRUE(found) << "service re-minted instead of adopting";
  expect_single_rooted(spans);
}

TEST(TraceTree, LatencyExemplarsPointAtRecordedTraces) {
  ServiceConfig cfg;
  cfg.flush_systems = 4;
  SolveService<double> svc(one_device(), cfg);
  svc.telemetry().tracer.enable();

  std::vector<std::future<SolveResponse<double>>> futs;
  for (int i = 0; i < 16; ++i)
    futs.push_back(svc.submit(make_request(64, 300 + i)));
  for (auto& f : futs) ASSERT_EQ(f.get().status, SolveStatus::Ok);
  svc.shutdown();

  std::set<std::uint64_t> rooted;
  for (const auto& s : svc.telemetry().tracer.snapshot())
    if (s.name == "request") rooted.insert(s.trace_id);

  // Each latency bucket's exemplar names a request we actually traced.
  std::size_t exemplars = 0;
  for (const auto& [name, snap] : svc.telemetry().metrics.histograms()) {
    if (name.rfind("service.request_latency_ms{", 0) != 0) continue;
    for (const auto& ex : snap.exemplars)
      if (ex.trace_id != 0) {
        ++exemplars;
        EXPECT_TRUE(rooted.count(ex.trace_id))
            << name << " exemplar " << ex.trace_id << " is unknown";
      }
  }
  EXPECT_GT(exemplars, 0u);
}

// ---------- faulted paths ----------

TEST(TraceTree, RetriesAndFailoverStayUnderRoot) {
  faults::FaultConfig fc;
  fc.seed = 5;
  fc.rate_of(faults::Site::DeviceLaunch) = 0.3;
  faults::ScopedFaultConfig scoped(fc);

  ServiceConfig cfg;
  cfg.flush_systems = 8;
  SolveService<double> svc(one_device(), cfg);
  svc.telemetry().tracer.enable();

  std::vector<std::future<SolveResponse<double>>> futs;
  for (int i = 0; i < 32; ++i)
    futs.push_back(svc.submit(make_request(96, 500 + i)));
  for (auto& f : futs) ASSERT_EQ(f.get().status, SolveStatus::Ok);
  const auto c = svc.counters();
  svc.shutdown();

  EXPECT_GT(c.retries + c.failovers + c.cpu_failovers, 0u)
      << "fault rate produced no retries; test exercised nothing";
  expect_single_rooted(svc.telemetry().tracer.snapshot());
}

TEST(TraceTree, CpuFallbackStaysUnderRoot) {
  faults::FaultConfig fc;
  fc.seed = 2;
  fc.rate_of(faults::Site::DeviceLaunch) = 1.0;
  faults::ScopedFaultConfig scoped(fc);

  ServiceConfig cfg;
  cfg.flush_systems = 4;
  SolveService<double> svc(one_device(), cfg);
  svc.telemetry().tracer.enable();

  std::vector<std::future<SolveResponse<double>>> futs;
  for (int i = 0; i < 8; ++i)
    futs.push_back(svc.submit(make_request(64, 700 + i)));
  for (auto& f : futs) {
    auto resp = f.get();
    ASSERT_EQ(resp.status, SolveStatus::Ok);
    EXPECT_TRUE(resp.fallback_used);
  }
  svc.shutdown();

  const auto spans = svc.telemetry().tracer.snapshot();
  expect_single_rooted(spans);
  // Roots record that they ended on the fallback path.
  std::size_t fallback_roots = 0;
  for (const auto& s : spans)
    if (s.name == "request")
      for (const auto& [k, v] : s.attrs)
        if (k == "outcome" && v == "fallback") ++fallback_roots;
  EXPECT_EQ(fallback_roots, 8u);
}

TEST(TraceTree, PoisonBisectionClosesEveryRootWithTypedOutcome) {
  faults::FaultConfig fc;
  fc.seed = 11;
  fc.rate_of(faults::Site::PoisonNaN) = 0.25;
  faults::ScopedFaultConfig scoped(fc);

  ServiceConfig cfg;
  cfg.flush_systems = 8;  // multi-member batches, so isolation must bisect
  SolveService<double> svc(one_device(), cfg);
  svc.telemetry().tracer.enable();

  std::vector<std::future<SolveResponse<double>>> futs;
  for (int i = 0; i < 32; ++i)
    futs.push_back(svc.submit(make_request(64, 900 + i)));
  std::size_t poisoned = 0;
  for (auto& f : futs) {
    const auto resp = f.get();
    if (resp.status == SolveStatus::NonFinite) ++poisoned;
    EXPECT_NE(resp.trace_id, 0u);
  }
  svc.shutdown();

  EXPECT_GT(poisoned, 0u) << "poison rate fired on nothing";
  const auto spans = svc.telemetry().tracer.snapshot();
  expect_single_rooted(spans);
  for (const auto& s : spans) {
    if (s.name == "request") {
      EXPECT_TRUE(has_attr(s, "outcome"))
          << "root left open after quarantine";
    }
  }
}

// ---------- in-process entry (AutoSolver) ----------

TEST(TraceTree, AutoSolverMintsOneRootPerTopLevelSolve) {
  gpusim::Device dev(gpusim::geforce_gtx_470());
  telemetry::Telemetry tel;
  tel.tracer.enable();
  dev.set_telemetry(&tel);
  solver::AutoSolver<double> autos(dev);

  auto batch = tridiag::make_diag_dominant<double>(4, 64, 21);
  autos.solve(batch);

  solver::RaggedBatch<double> ragged(
      std::vector<std::size_t>{33, 64, 33});
  Rng rng(77);
  for (std::size_t s = 0; s < ragged.num_systems(); ++s) {
    const std::size_t off = ragged.offset(s);
    const std::size_t n = ragged.system_size(s);
    for (std::size_t i = 0; i < n; ++i) {
      ragged.a()[off + i] = (i == 0) ? 0.0 : rng.uniform(-1, 1);
      ragged.c()[off + i] = (i == n - 1) ? 0.0 : rng.uniform(-1, 1);
      ragged.b()[off + i] = std::abs(ragged.a()[off + i]) +
                            std::abs(ragged.c()[off + i]) + 1.5;
      ragged.d()[off + i] = rng.uniform(-1, 1);
    }
  }
  autos.solve(ragged);
  dev.set_telemetry(nullptr);

  const auto spans = tel.tracer.snapshot();
  expect_single_rooted(spans);
  std::vector<std::string> kinds;
  for (const auto& s : spans)
    if (s.name == "request")
      for (const auto& [k, v] : s.attrs)
        if (k == "kind") kinds.push_back(v);
  // One root per solve() call — the ragged solve's per-group sub-solves
  // join the ambient context instead of minting their own roots.
  ASSERT_EQ(kinds.size(), 2u);
  EXPECT_EQ(kinds[0], "uniform");
  EXPECT_EQ(kinds[1], "ragged");
  // Every solve — the uniform one and both ragged groups — runs through
  // the guarded pipeline: one chunked_solve span each, with the screen
  // and the residual check inside it.
  std::size_t chunked = 0, screens = 0, postchecks = 0;
  for (const auto& s : spans) {
    chunked += s.name == "chunked_solve" ? 1 : 0;
    screens += s.name == "screen" ? 1 : 0;
    postchecks += s.name == "postcheck" ? 1 : 0;
  }
  EXPECT_EQ(chunked, 3u);
  EXPECT_EQ(screens, 3u);
  EXPECT_EQ(postchecks, 3u);
}

// ---------- snapshot races (the TSan targets) ----------

TEST(SolveServiceTraceRaces, SnapshotsRaceLiveTraffic) {
  ServiceConfig cfg;
  cfg.flush_systems = 4;
  SolveService<double> svc(one_device(), cfg);
  svc.telemetry().tracer.enable();

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      // Every read-side surface a dashboard touches, while workers
      // record: span table, histograms, gauges, OpenMetrics render.
      (void)svc.telemetry().tracer.snapshot();
      (void)svc.telemetry().metrics.histograms();
      (void)svc.telemetry().metrics.gauges();
      (void)telemetry::to_openmetrics(svc.telemetry().metrics);
      (void)svc.worker_health();
    }
  });

  std::vector<std::thread> clients;
  std::atomic<int> ok{0};
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&, t] {
      std::vector<std::future<SolveResponse<double>>> futs;
      for (int i = 0; i < 24; ++i)
        futs.push_back(svc.submit(make_request(64, 1000 + t * 100 + i)));
      for (auto& f : futs)
        if (f.get().status == SolveStatus::Ok) ok.fetch_add(1);
    });
  }
  for (auto& th : clients) th.join();
  stop.store(true);
  reader.join();
  svc.shutdown();

  EXPECT_EQ(ok.load(), 72);
  expect_single_rooted(svc.telemetry().tracer.snapshot());
}

TEST(SolveServiceTraceRaces, HistogramWritersRaceQuantileReaders) {
  telemetry::MetricsRegistry mx;
  std::atomic<bool> stop{false};

  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&, t] {
      const std::string name = telemetry::labeled(
          "service.request_latency_ms",
          {{"shape", t % 2 == 0 ? "le64" : "le128"},
           {"dtype", "f64"},
           {"outcome", "ok"}});
      for (int i = 0; i < 4000; ++i) {
        mx.observe(name, 0.1 * (t + 1) * (i % 50 + 1),
                   static_cast<std::uint64_t>(t * 10000 + i + 1));
        mx.set("engine.utilization", 0.5);
        mx.add("service.submitted_total");
      }
    });
  }
  std::thread reader([&] {
    while (!stop.load()) {
      for (const auto& [name, snap] : mx.histograms()) {
        (void)snap.quantile(0.5);
        (void)snap.quantile(0.99);
        (void)snap.exemplar_at(0.99);
      }
      (void)mx.gauge("engine.utilization");
      (void)telemetry::to_openmetrics(mx);
    }
  });
  for (auto& th : writers) th.join();
  stop.store(true);
  reader.join();

  double total = 0;
  for (const auto& [name, snap] : mx.histograms()) total += snap.count;
  EXPECT_EQ(total, 4.0 * 4000);  // 4 writers x 4000, across two series
  EXPECT_EQ(mx.counter("service.submitted_total"), 16000.0);
}

}  // namespace
