// tridiag_top: a one-shot, `top`-style console rendering of the solve
// service's observability surface. It drives a short burst of traffic
// through a multi-device SolveService with tracing enabled, then prints
// what an operator would want on one screen:
//
//   * process identity (uptime, hot-restart generation, age of the
//     last crash-safe ops snapshot, warm/cold start),
//   * service counters and current queue depth,
//   * per-worker health (breaker state, restarts, backlog, busy flag),
//   * the always-on request-latency histograms, one row per
//     (shape bucket, dtype, outcome) with p50/p95/p99 and the trace id
//     of a p99 straggler (the exemplar),
//   * per-lane engine utilization and buffer-pool hit rate,
//   * per-tenant rows: part of the burst arrives through a wire-protocol
//     front door as two authenticated tenants, so the tenant-labeled
//     latency keys, admission accounting, and net.* counters all fill.
//
//   ./tridiag_top [--clients=4] [--requests=48] [--devices=2]
//                 [--openmetrics=FILE] [--trace=FILE]
//
// The same numbers leave the process in OpenMetrics text format via
// --openmetrics (or TDA_METRICS_INTERVAL snapshots); this example is the
// human-readable view of that export.

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "gpusim/device.hpp"
#include "gpusim/thread_pool.hpp"
#include "net/client.hpp"
#include "net/front_door.hpp"
#include "ops/server.hpp"
#include "service/solve_service.hpp"
#include "telemetry/telemetry.hpp"

using namespace tda;
using namespace tda::service;

namespace {

SolveRequest<double> random_request(std::size_t n, Rng& rng) {
  SolveRequest<double> req;
  req.a.resize(n);
  req.b.resize(n);
  req.c.resize(n);
  req.d.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    req.a[i] = (i == 0) ? 0.0 : rng.uniform(-1, 1);
    req.c[i] = (i == n - 1) ? 0.0 : rng.uniform(-1, 1);
    req.b[i] = (std::abs(req.a[i]) + std::abs(req.c[i])) * 2.0 + 0.5;
    req.d[i] = rng.uniform(-1, 1);
  }
  return req;
}

/// Splits `name{k="v",...}` into the value of one label; "" if absent.
std::string label_of(const std::string& key, const std::string& name) {
  const std::string needle = key + "=\"";
  const auto at = name.find(needle);
  if (at == std::string::npos) return "";
  const auto from = at + needle.size();
  const auto to = name.find('"', from);
  return to == std::string::npos ? "" : name.substr(from, to - from);
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const int clients = static_cast<int>(cli.get_int("clients", 4));
  const int requests = static_cast<int>(cli.get_int("requests", 48));
  const int num_devices = static_cast<int>(cli.get_int("devices", 2));
  const std::string om_path = cli.get("openmetrics", "");
  const std::string trace_path = cli.get("trace", "");

  std::vector<gpusim::DeviceSpec> devices;
  const auto registry = gpusim::device_registry();
  for (int i = 0; i < num_devices; ++i)
    devices.push_back(registry[registry.size() - 1 - i % registry.size()]);

  ServiceConfig cfg;
  cfg.flush_systems = 8;
  cfg.flush_interval_ms = 1.0;

  SolveService<double> svc(devices, cfg);
  svc.telemetry().tracer.enable();

  // --- the wire side: a front door with two named tenants ---
  const std::string sock =
      "/tmp/tda_top_" + std::to_string(::getpid()) + ".sock";
  net::FrontDoorConfig fcfg;
  fcfg.unix_path = sock;
  net::FrontDoor<double> door(svc, fcfg);
  const char* tenant_names[] = {"alpha", "beta"};
  for (const char* name : tenant_names) {
    net::TenantConfig tc;
    tc.name = name;
    tc.token = std::string("tok-") + name;
    tc.weight = name == tenant_names[0] ? 2.0 : 1.0;
    door.add_tenant(tc);
  }
  // --- the ops side: snapshot persistence, so the ops pane has real
  // numbers (uptime, generation, age of the last crash-safe snapshot).
  const std::string snap =
      "/tmp/tda_top_" + std::to_string(::getpid()) + ".snap";
  ops::OpsConfig ocfg;
  ocfg.snapshot_path = snap;
  ocfg.generation = static_cast<std::uint64_t>(cli.get_int("generation", 1));
  ops::Server<double> ops_srv(svc, door, ocfg);
  std::string ops_why;
  (void)ops_srv.load(&ops_why);  // missing file = clean cold start

  std::string door_err;
  const bool door_up = door.start(&door_err);
  if (!door_up) std::cerr << "front door: " << door_err << "\n";
  std::string ops_err;
  const bool ops_up = ops_srv.start(&ops_err);
  if (!ops_up) std::cerr << "ops server: " << ops_err << "\n";

  // --- the burst: mixed shapes, so several latency buckets fill ---
  const std::size_t shapes[] = {33, 64, 128, 200, 512};
  std::atomic<int> solved{0}, failed{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients) + 2);
  for (int t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(4100 + static_cast<std::uint64_t>(t));
      std::vector<std::future<SolveResponse<double>>> futures;
      for (int i = 0; i < requests; ++i) {
        const std::size_t n = shapes[(t + i) % 5];
        futures.push_back(svc.submit(random_request(n, rng)));
      }
      for (auto& f : futures) {
        (f.get().status == SolveStatus::Ok ? solved : failed).fetch_add(1);
      }
    });
  }
  // Two tenants push the same mixed shapes through the front door so
  // every pane below has wire-side rows too.
  if (door_up) {
    for (int t = 0; t < 2; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(7800 + static_cast<std::uint64_t>(t));
        net::Client client;
        std::string err;
        if (!client.connect("unix:" + sock,
                            std::string("tok-") + tenant_names[t], &err)) {
          failed.fetch_add(requests);
          return;
        }
        for (int i = 0; i < requests; ++i) {
          const std::size_t n = shapes[(t + i) % 5];
          const auto req = random_request(n, rng);
          const auto r = client.solve<double>(req.a, req.b, req.c, req.d);
          (r.ok() ? solved : failed).fetch_add(1);
        }
        client.close();
      });
    }
  }
  for (auto& th : threads) th.join();

  std::string save_why;
  const bool snapshot_ok = ops_srv.save_now(&save_why);
  if (!snapshot_ok) std::cerr << "snapshot: " << save_why << "\n";
  const auto c = svc.counters();
  const auto& mx = svc.telemetry().metrics;

  // --- pane 1: process + service counters + queue ---
  std::cout << "tridiag_top — one-shot service snapshot\n\n";
  std::cout << "process  : uptime "
            << TextTable::num(ops_srv.uptime_s(), 2) << " s, generation "
            << ocfg.generation << ", last snapshot "
            << (ops_srv.snapshot_age_ms() >= 0.0
                    ? TextTable::num(ops_srv.snapshot_age_ms(), 1) + " ms ago"
                    : std::string("never"))
            << (ops_srv.loaded_from_snapshot() ? " (warm start)"
                                               : " (cold start)")
            << "\n";
  std::cout << "requests : submitted " << c.submitted << ", completed "
            << c.completed << ", timed out " << c.timed_out << ", rejected "
            << c.rejected << ", shed " << c.shed << "\n";
  std::cout << "batches  : " << c.flushes << " flushes, mean occupancy "
            << TextTable::num(
                   c.flushes > 0
                       ? static_cast<double>(c.coalesced_systems) /
                             static_cast<double>(c.flushes)
                       : 0.0,
                   2)
            << " systems, queue depth now "
            << mx.gauge("service.queue_depth_now") << "\n\n";

  // --- pane 2: worker health ---
  TextTable workers("workers");
  workers.set_header({"worker", "device", "breaker", "restarts", "queued",
                      "busy"});
  const auto health = svc.worker_health();
  for (std::size_t i = 0; i < health.size(); ++i) {
    const auto& h = health[i];
    workers.add_row({std::to_string(i), h.device, h.breaker,
                     std::to_string(h.restarts),
                     std::to_string(h.queued_systems),
                     h.busy ? "yes" : "no"});
  }
  workers.print(std::cout);

  // --- pane 3: per-tenant accounting + wire-side latency ---
  std::cout << "\n";
  TextTable tenants_tbl("tenants (wire)");
  tenants_tbl.set_header({"tenant", "weight", "admitted", "rejected",
                          "requests", "count", "p95 (ms)"});
  std::size_t tenant_rows = 0;
  for (const auto& u : door.tenants().rows()) {
    // Aggregate the tenant's labeled latency keys (they split by shape
    // bucket); report the total count and the worst per-key p95.
    std::uint64_t count = 0;
    double p95 = 0.0;
    const std::string needle = "tenant=\"" + u.cfg.name + "\"";
    for (const auto& [name, h] : mx.histograms()) {
      if (name.rfind("service.request_latency_ms{", 0) != 0) continue;
      if (name.find(needle) == std::string::npos) continue;
      count += h.count;
      p95 = std::max(p95, h.quantile(0.95));
    }
    tenants_tbl.add_row(
        {u.cfg.name, TextTable::num(u.cfg.weight, 1),
         std::to_string(u.admitted), std::to_string(u.rejected),
         TextTable::num(mx.counter(telemetry::labeled(
                            "net.requests", {{"tenant", u.cfg.name}})),
                        0),
         std::to_string(count), TextTable::num(p95, 3)});
    ++tenant_rows;
  }
  tenants_tbl.print(std::cout);

  // --- pane 4: request latency by (tenant, shape, dtype, outcome) ---
  std::cout << "\n";
  TextTable lat("request latency (ms)");
  lat.set_header({"tenant", "shape", "dtype", "outcome", "count", "p50",
                  "p95", "p99", "p99 exemplar trace"});
  std::size_t latency_rows = 0;
  for (const auto& [name, h] : mx.histograms()) {
    if (name.rfind("service.request_latency_ms{", 0) != 0) continue;
    const auto ex = h.exemplar_at(0.99);
    const std::string tenant = label_of("tenant", name);
    lat.add_row({tenant.empty() ? "-" : tenant, label_of("shape", name),
                 label_of("dtype", name), label_of("outcome", name),
                 std::to_string(h.count),
                 TextTable::num(h.quantile(0.50), 3),
                 TextTable::num(h.quantile(0.95), 3),
                 TextTable::num(h.quantile(0.99), 3),
                 ex.trace_id != 0 ? telemetry::trace_id_hex(ex.trace_id)
                                  : "-"});
    ++latency_rows;
  }
  lat.print(std::cout);

  // --- pane 5: engine lanes + pool ---
  std::cout << "\n";
  TextTable lanes_tbl("engine lanes");
  lanes_tbl.set_header({"lane", "busy_ms", "chunks"});
  const auto lanes = gpusim::ThreadPool::global().lane_stats();
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    lanes_tbl.add_row({i == 0 ? "caller" : std::to_string(i),
                       TextTable::num(lanes[i].busy_ms, 2),
                       std::to_string(lanes[i].chunks)});
  }
  lanes_tbl.print(std::cout);
  std::cout << "engine utilization " << TextTable::num(
                   100.0 * mx.gauge("engine.utilization"), 1)
            << " %, pool hit rate "
            << TextTable::num(100.0 * mx.gauge("pool.hit_rate"), 1)
            << " %, host allocs " << mx.gauge("host.alloc_count") << "\n";

  if (!om_path.empty() && svc.export_openmetrics(om_path))
    std::cout << "\nOpenMetrics snapshot -> " << om_path << "\n";
  if (!trace_path.empty() && svc.export_trace(trace_path))
    std::cout << "trace -> " << trace_path << "\n";

  ops_srv.shutdown();
  door.shutdown();
  svc.shutdown();
  ::unlink(snap.c_str());

  const int expected = (clients + (door_up ? 2 : 0)) * requests;
  const bool ok = failed.load() == 0 && solved.load() == expected &&
                  latency_rows > 0 && tenant_rows == 2 && ops_up &&
                  snapshot_ok;
  std::cout << "\nsnapshot " << (ok ? "[OK]" : "[FAIL]") << "\n";
  return ok ? 0 : 1;
}
