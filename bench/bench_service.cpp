// Solve-service throughput: shape-bucketed coalescing vs one solve per
// request, swept over offered load (number of client threads).
//
//   ./bench_service [--systems=1024] [--clients=1,2,4,8] [--devices=2]
//                   [--flush=64] [--flush-ms=2] [--csv]
//                   [--metrics=service_metrics.json]
//                   [--faults] [--fault-rates=0,0.01,0.05,0.1]
//                   [--pressure] [--budget-fractions=1,0.5,0.25,0.1]
//                   [--admission=2] [--deadline-ms=0]
//                   [--tenants] [--tenant-requests=150] [--greedy-window=40]
//                   [--window=4] [--isolation-factor=2]
//                   [--isolation-slack-ms=5]
//                   [--chaos] [--chaos-requests=100] [--chaos-seed=42]
//                   [--goodput-floor=0.7] [--overload-factor=3]
//                   [--restart] [--restart-requests=800] [--restart-seed=42]
//
// --tenants switches to the multi-tenant isolation proof: real wire
// traffic through a FrontDoor on a unix socket. Phase 1 measures each
// well-behaved tenant's request p95 running ALONE; phase 2 reruns them
// against a greedy tenant pipelining a 10x window and a slow consumer
// that dawdles over its reads. The gate asserts contended p95 <=
// isolation-factor * baseline p95 + slack for every well-behaved
// tenant — weighted-fair DRR lanes are what makes it hold — and the
// bench exits nonzero when it doesn't, or when any request is lost.
// Clients survive injected net_drop/net_corrupt faults by reconnecting
// and resending what was in flight, so the gates also run under
// TDA_FAULTS in CI.
//
// --chaos switches to the end-to-end reliability proof
// (docs/ROBUSTNESS.md): clients with idempotent retries talk to the
// front door through a seeded ChaosProxy. Four phases, each gated:
//   1. baseline   proxy transparent — peak goodput, all residuals checked
//   2. chaos      seeded drops / mid-frame resets / latency spikes /
//                 partial writes — every acked Ok must carry a
//                 residual-verified solution, nothing may be lost, and
//                 net.duplicate_executions must stay 0 (exactly-once)
//   3. overload   offered load at --overload-factor x the baseline —
//                 CoDel + AIMD shedding must hold goodput at >=
//                 --goodput-floor of the baseline
//   4. expired    requests arrive with lapsed deadlines — every one is
//                 rejected DeadlineExpired at the door, none reaches
//                 the service
// The bench exits nonzero when any gate fails.
//
// --restart switches to the zero-downtime operations proof
// (docs/OPERATIONS.md): the service runs as a child PROCESS (the hidden
// --restart-server mode of this very binary) wrapped in ops::Server —
// admin socket, periodic crash-safe snapshots, hot-restart handoff.
// Keyed clients with idempotent retries drive it throughout three
// gated phases:
//   1. reload    an admin `reload` changes a tenant quota mid-traffic —
//                the new value must be visible in `stats` and no client
//                may lose a request or even reconnect
//   2. handoff   admin `handoff` forks the next generation and passes
//                the listeners via SCM_RIGHTS; the old generation
//                drains and exits 0. Nothing lost, every ack residual-
//                verified, and the new generation's stats must show
//                net.duplicate_executions == 0 — byte-identical resends
//                of pre-restart work land as replays from the inherited
//                snapshot, not re-executions
//   3. kill9     SIGKILL mid-traffic, then a cold respawn from the
//                periodic snapshot on the same socket path. Same gates:
//                nothing lost, residuals verified, exactly-once holds
//                across the crash boundary
// The bench exits nonzero when any gate fails.
//
// --faults switches to the resilience degradation curve: the coalesced
// configuration is re-run under injected device launch failures at each
// rate (plus mild worker stalls), and the sweep reports completion,
// retry/failover work and the throughput degradation relative to the
// clean run. Every request must still complete at every rate.
//
// --pressure switches to the memory-pressure degradation curve: the
// device budget is set to a fraction of the largest coalesced batch's
// footprint and swept downward, with ShedOldest backpressure plus
// memory-aware admission in front. The sweep reports how completion
// trades against shedding/rejection and how much batch chunking the
// shrinking budget forces. At every fraction every request must still
// terminate with a typed status (the exit code asserts it); ambient
// TDA_FAULTS (e.g. an `oom` rate) deliberately stays in effect so CI
// can combine injected faults with genuine budget pressure.
//
// The workload is many SMALL systems (the regime Gloster et al. show
// benefits most from interleaved batching): shapes drawn from a pool of
// five sizes well under the on-chip limit. Every configuration solves
// the same total number of systems; "coalesced" lets the supervisor
// batch whatever is pending per shape, "per-request" (flush=1 plus a
// synchronous client) dispatches each system alone — the cost of NOT
// having a batching service in front of the solver.
//
// Throughput is reported against simulated device milliseconds (the
// quantity the paper's cost model measures; launch overhead and machine
// fill dominate small-n solves) alongside wall time of the functional
// simulation. --metrics exports the coalesced run's service metrics
// JSON (queue depth, batch occupancy, wait times).
//
// Env hooks (same spirit as the solo benches' TDA_TRACE/TDA_METRICS):
// TDA_TRACE=FILE enables request-scoped tracing and writes the Chrome
// trace of the last run — the file scripts/trace_tree_check.py gates on
// in CI. TDA_OPENMETRICS=FILE writes the last run's registry in
// OpenMetrics text format (scripts/openmetrics_lint.py's input).

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include <algorithm>
#include <climits>
#include <csignal>
#include <future>
#include <map>
#include <memory>
#include <sys/wait.h>
#include <unistd.h>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "faults/faults.hpp"
#include "gpusim/device.hpp"
#include "kernels/device_batch.hpp"
#include "net/chaos_proxy.hpp"
#include "net/client.hpp"
#include "net/front_door.hpp"
#include "ops/admin.hpp"
#include "ops/server.hpp"
#include "service/solve_service.hpp"

using namespace tda;
using namespace tda::service;

namespace {

constexpr std::size_t kShapes[] = {32, 48, 64, 96, 128};

/// Random diagonally dominant system, as an in-process or a wire request.
template <typename Req = SolveRequest<double>>
Req random_request(std::size_t n, Rng& rng) {
  Req req;
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

/// Writes the metrics JSON to `metrics_path`, the trace to TDA_TRACE and
/// OpenMetrics to TDA_OPENMETRICS, each when set. Successive runs
/// overwrite: the files describe the last configuration.
void export_run(const SolveService<double>& svc,
                const std::string& metrics_path) {
  if (!metrics_path.empty()) svc.export_metrics(metrics_path);
  if (const std::string p = telemetry::trace_env_path(); !p.empty())
    svc.export_trace(p);
  if (const std::string p = telemetry::openmetrics_env_path(); !p.empty())
    svc.export_openmetrics(p);
}

struct RunResult {
  SolveService<double>::Counters c;  ///< the service's totals after shutdown
  double wall_s = 0.0;
  double mean_occupancy = 0.0;
  double wait_p95_ms = 0.0;

  /// Requests that reached some terminal status. Equal to
  /// `c.submitted` exactly when nothing fell through untyped.
  [[nodiscard]] std::size_t terminated() const {
    return c.completed + c.rejected + c.shed + c.timed_out + c.failed +
           c.singular + c.nonfinite;
  }
};

/// Resource-pressure knobs of one run; the zero state reproduces the
/// original unconstrained benchmark.
struct PressureKnobs {
  std::size_t mem_budget_bytes = 0;  ///< 0 = device default / env
  double admission_fraction = 0.0;   ///< <=0 disables memory admission
  double deadline_ms = 0.0;          ///< 0 = no default deadline
  bool shed_oldest = false;          ///< ShedOldest instead of Block
  /// Max responses a client leaves unconsumed before it stops submitting
  /// (0 = fire everything at once). Pressure runs need *some* client
  /// flow control, or the instantaneous burst just sheds the tail and
  /// no budget ever sees a steady queue.
  std::size_t window = 0;
};

/// Pushes `systems` requests through a service from `clients` threads.
/// per_request = synchronous clients + flush_systems 1 (no coalescing).
RunResult run(std::size_t systems, int clients, int num_devices,
              std::size_t flush, double flush_ms, bool per_request,
              const std::string& metrics_path,
              const PressureKnobs& knobs = {}) {
  ServiceConfig cfg;
  cfg.flush_systems = per_request ? 1 : flush;
  cfg.flush_interval_ms = flush_ms;
  cfg.queue_capacity = systems + 1;
  cfg.mem_budget_bytes = knobs.mem_budget_bytes;
  cfg.mem_admission_fraction = knobs.admission_fraction;
  cfg.default_deadline_ms = knobs.deadline_ms;
  if (knobs.shed_oldest) cfg.backpressure = BackpressurePolicy::ShedOldest;

  std::vector<gpusim::DeviceSpec> devices;
  const auto registry = gpusim::device_registry();
  for (int i = 0; i < num_devices; ++i)
    devices.push_back(registry[registry.size() - 1 -
                               static_cast<std::size_t>(i) % registry.size()]);

  SolveService<double> svc(devices, cfg);

  const std::size_t per_client =
      systems / static_cast<std::size_t>(clients);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(777 + static_cast<std::uint64_t>(t));
      std::vector<std::future<SolveResponse<double>>> futures;
      std::size_t next_wait = 0;
      for (std::size_t i = 0; i < per_client; ++i) {
        auto fut = svc.submit(random_request(
            kShapes[(static_cast<std::size_t>(t) + i) % 5], rng));
        if (per_request) {
          fut.get();  // one in flight at a time: nothing can ride along
        } else {
          futures.push_back(std::move(fut));
          if (knobs.window > 0 && futures.size() - next_wait >= knobs.window)
            futures[next_wait++].get();
        }
      }
      for (; next_wait < futures.size(); ++next_wait)
        futures[next_wait].get();
    });
  }
  for (auto& th : threads) th.join();
  svc.shutdown();

  RunResult r;
  r.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  r.c = svc.counters();
  r.mean_occupancy =
      r.c.flushes > 0 ? static_cast<double>(r.c.coalesced_systems) /
                            static_cast<double>(r.c.flushes)
                      : 0.0;
  r.wait_p95_ms =
      svc.telemetry().metrics.histogram("service.wait_ms").quantile(0.95);
  export_run(svc, metrics_path);
  return r;
}

/// Resilience degradation curve: the coalesced configuration re-run
/// under injected device launch failures (plus a mild worker stall) at
/// each rate. Returns false if any request fails to complete.
bool run_faults_sweep(std::size_t systems, int clients, int num_devices,
                      std::size_t flush, double flush_ms,
                      const std::vector<double>& rates,
                      const std::string& metrics_path, bool csv) {
  std::cout << "Solve service — degradation under injected device faults\n"
            << "workload: " << systems << " small systems, " << clients
            << " client(s), " << num_devices << " device(s)\n\n";

  TextTable table("throughput vs injected launch-failure rate");
  table.set_header({"fault_rate", "completed", "retries", "failovers",
                    "cpu_failovers", "fallbacks", "device_ms",
                    "ksys_per_dev_s", "rel_throughput"});

  bool all_completed = true;
  double clean_throughput = 0.0;
  for (const double rate : rates) {
    faults::FaultConfig fc;
    fc.seed = 42;
    fc.rate_of(faults::Site::DeviceLaunch) = rate;
    if (rate > 0.0) {
      fc.rate_of(faults::Site::WorkerStall) = rate / 2.0;
      fc.stall_ms = 0.5;
    }
    faults::ScopedFaultConfig scoped(fc);

    // Export the metrics JSON of the highest-rate run: the interesting
    // one for the counters (service.retries, service.faults.device, …).
    const bool last = rate == rates.back();
    const auto r = run(systems, clients, num_devices, flush, flush_ms,
                       /*per_request=*/false,
                       last ? metrics_path : std::string());
    all_completed = all_completed && r.c.completed == systems;
    const double throughput =
        r.c.device_ms > 0.0
            ? static_cast<double>(r.c.completed) / r.c.device_ms
            : 0.0;
    if (rate == 0.0) clean_throughput = throughput;
    const double rel =
        clean_throughput > 0.0 ? throughput / clean_throughput : 0.0;
    table.add_row({TextTable::num(rate, 3),
                   TextTable::num(static_cast<long long>(r.c.completed)),
                   TextTable::num(static_cast<long long>(r.c.retries)),
                   TextTable::num(static_cast<long long>(r.c.failovers)),
                   TextTable::num(static_cast<long long>(r.c.cpu_failovers)),
                   TextTable::num(static_cast<long long>(r.c.fallbacks)),
                   TextTable::num(r.c.device_ms, 2),
                   TextTable::num(throughput, 2), TextTable::num(rel, 3)});
  }
  table.print(std::cout);
  if (csv) {
    std::cout << "\n";
    table.print_csv(std::cout);
  }
  if (!metrics_path.empty())
    std::cout << "\nmetrics JSON of the highest-rate run written to "
              << metrics_path << "\n";
  std::cout << "\nevery request completed at every fault rate: "
            << (all_completed ? "yes  [OK]" : "NO  [FAIL]") << "\n";
  return all_completed;
}

/// Derives a per-fraction metrics filename: "svc.json" at 25% becomes
/// "svc_f25.json".
std::string metrics_path_for(const std::string& base, double fraction) {
  if (base.empty()) return base;
  std::ostringstream suffix;
  suffix << "_f" << static_cast<int>(std::lround(fraction * 100.0));
  const std::size_t dot = base.rfind('.');
  if (dot == std::string::npos) return base + suffix.str();
  return base.substr(0, dot) + suffix.str() + base.substr(dot);
}

/// Memory-pressure degradation curve: the budget of every device is a
/// fraction of the largest coalesced batch's footprint, so below 1.0
/// every full flush must be chunked. Returns false if any request ends
/// without a typed terminal status.
bool run_pressure_sweep(std::size_t systems, int clients, int num_devices,
                        std::size_t flush, double flush_ms,
                        const std::vector<double>& fractions,
                        double admission, double deadline_ms,
                        const std::string& metrics_path, bool csv) {
  const std::size_t largest_n = kShapes[std::size(kShapes) - 1];
  const std::size_t base_budget =
      kernels::DeviceBatch<double>::footprint_bytes(flush, largest_n);
  std::cout << "Solve service — degradation under shrinking memory budgets\n"
            << "workload: " << systems << " small systems, " << clients
            << " client(s), " << num_devices << " device(s); 100% budget = "
            << base_budget << " B (one full flush of " << flush << " x n="
            << largest_n << "), admission fraction " << admission
            << ", deadline "
            << (deadline_ms > 0.0 ? std::to_string(deadline_ms) + " ms"
                                  : std::string("off"))
            << "\n\n";

  TextTable table("graceful degradation vs device memory budget");
  table.set_header({"budget", "completed", "shed", "mem_rej", "timeout_q",
                    "timeout_if", "oom", "chunks", "split_batches", "cpu_fb",
                    "device_ms", "ksys_per_dev_s", "rel"});

  bool all_typed = true;
  double clean_throughput = 0.0;
  for (const double fraction : fractions) {
    PressureKnobs knobs;
    knobs.mem_budget_bytes = std::max<std::size_t>(
        1, static_cast<std::size_t>(fraction * base_budget));
    knobs.admission_fraction = admission;
    knobs.deadline_ms = deadline_ms;
    knobs.shed_oldest = true;
    knobs.window = 8;
    const auto r =
        run(systems, clients, num_devices, flush, flush_ms,
            /*per_request=*/false, metrics_path_for(metrics_path, fraction),
            knobs);
    if (r.terminated() != r.c.submitted) {
      all_typed = false;
      std::cout << "[FAIL] budget " << fraction << ": " << r.c.submitted
                << " submitted but only " << r.terminated()
                << " reached a terminal status\n";
    }
    const double throughput =
        r.c.device_ms > 0.0
            ? static_cast<double>(r.c.completed) / r.c.device_ms
            : 0.0;
    if (clean_throughput == 0.0) clean_throughput = throughput;
    const double rel =
        clean_throughput > 0.0 ? throughput / clean_throughput : 0.0;
    table.add_row(
        {TextTable::num(fraction, 2),
         TextTable::num(static_cast<long long>(r.c.completed)),
         TextTable::num(static_cast<long long>(r.c.shed)),
         TextTable::num(static_cast<long long>(r.c.mem_rejected)),
         TextTable::num(static_cast<long long>(r.c.timed_out_queue)),
         TextTable::num(static_cast<long long>(r.c.timed_out_inflight)),
         TextTable::num(static_cast<long long>(r.c.oom_events)),
         TextTable::num(static_cast<long long>(r.c.chunks)),
         TextTable::num(static_cast<long long>(r.c.chunked_solves)),
         TextTable::num(static_cast<long long>(r.c.oom_fallbacks)),
         TextTable::num(r.c.device_ms, 2), TextTable::num(throughput, 2),
         TextTable::num(rel, 3)});
  }
  table.print(std::cout);
  if (csv) {
    std::cout << "\n";
    table.print_csv(std::cout);
  }
  if (!metrics_path.empty())
    std::cout << "\nper-fraction metrics JSON written next to "
              << metrics_path << "\n";
  std::cout << "\nevery request terminated with a typed status: "
            << (all_typed ? "yes  [OK]" : "NO  [FAIL]") << "\n";
  return all_typed;
}

// ---------------------------------------------------------------- tenants

/// One tenant's traffic profile in the isolation bench.
struct TenantProfile {
  std::string name;
  std::string token;
  std::size_t window = 4;      ///< max requests in flight
  double recv_sleep_ms = 0.0;  ///< dawdle per received response
  bool gated = true;           ///< participates in the isolation gate
};

struct TenantStats {
  std::vector<double> latency_ms;  ///< per completed request, end to end
  std::size_t ok = 0;
  std::size_t rejected = 0;   ///< typed server rejects
  std::size_t lost = 0;       ///< gave up after transport failures
  std::size_t reconnects = 0;

  [[nodiscard]] double p95() const {
    if (latency_ms.empty()) return 0.0;
    std::vector<double> s = latency_ms;
    std::sort(s.begin(), s.end());
    return s[std::min(s.size() - 1,
                      static_cast<std::size_t>(0.95 * double(s.size())))];
  }
};

/// The wire clients' reconnect policy: a connect that fails, or a
/// connection that drops mid-window, retries under jittered backoff.
net::RetryPolicy bench_retry(std::uint64_t seed) {
  return {.max_attempts = 60, .base_backoff_ms = 0.5,
          .max_backoff_ms = 20.0, .seed = seed};
}

/// Closed-loop client: keeps `window` requests in flight until
/// `requests` settle. Connection drops (injected net_drop faults or
/// otherwise) recover through the client's retry policy, which resends
/// whatever was in flight — a dropped request is re-solved, never
/// silently lost.
TenantStats run_tenant_client(const std::string& sock,
                              const TenantProfile& prof,
                              std::size_t requests, std::uint64_t seed) {
  using Clock = std::chrono::steady_clock;
  net::Client client;
  client.set_retry(bench_retry(seed));
  std::string err;
  TenantStats st;
  st.lost = requests;  // until the window reports
  if (!client.connect(sock, prof.token, &err)) return st;

  Rng rng(seed);
  std::vector<Clock::time_point> sent(requests);
  const auto out = client.run_window<double>(
      prof.window, requests,
      [&](std::size_t i) {
        sent[i] = Clock::now();
        return random_request<net::WindowRequest<double>>(
            kShapes[(seed + i) % 5], rng);
      },
      [&](std::size_t i, const net::WindowRequest<double>&,
          const net::WireResult<double>& r) {
        if (prof.recv_sleep_ms > 0.0) {
          std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
              prof.recv_sleep_ms));
        }
        st.latency_ms.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - sent[i])
                .count());
        (r.ok() ? st.ok : st.rejected) += 1;
        return net::Verdict::Settle;
      });
  st.lost = out.lost;
  st.reconnects = client.stats().reconnects;
  client.close();
  return st;
}

/// Multi-tenant isolation proof over the wire front door. Returns false
/// when any well-behaved tenant's contended p95 blows past the gate.
bool run_tenants_bench(int num_devices, std::size_t flush, double flush_ms,
                       std::size_t requests, std::size_t window,
                       std::size_t greedy_window, double factor,
                       double slack_ms, const std::string& metrics_path,
                       bool csv) {
  ServiceConfig cfg;
  cfg.flush_systems = flush;
  cfg.flush_interval_ms = flush_ms;
  cfg.queue_capacity = 1 << 14;
  std::vector<gpusim::DeviceSpec> devices;
  const auto registry = gpusim::device_registry();
  for (int i = 0; i < num_devices; ++i)
    devices.push_back(registry[registry.size() - 1 -
                               static_cast<std::size_t>(i) % registry.size()]);
  SolveService<double> svc(devices, cfg);

  const std::string sock = "/tmp/tda_bench_tenants_" +
                           std::to_string(::getpid()) + ".sock";
  net::FrontDoorConfig fcfg;
  fcfg.unix_path = sock;
  fcfg.poll_interval_ms = 1.0;
  // Keep the service window tight so the DRR lanes — where fairness is
  // decided — stay the queueing point under contention.
  fcfg.max_service_inflight = 4 * flush;
  net::FrontDoor<double> door(svc, fcfg);

  const std::vector<TenantProfile> profiles = {
      {"fair-a", "tok-fair-a", window, 0.0, true},
      {"fair-b", "tok-fair-b", window, 0.0, true},
      {"greedy", "tok-greedy", greedy_window, 0.0, false},
      {"slow", "tok-slow", window, 1.0, false},
  };
  for (const auto& p : profiles) {
    net::TenantConfig tc;
    tc.name = p.name;
    tc.token = p.token;
    tc.weight = 1.0;  // equal shares: DRR alone must hold the gate
    door.add_tenant(tc);
  }
  std::string err;
  if (!door.start(&err)) {
    std::cout << "[FAIL] front door: " << err << "\n";
    return false;
  }

  const std::string spec = "unix:" + sock;
  std::cout << "Solve service — multi-tenant isolation through the front "
               "door\n"
            << "4 tenants on " << spec << ": 2 fair (window " << window
            << "), 1 greedy (window " << greedy_window
            << "), 1 slow consumer; " << requests
            << " requests each, equal DRR weights, " << num_devices
            << " device(s)\n\n";

  // Warm the tuning cache so neither phase pays first-shape tuning.
  (void)run_tenant_client(spec, {"fair-a", "tok-fair-a", 2, 0.0, true},
                          4 * std::size(kShapes), 1);

  // Phase 1: each gated tenant alone — the no-contention baseline.
  std::map<std::string, TenantStats> baseline;
  for (const auto& p : profiles) {
    if (!p.gated) continue;
    baseline[p.name] = run_tenant_client(spec, p, requests, 11);
  }

  // Phase 2: everyone at once.
  std::map<std::string, TenantStats> contended;
  std::vector<std::thread> threads;
  std::mutex mu;
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    threads.emplace_back([&, i] {
      auto stats = run_tenant_client(spec, profiles[i], requests, 23 + i);
      std::lock_guard lk(mu);
      contended[profiles[i].name] = std::move(stats);
    });
  }
  for (auto& th : threads) th.join();

  TextTable table("per-tenant p95 latency: alone vs contended");
  table.set_header({"tenant", "ok", "rejected", "lost", "reconnects",
                    "p95_alone_ms", "p95_contended_ms", "ratio", "gate"});
  bool isolated = true;
  std::size_t lost = 0;
  for (const auto& [name, st] : baseline) lost += st.lost;
  for (const auto& p : profiles) {
    const auto& c = contended[p.name];
    lost += c.lost;
    std::string alone = "-", ratio = "-", gate = "-";
    if (p.gated) {
      const double base = baseline[p.name].p95();
      const double cont = c.p95();
      const double limit = factor * base + slack_ms;
      const bool pass = cont <= limit;
      isolated = isolated && pass && c.ok > 0;
      alone = TextTable::num(base, 3);
      ratio = TextTable::num(base > 0.0 ? cont / base : 0.0, 2);
      gate = pass ? "pass" : "FAIL";
    }
    table.add_row({p.name, TextTable::num(static_cast<long long>(c.ok)),
                   TextTable::num(static_cast<long long>(c.rejected)),
                   TextTable::num(static_cast<long long>(c.lost)),
                   TextTable::num(static_cast<long long>(c.reconnects)),
                   alone, TextTable::num(c.p95(), 3), ratio, gate});
  }
  table.print(std::cout);
  if (csv) {
    std::cout << "\n";
    table.print_csv(std::cout);
  }

  const auto dc = door.counters();
  std::cout << "\nfront door: " << dc.connections << " conns, "
            << dc.requests_admitted << " admitted, " << dc.requests_rejected
            << " rejected, " << dc.injected_drops << " injected drops, "
            << dc.injected_corruptions << " injected corruptions, "
            << dc.bad_frames << " bad frames\n";
  for (const auto& u : door.tenants().rows()) {
    std::cout << "  " << u.cfg.name << ": admitted " << u.admitted
              << ", rejected " << u.rejected << "\n";
  }

  door.shutdown();
  svc.shutdown();
  export_run(svc, metrics_path);

  std::cout << "\nwell-behaved tenants held p95 within " << factor
            << "x + " << slack_ms << " ms of their no-contention baseline: "
            << (isolated ? "yes  [OK]" : "NO  [FAIL]") << "\n";
  std::cout << "every request settled (" << lost << " lost): "
            << (lost == 0 ? "yes  [OK]" : "NO  [FAIL]") << "\n";
  return isolated && lost == 0;
}

// ----------------------------------------------------------------- chaos

/// Worst relative residual of one acked solution: max_i |(Ax - d)_i| /
/// (|d_i| + 1), and +inf when any term is not finite (std::max would
/// skip a NaN). The client-side half of the exactly-once gate — an ack
/// only counts if it carries a genuine solution of the system the
/// client actually sent.
double residual_inf(const net::WindowRequest<double>& s,
                    const std::vector<double>& x) {
  if (x.size() != s.d.size()) return 1e300;
  const std::size_t n = x.size();
  double worst = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double r = s.b[i] * x[i] - s.d[i];
    if (i > 0) r += s.a[i] * x[i - 1];
    if (i + 1 < n) r += s.c[i] * x[i + 1];
    const double rel = std::abs(r) / (std::abs(s.d[i]) + 1.0);
    if (!std::isfinite(rel)) return std::numeric_limits<double>::infinity();
    worst = std::max(worst, rel);
  }
  return worst;
}

struct ChaosStats {
  std::size_t ok = 0;            ///< acked with a verified solution
  std::size_t shed = 0;          ///< typed Shed/TimedOut (overload works)
  std::size_t expired = 0;       ///< typed DeadlineExpired
  std::size_t errors = 0;        ///< other typed verdicts left unretried
  std::size_t lost = 0;          ///< no terminal verdict (gate: 0)
  std::size_t retried = 0;       ///< error verdicts resent, same idem key
  std::size_t residual_bad = 0;  ///< acks that failed the residual check
  std::uint64_t reconnects = 0;
  std::uint64_t resends = 0;
  double wall_s = 0.0;
};

/// Closed-loop reliability client: keeps `window` keyed v2 requests in
/// flight. Transport failures are absorbed by the net::Client's own
/// reconnect + resend machinery; typed retryable verdicts (Shed,
/// TimedOut, Internal — e.g. "original request aborted with its
/// connection") are resent under the SAME idempotency key, which is
/// legitimate re-execution: the server abandoned the key with the
/// verdict. DeadlineExpired is always terminal.
ChaosStats run_chaos_client(const std::string& spec, std::size_t requests,
                            std::size_t window, std::uint64_t seed,
                            double deadline_ms, bool retry_errors,
                            std::atomic<std::size_t>* acked) {
  net::Client client;
  client.set_retry(bench_retry(seed));
  std::string err;
  if (!client.connect(spec, "tok-chaos", &err)) return {.lost = requests};

  ChaosStats st;
  Rng rng(seed);
  std::vector<int> attempts(requests, 0);
  const auto t0 = std::chrono::steady_clock::now();
  const auto out = client.run_window<double>(
      window, requests,
      [&](std::size_t i) {
        auto q = random_request<net::WindowRequest<double>>(
            kShapes[(seed + i) % 5], rng);
        q.deadline_ms = deadline_ms;
        q.idem_key = client.mint_key();
        return q;
      },
      [&](std::size_t i, const net::WindowRequest<double>& q,
          const net::WireResult<double>& r) {
        if (r.ok()) {
          if (residual_inf(q, r.x) > 1e-6) ++st.residual_bad;
          ++st.ok;
          if (acked != nullptr) acked->fetch_add(1);
          return net::Verdict::Settle;
        }
        if (r.code == net::ErrorCode::DeadlineExpired) {
          ++st.expired;
          return net::Verdict::Settle;
        }
        if (retry_errors && attempts[i] < 50) {
          ++attempts[i];
          ++st.retried;
          // Draining means a new generation is (or will shortly be)
          // accepting on the same listener: give the old one a beat to
          // close this connection so the resend reconnects there
          // instead of hammering the drain rejection.
          if (r.code == net::ErrorCode::Draining) {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
          }
          return net::Verdict::Resend;
        }
        (r.code == net::ErrorCode::Shed || r.code == net::ErrorCode::TimedOut
             ? st.shed
             : st.errors) += 1;
        return net::Verdict::Settle;
      });
  st.lost = out.lost;
  st.wall_s = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  st.reconnects = client.stats().reconnects;
  st.resends = client.stats().resends;
  client.close();
  return st;
}

struct ChaosPhase {
  ChaosStats total;      ///< summed over clients; wall_s = slowest
  double goodput = 0.0;  ///< verified acks per wall second
};

/// `acked`, when given, counts the phase's verified acks as they land.
ChaosPhase run_chaos_phase(const std::string& spec, int clients,
                           std::size_t requests, std::size_t window,
                           std::uint64_t seed, double deadline_ms,
                           bool retry_errors,
                           std::atomic<std::size_t>* acked = nullptr) {
  std::vector<ChaosStats> stats(static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  threads.reserve(stats.size());
  for (std::size_t i = 0; i < stats.size(); ++i) {
    threads.emplace_back([&, i] {
      stats[i] = run_chaos_client(spec, requests, window,
                                  seed + 101 * (i + 1), deadline_ms,
                                  retry_errors, acked);
    });
  }
  for (auto& th : threads) th.join();
  ChaosPhase r;
  for (const auto& s : stats) {
    r.total.ok += s.ok;
    r.total.shed += s.shed;
    r.total.expired += s.expired;
    r.total.errors += s.errors;
    r.total.lost += s.lost;
    r.total.retried += s.retried;
    r.total.residual_bad += s.residual_bad;
    r.total.reconnects += s.reconnects;
    r.total.resends += s.resends;
    r.total.wall_s = std::max(r.total.wall_s, s.wall_s);
  }
  r.goodput = r.total.wall_s > 0.0
                  ? static_cast<double>(r.total.ok) / r.total.wall_s
                  : 0.0;
  return r;
}

/// End-to-end reliability proof (see the file header). Returns false
/// when any of the four gates fails.
bool run_chaos_bench(int num_devices, std::size_t flush, double flush_ms,
                     std::size_t requests, std::uint64_t seed,
                     double goodput_floor, int overload_factor,
                     const std::string& metrics_path, bool csv) {
  ServiceConfig cfg;
  cfg.flush_systems = flush;
  cfg.flush_interval_ms = flush_ms;
  cfg.queue_capacity = 1 << 14;
  std::vector<gpusim::DeviceSpec> devices;
  const auto registry = gpusim::device_registry();
  for (int i = 0; i < num_devices; ++i)
    devices.push_back(registry[registry.size() - 1 -
                               static_cast<std::size_t>(i) % registry.size()]);
  SolveService<double> svc(devices, cfg);

  const std::string up =
      "/tmp/tda_chaos_up_" + std::to_string(::getpid()) + ".sock";
  const std::string px =
      "/tmp/tda_chaos_px_" + std::to_string(::getpid()) + ".sock";
  net::FrontDoorConfig fcfg;
  fcfg.unix_path = up;
  fcfg.poll_interval_ms = 1.0;
  fcfg.max_service_inflight = 2 * flush;
  net::FrontDoor<double> door(svc, fcfg);
  net::TenantConfig tc;
  tc.name = "chaos";
  tc.token = "tok-chaos";
  door.add_tenant(tc);
  std::string err;
  if (!door.start(&err)) {
    std::cout << "[FAIL] front door: " << err << "\n";
    return false;
  }

  net::ChaosConfig ccfg;
  ccfg.seed = seed;
  ccfg.drop_rate = 0.06;
  ccfg.reset_rate = 0.03;
  ccfg.latency_rate = 0.08;
  ccfg.latency_ms = 2.0;
  ccfg.partial_rate = 0.15;
  ccfg.partial_delay_ms = 0.2;
  net::ChaosProxy proxy("unix:" + px, "unix:" + up, ccfg);
  proxy.set_enabled(false);
  if (!proxy.start(&err)) {
    std::cout << "[FAIL] chaos proxy: " << err << "\n";
    return false;
  }
  const std::string spec = "unix:" + px;

  std::cout << "Solve service — end-to-end reliability through a chaos "
               "proxy\n"
            << "clients -> " << px << " -> " << up << " -> service; seed "
            << seed << ", " << requests << " requests per client, "
            << num_devices << " device(s)\n\n";

  // Warm the tuning cache so phase walls compare like for like.
  (void)run_chaos_phase(spec, 1, 2 * std::size(kShapes), 2, 1, 0.0, true);

  TextTable table("reliability phases");
  table.set_header({"phase", "ok", "shed", "expired", "errors", "lost",
                    "retried", "reconnects", "resends", "wall_s",
                    "goodput_rps"});
  const auto add_row = [&](const char* name, const ChaosPhase& p) {
    table.add_row({name, TextTable::num(static_cast<long long>(p.total.ok)),
                   TextTable::num(static_cast<long long>(p.total.shed)),
                   TextTable::num(static_cast<long long>(p.total.expired)),
                   TextTable::num(static_cast<long long>(p.total.errors)),
                   TextTable::num(static_cast<long long>(p.total.lost)),
                   TextTable::num(static_cast<long long>(p.total.retried)),
                   TextTable::num(static_cast<long long>(p.total.reconnects)),
                   TextTable::num(static_cast<long long>(p.total.resends)),
                   TextTable::num(p.total.wall_s, 2),
                   TextTable::num(p.goodput, 1)});
  };

  // Phase 1: transparent proxy — peak goodput and a clean bill.
  const auto baseline =
      run_chaos_phase(spec, 3, requests, 8, seed + 1, 0.0, true);
  add_row("baseline", baseline);
  const bool baseline_ok = baseline.total.lost == 0 &&
                           baseline.total.residual_bad == 0 &&
                           baseline.total.ok > 0;

  // Phase 2: chaos on. Acks must verify, nothing may be lost, and the
  // device must never execute one idempotency key twice.
  const auto before_chaos = door.counters();
  proxy.set_enabled(true);
  const auto chaos = run_chaos_phase(spec, 3, requests, 8, seed + 2, 0.0,
                                     /*retry_errors=*/true);
  proxy.set_enabled(false);
  add_row("chaos", chaos);
  const auto after_chaos = door.counters();
  const auto pc = proxy.counters();
  const bool chaos_ok = chaos.total.lost == 0 &&
                        chaos.total.residual_bad == 0 &&
                        after_chaos.duplicate_executions == 0;
  std::cout << "\nchaos injected: " << pc.drops << " drops, " << pc.resets
            << " mid-frame resets, " << pc.latency_injections
            << " latency spikes, " << pc.partial_writes
            << " partial writes\n"
            << "dedup: "
            << (after_chaos.dedup_hits - before_chaos.dedup_hits)
            << " cache replays, "
            << (after_chaos.dedup_joins - before_chaos.dedup_joins)
            << " in-flight joins, duplicate executions "
            << after_chaos.duplicate_executions << "\n\n";

  // Phase 3: offered load at overload_factor x the baseline. CoDel +
  // AIMD shed the excess; goodput must not collapse.
  const auto before_over = door.counters();
  const auto overload = run_chaos_phase(
      spec, 3 * overload_factor, requests,
      8 * static_cast<std::size_t>(overload_factor), seed + 3, 0.0,
      /*retry_errors=*/false);
  add_row("overload", overload);
  const auto after_over = door.counters();
  const bool overload_ok =
      overload.goodput >= goodput_floor * baseline.goodput;
  std::cout << "overload shedding: "
            << (after_over.shed_codel - before_over.shed_codel)
            << " CoDel sheds, "
            << (after_over.aimd_throttles - before_over.aimd_throttles)
            << " AIMD window passes\n\n";

  // Phase 4: already-lapsed deadlines must be rejected at the door —
  // the service submit counter may not move.
  const std::size_t expired_n = 32;
  const auto svc_before = svc.counters().submitted;
  const auto before_exp = door.counters();
  const auto expired = run_chaos_phase(spec, 1, expired_n, 8, seed + 4,
                                       -1000.0, /*retry_errors=*/false);
  add_row("expired", expired);
  const auto after_exp = door.counters();
  const auto svc_after = svc.counters().submitted;
  const bool expired_ok =
      expired.total.expired == expired_n && expired.total.ok == 0 &&
      after_exp.deadline_expired_arrival -
              before_exp.deadline_expired_arrival ==
          expired_n &&
      svc_after == svc_before;

  table.print(std::cout);
  if (csv) {
    std::cout << "\n";
    table.print_csv(std::cout);
  }

  proxy.stop();
  door.shutdown();
  svc.shutdown();
  ::unlink(px.c_str());
  export_run(svc, metrics_path);

  std::cout << "\nbaseline clean (no losses, residuals verified):       "
            << (baseline_ok ? "yes  [OK]" : "NO  [FAIL]") << "\n"
            << "exactly-once under chaos (0 duplicate executions,\n"
            << "  every ack residual-verified, nothing lost):          "
            << (chaos_ok ? "yes  [OK]" : "NO  [FAIL]") << "\n"
            << "goodput at " << overload_factor << "x load >= "
            << goodput_floor << " of baseline ("
            << TextTable::num(overload.goodput, 1) << " vs "
            << TextTable::num(baseline.goodput, 1) << " rps):  "
            << (overload_ok ? "yes  [OK]" : "NO  [FAIL]") << "\n"
            << "expired-on-arrival rejected before the service:        "
            << (expired_ok ? "yes  [OK]" : "NO  [FAIL]") << "\n";
  return baseline_ok && chaos_ok && overload_ok && expired_ok;
}

// --------------------------------------------------------------- restart

/// Per-generation admin socket path: each generation binds its own so
/// the old generation's teardown can never unlink the new one's socket
/// out from under it.
std::string admin_path_for(const std::string& base, std::uint64_t gen) {
  return base + ".g" + std::to_string(gen);
}

/// The hidden --restart-server mode: one service generation under
/// ops::Server. Cold start binds the unix listener itself; a hot-
/// restarted generation (--handoff-fd) receives it over SCM_RIGHTS and
/// loads the snapshot its parent wrote, then acks so the parent drains.
int run_restart_server(const std::string& self, const Cli& cli) {
  const std::string sock = cli.get("sock", "");
  const std::string admin_base = cli.get("admin-base", "");
  const std::string snapshot = cli.get("snapshot", "");
  const int num_devices = static_cast<int>(cli.get_int("devices", 1));
  const std::size_t flush =
      static_cast<std::size_t>(cli.get_int("flush", 64));
  const double flush_ms = cli.get_double("flush-ms", 2.0);
  const auto generation =
      static_cast<std::uint64_t>(cli.get_int("generation", 1));
  const int handoff_fd = static_cast<int>(cli.get_int("handoff-fd", -1));
  if (sock.empty() || admin_base.empty() || snapshot.empty()) {
    std::cerr << "--restart-server needs --sock --admin-base --snapshot\n";
    return 2;
  }

  ServiceConfig cfg;
  cfg.flush_systems = flush;
  cfg.flush_interval_ms = flush_ms;
  cfg.queue_capacity = 1 << 14;
  std::vector<gpusim::DeviceSpec> devices;
  const auto registry = gpusim::device_registry();
  for (int i = 0; i < num_devices; ++i)
    devices.push_back(registry[registry.size() - 1 -
                               static_cast<std::size_t>(i) % registry.size()]);
  SolveService<double> svc(devices, cfg);

  net::FrontDoorConfig fcfg;
  fcfg.unix_path = sock;
  fcfg.poll_interval_ms = 1.0;
  fcfg.max_service_inflight = 2 * flush;
  if (handoff_fd >= 0) {
    int tcp_fd = -1, unix_fd = -1;
    if (!ops::receive_handoff(handoff_fd, &tcp_fd, &unix_fd)) {
      std::cerr << "handoff receive failed\n";
      return 2;
    }
    fcfg.inherited_tcp_fd = tcp_fd;
    fcfg.inherited_unix_fd = unix_fd;
  }
  net::FrontDoor<double> door(svc, fcfg);
  net::TenantConfig tc;
  tc.name = "chaos";
  tc.token = "tok-chaos";
  door.add_tenant(tc);

  ops::OpsConfig ocfg;
  ocfg.admin_path = admin_path_for(admin_base, generation);
  ocfg.snapshot_path = snapshot;
  ocfg.snapshot_interval_ms = 25.0;  // a kill -9 loses at most ~25 ms
  ocfg.generation = generation;
  ocfg.handoff_argv = {self,
                       "--restart-server",
                       "--sock=" + sock,
                       "--admin-base=" + admin_base,
                       "--snapshot=" + snapshot,
                       "--devices=" + std::to_string(num_devices),
                       "--flush=" + std::to_string(flush),
                       "--flush-ms=" + std::to_string(flush_ms)};
  ops::Server<double> srv(svc, door, ocfg);
  std::string why;
  if (!srv.load(&why) && generation > 1) {
    // Generation > 1 without a snapshot is a real (but survivable)
    // anomaly worth a line on stderr; generation 1 is just cold.
    std::cerr << "gen " << generation << " cold start: " << why << "\n";
  }
  std::string err;
  if (!door.start(&err)) {
    std::cerr << "front door: " << err << "\n";
    return 2;
  }
  if (!srv.start(&err)) {
    std::cerr << "ops server: " << err << "\n";
    return 2;
  }
  if (handoff_fd >= 0) {
    ops::ack_handoff(handoff_fd);  // parent may drain now
    ::close(handoff_fd);
  }
  while (!srv.should_exit()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  door.shutdown();  // drain: every admitted request answered first
  srv.shutdown();   // final snapshot (skipped after handoff) + flush
  svc.shutdown();
  return 0;
}

pid_t spawn_restart_server(const std::string& self, const std::string& sock,
                           const std::string& admin_base,
                           const std::string& snapshot, int num_devices,
                           std::size_t flush, double flush_ms,
                           std::uint64_t generation) {
  std::vector<std::string> argv = {
      self,
      "--restart-server",
      "--sock=" + sock,
      "--admin-base=" + admin_base,
      "--snapshot=" + snapshot,
      "--devices=" + std::to_string(num_devices),
      "--flush=" + std::to_string(flush),
      "--flush-ms=" + std::to_string(flush_ms),
      "--generation=" + std::to_string(generation)};
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (auto& a : argv) cargv.push_back(a.data());
  cargv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execv(cargv[0], cargv.data());
    ::_exit(127);
  }
  return pid;
}

/// Polls the generation's admin socket until `health` answers ok.
bool admin_wait_healthy(const std::string& path, double timeout_s) {
  const auto t0 = std::chrono::steady_clock::now();
  std::string reply, err;
  while (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       t0)
             .count() < timeout_s) {
    if (ops::admin_request(path, ops::AdminCmd::Health, "", &reply, &err))
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

/// True when `stats` output contains the exact line `key=value`.
bool stats_has(const std::string& stats, const std::string& line) {
  return stats.find(line + "\n") != std::string::npos;
}

/// Waits for a child to exit; false when `timeout_s` lapses (the child
/// is then killed) or it exited nonzero.
bool reap(pid_t pid, double timeout_s) {
  const auto t0 = std::chrono::steady_clock::now();
  for (;;) {
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid) return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (r < 0) return false;
    if (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count() > timeout_s) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

/// Zero-downtime operations proof (see the file header). Returns false
/// when any of the three gates fails.
bool run_restart_bench(const std::string& self, int num_devices,
                       std::size_t flush, double flush_ms,
                       std::size_t requests, std::uint64_t seed,
                       bool csv) {
  const std::string tag = std::to_string(::getpid());
  const std::string sock = "/tmp/tda_restart_" + tag + ".sock";
  const std::string admin_base = "/tmp/tda_restart_adm_" + tag;
  const std::string snapshot = "/tmp/tda_restart_" + tag + ".snap";
  const std::string spec = "unix:" + sock;
  ::unlink(snapshot.c_str());

  std::cout << "Solve service — zero-downtime operations\n"
            << "server generations as child processes on " << spec
            << "; seed " << seed << ", " << requests
            << " requests per client, " << num_devices << " device(s), "
            << "snapshots every 25 ms\n\n";

  std::vector<pid_t> children;
  const auto cleanup = [&] {
    for (const pid_t pid : children) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, WNOHANG);
    }
    ::unlink(sock.c_str());
    ::unlink(snapshot.c_str());
    // Generation 2 dies by SIGKILL and cannot remove its admin socket.
    for (int gen = 1; gen <= 3; ++gen) {
      ::unlink(admin_path_for(admin_base, gen).c_str());
    }
  };

  const pid_t gen1 = spawn_restart_server(self, sock, admin_base, snapshot,
                                          num_devices, flush, flush_ms, 1);
  children.push_back(gen1);
  if (!admin_wait_healthy(admin_path_for(admin_base, 1), 10.0)) {
    std::cout << "[FAIL] generation 1 never became healthy\n";
    cleanup();
    return false;
  }

  // Warm the tuning cache so the phases run at steady-state speed.
  (void)run_chaos_phase(spec, 1, 2 * std::size(kShapes), 2, 1, 0.0, true);

  TextTable table("zero-downtime phases");
  table.set_header({"phase", "ok", "errors", "lost", "retried",
                    "reconnects", "resends", "wall_s"});
  const auto add_row = [&](const char* name, const ChaosPhase& p) {
    table.add_row({name, TextTable::num(static_cast<long long>(p.total.ok)),
                   TextTable::num(static_cast<long long>(p.total.errors)),
                   TextTable::num(static_cast<long long>(p.total.lost)),
                   TextTable::num(static_cast<long long>(p.total.retried)),
                   TextTable::num(static_cast<long long>(p.total.reconnects)),
                   TextTable::num(static_cast<long long>(p.total.resends)),
                   TextTable::num(p.total.wall_s, 2)});
  };
  std::string reply, err;

  // Phase 1: live reload mid-traffic — no dropped connections.
  auto clients = std::async(std::launch::async, [&] {
    return run_chaos_phase(spec, 3, requests, 8, seed + 1, 0.0, true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const bool reload_sent = ops::admin_request(
      admin_path_for(admin_base, 1), ops::AdminCmd::Reload,
      "tenant=chaos\nrequests_per_sec=10000\nmax_inflight=4096\n", &reply,
      &err);
  bool reload_visible = false;
  if (ops::admin_request(admin_path_for(admin_base, 1),
                         ops::AdminCmd::Stats, "", &reply, &err)) {
    reload_visible =
        stats_has(reply, "tenant.chaos.requests_per_sec=10000") &&
        stats_has(reply, "tenant.chaos.max_inflight=4096");
  }
  const auto reload = clients.get();
  add_row("reload", reload);
  const bool reload_ok = reload_sent && reload_visible &&
                         reload.total.lost == 0 &&
                         reload.total.residual_bad == 0 &&
                         reload.total.reconnects == 0 &&
                         reload.total.ok > 0;

  // Phase 2: hot restart. Gen 1 forks gen 2, hands the listener over,
  // drains, exits 0 — all while the clients keep sending. The phase
  // runs 3x the normal request count because the old generation only
  // starts draining once the freshly exec'd child acks, which takes
  // ~500 ms when it competes with the traffic for CPU — the clients
  // must still be mid-stream at that point for the switch to be
  // exercised under load.
  clients = std::async(std::launch::async, [&] {
    return run_chaos_phase(spec, 3, 3 * requests, 8, seed + 2, 0.0, true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  pid_t gen2 = -1;
  const auto t_phase = std::chrono::steady_clock::now();
  bool handoff_sent = ops::admin_request(admin_path_for(admin_base, 1),
                                         ops::AdminCmd::Handoff, "", &reply,
                                         &err);
  const double handoff_reply_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t_phase)
          .count();
  if (handoff_sent && reply.rfind("pid=", 0) == 0) {
    gen2 = static_cast<pid_t>(std::stol(reply.substr(4)));
  } else {
    handoff_sent = false;
    std::cout << "handoff failed: " << (err.empty() ? reply : err) << "\n";
  }
  const bool gen1_exited = handoff_sent && reap(gen1, 30.0);
  const auto handoff = clients.get();
  add_row("handoff", handoff);
  bool gen2_stats_ok = false;
  if (gen2 > 0 && admin_wait_healthy(admin_path_for(admin_base, 2), 10.0) &&
      ops::admin_request(admin_path_for(admin_base, 2), ops::AdminCmd::Stats,
                         "", &reply, &err)) {
    gen2_stats_ok = stats_has(reply, "generation=2") &&
                    stats_has(reply, "loaded_from_snapshot=1") &&
                    stats_has(reply, "net.duplicate_executions=0");
  }
  // reconnects > 0 proves the switch happened under live traffic: the
  // draining generation said Goodbye to clients that still had work,
  // and they carried it to the new generation.
  const bool handoff_ok = handoff_sent && gen1_exited &&
                          handoff.total.lost == 0 &&
                          handoff.total.residual_bad == 0 &&
                          handoff.total.ok > 0 &&
                          handoff.total.reconnects > 0 && gen2_stats_ok;
  std::cout << "handoff subgates: sent=" << handoff_sent
            << " gen1_exited=" << gen1_exited
            << " reconnects=" << handoff.total.reconnects
            << " gen2_stats=" << gen2_stats_ok
            << " reply_ms=" << handoff_reply_ms
            << " wall_s=" << handoff.total.wall_s << "\n";

  // Phase 3: kill -9 mid-traffic, cold respawn from the snapshot. The
  // clients' reconnect + byte-identical resend machinery carries the
  // outage; the snapshot carries exactly-once across it. The kill fires
  // once the three clients hold a third of their 3 x `requests` acks, so
  // two thirds of the phase is still in flight or unsent when the server
  // dies.
  std::atomic<std::size_t> kill9_acked{0};
  clients = std::async(std::launch::async, [&] {
    return run_chaos_phase(spec, 3, requests, 8, seed + 3, 0.0, true,
                           &kill9_acked);
  });
  while (kill9_acked.load() < requests &&
         clients.wait_for(std::chrono::milliseconds(1)) !=
             std::future_status::ready) {
  }
  if (gen2 > 0) ::kill(gen2, SIGKILL);
  const pid_t gen3 = spawn_restart_server(
      self, sock, admin_base, snapshot, num_devices, flush, flush_ms, 3);
  children.push_back(gen3);
  const bool gen3_up = admin_wait_healthy(admin_path_for(admin_base, 3),
                                          10.0);
  const auto kill9 = clients.get();
  add_row("kill9", kill9);
  bool gen3_stats_ok = false;
  if (gen3_up &&
      ops::admin_request(admin_path_for(admin_base, 3), ops::AdminCmd::Stats,
                         "", &reply, &err)) {
    gen3_stats_ok = stats_has(reply, "generation=3") &&
                    stats_has(reply, "loaded_from_snapshot=1") &&
                    stats_has(reply, "net.duplicate_executions=0");
  }
  // reconnects > 0 proves the kill hit live traffic.
  const bool kill9_ok = gen3_up && kill9.total.lost == 0 &&
                        kill9.total.residual_bad == 0 &&
                        kill9.total.ok > 0 &&
                        kill9.total.reconnects > 0 && gen3_stats_ok;

  // Orderly end: drain generation 3 and reap it.
  (void)ops::admin_request(admin_path_for(admin_base, 3),
                           ops::AdminCmd::Drain, "", &reply, &err);
  const bool gen3_exited = reap(gen3, 30.0);

  table.print(std::cout);
  if (csv) {
    std::cout << "\n";
    table.print_csv(std::cout);
  }

  std::cout << "\nreload applied mid-traffic, visible in stats,\n"
            << "  nothing lost, zero reconnects:                     "
            << (reload_ok ? "yes  [OK]" : "NO  [FAIL]") << "\n"
            << "hot restart: listener handed off, old generation\n"
            << "  drained and exited 0, nothing lost, exactly-once:  "
            << (handoff_ok ? "yes  [OK]" : "NO  [FAIL]") << "\n"
            << "kill -9 + cold restart from snapshot: nothing lost,\n"
            << "  every ack residual-verified, exactly-once:         "
            << (kill9_ok ? "yes  [OK]" : "NO  [FAIL]") << "\n"
            << "generation 3 drained on request:                     "
            << (gen3_exited ? "yes  [OK]" : "NO  [FAIL]") << "\n";

  cleanup();
  return reload_ok && handoff_ok && kill9_ok && gen3_exited;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);

  // Absolute path of this binary, so a forked generation can exec it
  // regardless of the working directory it inherits.
  std::string self = argv[0];
  {
    char resolved[PATH_MAX];
    if (::realpath(argv[0], resolved) != nullptr) self = resolved;
  }
  if (cli.has("restart-server")) {
    return run_restart_server(self, cli);
  }
  if (cli.has("restart")) {
    return run_restart_bench(
               self, static_cast<int>(cli.get_int("devices", 1)),
               static_cast<std::size_t>(cli.get_int("flush", 64)),
               cli.get_double("flush-ms", 2.0),
               static_cast<std::size_t>(cli.get_int("restart-requests", 800)),
               static_cast<std::uint64_t>(cli.get_int("restart-seed", 42)),
               cli.has("csv"))
               ? 0
               : 1;
  }

  const std::size_t systems =
      static_cast<std::size_t>(cli.get_int("systems", 1024));
  const int num_devices = static_cast<int>(cli.get_int("devices", 2));
  const std::size_t flush =
      static_cast<std::size_t>(cli.get_int("flush", 64));
  const double flush_ms = cli.get_double("flush-ms", 2.0);
  const std::string metrics_path = cli.get("metrics", "");

  std::vector<int> client_counts;
  {
    std::stringstream ss(cli.get("clients", "1,2,4,8"));
    for (std::string tok; std::getline(ss, tok, ',');)
      client_counts.push_back(std::stoi(tok));
  }

  if (cli.has("chaos")) {
    return run_chaos_bench(
               num_devices, flush, flush_ms,
               static_cast<std::size_t>(cli.get_int("chaos-requests", 100)),
               static_cast<std::uint64_t>(cli.get_int("chaos-seed", 42)),
               cli.get_double("goodput-floor", 0.7),
               static_cast<int>(cli.get_int("overload-factor", 3)),
               metrics_path, cli.has("csv"))
               ? 0
               : 1;
  }

  if (cli.has("tenants")) {
    return run_tenants_bench(
               num_devices, flush, flush_ms,
               static_cast<std::size_t>(cli.get_int("tenant-requests", 150)),
               static_cast<std::size_t>(cli.get_int("window", 4)),
               static_cast<std::size_t>(cli.get_int("greedy-window", 40)),
               cli.get_double("isolation-factor", 2.0),
               cli.get_double("isolation-slack-ms", 5.0),
               metrics_path, cli.has("csv"))
               ? 0
               : 1;
  }

  if (cli.has("pressure")) {
    std::vector<double> fractions;
    std::stringstream ss(cli.get("budget-fractions", "1,0.5,0.25,0.1"));
    for (std::string tok; std::getline(ss, tok, ',');)
      fractions.push_back(std::stod(tok));
    const int clients = client_counts.empty() ? 4 : client_counts.back();
    // Admission defaults to 2x the pooled budget: queued bytes may
    // exceed device capacity because chunking stages each batch through
    // the budget; admission only has to bound queue growth.
    return run_pressure_sweep(systems, clients, num_devices, flush, flush_ms,
                              fractions, cli.get_double("admission", 2.0),
                              cli.get_double("deadline-ms", 0.0),
                              metrics_path, cli.has("csv"))
               ? 0
               : 1;
  }

  if (cli.has("faults")) {
    std::vector<double> rates;
    std::stringstream ss(cli.get("fault-rates", "0,0.01,0.05,0.1"));
    for (std::string tok; std::getline(ss, tok, ',');)
      rates.push_back(std::stod(tok));
    const int clients = client_counts.empty() ? 4 : client_counts.back();
    return run_faults_sweep(systems, clients, num_devices, flush, flush_ms,
                            rates, metrics_path, cli.has("csv"))
               ? 0
               : 1;
  }

  std::cout << "Solve service — coalescing gain over one-solve-per-request\n"
            << "workload: " << systems << " small systems (n in 32..128), "
            << num_devices << " device(s), flush at " << flush
            << " systems / " << flush_ms << " ms\n\n";

  TextTable table("throughput vs offered load");
  table.set_header({"clients", "mode", "batch_avg", "wait_p95_ms",
                    "device_ms", "ksys_per_dev_s", "wall_s", "gain"});

  bool coalescing_won = true;
  RunResult last_coal;
  double last_thr = 0.0, last_gain = 0.0;
  int last_clients = 0;
  for (int clients : client_counts) {
    const auto per_req = run(systems, clients, num_devices, flush, flush_ms,
                             /*per_request=*/true, "");
    const auto coal = run(systems, clients, num_devices, flush, flush_ms,
                          /*per_request=*/false, metrics_path);
    const double thr_per_req =
        static_cast<double>(per_req.c.completed) / per_req.c.device_ms;
    const double thr_coal =
        static_cast<double>(coal.c.completed) / coal.c.device_ms;
    const double gain = thr_coal / thr_per_req;
    coalescing_won = coalescing_won && gain > 1.0 &&
                     coal.c.completed == systems &&
                     per_req.c.completed == systems;
    last_coal = coal;
    last_thr = thr_coal;
    last_gain = gain;
    last_clients = clients;
    table.add_row({TextTable::num(static_cast<long long>(clients)),
                   "per-request", TextTable::num(per_req.mean_occupancy, 2),
                   TextTable::num(per_req.wait_p95_ms, 3),
                   TextTable::num(per_req.c.device_ms, 2),
                   TextTable::num(thr_per_req, 2),
                   TextTable::num(per_req.wall_s, 2), "1.00"});
    table.add_row({TextTable::num(static_cast<long long>(clients)),
                   "coalesced", TextTable::num(coal.mean_occupancy, 2),
                   TextTable::num(coal.wait_p95_ms, 3),
                   TextTable::num(coal.c.device_ms, 2),
                   TextTable::num(thr_coal, 2),
                   TextTable::num(coal.wall_s, 2),
                   TextTable::num(gain, 2)});
  }
  table.print(std::cout);
  if (cli.has("csv")) {
    std::cout << "\n";
    table.print_csv(std::cout);
  }
  if (!metrics_path.empty())
    std::cout << "\nservice metrics (queue depth, batch occupancy, waits) "
                 "written to "
              << metrics_path << "\n";

  // --summary=FILE: the coalesced run at the highest client count as a
  // flat JSON report — the shape scripts/bench_diff.py appends to the
  // committed bench/history/ trend files.
  if (const std::string summary_path = cli.get("summary", "");
      !summary_path.empty()) {
    std::ofstream out(summary_path);
    out << "{\n"
        << "  \"systems\": " << systems << ",\n"
        << "  \"clients\": " << last_clients << ",\n"
        << "  \"devices\": " << num_devices << ",\n"
        << "  \"ksys_per_dev_s\": " << last_thr << ",\n"
        << "  \"coalescing_gain\": " << last_gain << ",\n"
        << "  \"mean_occupancy\": " << last_coal.mean_occupancy << ",\n"
        << "  \"wait_p95_ms\": " << last_coal.wait_p95_ms << ",\n"
        << "  \"wall_s\": " << last_coal.wall_s << ",\n"
        << "  \"completed\": " << last_coal.c.completed << "\n"
        << "}\n";
    std::cout << "summary JSON written to " << summary_path << "\n";
  }

  std::cout << "\ncoalescing beats one-solve-per-request: "
            << (coalescing_won ? "yes  [OK]" : "NO  [FAIL]") << "\n";
  return coalescing_won ? 0 : 1;
}
