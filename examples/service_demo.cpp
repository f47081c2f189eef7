// Solve service demo: many concurrent clients funnel small tridiagonal
// systems through one shape-bucketing service spanning multiple
// simulated devices, sharing a single warm tuning cache.
//
//   ./service_demo [--clients=4] [--requests=64] [--devices=2]
//                  [--flush=16] [--flush-ms=1] [--capacity=512]
//                  [--policy=block|reject|shed] [--deadline-ms=0]
//                  [--cache=service_cache.txt]
//
// Each client thread submits `requests` random systems with shapes drawn
// from a small pool, then verifies every solution. The summary shows how
// much coalescing the supervisor achieved and where requests ended up.

#include <atomic>
#include <cmath>
#include <iostream>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "gpusim/device.hpp"
#include "service/solve_service.hpp"

using namespace tda;
using namespace tda::service;

namespace {

SolveRequest<double> random_request(std::size_t n, Rng& rng,
                                    double deadline_ms) {
  SolveRequest<double> req;
  req.a.resize(n);
  req.b.resize(n);
  req.c.resize(n);
  req.d.resize(n);
  req.deadline_ms = deadline_ms;
  for (std::size_t i = 0; i < n; ++i) {
    req.a[i] = (i == 0) ? 0.0 : rng.uniform(-1, 1);
    req.c[i] = (i == n - 1) ? 0.0 : rng.uniform(-1, 1);
    req.b[i] = (std::abs(req.a[i]) + std::abs(req.c[i])) * 2.0 + 0.5;
    req.d[i] = rng.uniform(-1, 1);
  }
  return req;
}

double request_residual(const SolveRequest<double>& req,
                        const std::vector<double>& x) {
  double worst = 0.0;
  const std::size_t n = req.size();
  for (std::size_t i = 0; i < n; ++i) {
    double acc = req.b[i] * x[i] - req.d[i];
    if (i > 0) acc += req.a[i] * x[i - 1];
    if (i + 1 < n) acc += req.c[i] * x[i + 1];
    worst = std::max(worst, std::abs(acc));
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const int clients = static_cast<int>(cli.get_int("clients", 4));
  const int requests = static_cast<int>(cli.get_int("requests", 64));
  const int num_devices = static_cast<int>(cli.get_int("devices", 2));

  ServiceConfig cfg;
  cfg.flush_systems = static_cast<std::size_t>(cli.get_int("flush", 16));
  cfg.flush_interval_ms = cli.get_double("flush-ms", 1.0);
  cfg.queue_capacity =
      static_cast<std::size_t>(cli.get_int("capacity", 512));
  cfg.default_deadline_ms = cli.get_double("deadline-ms", 0.0);
  cfg.cache_path = cli.get("cache", "");
  const std::string policy = cli.get("policy", "block");
  cfg.backpressure = policy == "reject"
                         ? BackpressurePolicy::Reject
                         : (policy == "shed" ? BackpressurePolicy::ShedOldest
                                             : BackpressurePolicy::Block);

  std::vector<gpusim::DeviceSpec> devices;
  const auto registry = gpusim::device_registry();
  for (int i = 0; i < num_devices; ++i)
    devices.push_back(registry[registry.size() - 1 - i % registry.size()]);

  std::cout << "service: " << devices.size() << " device(s), flush at "
            << cfg.flush_systems << " systems or " << cfg.flush_interval_ms
            << " ms, queue capacity " << cfg.queue_capacity << " ("
            << to_string(cfg.backpressure) << ")\n";
  for (const auto& d : devices) std::cout << "  worker: " << d.name << "\n";

  SolveService<double> svc(devices, cfg);
  svc.telemetry().metrics.enable();

  const std::size_t shapes[] = {33, 64, 128, 200, 256};
  std::atomic<int> solved{0}, not_solved{0}, residual_fail{0};
  std::atomic<double> worst_residual{0.0};

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(9000 + static_cast<std::uint64_t>(t));
      std::vector<SolveRequest<double>> copies;
      std::vector<std::future<SolveResponse<double>>> futures;
      for (int i = 0; i < requests; ++i) {
        const std::size_t n = shapes[(t + i) % 5];
        auto req = random_request(n, rng, cfg.default_deadline_ms);
        copies.push_back(req);
        futures.push_back(svc.submit(std::move(req)));
      }
      for (int i = 0; i < requests; ++i) {
        auto resp = futures[static_cast<std::size_t>(i)].get();
        if (resp.status != SolveStatus::Ok) {
          not_solved.fetch_add(1);
          continue;
        }
        solved.fetch_add(1);
        const double r =
            request_residual(copies[static_cast<std::size_t>(i)], resp.x);
        double prev = worst_residual.load();
        while (r > prev && !worst_residual.compare_exchange_weak(prev, r)) {
        }
        if (r > 1e-8) residual_fail.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  svc.shutdown();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const auto c = svc.counters();
  const auto& mx = svc.telemetry().metrics;
  std::cout << "\nsubmitted " << c.submitted << " requests from " << clients
            << " clients in " << wall_s << " s ("
            << static_cast<double>(c.submitted) / wall_s << " req/s)\n";
  std::cout << "  solved: " << c.completed << ", timed out: " << c.timed_out
            << ", rejected: " << c.rejected << ", shed: " << c.shed << "\n";
  std::cout << "  flushes: " << c.flushes << ", mean batch occupancy: "
            << (c.flushes > 0 ? static_cast<double>(c.coalesced_systems) /
                                    static_cast<double>(c.flushes)
                              : 0.0)
            << " systems (max " << c.max_batch_systems << ")\n";
  std::cout << "  tuning runs: " << c.tunes << " (cache now holds "
            << svc.cache().size() << " shapes)\n";
  std::cout << "  simulated device time: " << c.device_ms << " ms\n";
  const auto wait = mx.histogram("service.wait_ms");
  const auto depth = mx.histogram("service.queue_depth");
  std::cout << "  wait ms p50/p95: " << wait.quantile(0.50) << " / "
            << wait.quantile(0.95)
            << ", queue depth p95: " << depth.quantile(0.95) << "\n";

  const bool ok = residual_fail.load() == 0 && solved.load() > 0 &&
                  solved.load() + not_solved.load() == clients * requests;
  std::cout << "max residual: " << worst_residual.load()
            << (ok ? "  [OK]" : "  [FAIL]") << "\n";
  return ok ? 0 : 1;
}
