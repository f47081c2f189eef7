// Front-door demo: the solve service behind the wire protocol. A
// FrontDoor listens on a unix socket, several tenants (each with its own
// token, weight, and quotas) hammer it with net::Client connections, and
// every solution is verified against its system. The summary shows
// per-tenant admission accounting and the front door's counters.
//
//   ./net_demo [--tenants=2] [--clients-per-tenant=2] [--requests=16]
//              [--n=512] [--flush=16] [--rate=0] [--max-inflight=0]
//
// Exits nonzero on any wrong solution or transport failure.
//
// With --serve the demo becomes a standing server instead: it prints
// the listen address and tenant tokens, then runs until stdin closes
// (or --serve-seconds elapse). Point `tridiag_cli --connect` at it:
//
//   ./net_demo --serve --listen=unix:/tmp/door.sock &
//   ./tridiag_cli --connect=unix:/tmp/door.sock --token=token-0

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "gpusim/device.hpp"
#include "net/client.hpp"
#include "net/front_door.hpp"
#include "service/solve_service.hpp"

using namespace tda;

namespace {

struct System {
  std::vector<double> a, b, c, d;
};

System random_system(std::size_t n, Rng& rng) {
  System s;
  s.a.resize(n);
  s.b.resize(n);
  s.c.resize(n);
  s.d.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.a[i] = (i == 0) ? 0.0 : rng.uniform(-1, 1);
    s.c[i] = (i == n - 1) ? 0.0 : rng.uniform(-1, 1);
    s.b[i] = (std::abs(s.a[i]) + std::abs(s.c[i])) * 2.0 + 0.5;
    s.d[i] = rng.uniform(-1, 1);
  }
  return s;
}

double residual(const System& s, const std::vector<double>& x) {
  double worst = 0.0;
  const std::size_t n = s.b.size();
  for (std::size_t i = 0; i < n; ++i) {
    double acc = s.b[i] * x[i] - s.d[i];
    if (i > 0) acc += s.a[i] * x[i - 1];
    if (i + 1 < n) acc += s.c[i] * x[i + 1];
    worst = std::max(worst, std::abs(acc));
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const int tenants = static_cast<int>(cli.get_int("tenants", 2));
  const int per_tenant = static_cast<int>(cli.get_int("clients-per-tenant", 2));
  const int requests = static_cast<int>(cli.get_int("requests", 16));
  const std::size_t n = static_cast<std::size_t>(cli.get_int("n", 512));
  const double rate = cli.get_double("rate", 0.0);
  const std::size_t max_inflight =
      static_cast<std::size_t>(cli.get_int("max-inflight", 0));

  service::ServiceConfig cfg;
  cfg.flush_systems = static_cast<std::size_t>(cli.get_int("flush", 16));
  cfg.flush_interval_ms = 1.0;
  std::vector<gpusim::DeviceSpec> devices{gpusim::device_registry().back()};
  service::SolveService<double> svc(devices, cfg);

  std::string sock =
      "/tmp/tda_net_demo_" + std::to_string(::getpid()) + ".sock";
  net::FrontDoorConfig fcfg;
  const std::string listen = cli.get("listen", "");
  if (listen.empty()) {
    fcfg.unix_path = sock;
  } else if (listen.rfind("unix:", 0) == 0) {
    sock = listen.substr(5);
    fcfg.unix_path = sock;
  } else {
    fcfg.tcp = listen;
  }
  net::FrontDoor<double> door(svc, fcfg);
  for (int t = 0; t < tenants; ++t) {
    net::TenantConfig tc;
    tc.name = "tenant-" + std::to_string(t);
    tc.token = "token-" + std::to_string(t);
    tc.weight = 1.0 + t;  // deliberately unequal shares
    tc.requests_per_sec = rate;
    tc.max_inflight = max_inflight;
    door.add_tenant(tc);
  }
  std::string err;
  if (!door.start(&err)) {
    std::cerr << "front door failed to start: " << err << "\n";
    return 1;
  }
  const std::string where =
      fcfg.unix_path.empty()
          ? "127.0.0.1:" + std::to_string(door.tcp_port())
          : "unix:" + sock;

  if (cli.has("serve")) {
    // Standing-server mode for tridiag_cli --connect and CI: print the
    // address and tokens, then run until stdin closes or the clock
    // runs out.
    std::cout << "serving on " << where << "\n";
    for (int t = 0; t < tenants; ++t) {
      std::cout << "  tenant-" << t << " token: token-" << t << "\n";
    }
    std::cout.flush();
    const double secs = cli.get_double("serve-seconds", 0.0);
    if (secs > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(secs));
    } else {
      std::string line;
      while (std::getline(std::cin, line)) {
      }
    }
    door.shutdown();
    svc.shutdown();
    const auto sc = door.counters();
    std::cout << "served " << sc.responses_sent << " responses over "
              << sc.connections << " connection(s)\n";
    return 0;
  }

  std::cout << "front door on " << where << " with " << tenants
            << " tenant(s), " << per_tenant << " client(s) each\n";

  std::atomic<int> solved{0}, rejected{0}, failed{0};
  std::atomic<double> worst{0.0};
  std::vector<std::thread> threads;
  for (int t = 0; t < tenants; ++t) {
    for (int c = 0; c < per_tenant; ++c) {
      threads.emplace_back([&, t, c] {
        Rng rng(17 + static_cast<std::uint64_t>(t * 131 + c));
        net::Client client;
        std::string cerr_msg;
        if (!client.connect(where, "token-" + std::to_string(t),
                            &cerr_msg)) {
          std::cerr << "connect failed: " << cerr_msg << "\n";
          failed.fetch_add(requests);
          return;
        }
        for (int i = 0; i < requests; ++i) {
          const auto sys = random_system(n, rng);
          const auto r = client.solve<double>(sys.a, sys.b, sys.c, sys.d);
          if (r.code == net::ErrorCode::None) {
            const double res = residual(sys, r.x);
            double prev = worst.load();
            while (res > prev && !worst.compare_exchange_weak(prev, res)) {
            }
            if (res > 1e-8) {
              failed.fetch_add(1);
            } else {
              solved.fetch_add(1);
            }
          } else if (r.code == net::ErrorCode::QuotaRate ||
                     r.code == net::ErrorCode::QuotaInflight ||
                     r.code == net::ErrorCode::QuotaBytes) {
            rejected.fetch_add(1);  // quotas working as configured
          } else {
            std::cerr << "solve failed: " << net::to_string(r.code) << " "
                      << r.error << "\n";
            failed.fetch_add(1);
          }
        }
        client.close();
      });
    }
  }
  for (auto& th : threads) th.join();
  door.shutdown();
  svc.shutdown();

  std::cout << "\nper-tenant accounting:\n";
  for (const auto& u : door.tenants().usage()) {
    std::cout << "  " << u.name << ": admitted " << u.admitted
              << ", rejected " << u.rejected << "\n";
  }
  const auto c = door.counters();
  std::cout << "front door: " << c.connections << " conns, " << c.frames_rx
            << " frames in / " << c.frames_tx << " out, "
            << c.requests_admitted << " admitted, " << c.requests_rejected
            << " rejected, " << c.bad_frames << " bad frames\n";
  std::cout << "service batches: " << svc.counters().flushes
            << " flushes over " << svc.counters().coalesced_systems
            << " systems\n";

  const int total = tenants * per_tenant * requests;
  const bool ok =
      failed.load() == 0 && solved.load() > 0 &&
      solved.load() + rejected.load() == total;
  std::cout << "max residual: " << worst.load()
            << (ok ? "  [OK]" : "  [FAIL]") << "\n";
  return ok ? 0 : 1;
}
