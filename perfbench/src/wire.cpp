// wire_mixed: a closed loop over a unix socket into an in-process
// net::FrontDoor<double> in front of service::SolveService<double> with
// one GTX 470 worker. Two tenants, one connection each from its own
// client thread, each keeping 8 requests in flight; every request is one
// system and sizes cycle through {32, 48, 64, 96, 128}. The kernel work
// is tiny, so frame decode, admission, DRR, the coalescer's flush wait,
// guards and encode dominate. The service tunes per coalesced (m, n),
// so fresh tunes keep landing after warm-up: the tuning layer runs in
// miss mode here.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "common/alloc_stats.hpp"
#include "common/buffer_pool.hpp"
#include "common/rng.hpp"
#include "cpu/gtsv.hpp"
#include "gpusim/device.hpp"
#include "gpusim/launch.hpp"
#include "net/client.hpp"
#include "net/front_door.hpp"
#include "service/solve_service.hpp"
#include "tridiag/verify.hpp"
#include "tuning/cache.hpp"
#include "tuning/dynamic_tuner.hpp"

namespace perfbench {
namespace {

using T = double;

constexpr std::size_t kSizes[] = {32, 48, 64, 96, 128};
constexpr std::size_t kNumSizes = std::size(kSizes);
constexpr int kClients = 2;
constexpr std::size_t kWindow = 8;
/// Distinct systems per size per client; requests cycle through them.
constexpr std::size_t kPerSize = 64;
constexpr std::size_t kWarmupRequests = 1000;  ///< per client
constexpr int kSetupReps = 5;
constexpr double kResidualTol = 1e-10;
constexpr double kForwardTol = 1e-10;
/// Every kReferenceEvery-th ack is also compared against gtsv.
constexpr std::uint64_t kReferenceEvery = 61;

struct System {
  std::vector<T> a, b, c, d;
};

/// One client's inputs: kPerSize diagonally dominant systems per size,
/// laid out size-major.
std::vector<System> make_inputs(std::uint64_t seed, int client) {
  tda::Rng rng(seed * 0x9e3779b97f4a7c15ULL + static_cast<unsigned>(client));
  std::vector<System> out;
  for (std::size_t n : kSizes) {
    for (std::size_t j = 0; j < kPerSize; ++j) {
      System s;
      s.a.resize(n);
      s.b.resize(n);
      s.c.resize(n);
      s.d.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        s.a[i] = i == 0 ? 0.0 : rng.uniform(-1.0, 1.0);
        s.c[i] = i + 1 == n ? 0.0 : rng.uniform(-1.0, 1.0);
        s.b[i] = rng.sign() *
                 (2.0 * (std::abs(s.a[i]) + std::abs(s.c[i])) +
                  rng.uniform(0.1, 1.0));
        s.d[i] = rng.uniform(-1.0, 1.0);
      }
      out.push_back(std::move(s));
    }
  }
  return out;
}

/// Request k of a client: sizes cycle with k, systems advance per cycle.
const System& request_system(const std::vector<System>& in, std::uint64_t k) {
  return in[(k % kNumSizes) * kPerSize + (k / kNumSizes) % kPerSize];
}

bool reference_matches(const System& s, const std::vector<T>& x) {
  return matches_gtsv<T>(s.a, s.b, s.c, s.d, x, kForwardTol);
}

/// A correct ack: Ok, the right length, finite, small residual.
bool verified(const System& s, const tda::net::WireResult<T>& res) {
  const std::size_t n = s.b.size();
  if (!res.ok() || res.x.size() != n) return false;
  if (!std::all_of(res.x.begin(), res.x.end(),
                   [](T v) { return std::isfinite(v); }))
    return false;
  const auto view = [n](const std::vector<T>& v) {
    return tda::StridedView<const T>(v.data(), n, 1);
  };
  const tda::tridiag::SystemView<const T> sys{view(s.a), view(s.b),
                                              view(s.c), view(s.d)};
  return tda::tridiag::residual_inf(sys, view(res.x)) <= kResidualTol;
}

/// One verified request. Floats keep the sample buffers, which are part
/// of the process's rss_mb, small next to the service they measure.
struct Sample {
  float rtt_ms;
  float send_us;
  float wait_ms;
};

struct ClientRun {
  std::vector<Sample> samples;
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;
  std::uint64_t equations = 0;  ///< verified
  SpanLog log;
};

/// Closed loop on one connection: up to kWindow requests in flight,
/// the next sent only after an ack arrives. Runs until `deadline` (or,
/// with count > 0, for `count` requests), always ending on a whole size
/// cycle so every phase sends each size equally often.
ClientRun run_client(tda::net::Client& client, const std::vector<System>& in,
                     std::uint64_t count, Clock::time_point deadline,
                     bool trace, int tid, Clock::time_point origin) {
  struct InFlight {
    const System* sys;
    Clock::time_point sent;
    double send_us;
  };
  ClientRun run;
  run.log = SpanLog(tid, origin);
  std::map<std::uint64_t, InFlight> outstanding;
  std::uint64_t k = 0;
  std::string err;
  const auto more = [&] {
    if (k % kNumSizes != 0) return true;
    return count > 0 ? k < count : Clock::now() < deadline;
  };
  for (;;) {
    while (outstanding.size() < kWindow && more()) {
      const System& sys = request_system(in, k);
      const std::uint64_t id = ++k;
      const auto t0 = Clock::now();
      const bool ok =
          client.send_solve<T>(id, sys.a, sys.b, sys.c, sys.d, 0.0, &err);
      const auto t1 = Clock::now();
      ++run.sent;
      if (!ok) {
        std::fprintf(stderr, "send failed: %s\n", err.c_str());
        run.failed += outstanding.size() + 1;
        return run;
      }
      outstanding.emplace(id, InFlight{&sys, t0, ms_between(t0, t1) * 1e3});
    }
    if (outstanding.empty()) return run;
    tda::net::WireResult<T> res;
    if (!client.recv_result<T>(res, &err)) {
      std::fprintf(stderr, "receive failed: %s\n", err.c_str());
      run.failed += outstanding.size();
      return run;
    }
    const auto t2 = Clock::now();
    const auto it = outstanding.find(res.request_id);
    if (it == outstanding.end()) {
      ++run.failed;  // an ack for nothing we sent
      continue;
    }
    const InFlight f = it->second;
    outstanding.erase(it);
    const bool good =
        verified(*f.sys, res) && (res.request_id % kReferenceEvery != 0 ||
                                  reference_matches(*f.sys, res.x));
    if (!good) {
      ++run.failed;
      if (!res.ok())
        std::fprintf(stderr, "request refused: %s\n", res.error.c_str());
      continue;
    }
    run.samples.push_back({static_cast<float>(ms_between(f.sent, t2)),
                           static_cast<float>(f.send_us),
                           static_cast<float>(res.wait_ms)});
    run.equations += f.sys->b.size();
    if (trace) {
      const std::uint64_t tr =
          (static_cast<std::uint64_t>(tid) << 32) | res.request_id;
      const auto send_end =
          f.sent + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::micro>(f.send_us));
      const auto root =
          run.log.add("request", 0, tr, f.sent, t2);
      run.log.add("net.send", root, tr, f.sent, send_end);
      run.log.add("await_ack", root, tr, send_end, t2);
    }
  }
}

/// Everything one wire set-up builds. Members are destroyed in reverse
/// order: clients, then the door, then the service the door refers to.
struct Stack {
  std::unique_ptr<tda::service::SolveService<T>> svc;
  std::unique_ptr<tda::net::FrontDoor<T>> door;
  std::unique_ptr<tda::net::Client> clients[kClients];

  void tear_down() {
    for (auto& c : clients) c.reset();
    door.reset();
    svc.reset();
  }
};

/// Service and door start, both clients connect and authenticate, and
/// one verified round trip per size. Returns the failures it saw.
std::uint64_t set_up(Stack& s, const std::string& sock,
                     const std::vector<System>& in) {
  tda::service::ServiceConfig cfg;
  cfg.engine_threads = kLanes;
  s.svc = std::make_unique<tda::service::SolveService<T>>(
      std::vector<tda::gpusim::DeviceSpec>{tda::gpusim::geforce_gtx_470()},
      cfg);
  tda::net::FrontDoorConfig fcfg;
  fcfg.unix_path = sock;
  s.door = std::make_unique<tda::net::FrontDoor<T>>(*s.svc, fcfg);
  for (int c = 0; c < kClients; ++c) {
    tda::net::TenantConfig tc;
    tc.name = "tenant-" + std::to_string(c);
    tc.token = "token-" + std::to_string(c);
    s.door->add_tenant(tc);
  }
  std::string err;
  if (!s.door->start(&err))
    throw std::runtime_error("front door failed to start: " + err);
  for (int c = 0; c < kClients; ++c) {
    s.clients[c] = std::make_unique<tda::net::Client>();
    if (!s.clients[c]->connect("unix:" + sock, "token-" + std::to_string(c),
                              &err))
      throw std::runtime_error("client connect failed: " + err);
  }
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < kNumSizes; ++i) {
    const System& sys = request_system(in, i);
    const auto res = s.clients[0]->solve<T>(sys.a, sys.b, sys.c, sys.d);
    failed += verified(sys, res) && reference_matches(sys, res.x) ? 0 : 1;
  }
  return failed;
}

struct Phase {
  std::vector<ClientRun> runs;
  std::uint64_t sent = 0, failed = 0, equations = 0;
  double wall_s = 0.0;

  /// One value per verified request, across both clients.
  [[nodiscard]] std::vector<double> column(double (*get)(const Sample&)) const {
    std::vector<double> out;
    for (const auto& r : runs)
      for (const auto& s : r.samples) out.push_back(get(s));
    return out;
  }
};

Phase run_phase(Stack& s, const std::vector<std::vector<System>>& inputs,
                std::uint64_t count, double seconds, bool trace) {
  const auto origin = Clock::now();
  const auto deadline =
      origin + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(seconds));
  std::vector<ClientRun> runs(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      runs[c] = run_client(*s.clients[c], inputs[c], count, deadline, trace,
                           c + 1, origin);
    });
  }
  for (auto& t : threads) t.join();
  Phase p;
  p.wall_s = ms_between(origin, Clock::now()) / 1e3;
  for (const auto& r : runs) {
    p.sent += r.sent;
    p.failed += r.failed;
    p.equations += r.equations;
  }
  p.runs = std::move(runs);
  return p;
}

/// Single-threaded pivoting gtsv over one client's inputs: the plain CPU
/// baseline, and a control no service change should move.
double gtsv_equations_per_s(const std::vector<System>& in) {
  return median_rate([&] {
    std::size_t eq = 0;
    for (const System& s : in) {
      std::vector<T> a = s.a, b = s.b, c = s.c, d = s.d, x(s.b.size());
      if (!tda::cpu::gtsv_solve<T>(a, b, c, d, x))
        throw std::runtime_error("gtsv baseline hit a singular system");
      eq += x.size();
    }
    return static_cast<double>(eq);
  });
}

}  // namespace

Report run_wire(const Options& opt) {
  std::vector<std::vector<System>> inputs;
  for (int c = 0; c < kClients; ++c)
    inputs.push_back(make_inputs(opt.seed, c));
  const std::string sock_base =
      opt.out_dir + "/wire_" + std::to_string(::getpid()) + "_";
  Report r;

  std::vector<double> setup_s;
  Stack stack;
  const int reps = opt.trace ? 1 : kSetupReps;
  for (int rep = 0; rep < reps; ++rep) {
    stack.tear_down();
    tda::BufferPool::global().trim();
    const auto t0 = Clock::now();
    r.failed += set_up(stack, sock_base + std::to_string(rep) + ".sock",
                       inputs[0]);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
    r.attempted += kNumSizes;
  }
  std::printf("setup_s per rep:");
  for (double s : setup_s) std::printf(" %.4f", s);
  std::printf("\n");

  const Phase warm = run_phase(stack, inputs, kWarmupRequests, 0.0, false);
  r.attempted += warm.sent;
  r.failed += warm.failed;

  const auto svc0 = stack.svc->counters();
  const Phase timed = run_phase(stack, inputs, 0,
                                opt.trace ? opt.seconds / 2 : opt.seconds,
                                false);
  const auto svc1 = stack.svc->counters();
  r.attempted += timed.sent;
  r.failed += timed.failed;
  const auto rtt =
      timed.column([](const Sample& s) { return double{s.rtt_ms}; });
  std::printf("timed requests: %zu\n", rtt.size());

  if (!opt.trace) {
    r.set("setup_s", median(setup_s));
    r.set("equations_per_s",
          static_cast<double>(timed.equations) / timed.wall_s);
    r.set("latency_p50_ms", percentile(rtt, 0.5));
    r.set("latency_p90_ms", percentile(rtt, 0.9));
    r.set("sim_ms_per_meq", (svc1.device_ms - svc0.device_ms) /
                                (static_cast<double>(timed.equations) / 1e6));
    r.set("rss_mb", peak_rss_mib());
    r.set("verified_ratio",
          1.0 - static_cast<double>(r.failed) /
                    static_cast<double>(r.attempted));
    return r;
  }

  // Traced half: the same loop with spans, plus the counters the service
  // and door already keep, as deltas over the traced window.
  const auto door0 = stack.door->counters();
  const auto sv0 = stack.svc->counters();
  const auto allocs0 = tda::host_alloc_count();
  const auto pool0 = tda::BufferPool::global().stats();
  const Phase traced = run_phase(stack, inputs, 0, opt.seconds / 2, true);
  const auto pool1 = tda::BufferPool::global().stats();
  const auto allocs1 = tda::host_alloc_count();
  const auto sv1 = stack.svc->counters();
  const auto door1 = stack.door->counters();
  r.attempted += traced.sent;
  r.failed += traced.failed;

  const auto trtt =
      traced.column([](const Sample& s) { return double{s.rtt_ms}; });
  const auto send_ms =
      traced.column([](const Sample& s) { return s.send_us / 1e3; });
  const auto wait =
      traced.column([](const Sample& s) { return double{s.wait_ms}; });
  const auto rest = traced.column(
      [](const Sample& s) { return double{s.rtt_ms} - s.wait_ms; });
  const double p50 = median(trtt);
  r.layers = {{"net.send", median(send_ms)},
              {"service.wait", median(wait)}};
  r.latency_p50_ms = p50;

  std::vector<double> cold_ms;
  std::size_t evaluations = 0;
  {
    tda::gpusim::Device dev(tda::gpusim::geforce_gtx_470());
    for (std::size_t n : kSizes) {
      tda::tuning::TuningCache fresh;
      const auto t0 = Clock::now();
      const auto tuned =
          tda::tuning::DynamicTuner<T>(dev, &fresh).tune({1, n});
      cold_ms.push_back(ms_between(t0, Clock::now()));
      evaluations += tuned.evaluations;
    }
  }
  const double flushes = static_cast<double>(sv1.flushes - sv0.flushes);
  const double responses =
      static_cast<double>(door1.responses_sent - door0.responses_sent);
  const double acquires =
      static_cast<double>(pool1.acquires - pool0.acquires);

  r.set("tuning.cold_tune_ms", median(cold_ms));
  r.set("tuning.evaluations", static_cast<double>(evaluations));
  r.set("tuning.misses", static_cast<double>(sv1.tunes - sv0.tunes));
  r.set("common.host_allocs_per_solve",
        flushes > 0 ? static_cast<double>(allocs1 - allocs0) / flushes : 0.0);
  r.set("common.pool_hit_ratio",
        acquires > 0 ? static_cast<double>(pool1.hits - pool0.hits) / acquires
                     : 0.0);
  r.set("service.wait_p50_ms", median(wait));
  r.set("service.batch_occupancy",
        flushes > 0 ? static_cast<double>(sv1.coalesced_systems -
                                          sv0.coalesced_systems) /
                          flushes
                    : 0.0);
  r.set("service.recoveries",
        static_cast<double>((sv1.fallbacks - sv0.fallbacks) +
                            (sv1.retries - sv0.retries) +
                            (sv1.failovers - sv0.failovers)));
  r.set("net.send_us", median(send_ms) * 1e3);
  r.set("net.bytes_per_request",
        responses > 0 ? static_cast<double>((door1.bytes_rx - door0.bytes_rx) +
                                            (door1.bytes_tx - door0.bytes_tx)) /
                            responses
                      : 0.0);
  r.set("net.rejects",
        static_cast<double>((door1.requests_rejected -
                             door0.requests_rejected) +
                            (door1.shed_codel - door0.shed_codel)));
  r.set("net.aimd_throttles",
        static_cast<double>(door1.aimd_throttles - door0.aimd_throttles));
  r.set("net.rtt_minus_wait_p50_ms", median(rest));
  r.set("cpu.gtsv_equations_per_s", gtsv_equations_per_s(inputs[0]));
  const double plain_p50 = percentile(rtt, 0.5);
  r.set("trace.overhead_frac", (p50 - plain_p50) / plain_p50);
  r.set("trace.latency_p50_ms", p50);
  r.set("trace.unaccounted_ms", p50 - median(send_ms) - median(wait));

  for (const auto& run : traced.runs)
    r.spans.insert(r.spans.end(), run.log.spans().begin(),
                   run.log.spans().end());
  return r;
}

}  // namespace perfbench
