// Tests for graceful degradation under resource exhaustion: device
// memory accounting (gpusim/memory.hpp), the `oom` fault site, adaptive
// batch splitting (solver/pipeline.hpp), memory-aware admission and the
// in-flight watchdog of the solve service. Every test pins its own
// budgets and fault config so an ambient TDA_MEM_BUDGET / TDA_FAULTS
// (the CI memory-pressure job sets both) cannot change the outcome.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <future>
#include <vector>

#include "common/rng.hpp"
#include "faults/faults.hpp"
#include "gpusim/device.hpp"
#include "gpusim/launch.hpp"
#include "gpusim/memory.hpp"
#include "kernels/device_batch.hpp"
#include "service/solve_service.hpp"
#include "solver/pipeline.hpp"
#include "solver/ragged.hpp"
#include "tuning/tuners.hpp"

namespace {

using namespace tda;
using namespace tda::service;

// ---------- memory accounting ----------

TEST(MemParse, SuffixesAndMalformed) {
  EXPECT_EQ(gpusim::parse_mem_bytes("4096"), 4096u);
  EXPECT_EQ(gpusim::parse_mem_bytes("256k"), 256u * 1024);
  EXPECT_EQ(gpusim::parse_mem_bytes("2M"), 2u * 1024 * 1024);
  EXPECT_EQ(gpusim::parse_mem_bytes("1g"), 1024u * 1024 * 1024);
  EXPECT_EQ(gpusim::parse_mem_bytes("1.5k"), 1536u);
  EXPECT_EQ(gpusim::parse_mem_bytes(""), 0u);
  EXPECT_EQ(gpusim::parse_mem_bytes("nope"), 0u);
  EXPECT_EQ(gpusim::parse_mem_bytes("12q"), 0u);
  EXPECT_EQ(gpusim::parse_mem_bytes("-5"), 0u);
}

TEST(MemoryTracker, AllocateReleaseHighWater) {
  gpusim::MemoryTracker mt(1000);
  mt.allocate(600, "a");
  EXPECT_EQ(mt.in_use(), 600u);
  EXPECT_EQ(mt.available(), 400u);
  EXPECT_THROW(mt.allocate(500, "b"), gpusim::OutOfMemory);
  EXPECT_EQ(mt.oom_count(), 1u);
  EXPECT_EQ(mt.in_use(), 600u);  // failed claim left no residue
  mt.allocate(400, "c");
  EXPECT_EQ(mt.high_water(), 1000u);
  mt.release(600);
  EXPECT_EQ(mt.in_use(), 400u);
  EXPECT_EQ(mt.high_water(), 1000u);  // high water survives release
  mt.release(10'000);                 // clamped, no underflow
  EXPECT_EQ(mt.in_use(), 0u);
  // Budget 0 = unlimited.
  gpusim::MemoryTracker unlimited(0);
  unlimited.allocate(1u << 30, "huge");
  EXPECT_GT(unlimited.available(), 1u << 30);
}

TEST(MemoryTracker, ReservationRaii) {
  gpusim::MemoryTracker mt(100);
  {
    gpusim::MemoryReservation r(&mt, 60);
    mt.allocate(60, "r");  // the reservation above owns these bytes
    EXPECT_EQ(mt.in_use(), 60u);
    gpusim::MemoryReservation moved(std::move(r));
    EXPECT_FALSE(r.tracked());  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(moved.tracked());
  }
  EXPECT_EQ(mt.in_use(), 0u);  // released exactly once, on destruction
}

TEST(MemoryTracker, EnvOverride) {
  ::setenv("TDA_MEM_BUDGET", "128k", 1);
  EXPECT_EQ(gpusim::mem_budget_from_env(1u << 30), 128u * 1024);
  ::setenv("TDA_MEM_BUDGET", "garbage", 1);
  EXPECT_EQ(gpusim::mem_budget_from_env(555), 555u);  // warn + default
  ::unsetenv("TDA_MEM_BUDGET");
  EXPECT_EQ(gpusim::mem_budget_from_env(777), 777u);
}

TEST(DeviceMemory, TrackedBatchCountsAgainstBudget) {
  gpusim::Device dev(gpusim::geforce_gtx_470());
  const std::size_t fp = kernels::DeviceBatch<double>::footprint_bytes(4, 64);
  EXPECT_EQ(fp, 9u * 4 * 64 * sizeof(double));
  dev.set_mem_budget(fp);
  {
    kernels::DeviceBatch<double> b(dev, 4, 64);
    EXPECT_EQ(dev.memory().in_use(), fp);
    EXPECT_THROW((kernels::DeviceBatch<double>(dev, 1, 64)),
                 gpusim::OutOfMemory);
  }
  EXPECT_EQ(dev.memory().in_use(), 0u);
  EXPECT_EQ(dev.memory().high_water(), fp);
  // Untracked (tuning) batches stay exempt from the budget.
  kernels::DeviceBatch<double> cost_only(4, 64);
  EXPECT_EQ(dev.memory().in_use(), 0u);
}

// ---------- the `oom` fault site ----------

TEST(OomInjection, ArmedDeviceThrowsTypedOom) {
  faults::FaultConfig cfg;
  cfg.rate_of(faults::Site::DeviceOOM) = 1.0;
  faults::ScopedFaultConfig scoped(cfg);
  auto& inj = faults::FaultInjector::global();

  gpusim::Device dev(gpusim::geforce_gtx_470());
  dev.set_mem_budget(1u << 30);

  // Unarmed: the site never draws a decision.
  auto r = dev.mem_reserve(1024, "unarmed");
  EXPECT_EQ(inj.decisions(faults::Site::DeviceOOM), 0u);
  r.reset();

  dev.arm_faults();
  try {
    auto r2 = dev.mem_reserve(1024, "armed");
    FAIL() << "expected injected OutOfMemory";
  } catch (const gpusim::OutOfMemory&) {
    // Injected OOM is NOT the retryable DeviceFault class and leaves
    // the tracker untouched (the budget-exceeded path has its own
    // counter).
  }
  EXPECT_EQ(inj.decisions(faults::Site::DeviceOOM), 1u);
  EXPECT_EQ(inj.injected(faults::Site::DeviceOOM), 1u);
  EXPECT_EQ(dev.memory().in_use(), 0u);
  EXPECT_EQ(dev.memory().oom_count(), 0u);  // injected, not budget
}

TEST(OomInjection, SpecRoundTripsOomKey) {
  const auto cfg = faults::parse_fault_config("seed=9,oom=0.25");
  EXPECT_DOUBLE_EQ(cfg.rate_of(faults::Site::DeviceOOM), 0.25);
  EXPECT_NE(cfg.describe().find("oom=0.25"), std::string::npos);
}

// ---------- adaptive batch splitting (solver::Pipeline step 3) ----------

tridiag::TridiagBatch<double> random_batch(std::size_t m, std::size_t n,
                                           std::uint64_t seed) {
  tridiag::TridiagBatch<double> b(m, n);
  Rng rng(seed);
  for (std::size_t s = 0; s < m; ++s) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t k = s * n + i;
      b.a()[k] = (i == 0) ? 0.0 : rng.uniform(-1, 1);
      b.c()[k] = (i == n - 1) ? 0.0 : rng.uniform(-1, 1);
      b.b()[k] = (std::abs(b.a()[k]) + std::abs(b.c()[k])) * 2.0 + 0.5;
      b.d()[k] = rng.uniform(-1, 1);
    }
  }
  return b;
}

double batch_residual(const tridiag::TridiagBatch<double>& b) {
  double worst = 0.0;
  const std::size_t m = b.num_systems(), n = b.system_size();
  for (std::size_t s = 0; s < m; ++s) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t k = s * n + i;
      double acc = b.b()[k] * b.x()[k] - b.d()[k];
      if (i > 0) acc += b.a()[k] * b.x()[k - 1];
      if (i + 1 < n) acc += b.c()[k] * b.x()[k + 1];
      worst = std::max(worst, std::abs(acc));
    }
  }
  return worst;
}

TEST(ChunkedSolver, MatchesUnchunkedAcrossSwitchPoints) {
  faults::ScopedFaultConfig quiet{faults::FaultConfig{}};
  // Sizes spanning the stage-1/2/3/4 switch points, incl. 1-equation
  // systems.
  const std::size_t sizes[] = {1, 2, 3, 17, 64, 127, 256, 300, 512};
  const std::size_t m = 40;
  for (const std::size_t n : sizes) {
    gpusim::Device dev(gpusim::geforce_gtx_470());
    solver::Pipeline<double> pipe(
        dev, tuning::default_switch_points<double>());

    auto reference = random_batch(m, n, 1000 + n);
    auto chunked_in = reference;  // identical coefficients

    // Unchunked reference under an unlimited budget.
    dev.set_mem_budget(0);
    const auto ref = pipe.solve(reference);
    ASSERT_EQ(ref.counts().solved(), m) << "n=" << n;
    EXPECT_EQ(ref.chunks, 1u) << "n=" << n;

    // 10% of the full footprint forces ~10 chunks.
    const std::size_t full =
        kernels::DeviceBatch<double>::footprint_bytes(m, n);
    dev.set_mem_budget(std::max<std::size_t>(full / 10,
        kernels::DeviceBatch<double>::footprint_bytes(1, n)));
    const auto got = pipe.solve(chunked_in);
    ASSERT_EQ(got.counts().solved(), m) << "n=" << n;
    EXPECT_GT(got.chunks, 1u) << "n=" << n;
    EXPECT_LE(got.max_chunk_systems, got.planned_chunk_systems);

    // Chunked sub-batches may execute a different stage plan than the
    // full batch (the plan depends on m), so the contract is residual
    // accuracy, not bit-identity.
    EXPECT_LT(batch_residual(chunked_in), 1e-8) << "n=" << n;
    EXPECT_LT(batch_residual(reference), 1e-8) << "n=" << n;
  }
}

TEST(ChunkedSolver, BisectsToCpuFallbackWhenNothingFits) {
  faults::ScopedFaultConfig quiet{faults::FaultConfig{}};
  gpusim::Device dev(gpusim::geforce_gtx_470());
  solver::Pipeline<double> pipe(dev,
                                tuning::default_switch_points<double>());
  // Budget below even one system's footprint: every chunk bisects to
  // one system and degrades to the pivoting CPU path.
  dev.set_mem_budget(16);
  auto batch = random_batch(6, 32, 77);
  const auto res = pipe.solve(batch);
  EXPECT_EQ(res.counts().fallback_used, 6u);
  EXPECT_EQ(res.oom_fallback_systems, 6u);
  EXPECT_GT(res.oom_events, 0u);
  EXPECT_EQ(res.chunks, 0u);  // nothing ran on the device
  EXPECT_LT(batch_residual(batch), 1e-8);
}

TEST(ChunkedSolver, AbsorbsInjectedOomViaBisect) {
  faults::FaultConfig cfg;
  cfg.seed = 5;
  cfg.rate_of(faults::Site::DeviceOOM) = 0.4;
  faults::ScopedFaultConfig scoped(cfg);

  gpusim::Device dev(gpusim::geforce_gtx_470());
  dev.arm_faults();
  dev.set_mem_budget(0);  // only injected OOM, never genuine
  solver::Pipeline<double> pipe(dev,
                                tuning::default_switch_points<double>());
  auto batch = random_batch(24, 64, 42);
  const auto res = pipe.solve(batch);
  ASSERT_EQ(res.counts().solved(), 24u);
  EXPECT_LT(batch_residual(batch), 1e-8);
}

TEST(ChunkedSolver, EmitsChunkTelemetry) {
  faults::ScopedFaultConfig quiet{faults::FaultConfig{}};
  gpusim::Device dev(gpusim::geforce_gtx_470());
  telemetry::Telemetry tel;
  tel.tracer.enable();
  dev.set_telemetry(&tel);
  solver::Pipeline<double> pipe(dev,
                                tuning::default_switch_points<double>());
  const std::size_t m = 16, n = 64;
  dev.set_mem_budget(kernels::DeviceBatch<double>::footprint_bytes(m, n) / 4);
  auto batch = random_batch(m, n, 3);
  const auto res = pipe.solve(batch);
  EXPECT_GT(res.chunks, 1u);
  EXPECT_DOUBLE_EQ(tel.metrics.counter("solver.chunked_solves"), 1.0);
  EXPECT_DOUBLE_EQ(tel.metrics.counter("solver.chunks"),
                   static_cast<double>(res.chunks));
  EXPECT_GT(tel.metrics.gauge("device.mem_high_water"), 0.0);
}

// ---------- service: memory admission, watchdog, timeout scopes ----------

SolveRequest<double> make_request(std::size_t n, std::uint64_t seed,
                                  double deadline_ms = 0.0) {
  SolveRequest<double> req;
  req.a.resize(n);
  req.b.resize(n);
  req.c.resize(n);
  req.d.resize(n);
  req.deadline_ms = deadline_ms;
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    req.a[i] = (i == 0) ? 0.0 : rng.uniform(-1, 1);
    req.c[i] = (i == n - 1) ? 0.0 : rng.uniform(-1, 1);
    req.b[i] = (std::abs(req.a[i]) + std::abs(req.c[i])) * 2.0 + 0.5;
    req.d[i] = rng.uniform(-1, 1);
  }
  return req;
}

std::vector<gpusim::DeviceSpec> one_device() {
  return {gpusim::geforce_gtx_470()};
}

TEST(ServiceMemory, AdmissionRejectsTyped) {
  faults::ScopedFaultConfig quiet{faults::FaultConfig{}};
  ServiceConfig cfg;
  cfg.backpressure = BackpressurePolicy::Reject;
  cfg.flush_systems = 1000;
  cfg.flush_interval_ms = 10'000.0;  // keep requests resident in queue
  const std::size_t fp =
      kernels::DeviceBatch<double>::footprint_bytes(1, 128);
  cfg.mem_budget_bytes = 4 * fp;
  cfg.mem_admission_fraction = 0.5;  // room for exactly 2 requests
  SolveService<double> svc(one_device(), cfg);
  EXPECT_EQ(svc.total_mem_budget(), 4 * fp);

  std::vector<std::future<SolveResponse<double>>> futs;
  for (int i = 0; i < 4; ++i)
    futs.push_back(svc.submit(make_request(128, 10 + i)));
  svc.shutdown();

  std::size_t ok = 0, rejected = 0;
  for (auto& f : futs) {
    const auto resp = f.get();
    if (resp.status == SolveStatus::Ok) ++ok;
    if (resp.status == SolveStatus::Rejected) {
      ++rejected;
      EXPECT_NE(resp.error.find("memory admission"), std::string::npos);
    }
  }
  EXPECT_EQ(ok, 2u);
  EXPECT_EQ(rejected, 2u);
  EXPECT_EQ(svc.counters().mem_rejected, 2u);
}

TEST(ServiceMemory, TenPercentBudgetStillSolvesEverythingViaChunking) {
  faults::ScopedFaultConfig quiet{faults::FaultConfig{}};
  ServiceConfig cfg;
  cfg.flush_systems = 32;
  cfg.flush_interval_ms = 10'000.0;
  // 10% of the largest coalesced batch: every flush must chunk.
  cfg.mem_budget_bytes =
      kernels::DeviceBatch<double>::footprint_bytes(32, 128) / 10;
  SolveService<double> svc(one_device(), cfg);

  std::vector<SolveRequest<double>> copies;
  std::vector<std::future<SolveResponse<double>>> futs;
  for (int i = 0; i < 64; ++i) {
    copies.push_back(make_request(128, 500 + i));
    futs.push_back(svc.submit(copies.back()));
  }
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const auto resp = futs[i].get();
    ASSERT_EQ(resp.status, SolveStatus::Ok) << to_string(resp.status);
    EXPECT_GT(resp.chunks, 1u);
    double worst = 0.0;
    const auto& req = copies[i];
    for (std::size_t k = 0; k < req.size(); ++k) {
      double acc = req.b[k] * resp.x[k] - req.d[k];
      if (k > 0) acc += req.a[k] * resp.x[k - 1];
      if (k + 1 < req.size()) acc += req.c[k] * resp.x[k + 1];
      worst = std::max(worst, std::abs(acc));
    }
    EXPECT_LT(worst, 1e-8);
  }
  const auto c = svc.counters();
  EXPECT_EQ(c.completed, 64u);
  EXPECT_GT(c.chunked_solves, 0u);
  EXPECT_GT(c.chunks, c.flushes);
}

TEST(ServiceWatchdog, StalledSolveTimesOutInFlight) {
  faults::FaultConfig fc;
  fc.rate_of(faults::Site::WorkerStall) = 1.0;
  fc.stall_ms = 300.0;
  faults::ScopedFaultConfig scoped(fc);

  ServiceConfig cfg;
  cfg.flush_systems = 1;
  cfg.flush_interval_ms = 0.0;  // immediate pickup
  SolveService<double> svc(one_device(), cfg);

  // Deadline (30 ms) lapses inside the 300 ms injected stall: the
  // watchdog cancels mid-flight and the first stage-boundary poll after
  // the stall unwinds the solve.
  auto resp = svc.submit(make_request(64, 1, 30.0)).get();
  EXPECT_EQ(resp.status, SolveStatus::TimedOut) << to_string(resp.status);
  EXPECT_EQ(resp.timeout_scope, TimeoutScope::InFlight);
  svc.shutdown();

  const auto c = svc.counters();
  EXPECT_EQ(c.timed_out_inflight, 1u);
  EXPECT_EQ(c.timed_out_queue, 0u);
  EXPECT_GE(c.watchdog_cancels, 1u);
  // 300 ms of silence at kStallThresholdMs (50 ms): strikes accrue and
  // the breaker opens, feeding dispatch steering.
  EXPECT_GE(c.watchdog_stalls, 3u);
  EXPECT_GE(c.breaker_opens, 1u);
}

TEST(ServiceWatchdog, UnexpiredBatchmateIsRequeuedAndCompletes) {
  faults::FaultConfig fc;
  fc.rate_of(faults::Site::WorkerStall) = 1.0;
  fc.stall_ms = 150.0;
  faults::ScopedFaultConfig scoped(fc);

  ServiceConfig cfg;
  cfg.flush_systems = 2;  // both requests coalesce into one job
  cfg.flush_interval_ms = 50.0;  // lets the requeued single re-flush
  SolveService<double> svc(one_device(), cfg);

  auto doomed = svc.submit(make_request(64, 2, 30.0));
  auto patient = svc.submit(make_request(64, 3, 10'000.0));

  const auto r1 = doomed.get();
  EXPECT_EQ(r1.status, SolveStatus::TimedOut);
  EXPECT_EQ(r1.timeout_scope, TimeoutScope::InFlight);
  // The batchmate had deadline to spare: requeued, re-flushed (stalled
  // again, rate 1.0) and finally solved.
  const auto r2 = patient.get();
  EXPECT_EQ(r2.status, SolveStatus::Ok) << r2.error;
  svc.shutdown();

  const auto c = svc.counters();
  EXPECT_GE(c.timeout_requeues, 1u);
  EXPECT_EQ(c.timed_out_inflight, 1u);
  EXPECT_EQ(c.completed, 1u);
}

TEST(ServiceDeadlines, QueueAndInFlightScopesAreDistinct) {
  faults::ScopedFaultConfig quiet{faults::FaultConfig{}};
  ServiceConfig cfg;
  cfg.flush_systems = 1000;
  cfg.flush_interval_ms = 10'000.0;  // nothing flushes before expiry
  SolveService<double> svc(one_device(), cfg);
  auto resp = svc.submit(make_request(64, 4, 5.0)).get();
  EXPECT_EQ(resp.status, SolveStatus::TimedOut);
  EXPECT_EQ(resp.timeout_scope, TimeoutScope::Queue);
  svc.shutdown();
  EXPECT_EQ(svc.counters().timed_out_queue, 1u);
  EXPECT_EQ(svc.counters().timed_out_inflight, 0u);
}

TEST(ServiceMemory, EmptyRaggedBatchIsANoOp) {
  faults::ScopedFaultConfig quiet{faults::FaultConfig{}};
  ServiceConfig cfg;
  cfg.mem_budget_bytes = 1024;  // tiny budget must not matter
  SolveService<double> svc(one_device(), cfg);
  solver::RaggedBatch<double> empty{std::vector<std::size_t>{}};
  auto futs = svc.submit_ragged(empty);
  EXPECT_TRUE(futs.empty());
  svc.shutdown();
  EXPECT_EQ(svc.counters().submitted, 0u);
}

}  // namespace
