// Tests for the solve service: shape-bucketed coalescing, admission
// control (block / reject / shed-oldest), deadlines, multi-device
// dispatch, the pending queue and the circuit breaker as units, the
// shared tuning cache, graceful shutdown, and the telemetry wiring. The
// Hammer tests are the ones the CI TSan job runs.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <future>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "faults/faults.hpp"
#include "gpusim/device.hpp"
#include "service/breaker.hpp"
#include "service/pending_queue.hpp"
#include "service/solve_service.hpp"
#include "telemetry/metrics.hpp"

namespace {

using namespace tda;
using namespace tda::service;

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

double request_residual(const SolveRequest<double>& req,
                        const std::vector<double>& x) {
  const std::size_t n = req.size();
  double worst = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double acc = req.b[i] * x[i] - req.d[i];
    if (i > 0) acc += req.a[i] * x[i - 1];
    if (i + 1 < n) acc += req.c[i] * x[i + 1];
    worst = std::max(worst, std::abs(acc));
  }
  return worst;
}

std::vector<gpusim::DeviceSpec> one_device() {
  return {gpusim::geforce_gtx_470()};
}

// ---------- basic solving ----------

TEST(SolveService, SolvesSingleRequest) {
  SolveService<double> svc(one_device());
  auto req = make_request(257, 1);
  auto copy = req;
  auto fut = svc.submit(std::move(req));
  auto resp = fut.get();
  ASSERT_EQ(resp.status, SolveStatus::Ok) << to_string(resp.status);
  ASSERT_EQ(resp.x.size(), 257u);
  EXPECT_LT(request_residual(copy, resp.x), 1e-8);
  EXPECT_EQ(resp.device, "GeForce GTX 470");
  EXPECT_GE(resp.batch_systems, 1u);
}

TEST(SolveService, CoalescesSameShapeIntoOneBatch) {
  ServiceConfig cfg;
  cfg.flush_systems = 8;
  cfg.flush_interval_ms = 10'000.0;  // only the size trigger can fire
  SolveService<double> svc(one_device(), cfg);

  std::vector<std::future<SolveResponse<double>>> futs;
  for (int i = 0; i < 8; ++i)
    futs.push_back(svc.submit(make_request(128, 100 + i)));
  for (auto& f : futs) {
    auto resp = f.get();
    ASSERT_EQ(resp.status, SolveStatus::Ok);
    EXPECT_EQ(resp.batch_systems, 8u);  // all eight rode one solve
  }
  const auto c = svc.counters();
  EXPECT_EQ(c.flushes, 1u);
  EXPECT_EQ(c.coalesced_systems, 8u);
  EXPECT_EQ(c.max_batch_systems, 8u);
  EXPECT_EQ(c.completed, 8u);
}

TEST(SolveService, BucketsDistinctShapesSeparately) {
  ServiceConfig cfg;
  cfg.flush_systems = 4;
  cfg.flush_interval_ms = 10'000.0;
  SolveService<double> svc(one_device(), cfg);

  std::vector<std::future<SolveResponse<double>>> small, large;
  for (int i = 0; i < 4; ++i)
    small.push_back(svc.submit(make_request(64, 200 + i)));
  for (int i = 0; i < 4; ++i)
    large.push_back(svc.submit(make_request(512, 300 + i)));
  for (auto& f : small) EXPECT_EQ(f.get().batch_systems, 4u);
  for (auto& f : large) EXPECT_EQ(f.get().batch_systems, 4u);
  EXPECT_EQ(svc.counters().flushes, 2u);
}

TEST(SolveService, IntervalTriggerFlushesPartialBucket) {
  ServiceConfig cfg;
  cfg.flush_systems = 1000;       // size trigger unreachable
  cfg.flush_interval_ms = 5.0;    // deadline trigger does the work
  SolveService<double> svc(one_device(), cfg);
  auto resp = svc.submit(make_request(96, 7)).get();
  EXPECT_EQ(resp.status, SolveStatus::Ok);
  EXPECT_EQ(resp.batch_systems, 1u);
}

TEST(SolveService, RaggedSubmissionRecoalesces) {
  ServiceConfig cfg;
  cfg.flush_systems = 100;
  cfg.flush_interval_ms = 10'000.0;
  SolveService<double> svc(one_device(), cfg);

  solver::RaggedBatch<double> rb({64, 96, 64, 96, 64});
  Rng rng(5);
  auto a = rb.a(), b = rb.b(), c = rb.c(), d = rb.d();
  for (std::size_t s = 0; s < rb.num_systems(); ++s) {
    const std::size_t off = rb.offset(s), n = rb.system_size(s);
    for (std::size_t i = 0; i < n; ++i) {
      a[off + i] = (i == 0) ? 0.0 : rng.uniform(-1, 1);
      c[off + i] = (i == n - 1) ? 0.0 : rng.uniform(-1, 1);
      b[off + i] =
          (std::abs(a[off + i]) + std::abs(c[off + i])) * 2.0 + 0.5;
      d[off + i] = rng.uniform(-1, 1);
    }
  }
  auto futs = svc.submit_ragged(rb);
  ASSERT_EQ(futs.size(), 5u);
  svc.shutdown();  // drain flushes both buckets
  // three 64s coalesced together, two 96s coalesced together
  EXPECT_EQ(futs[0].get().batch_systems, 3u);
  EXPECT_EQ(futs[1].get().batch_systems, 2u);
  EXPECT_EQ(futs[2].get().batch_systems, 3u);
  EXPECT_EQ(futs[3].get().batch_systems, 2u);
  EXPECT_EQ(futs[4].get().batch_systems, 3u);
}

TEST(SolveService, EmptyRaggedSubmitIsEmpty) {
  SolveService<double> svc(one_device());
  solver::RaggedBatch<double> rb(std::vector<std::size_t>{});
  EXPECT_TRUE(svc.submit_ragged(rb).empty());
}

// ---------- admission control ----------

ServiceConfig stalled_config() {
  // Nothing ever flushes on its own: requests pile up in the queue.
  ServiceConfig cfg;
  cfg.queue_capacity = 2;
  cfg.flush_systems = 1000;
  cfg.flush_interval_ms = 10'000.0;
  return cfg;
}

TEST(SolveService, RejectPolicyRefusesWhenFull) {
  auto cfg = stalled_config();
  cfg.backpressure = BackpressurePolicy::Reject;
  SolveService<double> svc(one_device(), cfg);
  auto f1 = svc.submit(make_request(64, 1));
  auto f2 = svc.submit(make_request(64, 2));
  auto f3 = svc.submit(make_request(64, 3));  // queue full -> rejected
  EXPECT_EQ(f3.get().status, SolveStatus::Rejected);
  svc.shutdown();  // drains the two admitted requests
  EXPECT_EQ(f1.get().status, SolveStatus::Ok);
  EXPECT_EQ(f2.get().status, SolveStatus::Ok);
  EXPECT_EQ(svc.counters().rejected, 1u);
}

TEST(SolveService, ShedOldestEvictsToAdmit) {
  auto cfg = stalled_config();
  cfg.backpressure = BackpressurePolicy::ShedOldest;
  SolveService<double> svc(one_device(), cfg);
  auto f1 = svc.submit(make_request(64, 1));
  auto f2 = svc.submit(make_request(128, 2));
  auto f3 = svc.submit(make_request(64, 3));  // f1 (oldest) is shed
  EXPECT_EQ(f1.get().status, SolveStatus::Shed);
  svc.shutdown();
  EXPECT_EQ(f2.get().status, SolveStatus::Ok);
  EXPECT_EQ(f3.get().status, SolveStatus::Ok);
  EXPECT_EQ(svc.counters().shed, 1u);
}

TEST(SolveService, BlockPolicyWaitsForSpace) {
  ServiceConfig cfg;
  cfg.queue_capacity = 1;
  cfg.backpressure = BackpressurePolicy::Block;
  cfg.flush_systems = 1000;
  cfg.flush_interval_ms = 5.0;  // supervisor frees the slot shortly
  SolveService<double> svc(one_device(), cfg);
  auto f1 = svc.submit(make_request(64, 1));
  auto f2 = svc.submit(make_request(64, 2));  // blocks until f1 flushes
  EXPECT_EQ(f1.get().status, SolveStatus::Ok);
  EXPECT_EQ(f2.get().status, SolveStatus::Ok);
}

TEST(SolveService, BlockedSubmitWakesWhenQueuedRequestExpires) {
  ServiceConfig cfg;
  cfg.queue_capacity = 1;
  cfg.backpressure = BackpressurePolicy::Block;
  cfg.flush_interval_ms = 10'000.0;  // only the deadline frees the slot
  SolveService<double> svc(one_device(), cfg);
  auto a = svc.submit(make_request(64, 1, 5.0));

  std::promise<void> admitted;
  auto admitted_fut = admitted.get_future();
  std::future<SolveResponse<double>> b;
  std::thread submitter([&] {
    b = svc.submit(make_request(64, 2));  // blocks: the queue is full
    admitted.set_value();
  });
  EXPECT_EQ(a.get().status, SolveStatus::TimedOut);
  // A's expiry frees the slot, so B is admitted long before shutdown.
  EXPECT_EQ(admitted_fut.wait_for(std::chrono::seconds(1)),
            std::future_status::ready);
  svc.shutdown();
  submitter.join();
  EXPECT_EQ(b.get().status, SolveStatus::Ok);
}

// ---------- deadlines ----------

TEST(SolveService, DeadlineTimesOutQueuedRequest) {
  auto cfg = stalled_config();
  cfg.queue_capacity = 16;
  SolveService<double> svc(one_device(), cfg);
  auto fut = svc.submit(make_request(64, 1, /*deadline_ms=*/2.0));
  auto resp = fut.get();  // supervisor wakes at the deadline
  EXPECT_EQ(resp.status, SolveStatus::TimedOut);
  EXPECT_EQ(svc.counters().timed_out, 1u);
}

TEST(SolveService, DefaultDeadlineApplies) {
  auto cfg = stalled_config();
  cfg.queue_capacity = 16;
  cfg.default_deadline_ms = 2.0;
  SolveService<double> svc(one_device(), cfg);
  EXPECT_EQ(svc.submit(make_request(64, 1)).get().status,
            SolveStatus::TimedOut);
}

// ---------- multi-device dispatch ----------

TEST(SolveService, LeastLoadedUsesBothDevices) {
  ServiceConfig cfg;
  cfg.flush_systems = 1;
  SolveService<double> svc(
      {gpusim::geforce_gtx_470(), gpusim::geforce_gtx_470()}, cfg);
  std::vector<std::future<SolveResponse<double>>> futs;
  for (int i = 0; i < 32; ++i)
    futs.push_back(svc.submit(make_request(256, 500 + i)));
  for (auto& f : futs) EXPECT_EQ(f.get().status, SolveStatus::Ok);
  EXPECT_EQ(svc.counters().completed, 32u);
}

// ---------- pending queue (no threads, explicit time points) ----------

using QClock = std::chrono::steady_clock;

struct QItem {
  std::size_t n = 0;
  QClock::time_point enqueue_tp{};
  QClock::time_point deadline_tp = QClock::time_point::max();
  std::uint64_t seq = 0;
  int id = 0;
};

std::size_t q_footprint(std::size_t n) { return 10 * n; }

QItem q_item(std::size_t n, int id, QClock::time_point enq,
             QClock::time_point deadline = QClock::time_point::max()) {
  QItem it;
  it.n = n;
  it.id = id;
  it.enqueue_tp = enq;
  it.deadline_tp = deadline;
  return it;
}

std::vector<int> ids(const std::vector<QItem>& items) {
  std::vector<int> out;
  for (const auto& it : items) out.push_back(it.id);
  return out;
}

TEST(SolveServiceQueue, CountAndBytesStayExact) {
  const QClock::time_point t0{};
  const auto ms = [](int v) { return std::chrono::milliseconds(v); };
  PendingQueue<QItem> q(&q_footprint);
  q.push(q_item(4, 1, t0));
  q.push(q_item(4, 2, t0 + ms(1), t0 + ms(5)));
  q.push(q_item(8, 3, t0 + ms(2)));
  q.push(q_item(8, 4, t0 + ms(3)));
  EXPECT_EQ(q.count(), 4u);
  EXPECT_EQ(q.bytes(), 2 * 40u + 2 * 80u);

  auto taken = q.take(8, 1);  // take
  EXPECT_EQ(ids(taken), std::vector<int>{3});
  EXPECT_EQ(q.count(), 3u);
  EXPECT_EQ(q.bytes(), 2 * 40u + 80u);

  q.requeue_front(std::move(taken));  // requeue
  EXPECT_EQ(q.count(), 4u);
  EXPECT_EQ(q.bytes(), 2 * 40u + 2 * 80u);

  EXPECT_EQ(ids(q.expire(t0 + ms(5))), std::vector<int>{2});  // expire
  EXPECT_EQ(q.count(), 3u);
  EXPECT_EQ(q.bytes(), 40u + 2 * 80u);

  ASSERT_TRUE(q.shed_oldest().has_value());  // shed
  EXPECT_EQ(q.count(), 2u);
  EXPECT_EQ(q.bytes(), 2 * 80u);
  EXPECT_EQ(q.shapes(), std::vector<std::size_t>{8});

  EXPECT_EQ(q.take(8, 5).size(), 2u);  // k beyond the bucket
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.bytes(), 0u);
  EXPECT_TRUE(q.shapes().empty());
  EXPECT_FALSE(q.shed_oldest().has_value());
  EXPECT_TRUE(q.take(8, 1).empty());
}

TEST(SolveServiceQueue, ShedOldestPicksGloballyOldest) {
  const QClock::time_point t0{};
  PendingQueue<QItem> q(&q_footprint);
  q.push(q_item(64, 1, t0));
  q.push(q_item(16, 2, t0));
  q.push(q_item(64, 3, t0));
  q.push(q_item(16, 4, t0));
  // Bucket 16 comes first by key, but request 1 (bucket 64) was
  // admitted first: admission order decides, not the bucket order.
  std::vector<int> shed;
  while (auto victim = q.shed_oldest()) shed.push_back(victim->id);
  EXPECT_EQ(shed, (std::vector<int>{1, 2, 3, 4}));
}

TEST(SolveServiceQueue, RequeuedMembersReturnToFrontInOrder) {
  const QClock::time_point t0{};
  PendingQueue<QItem> q(&q_footprint);
  for (int id = 1; id <= 5; ++id) q.push(q_item(32, id, t0));
  auto job = q.take(32, 3);
  ASSERT_EQ(ids(job), (std::vector<int>{1, 2, 3}));
  q.push(q_item(32, 6, t0));
  q.requeue_front(std::move(job));
  EXPECT_EQ(q.front(32).id, 1);
  EXPECT_EQ(ids(q.take(32, 6)), (std::vector<int>{1, 2, 3, 4, 5, 6}));
  // Requeued requests keep their admission order for shedding too.
  q.push(q_item(32, 7, t0));
  q.push(q_item(48, 8, t0));
  auto again = q.take(32, 1);
  q.requeue_front(std::move(again));
  EXPECT_EQ(q.shed_oldest()->id, 7);
}

TEST(SolveServiceQueue, NextWakeIsEarliestFlushOrDeadline) {
  const QClock::time_point t0{};
  const auto ms = [](int v) { return std::chrono::milliseconds(v); };
  PendingQueue<QItem> q(&q_footprint);
  EXPECT_EQ(q.next_wake(ms(2)), QClock::time_point::max());
  q.push(q_item(4, 1, t0 + ms(10)));
  q.push(q_item(8, 2, t0 + ms(20)));
  // Oldest head (t0 + 10) plus the interval.
  EXPECT_EQ(q.next_wake(ms(2)), t0 + ms(12));
  // A deadline behind a bucket head counts as well.
  q.push(q_item(8, 3, t0 + ms(21), t0 + ms(11)));
  EXPECT_EQ(q.next_wake(ms(2)), t0 + ms(11));
  EXPECT_EQ(q.next_wake(ms(0)), t0 + ms(10));
}

// ---------- circuit breaker (no threads, explicit time points) ----------

struct BreakerFixture {
  telemetry::MetricsRegistry reg;
  Breaker::Transitions counts{reg.counter_handle("open"),
                              reg.counter_handle("half_open"),
                              reg.counter_handle("closed")};
  Breaker breaker{counts, std::chrono::milliseconds(25)};
  QClock::time_point t0{};

  double opened() const { return counts.opened.value(); }
  double half_opened() const { return counts.half_opened.value(); }
  double closed() const { return counts.closed.value(); }
};

TEST(SolveServiceBreaker, OpensAtThresholdConsecutiveFailures) {
  BreakerFixture f;
  for (int i = 0; i < kBreakerThreshold - 1; ++i) f.breaker.failure(f.t0);
  f.breaker.success();  // a success breaks the run
  for (int i = 0; i < kBreakerThreshold - 1; ++i) f.breaker.failure(f.t0);
  EXPECT_EQ(f.breaker.state(), Breaker::State::Closed);
  EXPECT_TRUE(f.breaker.admits(f.t0));
  f.breaker.failure(f.t0);
  EXPECT_EQ(f.breaker.state(), Breaker::State::Open);
  EXPECT_STREQ(f.breaker.name(), "open");
  EXPECT_EQ(f.breaker.level(), 2.0);
  EXPECT_EQ(f.opened(), 1.0);
  EXPECT_EQ(f.closed(), 0.0);  // success while Closed is no transition
}

TEST(SolveServiceBreaker, RefusesUntilCooldownThenHalfOpens) {
  BreakerFixture f;
  for (int i = 0; i < kBreakerThreshold; ++i) f.breaker.failure(f.t0);
  const auto cooldown = std::chrono::milliseconds(25);
  EXPECT_FALSE(f.breaker.admits(f.t0));
  EXPECT_FALSE(f.breaker.admits(f.t0 + cooldown - std::chrono::microseconds(1)));
  EXPECT_EQ(f.half_opened(), 0.0);
  EXPECT_TRUE(f.breaker.admits(f.t0 + cooldown));
  EXPECT_EQ(f.breaker.state(), Breaker::State::HalfOpen);
  EXPECT_STREQ(f.breaker.name(), "half_open");
  EXPECT_EQ(f.breaker.level(), 1.0);
  EXPECT_EQ(f.half_opened(), 1.0);
  EXPECT_TRUE(f.breaker.admits(f.t0 + cooldown));  // no second transition
  EXPECT_EQ(f.half_opened(), 1.0);
}

TEST(SolveServiceBreaker, HalfOpenFailureReopensSuccessCloses) {
  BreakerFixture f;
  const auto cooldown = std::chrono::milliseconds(25);
  for (int i = 0; i < kBreakerThreshold; ++i) f.breaker.failure(f.t0);
  ASSERT_TRUE(f.breaker.admits(f.t0 + cooldown));
  const auto t1 = f.t0 + cooldown;
  f.breaker.failure(t1);  // one failed probe is enough
  EXPECT_EQ(f.breaker.state(), Breaker::State::Open);
  EXPECT_EQ(f.opened(), 2.0);
  EXPECT_EQ(f.breaker.open_until(), t1 + cooldown);
  EXPECT_FALSE(f.breaker.admits(t1));
  ASSERT_TRUE(f.breaker.admits(t1 + cooldown));
  f.breaker.success();
  EXPECT_EQ(f.breaker.state(), Breaker::State::Closed);
  EXPECT_STREQ(f.breaker.name(), "closed");
  EXPECT_EQ(f.breaker.level(), 0.0);
  EXPECT_EQ(f.closed(), 1.0);
}

TEST(SolveServiceBreaker, WatchdogTripOpensUnlessAlreadyOpen) {
  BreakerFixture f;
  const auto cooldown = std::chrono::milliseconds(25);
  f.breaker.trip(f.t0);  // from Closed
  EXPECT_EQ(f.breaker.state(), Breaker::State::Open);
  EXPECT_EQ(f.opened(), 1.0);
  f.breaker.trip(f.t0 + std::chrono::milliseconds(5));  // already Open
  EXPECT_EQ(f.opened(), 1.0);
  EXPECT_EQ(f.breaker.open_until(), f.t0 + cooldown);
  ASSERT_TRUE(f.breaker.admits(f.t0 + cooldown));
  f.breaker.trip(f.t0 + cooldown);  // from HalfOpen
  EXPECT_EQ(f.breaker.state(), Breaker::State::Open);
  EXPECT_EQ(f.opened(), 2.0);
}

// ---------- shared tuning cache ----------

TEST(SolveService, SharesOneTuningAcrossManySolves) {
  ServiceConfig cfg;
  cfg.flush_systems = 4;
  cfg.flush_interval_ms = 10'000.0;
  SolveService<double> svc(one_device(), cfg);
  for (int round = 0; round < 3; ++round) {
    std::vector<std::future<SolveResponse<double>>> futs;
    for (int i = 0; i < 4; ++i)
      futs.push_back(svc.submit(make_request(128, 600 + i)));
    for (auto& f : futs) ASSERT_EQ(f.get().status, SolveStatus::Ok);
  }
  // Three identical (4, 128) flushes: one tuning run, two cache hits.
  EXPECT_EQ(svc.counters().tunes, 1u);
  EXPECT_EQ(svc.cache().size(), 1u);
}

TEST(SolveService, PersistsTuningCacheAcrossInstances) {
  const std::string path = "test_service_cache.txt";
  std::remove(path.c_str());
  ServiceConfig cfg;
  cfg.cache_path = path;
  cfg.flush_systems = 2;
  cfg.flush_interval_ms = 10'000.0;
  {
    SolveService<double> svc(one_device(), cfg);
    auto f1 = svc.submit(make_request(128, 1));
    auto f2 = svc.submit(make_request(128, 2));
    ASSERT_EQ(f1.get().status, SolveStatus::Ok);
    ASSERT_EQ(f2.get().status, SolveStatus::Ok);
  }  // shutdown merge-saves the cache
  {
    SolveService<double> svc(one_device(), cfg);
    EXPECT_EQ(svc.cache().size(), 1u);  // loaded from disk
    auto f1 = svc.submit(make_request(128, 3));
    auto f2 = svc.submit(make_request(128, 4));
    ASSERT_EQ(f1.get().status, SolveStatus::Ok);
    ASSERT_EQ(f2.get().status, SolveStatus::Ok);
    EXPECT_EQ(svc.counters().tunes, 0u);  // warm from the previous run
  }
  std::remove(path.c_str());
}

// ---------- shutdown ----------

TEST(SolveService, ShutdownDrainsQueuedWork) {
  auto cfg = stalled_config();
  cfg.queue_capacity = 64;
  SolveService<double> svc(one_device(), cfg);
  std::vector<std::future<SolveResponse<double>>> futs;
  for (int i = 0; i < 10; ++i)
    futs.push_back(svc.submit(make_request(64 + 32 * (i % 3), 700 + i)));
  svc.shutdown();
  for (auto& f : futs) EXPECT_EQ(f.get().status, SolveStatus::Ok);
  EXPECT_EQ(svc.counters().completed, 10u);
}

TEST(SolveService, SubmitAfterShutdownIsRejected) {
  SolveService<double> svc(one_device());
  svc.shutdown();
  EXPECT_FALSE(svc.accepting());
  EXPECT_EQ(svc.submit(make_request(64, 1)).get().status,
            SolveStatus::Rejected);
  svc.shutdown();  // idempotent
}

// ---------- validation ----------

TEST(SolveService, RejectsMalformedRequests) {
  SolveService<double> svc(one_device());
  SolveRequest<double> empty;
  EXPECT_THROW(svc.submit(std::move(empty)), ContractError);
  SolveRequest<double> ragged_diags;
  ragged_diags.a = {0.0};
  ragged_diags.b = {1.0, 1.0};
  ragged_diags.c = {0.0, 0.0};
  ragged_diags.d = {1.0, 1.0};
  EXPECT_THROW(svc.submit(std::move(ragged_diags)), ContractError);
}

// ---------- telemetry ----------

TEST(SolveService, ExportsQueueAndOccupancyMetrics) {
  ServiceConfig cfg;
  cfg.flush_systems = 4;
  cfg.flush_interval_ms = 10'000.0;
  SolveService<double> svc(one_device(), cfg);
  svc.telemetry().tracer.enable();
  std::vector<std::future<SolveResponse<double>>> futs;
  for (int i = 0; i < 8; ++i)
    futs.push_back(svc.submit(make_request(128, 800 + i)));
  for (auto& f : futs) ASSERT_EQ(f.get().status, SolveStatus::Ok);

  const auto& mx = svc.telemetry().metrics;
  EXPECT_GE(mx.histogram("service.queue_depth").count, 8u);
  EXPECT_EQ(mx.histogram("service.batch_occupancy").count, 2u);
  EXPECT_DOUBLE_EQ(mx.histogram("service.batch_occupancy").max, 4.0);
  EXPECT_EQ(mx.counter("service.submitted"), 8.0);
  EXPECT_GT(mx.histogram("service.wait_ms").count, 0u);
  EXPECT_GT(mx.histogram("service.solve_ms").count, 0u);

  const std::string path = "test_service_metrics.json";
  ASSERT_TRUE(svc.export_metrics(path));
  std::stringstream ss;
  ss << std::ifstream(path).rdbuf();
  const std::string json = ss.str();
  EXPECT_NE(json.find("service.queue_depth"), std::string::npos);
  EXPECT_NE(json.find("service.batch_occupancy"), std::string::npos);
  std::remove(path.c_str());
}

// Each Counters field is one registry counter, and service.chunks
// counts every chunk, split or not.
TEST(SolveService, RegistryCountersMatchCounters) {
  faults::ScopedFaultConfig quiet{faults::FaultConfig{}};
  ServiceConfig cfg;
  cfg.queue_capacity = 64;
  cfg.flush_systems = 8;
  cfg.flush_interval_ms = 10'000.0;  // only the size trigger flushes
  // A flush of eight 16-equation systems fits; eight of 1024 must split.
  cfg.mem_budget_bytes =
      kernels::DeviceBatch<double>::footprint_bytes(8, 1024) / 3;
  SolveService<double> svc(one_device(), cfg);
  auto& mx = svc.telemetry().metrics;

  const auto run_batch = [&](std::size_t n, std::uint64_t seed) {
    std::vector<std::future<SolveResponse<double>>> futs;
    for (std::uint64_t i = 0; i < 8; ++i) {
      futs.push_back(svc.submit(make_request(n, seed + i)));
    }
    for (auto& f : futs) ASSERT_EQ(f.get().status, SolveStatus::Ok);
  };
  run_batch(16, 100);  // unchunked
  run_batch(1024, 200);  // chunked under the memory budget
  EXPECT_EQ(svc.submit(make_request(32, 300, /*deadline_ms=*/2.0))
                .get()
                .status,
            SolveStatus::TimedOut);
  svc.shutdown();
  EXPECT_EQ(svc.submit(make_request(16, 400)).get().status,
            SolveStatus::Rejected);

  const auto c = svc.counters();
  EXPECT_EQ(c.submitted, 18u);
  EXPECT_EQ(c.completed, 16u);
  EXPECT_EQ(c.flushes, 2u);
  EXPECT_EQ(c.chunked_solves, 1u);
  EXPECT_GT(c.chunks, 3u);
  EXPECT_EQ(c.timed_out_queue, 1u);
  EXPECT_EQ(c.rejected, 1u);

  const std::pair<const char*, std::size_t> fields[] = {
      {"service.submitted", c.submitted},
      {"service.solved_systems", c.completed},
      {"service.rejected", c.rejected},
      {"service.shed", c.shed},
      {"service.timed_out", c.timed_out},
      {"service.failed", c.failed},
      {"service.flushes", c.flushes},
      {"service.coalesced_systems", c.coalesced_systems},
      {"service.tunes", c.tunes},
      {"service.singular", c.singular},
      {"service.nonfinite", c.nonfinite},
      {"service.fallback_used", c.fallbacks},
      {"service.quarantined", c.quarantined},
      {"service.retries", c.retries},
      {"service.failovers", c.failovers},
      {"service.cpu_failovers", c.cpu_failovers},
      {"service.worker_restarts", c.worker_restarts},
      {"service.breaker.open", c.breaker_opens},
      {"service.timed_out_queue", c.timed_out_queue},
      {"service.timed_out_inflight", c.timed_out_inflight},
      {"service.timeout_requeues", c.timeout_requeues},
      {"service.mem_rejected", c.mem_rejected},
      {"service.chunked_solves", c.chunked_solves},
      {"service.chunks", c.chunks},
      {"service.oom_events", c.oom_events},
      {"service.oom_fallbacks", c.oom_fallbacks},
      {"service.watchdog.cancels", c.watchdog_cancels},
      {"service.watchdog.stalls", c.watchdog_stalls},
  };
  for (const auto& [name, value] : fields) {
    EXPECT_EQ(mx.counter(name), static_cast<double>(value)) << name;
  }
  EXPECT_GT(c.device_ms, 0.0);
  EXPECT_DOUBLE_EQ(mx.counter("service.device_ms"), c.device_ms);
}

TEST(SolveService, EmitsLifecycleSpans) {
  ServiceConfig cfg;
  cfg.flush_systems = 2;
  cfg.flush_interval_ms = 10'000.0;
  SolveService<double> svc(one_device(), cfg);
  svc.telemetry().tracer.enable();
  auto f1 = svc.submit(make_request(64, 1));
  auto f2 = svc.submit(make_request(64, 2));
  ASSERT_EQ(f1.get().status, SolveStatus::Ok);
  ASSERT_EQ(f2.get().status, SolveStatus::Ok);
  svc.shutdown();

  std::set<std::string> names;
  for (const auto& span : svc.telemetry().tracer.spans())
    names.insert(span.name);
  for (const char* expected : {"enqueue", "flush", "solve", "complete"})
    EXPECT_TRUE(names.count(expected)) << "missing span " << expected;
}

// ---------- coalescing beats one-solve-per-request ----------

TEST(SolveService, CoalescingBeatsPerRequestThroughput) {
  // Same many-small-systems workload through both configurations; the
  // coalesced service must spend less simulated device time (launch
  // overhead and fill amortized across the batch).
  const auto run = [](std::size_t flush_systems) {
    ServiceConfig cfg;
    cfg.flush_systems = flush_systems;
    cfg.flush_interval_ms = 50.0;
    SolveService<double> svc(one_device(), cfg);
    std::vector<std::future<SolveResponse<double>>> futs;
    for (int i = 0; i < 64; ++i) {
      futs.push_back(svc.submit(make_request(128, 900 + i)));
      // The per-request baseline waits for each response before
      // submitting the next, so nothing can ride along.
      if (flush_systems == 1) {
        EXPECT_EQ(futs.back().get().status, SolveStatus::Ok);
      }
    }
    if (flush_systems != 1) {
      for (auto& f : futs) EXPECT_EQ(f.get().status, SolveStatus::Ok);
    }
    svc.shutdown();
    EXPECT_EQ(svc.counters().completed, 64u);
    return svc.counters().device_ms;
  };
  const double per_request_ms = run(1);
  const double coalesced_ms = run(64);
  EXPECT_LT(coalesced_ms, per_request_ms);
}

// ---------- concurrency hammer (run under TSan in CI) ----------

TEST(SolveServiceHammer, ManyClientsManyShapes) {
  ServiceConfig cfg;
  cfg.flush_systems = 16;
  cfg.flush_interval_ms = 1.0;
  cfg.queue_capacity = 256;
  SolveService<double> svc(
      {gpusim::geforce_gtx_470(), gpusim::geforce_gtx_280()}, cfg);
  svc.telemetry().tracer.enable();

  constexpr int kClients = 4;
  constexpr int kPerClient = 32;
  const std::size_t shapes[] = {33, 64, 100, 128};
  std::atomic<int> ok{0};
  std::atomic<int> residual_fail{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      // Fire every request before collecting, so same-shape requests
      // are pending together and the supervisor can coalesce them.
      std::vector<SolveRequest<double>> copies;
      std::vector<std::future<SolveResponse<double>>> futs;
      for (int i = 0; i < kPerClient; ++i) {
        auto req = make_request(shapes[i % 4], 1000 + t * 100 + i);
        copies.push_back(req);
        futs.push_back(svc.submit(std::move(req)));
      }
      for (int i = 0; i < kPerClient; ++i) {
        auto resp = futs[i].get();
        if (resp.status == SolveStatus::Ok) {
          ok.fetch_add(1);
          if (request_residual(copies[i], resp.x) > 1e-8)
            residual_fail.fetch_add(1);
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  svc.shutdown();
  EXPECT_EQ(ok.load(), kClients * kPerClient);
  EXPECT_EQ(residual_fail.load(), 0);
  EXPECT_EQ(svc.counters().completed,
            static_cast<std::size_t>(kClients * kPerClient));
  EXPECT_GT(svc.counters().max_batch_systems, 1u);
}

TEST(SolveServiceHammer, ShutdownRacesWithSubmitters) {
  for (int round = 0; round < 3; ++round) {
    ServiceConfig cfg;
    cfg.flush_systems = 8;
    cfg.flush_interval_ms = 0.5;
    SolveService<double> svc(one_device(), cfg);
    std::vector<std::thread> clients;
    std::atomic<int> terminal{0};
    for (int t = 0; t < 3; ++t) {
      clients.emplace_back([&] {
        for (int i = 0; i < 20; ++i) {
          auto resp = svc.submit(make_request(64, i)).get();
          (void)to_string(resp.status);  // any terminal status is legal
          terminal.fetch_add(1);
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    svc.shutdown();  // must not deadlock or drop futures
    for (auto& c : clients) c.join();
    EXPECT_EQ(terminal.load(), 60);
  }
}

// ---------- resilience: poison, retries, failover, healing ----------

SolveRequest<double> make_poisoned_request(std::size_t n, std::uint64_t seed,
                                           faults::Poison kind) {
  auto req = make_request(n, seed);
  faults::poison_system<double>(std::span<double>(req.a),
                                std::span<double>(req.b),
                                std::span<double>(req.c),
                                std::span<double>(req.d), kind);
  return req;
}

TEST(SolveServiceResilience, PoisonedSystemsGetTypedStatusOthersComplete) {
  ServiceConfig cfg;
  cfg.flush_systems = 8;
  cfg.flush_interval_ms = 10'000.0;
  SolveService<double> svc(one_device(), cfg);

  std::vector<SolveRequest<double>> copies;
  std::vector<std::future<SolveResponse<double>>> futs;
  for (int i = 0; i < 8; ++i) {
    SolveRequest<double> req;
    if (i == 2) {
      req = make_poisoned_request(192, 900 + i, faults::Poison::NaN);
    } else if (i == 5) {
      req = make_poisoned_request(192, 900 + i, faults::Poison::ZeroPivot);
    } else {
      req = make_request(192, 900 + i);
    }
    copies.push_back(req);
    futs.push_back(svc.submit(std::move(req)));
  }
  for (int i = 0; i < 8; ++i) {
    auto resp = futs[i].get();
    if (i == 2) {
      EXPECT_EQ(resp.status, SolveStatus::NonFinite);
      EXPECT_FALSE(resp.error.empty());
    } else if (i == 5) {
      EXPECT_EQ(resp.status, SolveStatus::Singular);
      EXPECT_FALSE(resp.error.empty());
    } else {
      // One bad batchmate must never take down the rest of the batch.
      ASSERT_EQ(resp.status, SolveStatus::Ok) << "request " << i;
      EXPECT_LT(request_residual(copies[i], resp.x), 1e-8);
    }
  }
  const auto c = svc.counters();
  EXPECT_EQ(c.completed, 6u);
  EXPECT_EQ(c.nonfinite, 1u);
  EXPECT_EQ(c.singular, 1u);
}

TEST(SolveServiceResilience, InjectedPoisonIsIsolated) {
  faults::FaultConfig fc;
  fc.seed = 21;
  fc.rate_of(faults::Site::PoisonNaN) = 0.1;
  fc.rate_of(faults::Site::PoisonZeroPivot) = 0.1;
  faults::ScopedFaultConfig scoped(fc);

  ServiceConfig cfg;
  cfg.flush_systems = 16;
  SolveService<double> svc(one_device(), cfg);
  std::vector<std::future<SolveResponse<double>>> futs;
  for (int i = 0; i < 64; ++i)
    futs.push_back(svc.submit(make_request(128, 2000 + i)));

  std::size_t ok = 0, poisoned = 0;
  for (auto& f : futs) {
    const auto resp = f.get();
    if (resp.status == SolveStatus::Ok) {
      ++ok;
    } else {
      ASSERT_TRUE(resp.status == SolveStatus::Singular ||
                  resp.status == SolveStatus::NonFinite)
          << to_string(resp.status);
      ++poisoned;
    }
  }
  EXPECT_EQ(ok + poisoned, 64u);
  // ~20% combined poison rate over 64 systems: some must have fired,
  // and the healthy majority must have completed.
  EXPECT_GT(poisoned, 0u);
  EXPECT_GT(ok, 32u);
  EXPECT_EQ(svc.counters().completed, ok);
}

TEST(SolveServiceResilience, DeviceFaultsAreRetriedToCompletion) {
  faults::FaultConfig fc;
  fc.seed = 5;
  fc.rate_of(faults::Site::DeviceLaunch) = 0.3;
  faults::ScopedFaultConfig scoped(fc);

  ServiceConfig cfg;
  cfg.flush_systems = 8;
  SolveService<double> svc(one_device(), cfg);
  std::vector<SolveRequest<double>> copies;
  std::vector<std::future<SolveResponse<double>>> futs;
  for (int i = 0; i < 48; ++i) {
    auto req = make_request(96, 3000 + i);
    copies.push_back(req);
    futs.push_back(svc.submit(std::move(req)));
  }
  for (int i = 0; i < 48; ++i) {
    auto resp = futs[i].get();
    ASSERT_EQ(resp.status, SolveStatus::Ok) << "request " << i;
    EXPECT_LT(request_residual(copies[i], resp.x), 1e-8);
  }
  // At 30% launch-failure some batches must have needed another attempt
  // (retry, failover or CPU fallback) — yet every request completed.
  const auto c = svc.counters();
  EXPECT_EQ(c.completed, 48u);
  EXPECT_GT(c.retries + c.cpu_failovers + c.failovers, 0u);
}

TEST(SolveServiceResilience, TotalDeviceFailureFailsOverToCpu) {
  faults::FaultConfig fc;
  fc.seed = 2;
  fc.rate_of(faults::Site::DeviceLaunch) = 1.0;
  faults::ScopedFaultConfig scoped(fc);

  ServiceConfig cfg;
  cfg.flush_systems = 4;
  cfg.resilience.retry_backoff_ms = 0.01;
  SolveService<double> svc(one_device(), cfg);
  std::vector<SolveRequest<double>> copies;
  std::vector<std::future<SolveResponse<double>>> futs;
  for (int i = 0; i < 8; ++i) {
    auto req = make_request(64, 4000 + i);
    copies.push_back(req);
    futs.push_back(svc.submit(std::move(req)));
  }
  for (int i = 0; i < 8; ++i) {
    auto resp = futs[i].get();
    ASSERT_EQ(resp.status, SolveStatus::Ok) << "request " << i;
    EXPECT_TRUE(resp.fallback_used);
    EXPECT_LT(request_residual(copies[i], resp.x), 1e-10);
  }
  const auto c = svc.counters();
  EXPECT_EQ(c.completed, 8u);
  EXPECT_GT(c.cpu_failovers, 0u);
  EXPECT_GT(c.retries, 0u);
  EXPECT_GT(c.breaker_opens, 0u);
}

TEST(SolveServiceResilience, BreakerReclosesAfterFaultsClear) {
  ServiceConfig cfg;
  cfg.flush_systems = 2;
  cfg.resilience.retry_backoff_ms = 0.01;
  cfg.resilience.breaker_cooldown_ms = 1.0;
  SolveService<double> svc(one_device(), cfg);

  {
    faults::FaultConfig fc;
    fc.seed = 3;
    fc.rate_of(faults::Site::DeviceLaunch) = 1.0;
    faults::ScopedFaultConfig scoped(fc);
    std::vector<std::future<SolveResponse<double>>> futs;
    for (int i = 0; i < 6; ++i)
      futs.push_back(svc.submit(make_request(64, 5000 + i)));
    for (auto& f : futs) EXPECT_EQ(f.get().status, SolveStatus::Ok);
  }
  EXPECT_GT(svc.counters().breaker_opens, 0u);

  // Faults gone (explicitly zeroed — an ambient TDA_FAULTS must not
  // leak in): the half-open probe must admit traffic again and the GPU
  // path must come back (no new CPU failovers for clean solves).
  faults::ScopedFaultConfig quiet{faults::FaultConfig{}};
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const auto cpu_before = svc.counters().cpu_failovers;
  std::vector<std::future<SolveResponse<double>>> futs;
  for (int i = 0; i < 6; ++i)
    futs.push_back(svc.submit(make_request(64, 6000 + i)));
  for (auto& f : futs) {
    const auto resp = f.get();
    EXPECT_EQ(resp.status, SolveStatus::Ok);
    EXPECT_FALSE(resp.fallback_used);
  }
  EXPECT_EQ(svc.counters().cpu_failovers, cpu_before);
}

TEST(SolveServiceResilience, CrashedWorkersAreHealed) {
  faults::FaultConfig fc;
  fc.seed = 13;
  fc.rate_of(faults::Site::WorkerCrash) = 0.4;  // 1.0 would livelock
  faults::ScopedFaultConfig scoped(fc);

  ServiceConfig cfg;
  cfg.flush_systems = 4;
  SolveService<double> svc(
      {gpusim::geforce_gtx_470(), gpusim::geforce_gtx_280()}, cfg);
  std::vector<std::future<SolveResponse<double>>> futs;
  for (int i = 0; i < 32; ++i)
    futs.push_back(svc.submit(make_request(96, 7000 + i)));
  for (auto& f : futs) EXPECT_EQ(f.get().status, SolveStatus::Ok);
  svc.shutdown();

  const auto c = svc.counters();
  EXPECT_EQ(c.completed, 32u);
  // At 40% crash probability per pickup, 8 flush batches make at least
  // one crash overwhelmingly likely (P[no crash] ≈ 0.6^8 < 2%).
  EXPECT_GT(c.worker_restarts, 0u);
}

TEST(SolveServiceHammer, SurvivesCombinedFaultStorm) {
  faults::FaultConfig fc;
  fc.seed = 29;
  fc.rate_of(faults::Site::DeviceLaunch) = 0.1;
  fc.rate_of(faults::Site::WorkerCrash) = 0.1;
  fc.rate_of(faults::Site::WorkerStall) = 0.1;
  fc.stall_ms = 0.5;
  faults::ScopedFaultConfig scoped(fc);

  ServiceConfig cfg;
  cfg.flush_systems = 8;
  cfg.flush_interval_ms = 0.5;
  cfg.resilience.retry_backoff_ms = 0.01;
  SolveService<double> svc(
      {gpusim::geforce_gtx_470(), gpusim::geforce_gtx_280()}, cfg);

  constexpr int kClients = 3, kPerClient = 20;
  std::vector<std::thread> clients;
  std::atomic<int> ok{0};
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerClient; ++i) {
        auto resp = svc.submit(make_request(64, 8000 + t * 100 + i)).get();
        if (resp.status == SolveStatus::Ok) ok.fetch_add(1);
      }
    });
  }
  for (auto& c : clients) c.join();
  svc.shutdown();  // crashes mid-drain must not strand the shutdown
  EXPECT_EQ(ok.load(), kClients * kPerClient);
}

}  // namespace
