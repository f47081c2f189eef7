#pragma once
// SolveService — the serving layer in front of the auto-tuned solver.
//
// The paper's deployment model (tune once per shape, amortize the tuned
// switch points over many solves) pays off at scale when many
// independent callers funnel their systems through one warm solver.
// This service is that funnel:
//
//   * callers submit() single systems (or ragged batches, one request
//     per system) and get std::futures back;
//   * pending requests are bucketed by (n, dtype) shape
//     (service/pending_queue.hpp) and each bucket is coalesced into ONE
//     batched solve per flush — triggered by size (flush_systems) or
//     deadline (flush_interval_ms);
//   * flushed buckets go to the least-loaded of one or more simulated
//     devices, each owned by a worker thread;
//   * all workers share a single thread-safe tuning cache, so a shape
//     tuned on one device/worker is a cache hit for every later solve;
//   * admission is bounded (queue_capacity) with a configurable
//     backpressure policy: Block / Reject / ShedOldest;
//   * per-request deadlines produce TimedOut responses instead of
//     unbounded queueing; shutdown() drains in-flight work.
//
// Resilience (docs/ROBUSTNESS.md): solves run through solver::Pipeline
// (solver/pipeline.hpp), so one singular or NaN system returns a
// typed Singular/NonFinite response while its batchmates complete.
// Device faults (faults::DeviceFault, injectable via TDA_FAULTS) are
// retried with exponential backoff, then failed over to another worker
// and finally to the pivoting CPU path; each worker carries a circuit
// breaker (service/breaker.hpp: consecutive-failure threshold,
// cooldown, half-open probe) that steers dispatch away from a sick
// device. A worker thread that dies mid-shift is detected by the
// supervisor, its job is requeued and the thread restarted — a dead
// worker never strands its queue.
//
// Telemetry: the service owns a session. Every admitted request gets a
// trace id (minted here, or adopted from SolveRequest::trace) and a
// "request" root span that stays open until the request reaches a
// terminal state; the batch/solver/kernel spans a solve emits — across
// worker threads, retries, failover, chunk splits and the CPU fallback
// — all nest under that root, so the Chrome-trace export renders one
// coherent tree per request. Metrics always record: every unlabeled
// total (Counters, plus the flush-trigger, fault and breaker-transition
// counts) is a counter handle that counters() reads back; queue depth,
// wait, batch occupancy and solve time are histograms, and so is the
// per-(shape, dtype, outcome) latency, on handles registered on first
// use, whose exemplars carry the trace ids of slow requests. Gauges
// mirroring service state are written by the registry's sampler. The
// tracer is internally synchronized; workers record concurrently
// without service-level serialization.
//
// Thread model: one supervisor thread (see supervisor_loop) plus one
// thread per worker. One service mutex guards the pending queue, every
// breaker and every worker's job queue; each simulated Device is touched
// only by its owning worker thread; the tuning cache and the metrics
// registry have their own internal locks.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "faults/faults.hpp"
#include "gpusim/launch.hpp"
#include "gpusim/memory.hpp"
#include "gpusim/thread_pool.hpp"
#include "kernels/device_batch.hpp"
#include "service/breaker.hpp"
#include "service/config.hpp"
#include "service/pending_queue.hpp"
#include "service/request.hpp"
#include "solver/cancel.hpp"
#include "solver/pipeline.hpp"
#include "solver/ragged.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "tridiag/batch.hpp"
#include "tuning/cache.hpp"

namespace tda::service {

template <typename T>
class SolveService {
  using Clock = std::chrono::steady_clock;
  using TimePoint = Clock::time_point;

 public:
  /// Aggregate request accounting (monotonic since construction).
  struct Counters {
    std::size_t submitted = 0;   ///< submit() calls
    std::size_t completed = 0;   ///< requests solved (status Ok)
    std::size_t rejected = 0;    ///< refused at admission
    std::size_t shed = 0;        ///< evicted by ShedOldest
    std::size_t timed_out = 0;   ///< deadline lapsed before solve
    std::size_t failed = 0;      ///< solve threw
    std::size_t flushes = 0;     ///< coalesced batches dispatched
    std::size_t coalesced_systems = 0;  ///< systems across all flushes
    std::size_t max_batch_systems = 0;  ///< largest single flush
    std::size_t tunes = 0;       ///< tuning runs not served from cache
    double device_ms = 0.0;      ///< total simulated solve ms, all devices

    // --- resilience ---
    std::size_t singular = 0;      ///< requests completed Singular
    std::size_t nonfinite = 0;     ///< requests completed NonFinite
    std::size_t fallbacks = 0;     ///< systems solved by the CPU fallback
    std::size_t quarantined = 0;   ///< systems isolated by the bisect
    std::size_t retries = 0;       ///< device-fault retry attempts
    std::size_t failovers = 0;     ///< batches re-dispatched to another worker
    std::size_t cpu_failovers = 0; ///< batches that ended on the CPU path
    std::size_t worker_restarts = 0;  ///< crashed worker threads revived
    std::size_t breaker_opens = 0;    ///< circuit-breaker open transitions

    // --- resource exhaustion / watchdog ---
    std::size_t timed_out_queue = 0;     ///< deadline lapsed before pickup
    std::size_t timed_out_inflight = 0;  ///< cancelled mid-solve, expired
    std::size_t timeout_requeues = 0;    ///< cancelled mid-solve, requeued
    std::size_t mem_rejected = 0;     ///< refused by memory admission
    std::size_t chunked_solves = 0;   ///< batches split into >1 chunk
    std::size_t chunks = 0;           ///< sub-batches solved on devices
    std::size_t oom_events = 0;       ///< OutOfMemory absorbed by chunking
    std::size_t oom_fallbacks = 0;    ///< systems CPU-solved at the floor
    std::size_t watchdog_cancels = 0; ///< overdue jobs cancelled in flight
    std::size_t watchdog_stalls = 0;  ///< stall strikes issued
  };

  explicit SolveService(const std::vector<gpusim::DeviceSpec>& devices,
                        ServiceConfig cfg = {})
      : cfg_(std::move(cfg)), start_tp_(Clock::now()) {
    TDA_REQUIRE(!devices.empty(), "service needs at least one device");
    TDA_REQUIRE(cfg_.queue_capacity >= 1, "queue capacity must be positive");
    TDA_REQUIRE(cfg_.flush_systems >= 1, "flush size must be positive");
    TDA_REQUIRE(cfg_.flush_interval_ms >= 0.0,
                "flush interval must be non-negative");
    if (!cfg_.cache_path.empty()) cache_.load(cfg_.cache_path);
    if (cfg_.engine_threads > 0) {
      gpusim::ThreadPool::global().resize(cfg_.engine_threads);
    }
    telemetry_.tracer.set_clock([this] { return wall_s(Clock::now()); });
    auto& mx = telemetry_.metrics;
    for (const TotalRow& row : kTotalRows) {
      totals_.*row.handle = mx.counter_handle(row.metric);
    }
    mx.set("service.workers", static_cast<double>(devices.size()));
    mx.set("service.queue_capacity",
           static_cast<double>(cfg_.queue_capacity));
    const Breaker::Transitions transitions{totals_.breaker_opens,
                                           totals_.breaker_half_open,
                                           totals_.breaker_closed};
    workers_.reserve(devices.size());
    for (const auto& spec : devices) {
      const std::string index = std::to_string(workers_.size());
      workers_.push_back(std::make_unique<Worker>(
          spec, workers_.size(),
          Breaker(transitions, ms(kBreakerCooldownMs))));
      workers_.back()->breaker_state = mx.gauge_handle(telemetry::labeled(
          "service.breaker_state",
          {{"worker", index}, {"device", spec.name}}));
      workers_.back()->restarts_now = mx.gauge_handle(telemetry::labeled(
          "service.worker_restarts_now", {{"worker", index}}));
      // Every worker device records into the service session, but must
      // NOT adopt the simulated clock: kernel spans need wall timestamps
      // to nest under the service's wall-clock batch spans.
      workers_.back()->dev.set_telemetry(&telemetry_, /*adopt_clock=*/false);
      // The service has a recovery story for the TDA_FAULTS device
      // sites, so it arms them; bare solver runs stay unarmed.
      workers_.back()->dev.arm_faults();
      if (cfg_.mem_budget_bytes > 0) {
        workers_.back()->dev.set_mem_budget(cfg_.mem_budget_bytes);
      }
      total_mem_budget_ += workers_.back()->dev.memory().budget();
    }
    mx.set("service.mem_budget_bytes",
           static_cast<double>(total_mem_budget_));
    mx.set_sampler([this] { sample_gauges(); });
    for (auto& w : workers_) {
      w->thread = std::thread([this, wp = w.get()] { worker_loop(*wp); });
    }
    supervisor_ = std::thread([this] { supervisor_loop(); });
  }

  ~SolveService() { shutdown(); }

  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  /// Delivers a request's terminal response, exactly once.
  using Completion = std::function<void(SolveResponse<T>)>;

  /// Submits one system; the future resolves when the request reaches a
  /// terminal state (see SolveStatus). Never blocks except under
  /// BackpressurePolicy::Block with a full queue.
  std::future<SolveResponse<T>> submit(SolveRequest<T> req) {
    auto promise = std::make_shared<std::promise<SolveResponse<T>>>();
    auto future = promise->get_future();
    submit(std::move(req), [promise](SolveResponse<T> resp) {
      promise->set_value(std::move(resp));
    });
    return future;
  }

  /// Callback-delivery submit (the wire front door, which must not burn
  /// a thread per outstanding future): `done` fires exactly once with the
  /// terminal response, possibly before this call returns. It may run on
  /// a service thread, or on the submitting thread for admission-time
  /// rejections and sheds, sometimes under the service mutex, so it must
  /// be cheap and MUST NOT call back into the service (enqueue the
  /// response and return).
  void submit(SolveRequest<T> req, Completion done) {
    const std::size_t n = req.size();
    TDA_REQUIRE(n >= 1, "solve request needs at least one equation");
    TDA_REQUIRE(req.a.size() == n && req.c.size() == n && req.d.size() == n,
                "request diagonals must have equal length");

    std::unique_lock lk(mu_);
    totals_.submitted.add();
    if (accepting_ && queue_.count() >= cfg_.queue_capacity) {
      if (cfg_.backpressure == BackpressurePolicy::Block) {
        cv_space_.wait(lk, [this] {
          return queue_.count() < cfg_.queue_capacity || !accepting_;
        });
      } else if (cfg_.backpressure == BackpressurePolicy::ShedOldest) {
        shed_oldest_locked();
      }
    }
    // Shut down, or still full under BackpressurePolicy::Reject.
    if (!accepting_ || queue_.count() >= cfg_.queue_capacity) {
      lk.unlock();
      reject(std::move(done));
      return;
    }

    // Memory-aware admission: keep the projected device-resident
    // footprint of everything admitted-but-unfinished within the
    // configured fraction of the pooled budgets. ShedOldest makes room
    // by evicting; Block degenerates to Reject here (a caller blocked on
    // bytes could wait forever behind one oversized resident batch).
    if (cfg_.mem_admission_fraction > 0.0 && total_mem_budget_ > 0) {
      const double cap = cfg_.mem_admission_fraction *
                         static_cast<double>(total_mem_budget_);
      const auto projected = [&] {
        std::size_t inflight = 0;
        for (const auto& w : workers_) inflight += w->queued_bytes;
        return static_cast<double>(queue_.bytes() + inflight +
                                   footprint_of(n));
      };
      while (cfg_.backpressure == BackpressurePolicy::ShedOldest &&
             projected() > cap && shed_oldest_locked()) {
      }
      if (projected() > cap) {
        totals_.mem_rejected.add();
        lk.unlock();
        reject(std::move(done),
               "memory admission: projected footprint exceeds budget");
        return;
      }
    }

    const TimePoint now = Clock::now();
    Pending p;
    p.a = std::move(req.a);
    p.b = std::move(req.b);
    p.c = std::move(req.c);
    p.d = std::move(req.d);
    p.done = std::move(done);
    p.tenant = std::move(req.tenant);
    p.enqueue_tp = now;
    p.deadline_tp = deadline_of(now, req.deadline_ms);
    p.n = n;
    if (telemetry_.tracer.enabled()) {
      // Mint the request's identity at admission: adopt the caller's
      // trace id when one came in, otherwise start a fresh trace. The
      // root span stays open until the request reaches a terminal state;
      // everything the solve path emits parents under it via p.ctx.
      p.ctx.trace_id = req.trace.trace_id != 0 ? req.trace.trace_id
                                               : telemetry::next_trace_id();
      p.root = telemetry_.tracer.open_at(
          "request", "service", wall_s(now),
          {p.ctx.trace_id, req.trace.parent});
      telemetry_.tracer.attr(p.root, "n", static_cast<double>(n));
      if (!p.tenant.empty()) {
        telemetry_.tracer.attr(p.root, "tenant", p.tenant);
      }
      p.ctx.parent = p.root;
    }
    queue_.push(std::move(p));
    telemetry_.metrics.observe("service.queue_depth",
                               static_cast<double>(queue_.count()));
    lk.unlock();
    cv_sched_.notify_one();
  }

  /// Submits every system of a ragged batch (one request each); the
  /// supervisor re-coalesces equal sizes — possibly together with other
  /// callers' systems. Futures are in system order.
  std::vector<std::future<SolveResponse<T>>> submit_ragged(
      const solver::RaggedBatch<T>& rb) {
    std::vector<std::future<SolveResponse<T>>> futures;
    futures.reserve(rb.num_systems());
    for (std::size_t s = 0; s < rb.num_systems(); ++s) {
      const std::size_t n = rb.system_size(s);
      const std::size_t off = rb.offset(s);
      SolveRequest<T> req;
      req.a.assign(rb.a().begin() + off, rb.a().begin() + off + n);
      req.b.assign(rb.b().begin() + off, rb.b().begin() + off + n);
      req.c.assign(rb.c().begin() + off, rb.c().begin() + off + n);
      req.d.assign(rb.d().begin() + off, rb.d().begin() + off + n);
      futures.push_back(submit(std::move(req)));
    }
    return futures;
  }

  /// Stops admission, drains every queued and in-flight request, joins
  /// all threads and merge-saves the tuning cache. Idempotent; called by
  /// the destructor.
  void shutdown() {
    {
      std::lock_guard lk(mu_);
      if (stopped_) return;
      accepting_ = false;
      draining_ = true;
    }
    cv_sched_.notify_all();
    cv_space_.notify_all();
    // The supervisor returns only once the drain left nothing pending,
    // in flight or crashed, so every worker is idle when told to stop.
    if (supervisor_.joinable()) supervisor_.join();
    {
      std::lock_guard lk(mu_);
      for (auto& w : workers_) w->stop = true;
    }
    for (auto& w : workers_) w->cv.notify_all();
    for (auto& w : workers_) {
      if (w->thread.joinable()) w->thread.join();
    }
    if (!cfg_.cache_path.empty()) cache_.save_merged(cfg_.cache_path);
    std::lock_guard lk(mu_);
    stopped_ = true;
  }

  [[nodiscard]] bool accepting() const {
    std::lock_guard lk(mu_);
    return accepting_;
  }
  [[nodiscard]] const tuning::TuningCache& cache() const { return cache_; }

  // --- live reconfiguration (ops admin socket, docs/OPERATIONS.md) ---

  /// Changes the default relative deadline applied to requests that
  /// carry none. Under the service mutex (deadline_of reads it there);
  /// work already queued keeps the deadline computed at its admission.
  void set_default_deadline_ms(double ms) {
    std::lock_guard lk(mu_);
    cfg_.default_deadline_ms = ms;
  }

  /// Resizes the shared engine thread pool without a restart; <= 0 is
  /// ignored. In-flight batch solves finish on the old lanes.
  void resize_engine_threads(int lanes) {
    if (lanes > 0) gpusim::ThreadPool::global().resize(lanes);
  }

  /// Rewrites the env-gated export files (TDA_TRACE / TDA_METRICS /
  /// TDA_OPENMETRICS) now instead of waiting for destruction — orderly
  /// exits (SIGTERM, admin drain, hot-restart handoff) call this so the
  /// on-disk numbers are current even if the process is then killed.
  void flush_exports() { env_export_.flush(); }

  /// Reads every total back from its registry slot, so the struct and
  /// the exported service.* counters are one accounting.
  [[nodiscard]] Counters counters() const {
    Counters c;
    for (const TotalRow& row : kTotalRows) {
      if (row.field != nullptr) {
        c.*row.field = static_cast<std::size_t>((totals_.*row.handle).value());
      }
    }
    c.device_ms = totals_.device_ms.value();
    c.max_batch_systems = max_batch_systems_.load(std::memory_order_relaxed);
    return c;
  }

  /// Summed device memory budgets of every worker.
  [[nodiscard]] std::size_t total_mem_budget() const {
    return total_mem_budget_;
  }

  /// The service telemetry session. Metrics always record; enable the
  /// tracer before submitting, or set TDA_TRACE. TDA_TRACE / TDA_METRICS
  /// export with a ".service" suffix at destruction.
  [[nodiscard]] telemetry::Telemetry& telemetry() { return telemetry_; }
  [[nodiscard]] const telemetry::Telemetry& telemetry() const {
    return telemetry_;
  }

  bool export_trace(const std::string& path) const {
    return telemetry::write_text_file(
        path, telemetry::to_chrome_trace(telemetry_.tracer));
  }
  bool export_metrics(const std::string& path) const {
    return telemetry::write_text_file(
        path, telemetry::to_metrics_json(telemetry_.metrics));
  }
  /// Writes the registry in OpenMetrics text format (counters, gauges,
  /// summaries, latency histograms with exemplars, `# EOF`).
  bool export_openmetrics(const std::string& path) const {
    return telemetry::write_text_file(
        path, telemetry::to_openmetrics(telemetry_.metrics));
  }

  /// Point-in-time view of one worker for dashboards/consoles.
  struct WorkerHealth {
    std::string device;       ///< device name
    const char* breaker;      ///< "closed" / "open" / "half_open"
    std::size_t restarts;     ///< times the worker thread was revived
    std::size_t queued_systems;
    bool busy;                ///< a job is being processed right now
  };

  [[nodiscard]] std::vector<WorkerHealth> worker_health() const {
    std::vector<WorkerHealth> out;
    out.reserve(workers_.size());
    std::lock_guard lk(mu_);
    for (const auto& w : workers_) {
      WorkerHealth h;
      h.device = w->dev.spec().name;
      h.breaker = w->breaker.name();
      h.restarts = w->restarts;
      h.queued_systems = w->queued_systems;
      h.busy = w->token != nullptr;
      out.push_back(std::move(h));
    }
    return out;
  }

 private:
  struct Pending {
    std::vector<T> a, b, c, d;
    Completion done;
    std::string tenant;  ///< latency-histogram label ("" = unlabeled)
    TimePoint enqueue_tp{};
    TimePoint deadline_tp = TimePoint::max();
    std::uint64_t seq = 0;
    std::size_t n = 0;  ///< system size (latency-bucket label)
    /// Request identity: trace id + root span ("request"), minted at
    /// admission while the tracer is enabled. Every span the solve path
    /// emits for this request hangs under `root`.
    telemetry::TraceContext ctx;
    telemetry::SpanId root = telemetry::kInvalidSpan;
  };

  struct Job {
    std::size_t n = 0;
    std::vector<Pending> members;
    TimePoint flush_tp{};
    const char* trigger = "size";
    std::size_t failovers = 0;  ///< workers that already gave up on it
  };

  struct Worker {
    Worker(const gpusim::DeviceSpec& spec, std::size_t index, Breaker b)
        : dev(spec), breaker(b), backoff_rng(mix64(index)) {}
    gpusim::Device dev;
    std::thread thread;
    std::condition_variable cv;       // waits on the service mutex
    std::deque<Job> jobs;             // guarded by the service mutex
    std::size_t queued_systems = 0;   // guarded by the service mutex
    std::size_t queued_bytes = 0;     // guarded by the service mutex
    bool stop = false;                // guarded by the service mutex

    // --- watchdog view of the in-flight job (guarded by the service
    // mutex; the token's own state is atomic) ---
    std::shared_ptr<solver::CancelToken> token;  ///< set while busy
    TimePoint job_deadline = TimePoint::max();  ///< earliest member deadline
    std::uint64_t last_beats = 0;
    TimePoint last_progress_tp{};
    int strikes = 0;

    // --- health (guarded by the service mutex) ---
    Breaker breaker;
    bool crashed = false;     ///< thread died; the supervisor revives it
    std::size_t restarts = 0;
    /// service.breaker_state / worker_restarts_now, set by the sampler.
    telemetry::Gauge breaker_state, restarts_now;

    /// Retry-backoff jitter stream (worker thread only), seeded from the
    /// worker's index: workers hit by one fault desynchronize, and a
    /// seeded fault run sleeps the same schedule every time.
    std::uint64_t backoff_rng;
  };

  [[nodiscard]] static Clock::duration ms(double v) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(v));
  }
  [[nodiscard]] double wall_s(TimePoint tp) const {
    return std::chrono::duration<double>(tp - start_tp_).count();
  }
  [[nodiscard]] TimePoint deadline_of(TimePoint now, double req_ms) const {
    const double v = req_ms > 0.0 ? req_ms : cfg_.default_deadline_ms;
    if (v <= 0.0) return TimePoint::max();
    return now + ms(v);
  }

  /// A response that carries only its terminal status.
  [[nodiscard]] static SolveResponse<T> status_only(
      SolveStatus status, std::string error = {},
      TimeoutScope scope = TimeoutScope::None) {
    SolveResponse<T> resp;
    resp.status = status;
    resp.error = std::move(error);
    resp.timeout_scope = scope;
    return resp;
  }
  [[nodiscard]] static SolveResponse<T> timed_out(TimeoutScope scope) {
    return status_only(SolveStatus::TimedOut, {}, scope);
  }

  /// The `outcome` label of a terminal response, by SolveStatus, then
  /// "fallback" for an Ok answer the CPU fallback produced.
  static constexpr const char* kOutcomeNames[] = {
      "ok",     "rejected", "shed",      "timed_out",
      "failed", "singular", "nonfinite", "fallback"};
  static constexpr std::size_t kOutcomes = std::size(kOutcomeNames);
  /// Latency shape buckets: le16, le32, ..., le16777216 (2^24).
  static constexpr std::size_t kShapeBuckets = 21;

  /// The service.request_latency_ms{[tenant,]shape,dtype,outcome} series
  /// of a request of `tenant` ("" = in-process caller, no tenant label)
  /// and size n: looked up by index, registered on its first sample.
  telemetry::Histogram latency_series(std::string_view tenant,
                                      std::size_t n, std::size_t outcome) {
    std::size_t shape = 0;  // smallest power-of-two bucket holding n
    while ((std::size_t{16} << shape) < n && shape + 1 < kShapeBuckets) ++shape;
    std::lock_guard lk(latency_mu_);
    auto row = latency_.find(tenant);
    if (row == latency_.end()) {
      row = latency_.try_emplace(std::string(tenant)).first;
    }
    telemetry::Histogram& h = row->second[shape][outcome];
    if (!h) {
      const std::string bucket =
          "le" + std::to_string(std::size_t{16} << shape);
      const char* name = kOutcomeNames[outcome];
      h = telemetry_.metrics.histogram_handle(
          tenant.empty()
              ? telemetry::labeled("service.request_latency_ms",
                                   {{"shape", bucket},
                                    {"dtype", dtype_name()},
                                    {"outcome", name}})
              : telemetry::labeled("service.request_latency_ms",
                                   {{"tenant", tenant},
                                    {"shape", bucket},
                                    {"dtype", dtype_name()},
                                    {"outcome", name}}));
    }
    return h;
  }

  [[nodiscard]] static const char* dtype_name() {
    return sizeof(T) == 4 ? "f32" : "f64";
  }

  /// Refuses a request at admission, before it became a Pending: counts
  /// it and delivers Rejected. Called without mu_.
  void reject(Completion done, std::string error = {}) {
    totals_.rejected.add();
    done(status_only(SolveStatus::Rejected, std::move(error)));
  }

  /// The one terminal path of an admitted request: counts it by status
  /// (a timeout also by scope) before delivery, so whoever sees the
  /// response sees counters that include it; closes its root span with
  /// its outcome; records its latency per (shape, dtype, outcome) with
  /// the trace id as exemplar; delivers. Callable with or without mu_.
  void settle(Pending& p, SolveResponse<T> resp, TimePoint now) {
    switch (resp.status) {
      case SolveStatus::Ok: totals_.completed.add(); break;
      case SolveStatus::Rejected: totals_.rejected.add(); break;
      case SolveStatus::Shed: totals_.shed.add(); break;
      case SolveStatus::TimedOut:
        totals_.timed_out.add();
        (resp.timeout_scope == TimeoutScope::Queue ? totals_.timed_out_queue
                                                   : totals_.timed_out_inflight)
            .add();
        break;
      case SolveStatus::Failed: totals_.failed.add(); break;
      case SolveStatus::Singular: totals_.singular.add(); break;
      case SolveStatus::NonFinite: totals_.nonfinite.add(); break;
    }
    const std::size_t outcome = resp.fallback_used
                                    ? kOutcomes - 1
                                    : static_cast<std::size_t>(resp.status);
    if (p.root != telemetry::kInvalidSpan) {
      telemetry_.tracer.attr(p.root, "outcome", kOutcomeNames[outcome]);
      telemetry_.tracer.close_at(p.root, wall_s(now));
      p.root = telemetry::kInvalidSpan;
    }
    const double e2e_ms = std::chrono::duration<double, std::milli>(
                              now - p.enqueue_tp)
                              .count();
    latency_series(p.tenant, p.n, outcome).observe(e2e_ms, p.ctx.trace_id);
    p.done(std::move(resp));
  }

  /// The registry's read-time sampler: queue depth, worker breakers and
  /// restarts (under mu_), then engine lanes and pool (outside it).
  void sample_gauges() {
    auto& mx = telemetry_.metrics;
    {
      std::lock_guard lk(mu_);
      mx.set("service.queue_depth_now", static_cast<double>(queue_.count()));
      for (const auto& w : workers_) {
        w->breaker_state.set(w->breaker.level());
        w->restarts_now.set(static_cast<double>(w->restarts));
      }
    }
    const auto lanes = gpusim::ThreadPool::global().lane_stats();
    double busy_ms = 0.0;
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      const std::string lane = std::to_string(i);
      mx.set(telemetry::labeled("engine.lane.busy_ms", {{"lane", lane}}),
             lanes[i].busy_ms);
      mx.set(telemetry::labeled("engine.lane.chunks", {{"lane", lane}}),
             static_cast<double>(lanes[i].chunks));
      busy_ms += lanes[i].busy_ms;
    }
    const double up_ms = std::chrono::duration<double, std::milli>(
                             Clock::now() - start_tp_)
                             .count();
    if (!lanes.empty() && up_ms > 0.0) {
      mx.set("engine.utilization",
             busy_ms / (up_ms * static_cast<double>(lanes.size())));
    }
    telemetry::sample_process_gauges(mx);
  }

  /// Device-resident bytes one queued system of size n will need.
  [[nodiscard]] static std::size_t footprint_of(std::size_t n) {
    return kernels::DeviceBatch<T>::footprint_bytes(1, n);
  }

  /// Evicts the globally oldest queued request. Returns false when the
  /// queue was already empty. Caller holds mu_.
  bool shed_oldest_locked() {
    std::optional<Pending> victim = queue_.shed_oldest();
    if (!victim) return false;
    settle(*victim, status_only(SolveStatus::Shed), Clock::now());
    return true;
  }

  /// The least-loaded worker whose breaker admits work, skipping
  /// `exclude`; nullptr when every candidate's breaker is open. Dispatch
  /// and device failover both choose through here. Caller holds mu_.
  [[nodiscard]] Worker* pick_worker_locked(TimePoint now,
                                           const Worker* exclude = nullptr) {
    Worker* chosen = nullptr;
    for (auto& w : workers_) {
      if (w.get() == exclude || !w->breaker.admits(now)) continue;
      if (chosen == nullptr || w->queued_systems < chosen->queued_systems)
        chosen = w.get();
    }
    return chosen;
  }

  /// Queues `job` on `w`, charging its systems and bytes to the worker.
  /// Caller holds mu_.
  void assign_locked(Worker& w, Job job) {
    const std::size_t systems = job.members.size();
    w.queued_systems += systems;
    w.queued_bytes += systems * footprint_of(job.n);
    w.jobs.push_back(std::move(job));
    w.cv.notify_one();
  }

  /// Joins and respawns every crashed worker thread. Its queue (including
  /// the requeued in-flight job) survives untouched, so no request is
  /// stranded. Caller holds mu_; the dying thread never re-acquires it,
  /// so the join cannot deadlock.
  void heal_workers_locked() {
    for (auto& w : workers_) {
      if (!w->crashed) continue;
      if (w->thread.joinable()) w->thread.join();
      w->crashed = false;
      ++w->restarts;
      totals_.worker_restarts.add();
      w->thread = std::thread([this, wp = w.get()] { worker_loop(*wp); });
      w->cv.notify_one();
    }
  }

  /// Flushes every triggered bucket to a worker. Caller holds mu_.
  void dispatch_ready_locked(TimePoint now) {
    const auto interval = ms(cfg_.flush_interval_ms);
    for (const std::size_t n : queue_.shapes()) {
      // Carve jobs of at most flush_systems while a trigger holds:
      // flush_systems is both the size trigger and the batch-size cap, so
      // a deep bucket spreads over the worker pool instead of landing as
      // one oversized batch on a single device.
      for (;;) {
        const std::size_t queued = queue_.size(n);
        const char* trigger = nullptr;
        telemetry::Counter trigger_total;
        if (queued == 0) {
          break;
        } else if (draining_) {
          trigger = "drain";
          trigger_total = totals_.flush_drain;
        } else if (queued >= cfg_.flush_systems) {
          trigger = "size";
          trigger_total = totals_.flush_size;
        } else if (queue_.front(n).enqueue_tp + interval <= now) {
          trigger = "interval";
          trigger_total = totals_.flush_interval;
        }
        if (trigger == nullptr) break;
        Job job;
        job.n = n;
        job.trigger = trigger;
        job.flush_tp = now;
        job.members = queue_.take(n, cfg_.flush_systems);
        const std::size_t take = job.members.size();
        totals_.flushes.add();
        trigger_total.add();
        totals_.coalesced_systems.add(static_cast<double>(take));
        std::size_t prev =
            max_batch_systems_.load(std::memory_order_relaxed);
        while (prev < take && !max_batch_systems_.compare_exchange_weak(
                                  prev, take, std::memory_order_relaxed)) {
        }
        telemetry_.metrics.observe("service.batch_occupancy",
                                   static_cast<double>(take));
        telemetry_.metrics.observe("service.queue_depth",
                                   static_cast<double>(queue_.count()));
        Worker* w = pick_worker_locked(now);
        if (w == nullptr) {
          // Every breaker is open: the least-recently opened worker takes
          // the job (its queue feeds the eventual probe).
          w = std::min_element(workers_.begin(), workers_.end(),
                               [](const auto& a, const auto& b) {
                                 return a->breaker.open_until() <
                                        b->breaker.open_until();
                               })
                  ->get();
        }
        assign_locked(*w, std::move(job));
      }
    }
  }

  /// The watchdog: cancels a job past its earliest member deadline, and
  /// strikes a worker whose heartbeat stood still for kStallThresholdMs;
  /// kStallStrikes in a row trip its breaker. Caller holds mu_.
  void watch_workers_locked(TimePoint now) {
    const auto stall_threshold = ms(kStallThresholdMs);
    for (auto& wp : workers_) {
      Worker& w = *wp;
      if (w.token == nullptr) {
        w.strikes = 0;
        continue;
      }
      if (w.job_deadline <= now && !w.token->cancelled()) {
        w.token->cancel();
        totals_.watchdog_cancels.add();
      }
      const std::uint64_t beats = w.token->beats();
      if (beats != w.last_beats) {
        w.last_beats = beats;
        w.last_progress_tp = now;
        w.strikes = 0;
      } else if (now - w.last_progress_tp >= stall_threshold) {
        ++w.strikes;
        w.last_progress_tp = now;
        totals_.watchdog_stalls.add();
        if (w.strikes >= kStallStrikes) {
          w.strikes = 0;
          w.breaker.trip(now);
        }
      }
    }
  }

  /// Each pass heals crashed workers, expires overdue queued requests,
  /// dispatches ready buckets and samples busy workers, then sleeps until
  /// the next flush or deadline event, at most kWatchdogIntervalMs.
  /// Returns once a drain is done.
  void supervisor_loop() {
    const auto tick = ms(kWatchdogIntervalMs);
    const auto flush_interval = ms(cfg_.flush_interval_ms);
    std::unique_lock lk(mu_);
    for (;;) {
      const TimePoint now = Clock::now();
      const std::size_t queued = queue_.count();
      heal_workers_locked();
      for (Pending& p : queue_.expire(now)) {
        settle(p, timed_out(TimeoutScope::Queue), now);
      }
      dispatch_ready_locked(now);
      watch_workers_locked(now);
      // Whatever shrank the queue, Block submitters get to retry.
      if (queue_.count() < queued) cv_space_.notify_all();
      // Drained: nothing pending and no worker holding work (queued_systems
      // covers queued jobs, the job in flight and a crashed thread's job).
      if (draining_ && queue_.empty() &&
          std::all_of(workers_.begin(), workers_.end(),
                      [](const auto& w) { return w->queued_systems == 0; })) {
        return;
      }
      cv_sched_.wait_until(
          lk, std::min(queue_.next_wake(flush_interval), now + tick));
    }
  }

  void worker_loop(Worker& w) {
    std::unique_lock lk(mu_);
    for (;;) {
      w.cv.wait(lk, [&w] { return w.stop || !w.jobs.empty(); });
      if (w.jobs.empty() && w.stop) return;
      Job job = std::move(w.jobs.front());
      w.jobs.pop_front();
      const std::size_t systems = job.members.size();
      const std::size_t bytes = systems * footprint_of(job.n);

      auto& inj = faults::FaultInjector::global();
      if (inj.fire(faults::Site::WorkerCrash)) {
        // Simulated thread death. The job is requeued intact (no promise
        // has been touched yet) and the supervisor revives the thread.
        totals_.faults_worker_crash.add();
        w.jobs.push_front(std::move(job));
        w.crashed = true;
        cv_sched_.notify_all();
        return;
      }

      // Publish the in-flight job to the watchdog before dropping the
      // lock: earliest member deadline + a fresh heartbeat token.
      w.token = std::make_shared<solver::CancelToken>();
      w.job_deadline = TimePoint::max();
      for (const auto& p : job.members) {
        w.job_deadline = std::min(w.job_deadline, p.deadline_tp);
      }
      w.last_beats = 0;
      w.last_progress_tp = Clock::now();
      w.strikes = 0;
      auto token = w.token;
      lk.unlock();

      process(w, job, token.get());
      lk.lock();
      w.queued_systems -= systems;
      w.queued_bytes -= std::min(w.queued_bytes, bytes);
      w.token.reset();
      if (draining_) cv_sched_.notify_all();
    }
  }

  /// Runs one coalesced batch on the worker's device and fulfils every
  /// member promise. No service lock held. `token` is the cancellation
  /// token the worker published to the watchdog for this job.
  void process(Worker& w, Job& job, solver::CancelToken* token) {
    const TimePoint t_pickup = Clock::now();

    // Requests whose deadline lapsed while queued behind this flush time
    // out here (scope Queue); everything picked up in time starts
    // solving under the watchdog's in-flight deadline enforcement.
    std::vector<Pending> live;
    live.reserve(job.members.size());
    for (auto& p : job.members) {
      if (p.deadline_tp <= t_pickup) {
        settle(p, timed_out(TimeoutScope::Queue), t_pickup);
      } else {
        live.push_back(std::move(p));
      }
    }
    if (live.empty()) return;

    // Install the primary member's trace context as this worker thread's
    // ambient parent and open a "batch" span under it: every span the
    // solve emits below (tuner, solver stages, chunk splits, kernel
    // launches, CPU fallback) nests under the batch via the thread-local
    // span stack. Batchmates riding along carry a link attribute back to
    // the shared batch trace on their own roots.
    auto& tr = telemetry_.tracer;
    telemetry::TraceContext bctx;
    if (tr.enabled() && live.front().root != telemetry::kInvalidSpan) {
      bctx = telemetry::TraceContext{live.front().ctx.trace_id,
                                     live.front().root};
    }
    telemetry::TraceScope trace_scope(&tr, bctx);
    telemetry::ScopedSpan batch_span(tr, "batch", "service");
    if (batch_span.active()) {
      batch_span.attr("n", static_cast<double>(job.n));
      batch_span.attr("systems", static_cast<double>(live.size()));
      batch_span.attr("device", w.dev.spec().name);
      batch_span.attr("trigger", job.trigger);
      if (job.failovers > 0) {
        batch_span.attr("failovers", static_cast<double>(job.failovers));
      }
      if (bctx.valid()) {
        const std::string hex = telemetry::trace_id_hex(bctx.trace_id);
        for (std::size_t i = 1; i < live.size(); ++i) {
          if (live[i].root != telemetry::kInvalidSpan) {
            tr.attr(live[i].root, "batch_trace", hex);
          }
        }
      }
    }

    auto& inj = faults::FaultInjector::global();
    if (inj.fire(faults::Site::WorkerStall)) {
      // Stall mid-job, after the pickup filter: a deadline lapsing
      // during the sleep is the watchdog's to enforce, so an injected
      // stall exercises the in-flight timeout path end to end.
      totals_.faults_worker_stall.add();
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(
              inj.config().stall_ms));
    }

    const std::size_t m = live.size();
    const std::size_t n = job.n;
    tridiag::TridiagBatch<T> batch(m, n);
    for (std::size_t i = 0; i < m; ++i) {
      std::copy(live[i].a.begin(), live[i].a.end(),
                batch.a().data() + i * n);
      std::copy(live[i].b.begin(), live[i].b.end(),
                batch.b().data() + i * n);
      std::copy(live[i].c.begin(), live[i].c.end(),
                batch.c().data() + i * n);
      std::copy(live[i].d.begin(), live[i].d.end(),
                batch.d().data() + i * n);
    }

    // Poison injection: contaminate systems on their way to the device
    // so the guards and quarantine get exercised end-to-end.
    if (inj.enabled()) {
      for (std::size_t i = 0; i < m; ++i) {
        faults::Poison kind{};
        bool hit = false;
        if (inj.fire(faults::Site::PoisonNaN)) {
          kind = faults::Poison::NaN;
          hit = true;
        } else if (inj.fire(faults::Site::PoisonZeroPivot)) {
          kind = faults::Poison::ZeroPivot;
          hit = true;
        }
        if (hit) {
          faults::poison_system<T>(
              batch.a().subspan(i * n, n), batch.b().subspan(i * n, n),
              batch.c().subspan(i * n, n), batch.d().subspan(i * n, n),
              kind);
          totals_.faults_poisoned.add();
        }
      }
    }

    const TimePoint t_solve0 = Clock::now();
    // Tuning happens once per batch, before the retry loop: the pipeline
    // runs it with the device's fault sites disarmed, so it cannot fail
    // the way a solve attempt can.
    solver::Pipeline<T> pipeline(w.dev, cache_, {m, n});
    if (pipeline.tuned_fresh()) totals_.tunes.add();
    // The tuned layout decides which pipeline this coalesced batch takes
    // (staged PCR vs interleaved SIMD Thomas) — surface it on the batch
    // span so a trace shows the choice per flush.
    if (batch_span.active()) {
      batch_span.attr("layout", tridiag::to_string(pipeline.points().layout));
    }
    solver::PipelineResult out;
    std::size_t batch_retries = 0;
    bool solved = false;
    bool device_exhausted = false;
    bool cancelled = false;
    std::string error;
    // Previous retry sleep of this batch; the jitter stream itself is
    // per worker and survives batches.
    double backoff_prev_ms = 0.0;

    for (int attempt = 0; !solved; ++attempt) {
      try {
        // The pipeline screens, chunks to the worker's memory budget
        // (absorbing OutOfMemory), quarantines numerical failures and
        // falls back to the pivoting CPU path: only device faults and
        // cancellation reach the handlers below.
        out = pipeline.solve(batch, token);
        std::lock_guard lk(mu_);
        w.breaker.success();
        solved = true;
      } catch (const solver::SolveCancelled&) {
        cancelled = true;
        break;
      } catch (const faults::DeviceFault&) {
        {
          std::lock_guard lk(mu_);
          w.breaker.failure(Clock::now());
        }
        totals_.faults_device.add();
        if (attempt < kMaxRetries) {
          ++batch_retries;
          totals_.retries.add();
          backoff_prev_ms = decorrelated_backoff_ms(
              kRetryBackoffBaseMs, backoff_prev_ms, kRetryBackoffMaxMs,
              w.backoff_rng);
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(backoff_prev_ms));
          continue;
        }
        device_exhausted = true;
        break;
      } catch (const std::exception& e) {
        // Numerical errors are absorbed by the pipeline; anything else
        // here is non-retryable.
        error = e.what();
        break;
      }
    }

    if (cancelled) {
      // The watchdog cancelled this batch mid-flight. Members whose
      // deadline has lapsed finish as TimedOut (scope InFlight); the
      // rest are requeued at the front of their bucket so a later,
      // smaller flush can still make their deadline. During the drain
      // nothing would dispatch a requeue, so everything times out.
      const TimePoint now = Clock::now();
      std::vector<Pending> requeue;
      std::unique_lock lk(mu_);
      for (auto& p : live) {
        if (!draining_ && p.deadline_tp > now) {
          // Requeued members keep their root span open: the re-dispatch
          // emits a second batch span under the same request tree.
          requeue.push_back(std::move(p));
        } else {
          settle(p, timed_out(TimeoutScope::InFlight), now);
        }
      }
      if (!requeue.empty()) {
        totals_.timeout_requeues.add(static_cast<double>(requeue.size()));
        queue_.requeue_front(std::move(requeue));
        cv_sched_.notify_all();
      }
      return;
    }

    if (device_exhausted) {
      // Retries on this device are spent. Hand the whole job to another
      // worker (bounded by the pool size so it cannot ping-pong
      // forever), or solve it on the CPU as the last resort.
      if (job.failovers + 1 < workers_.size()) {
        std::lock_guard lk(mu_);
        if (Worker* alt = pick_worker_locked(Clock::now(), &w)) {
          ++job.failovers;
          job.members = std::move(live);
          assign_locked(*alt, std::move(job));
          totals_.failovers.add();
          return;
        }
      }
      totals_.cpu_failovers.add();
      out = {};
      out.status.resize(m);
      for (std::size_t i = 0; i < m; ++i) {
        out.status[i] = solver::pivoting_fallback<T>(batch.system(i),
                                                     batch.solution(i));
      }
      solved = true;
    }
    const TimePoint t_solve1 = Clock::now();

    if (!solved) {
      for (auto& p : live) {
        settle(p, status_only(SolveStatus::Failed, error), t_solve1);
      }
      return;
    }

    const std::size_t n_fallback = out.counts().fallback_used;
    const solver::SolveStats& stats = out.stats;

    // Batch totals land BEFORE the first delivery (settle counts each
    // request before delivering it).
    totals_.device_ms.add(stats.total_ms);
    totals_.fallbacks.add(static_cast<double>(n_fallback));
    totals_.quarantined.add(static_cast<double>(out.quarantined));
    totals_.chunks.add(static_cast<double>(out.chunks));
    if (out.chunks > 1) totals_.chunked_solves.add();
    totals_.oom_events.add(static_cast<double>(out.oom_events));
    totals_.oom_fallbacks.add(static_cast<double>(out.oom_fallback_systems));
    telemetry_.metrics.observe("service.solve_ms", stats.total_ms);
    for (std::size_t i = 0; i < m; ++i) {
      SolveResponse<T> resp;
      switch (out.status[i]) {
        case solver::SystemStatus::Ok:
          resp.status = SolveStatus::Ok;
          break;
        case solver::SystemStatus::FallbackUsed:
          resp.status = SolveStatus::Ok;
          resp.fallback_used = true;
          break;
        case solver::SystemStatus::Singular:
          resp.status = SolveStatus::Singular;
          resp.error = "system is numerically singular";
          break;
        case solver::SystemStatus::NonFinite:
          resp.status = SolveStatus::NonFinite;
          resp.error = "system contains non-finite coefficients";
          break;
      }
      if (resp.status == SolveStatus::Ok) {
        resp.x.assign(batch.x().begin() + i * n,
                      batch.x().begin() + (i + 1) * n);
      }
      resp.trace_id = live[i].ctx.trace_id;
      resp.batch_systems = m;
      resp.retries = batch_retries;
      resp.chunks = out.chunks;
      resp.wait_ms = std::chrono::duration<double, std::milli>(
                         job.flush_tp - live[i].enqueue_tp)
                         .count();
      resp.solve_ms = stats.total_ms;
      resp.device = w.dev.spec().name;
      telemetry_.metrics.observe("service.wait_ms", resp.wait_ms);
      telemetry_.metrics.observe(
          "service.e2e_ms", std::chrono::duration<double, std::milli>(
                                t_solve1 - live[i].enqueue_tp)
                                .count());
      if (live[i].root != telemetry::kInvalidSpan) {
        tr.attr(live[i].root, "device", w.dev.spec().name);
        if (batch_retries > 0) {
          tr.attr(live[i].root, "retries",
                  static_cast<double>(batch_retries));
        }
      }
      settle(live[i], std::move(resp), t_solve1);
    }
    const TimePoint t_done = Clock::now();

    if (tr.enabled()) {
      // Whole spans with pre-measured wall timestamps, parented
      // explicitly: "enqueue" predates the batch span so it hangs off
      // the request root; the scheduling phases nest under the batch.
      const telemetry::TraceContext under_batch{
          bctx.trace_id, batch_span.active() ? batch_span.id() : bctx.parent};
      const auto span = [&](const char* name, TimePoint b, TimePoint e,
                            telemetry::TraceContext ctx) {
        const auto id =
            tr.emit_at(name, "service", wall_s(b), wall_s(e), ctx);
        tr.attr(id, "n", static_cast<double>(n));
        tr.attr(id, "systems", static_cast<double>(m));
        tr.attr(id, "device", w.dev.spec().name);
        return id;
      };
      const auto enq =
          span("enqueue", live.front().enqueue_tp, job.flush_tp, bctx);
      tr.attr(enq, "trigger", job.trigger);
      span("flush", job.flush_tp, t_solve0, under_batch);
      const auto slv = span("solve", t_solve0, t_solve1, under_batch);
      tr.attr(slv, "sim_ms", stats.total_ms);
      if (batch_retries > 0) {
        tr.attr(slv, "retries", static_cast<double>(batch_retries));
      }
      if (n_fallback > 0) {
        tr.attr(slv, "fallbacks", static_cast<double>(n_fallback));
      }
      span("complete", t_solve1, t_done, under_batch);
    }
  }

  ServiceConfig cfg_;
  TimePoint start_tp_;

  mutable std::mutex mu_;
  std::condition_variable cv_sched_;
  std::condition_variable cv_space_;
  PendingQueue<Pending> queue_{&footprint_of};
  bool accepting_ = true;
  bool draining_ = false;
  bool stopped_ = false;

  std::vector<std::unique_ptr<Worker>> workers_;
  std::thread supervisor_;
  std::size_t total_mem_budget_ = 0;  ///< summed worker budgets (const)

  tuning::TuningCache cache_;

  telemetry::Telemetry telemetry_;
  telemetry::EnvExport env_export_{telemetry_, "service"};

  /// The unlabeled service totals, one registry counter slot each.
  struct Totals {
    telemetry::Counter submitted, completed, rejected, shed, timed_out,
        failed, flushes, coalesced_systems, tunes, device_ms, singular,
        nonfinite, fallbacks, quarantined, retries, failovers,
        cpu_failovers, worker_restarts, breaker_opens, timed_out_queue,
        timed_out_inflight, timeout_requeues, mem_rejected, chunked_solves,
        chunks, oom_events, oom_fallbacks, watchdog_cancels,
        watchdog_stalls;
    // Exported only: no Counters field.
    telemetry::Counter flush_size, flush_interval, flush_drain,
        breaker_half_open, breaker_closed, faults_worker_crash,
        faults_worker_stall, faults_poisoned, faults_device;
  };

  /// Which metric each total exports as, and which Counters field it
  /// backs (nullptr: exported only; device_ms is read separately because
  /// it is not a count).
  struct TotalRow {
    telemetry::Counter Totals::*handle;
    const char* metric;
    std::size_t Counters::*field;
  };
  static constexpr TotalRow kTotalRows[] = {
      {&Totals::submitted, "service.submitted", &Counters::submitted},
      {&Totals::completed, "service.solved_systems", &Counters::completed},
      {&Totals::rejected, "service.rejected", &Counters::rejected},
      {&Totals::shed, "service.shed", &Counters::shed},
      {&Totals::timed_out, "service.timed_out", &Counters::timed_out},
      {&Totals::failed, "service.failed", &Counters::failed},
      {&Totals::flushes, "service.flushes", &Counters::flushes},
      {&Totals::coalesced_systems, "service.coalesced_systems",
       &Counters::coalesced_systems},
      {&Totals::tunes, "service.tunes", &Counters::tunes},
      {&Totals::device_ms, "service.device_ms", nullptr},
      {&Totals::singular, "service.singular", &Counters::singular},
      {&Totals::nonfinite, "service.nonfinite", &Counters::nonfinite},
      {&Totals::fallbacks, "service.fallback_used", &Counters::fallbacks},
      {&Totals::quarantined, "service.quarantined", &Counters::quarantined},
      {&Totals::retries, "service.retries", &Counters::retries},
      {&Totals::failovers, "service.failovers", &Counters::failovers},
      {&Totals::cpu_failovers, "service.cpu_failovers",
       &Counters::cpu_failovers},
      {&Totals::worker_restarts, "service.worker_restarts",
       &Counters::worker_restarts},
      {&Totals::breaker_opens, "service.breaker.open",
       &Counters::breaker_opens},
      {&Totals::timed_out_queue, "service.timed_out_queue",
       &Counters::timed_out_queue},
      {&Totals::timed_out_inflight, "service.timed_out_inflight",
       &Counters::timed_out_inflight},
      {&Totals::timeout_requeues, "service.timeout_requeues",
       &Counters::timeout_requeues},
      {&Totals::mem_rejected, "service.mem_rejected", &Counters::mem_rejected},
      {&Totals::chunked_solves, "service.chunked_solves",
       &Counters::chunked_solves},
      {&Totals::chunks, "service.chunks", &Counters::chunks},
      {&Totals::oom_events, "service.oom_events", &Counters::oom_events},
      {&Totals::oom_fallbacks, "service.oom_fallbacks",
       &Counters::oom_fallbacks},
      {&Totals::watchdog_cancels, "service.watchdog.cancels",
       &Counters::watchdog_cancels},
      {&Totals::watchdog_stalls, "service.watchdog.stalls",
       &Counters::watchdog_stalls},
      {&Totals::flush_size, "service.flush.size", nullptr},
      {&Totals::flush_interval, "service.flush.interval", nullptr},
      {&Totals::flush_drain, "service.flush.drain", nullptr},
      {&Totals::breaker_half_open, "service.breaker.half_open", nullptr},
      {&Totals::breaker_closed, "service.breaker.closed", nullptr},
      {&Totals::faults_worker_crash, "service.faults.worker_crash", nullptr},
      {&Totals::faults_worker_stall, "service.faults.worker_stall", nullptr},
      {&Totals::faults_poisoned, "service.faults.poisoned", nullptr},
      {&Totals::faults_device, "service.faults.device", nullptr},
  };

  Totals totals_;
  /// Largest single flush: a running maximum, not a count.
  std::atomic<std::size_t> max_batch_systems_{0};

  /// service.request_latency_ms handles by tenant, then [shape][outcome]
  /// (see latency_series).
  using LatencyRow = std::array<std::array<telemetry::Histogram, kOutcomes>,
                                kShapeBuckets>;
  std::mutex latency_mu_;
  std::map<std::string, LatencyRow, std::less<>> latency_;
};

}  // namespace tda::service
