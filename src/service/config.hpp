#pragma once
// Solve-service configuration: admission control (bounded queue +
// backpressure policy), flush triggers for shape-bucketed coalescing,
// deadlines, memory budgets and the fault-tolerance settings. Dispatch
// is always least-loaded over the workers whose breaker admits work.

#include <cstddef>
#include <cstdint>
#include <string>

namespace tda::service {

/// What submit() does when the admission queue is full.
enum class BackpressurePolicy {
  Block,      ///< caller blocks until a slot frees (or shutdown)
  Reject,     ///< the new request is refused immediately
  ShedOldest  ///< the oldest queued request is shed to admit the new one
};

const char* to_string(BackpressurePolicy p);

/// Device-fault retries on the same worker before failing over. When
/// they are spent, the batch goes to up to (num_workers - 1) other
/// workers, then to the pivoting CPU path, which always finishes it.
inline constexpr int kMaxRetries = 2;
/// Base of the retry backoff (wall-clock ms). Attempt k sleeps a
/// decorrelated-jitter draw from [base, 3 * previous sleep] capped at
/// kRetryBackoffMaxMs, so workers failed by one flaky device do not
/// retry in lockstep.
inline constexpr double kRetryBackoffBaseMs = 0.25;
/// Ceiling of a single jittered retry backoff sleep (wall-clock ms).
inline constexpr double kRetryBackoffMaxMs = 8.0;
/// Consecutive device failures that open a worker's circuit breaker.
inline constexpr int kBreakerThreshold = 3;
/// How long an open breaker keeps the worker out of dispatch before a
/// half-open probe is allowed (wall-clock ms).
inline constexpr double kBreakerCooldownMs = 25.0;
/// Longest the service supervisor sleeps between passes (wall-clock ms),
/// and so the watchdog's sampling period.
inline constexpr double kWatchdogIntervalMs = 1.0;
/// A busy worker whose solve heartbeat has not advanced for this long
/// (wall-clock ms) earns a stall strike. Generous: simulated solves beat
/// at stage boundaries many times per wall millisecond, so only a
/// genuinely stuck worker (injected stall, runaway kernel) trips it.
inline constexpr double kStallThresholdMs = 50.0;
/// Consecutive watchdog stall strikes that open a worker's breaker.
inline constexpr int kStallStrikes = 3;

struct ServiceConfig {
  /// Max requests admitted but not yet dispatched to a device.
  std::size_t queue_capacity = 4096;
  BackpressurePolicy backpressure = BackpressurePolicy::Block;

  /// Size trigger: a (n, dtype) bucket flushes once it holds this many
  /// systems. 1 disables coalescing (one solve per request).
  std::size_t flush_systems = 64;
  /// Deadline trigger: a bucket flushes once its oldest request has
  /// waited this long, however few systems it holds.
  double flush_interval_ms = 2.0;

  /// Deadline applied to requests that don't carry their own
  /// (milliseconds from admission; 0 = no deadline). A request whose
  /// deadline lapses before its bucket is picked up by a worker
  /// completes with SolveStatus::TimedOut (scope Queue); one that lapses
  /// mid-solve is cancelled by the watchdog at the next stage boundary
  /// and completes as TimedOut (scope InFlight).
  double default_deadline_ms = 0.0;

  /// Lanes of the process-wide block-execution engine
  /// (gpusim::ThreadPool::global()): the service resizes the shared pool
  /// to this many lanes at construction. 0 keeps the pool's current
  /// size (its $TDA_THREADS / hardware default). The pool is shared by
  /// every worker — workers queue blocks into one engine rather than
  /// spinning up pools of their own, so total CPU use stays bounded by
  /// the engine width however many devices the service drives
  /// (docs/PERFORMANCE.md).
  int engine_threads = 0;

  /// Per-worker device memory budget override in bytes; 0 keeps each
  /// device's own default (its spec / $TDA_MEM_BUDGET). Solves that
  /// exceed the budget are chunked (solver::Pipeline).
  std::size_t mem_budget_bytes = 0;
  /// Memory-aware admission: reject/shed a request when the projected
  /// device-resident footprint of everything admitted-but-unfinished
  /// would exceed this fraction of the summed worker budgets. <= 0
  /// disables the check; 1.0 admits up to the full budget (chunking
  /// absorbs transient overshoot).
  double mem_admission_fraction = 0.0;

  /// Shared persistent tuning cache: loaded at start-up, merge-saved on
  /// shutdown. Empty = in-memory only.
  std::string cache_path;
};

}  // namespace tda::service
