#pragma once
// Per-worker circuit breaker of the solve service (docs/ROBUSTNESS.md):
//
//   Closed --kBreakerThreshold consecutive failures--> Open
//   Closed/HalfOpen --watchdog trip--> Open
//   Open --cooldown elapsed, next admits()--> HalfOpen (one probe)
//   HalfOpen --failure--> Open;  any --success--> Closed
//
// Dispatch and failover ask admits() before handing a worker work, so an
// open breaker steers batches away from a sick or stalled device. Not
// synchronized: the service's mutex guards every breaker.

#include <chrono>

#include "service/config.hpp"
#include "telemetry/metrics.hpp"

namespace tda::service {

class Breaker {
 public:
  using Clock = std::chrono::steady_clock;
  using TimePoint = Clock::time_point;

  enum class State { Closed, Open, HalfOpen };

  /// Transition totals; every worker's breaker shares the same slots.
  struct Transitions {
    telemetry::Counter opened, half_opened, closed;
  };

  Breaker(Transitions counts, Clock::duration cooldown)
      : counts_(counts), cooldown_(cooldown) {}

  /// Closed and HalfOpen admit; Open half-opens once the cooldown ends.
  [[nodiscard]] bool admits(TimePoint now) {
    if (state_ != State::Open) return true;
    if (open_until_ > now) return false;
    state_ = State::HalfOpen;
    counts_.half_opened.add();
    return true;
  }

  void success() {
    failures_ = 0;
    if (state_ == State::Closed) return;
    state_ = State::Closed;
    counts_.closed.add();
  }

  void failure(TimePoint now) {
    ++failures_;
    if (state_ == State::HalfOpen ||
        (state_ == State::Closed && failures_ >= kBreakerThreshold)) {
      open(now);
    }
  }

  /// The watchdog saw the worker stall.
  void trip(TimePoint now) {
    if (state_ != State::Open) open(now);
  }

  [[nodiscard]] State state() const { return state_; }
  /// When an Open breaker may half-open.
  [[nodiscard]] TimePoint open_until() const { return open_until_; }
  /// WorkerHealth::breaker.
  [[nodiscard]] const char* name() const {
    return state_ == State::Open       ? "open"
           : state_ == State::HalfOpen ? "half_open"
                                       : "closed";
  }
  /// The service.breaker_state gauge: 0 closed, 1 half-open, 2 open
  /// (anything above 0 deserves a look).
  [[nodiscard]] double level() const {
    return state_ == State::Open ? 2.0 : state_ == State::HalfOpen ? 1.0 : 0.0;
  }

 private:
  void open(TimePoint now) {
    state_ = State::Open;
    open_until_ = now + cooldown_;
    counts_.opened.add();
  }

  Transitions counts_;
  Clock::duration cooldown_;
  State state_ = State::Closed;
  int failures_ = 0;
  TimePoint open_until_{};
};

}  // namespace tda::service
