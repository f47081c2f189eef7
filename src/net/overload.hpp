#pragma once
// Per-tenant overload protection of the front door (docs/NET.md): CoDel
// queue-age shedding and an AIMD window on each tenant's systems inside
// the service. Time is an explicit seconds value and nothing here starts
// a thread, like TokenBucket, so tests drive it deterministically. Not
// synchronized: the front door's poll thread is the only caller.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>

#include "telemetry/metrics.hpp"

namespace tda::net {

/// The overload knobs; FrontDoorConfig inherits them by these names.
struct OverloadConfig {
  /// Systems submitted into the service and not yet completed; the DRR
  /// pump stops at this window so lanes (where fairness is decided)
  /// stay the queueing point. It also caps every AIMD window.
  std::size_t max_service_inflight = 256;
  /// CoDel: head sojourn above target for a full interval starts
  /// dropping. codel_target_ms <= 0 disables.
  double codel_target_ms = 5.0;
  double codel_interval_ms = 100.0;
  double aimd_min = 1.0;      ///< AIMD window floor (requests)
  double aimd_backoff = 0.7;  ///< AIMD multiplicative decrease factor
};

/// One lane's overload state, a Tenant member. Only Overload mutates it
/// (FrontDoor::import_state restores `window` from a snapshot).
struct LaneOverload {
  double window = 0.0;          ///< AIMD window; 0 = uninitialised
  std::size_t in_service = 0;   ///< systems submitted, not yet settled
  double first_above_s = 0.0;   ///< CoDel: 0 = not above target
  double drop_next_s = 0.0;     ///< CoDel: next scheduled drop
  std::uint64_t drop_count = 0; ///< CoDel: drops this episode
  bool dropping = false;        ///< CoDel: inside a drop episode
};

class Overload {
 public:
  Overload(const OverloadConfig& cfg, telemetry::MetricsRegistry& metrics)
      : cfg_(cfg), metrics_(metrics) {}

  /// The lane's AIMD window; an uninitialised one reads as the cap.
  [[nodiscard]] double limit(const LaneOverload& l) const {
    return l.window > 0.0 ? l.window
                          : static_cast<double>(cfg_.max_service_inflight);
  }

  /// False while the lane has a full window inside the service.
  [[nodiscard]] bool eligible(const LaneOverload& l) const {
    return static_cast<double>(l.in_service) < limit(l);
  }

  /// CoDel: true when the head dequeued at `now_s` after `sojourn_ms`
  /// in the lane should be shed instead of served. A sojourn under
  /// target ends the episode; one above it for a full interval sheds,
  /// then sheds again every interval / sqrt(count) while it stays bad.
  bool should_shed(LaneOverload& l, double sojourn_ms, double now_s) const {
    if (cfg_.codel_target_ms <= 0.0) return false;
    if (sojourn_ms < cfg_.codel_target_ms) {
      l.first_above_s = 0.0;
      l.dropping = false;
      return false;
    }
    const double interval_s = cfg_.codel_interval_ms / 1000.0;
    if (l.first_above_s == 0.0) {
      l.first_above_s = now_s;
      return false;
    }
    if (!l.dropping) {
      if (now_s - l.first_above_s < interval_s) return false;
      l.dropping = true;
      l.drop_count = 1;
      l.drop_next_s = now_s + interval_s;
      return true;
    }
    if (now_s >= l.drop_next_s) {
      ++l.drop_count;
      l.drop_next_s =
          now_s + interval_s / std::sqrt(static_cast<double>(l.drop_count));
      return true;
    }
    return false;
  }

  /// A lane head entered the service / its service outcome arrived.
  void submitted(LaneOverload& l) const { ++l.in_service; }
  void finished(LaneOverload& l) const { --l.in_service; }

  /// Multiplicative decrease on a congestion signal (a CoDel shed or a
  /// retryable service outcome).
  void congested(LaneOverload& l, const std::string& tenant) const {
    set_window(l, tenant,
               std::max(cfg_.aimd_min, limit(l) * cfg_.aimd_backoff));
  }

  /// Additive increase (~ +1 per window's worth of completions).
  void completed(LaneOverload& l, const std::string& tenant) const {
    const double w = limit(l);
    set_window(l, tenant,
               std::min(static_cast<double>(cfg_.max_service_inflight),
                        w + 1.0 / w));
  }

 private:
  /// Stores the window and, when its effective value moved, publishes
  /// net.aimd_limit{tenant}.
  void set_window(LaneOverload& l, const std::string& tenant,
                  double w) const {
    const bool moved = w != limit(l);
    l.window = w;
    if (moved) {
      metrics_.set(
          telemetry::labeled("net.aimd_limit", {{"tenant", tenant}}), w);
    }
  }

  const OverloadConfig& cfg_;
  telemetry::MetricsRegistry& metrics_;
};

}  // namespace tda::net
