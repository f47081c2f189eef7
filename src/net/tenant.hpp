#pragma once
// Multi-tenant admission + fair queueing for the front door
// (docs/NET.md).
//
// A TenantRegistry owns the configured tenants. Each carries a bearer
// token (auth), quotas enforced at admission — in-flight systems,
// in-flight decoded payload bytes, and a token-bucket requests/sec
// limit — and a scheduling weight. Admission is all-or-nothing with a
// typed verdict so the front door can answer a rejected Solve with the
// exact quota it tripped.
//
// Fair queueing is deficit round-robin over per-tenant lanes: each
// round an active lane earns quantum * weight deficit (in equations),
// and dequeues requests while its head's cost (n equations) fits. DRR
// gives weighted max-min fairness with O(1) work per dequeue, and
// because it sits *in front of* SolveService's shape-bucketed
// coalescer, requests of the same n from different tenants still merge
// into one ragged solve — isolation happens at admission order, not by
// partitioning batches.
//
// Thread-safety: admission and every release run on the front door's
// poll thread. The registry still locks internally because the ops
// admin `stats` command reads rows() off that thread (and callers read
// them from theirs). The DRR lanes themselves are owned (and
// only touched) by the poll thread.

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/overload.hpp"
#include "net/protocol.hpp"
#include "telemetry/metrics.hpp"

namespace tda::net {

struct TenantConfig {
  std::string name;
  std::string token;
  /// DRR weight (relative share of service bandwidth); min 0.01.
  double weight = 1.0;
  /// Max systems admitted but not yet answered. 0 = unlimited.
  std::size_t max_inflight = 0;
  /// Max decoded payload bytes admitted but not yet answered.
  /// 0 = unlimited.
  std::size_t max_inflight_bytes = 0;
  /// Sustained request rate (token bucket). 0 = unlimited.
  double requests_per_sec = 0.0;
  /// Bucket depth; <= 0 defaults to max(1, requests_per_sec / 4).
  double burst = 0.0;
  /// Relative deadline applied when a Solve frame carries none
  /// (v1 deadline_ms == 0 or v2 deadline_unix_ms == 0). 0 = no default;
  /// the service's own default_deadline_ms then applies.
  double default_deadline_ms = 0.0;
};

/// Typed admission verdict — maps 1:1 onto SolveErr codes.
enum class Admission {
  Ok,
  QuotaInflight,
  QuotaBytes,
  QuotaRate,
};

const char* to_string(Admission a);

/// Continuous-refill token bucket. Time is an explicit seconds value so
/// tests drive it deterministically.
class TokenBucket {
 public:
  TokenBucket() = default;
  TokenBucket(double rate_per_sec, double burst)
      : rate_(rate_per_sec), burst_(burst), tokens_(burst) {}

  /// Takes one token at time `now_s`; false when the bucket is dry.
  /// A zero-rate bucket always admits (the quota is "unlimited").
  bool try_take(double now_s) {
    if (rate_ <= 0.0) return true;
    if (now_s > last_s_) {
      tokens_ += (now_s - last_s_) * rate_;
      if (tokens_ > burst_) tokens_ = burst_;
      last_s_ = now_s;
    }
    if (tokens_ < 1.0) return false;
    tokens_ -= 1.0;
    return true;
  }

  [[nodiscard]] double tokens() const { return tokens_; }

 private:
  double rate_ = 0.0;
  double burst_ = 0.0;
  double tokens_ = 0.0;
  double last_s_ = 0.0;
};

/// A tenant's net.*{tenant} counters, each registered by the front door
/// on its first use. `expired_*` are net.deadline_expired{where}, and
/// `rejects` is net.rejects{reason} indexed by ErrorCode.
struct TenantSeries {
  telemetry::Counter requests, dedup_hits, dedup_joins, shed_codel,
      skew_clamped, expired_arrival, expired_queued;
  std::array<telemetry::Counter, kErrorCodes> rejects;
};

/// One tenant's registry row: its config, removal tombstone and live
/// accounting (guarded by the registry mutex). TenantRegistry::rows()
/// copies these out for the ops snapshot, `stats` and the benches.
struct TenantRow {
  TenantConfig cfg;
  /// Removal tombstone: a disabled tenant fails authenticate() and
  /// admit() but its Tenant* stays valid — lane entries and connections
  /// hold the pointer, so removal must never free it.
  bool disabled = false;
  std::size_t inflight_systems = 0;
  std::size_t inflight_bytes = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
};

/// One configured tenant: its registry row plus its admission bucket and
/// poll-thread scheduling state.
struct Tenant : TenantRow {
  TokenBucket bucket;

  // --- DRR lane state (poll-thread-owned, not under the mutex) ---
  double deficit = 0.0;

  // --- overload-protection state (poll-thread-owned) ---
  LaneOverload overload;  ///< CoDel episode + AIMD window (overload.hpp)
  TenantSeries series;
};

class TenantRegistry {
 public:
  /// Registers a tenant (weight clamped to >= 0.01, burst defaulted).
  /// Later add() with a duplicate token wins on lookup order — don't.
  void add(TenantConfig cfg);

  /// Token -> tenant; nullptr when no tenant matches. The pointer stays
  /// valid for the registry's lifetime (tenants are never removed).
  [[nodiscard]] Tenant* authenticate(const std::string& token);

  /// Admits one request of `systems`/`bytes` at time `now_s`, charging
  /// the quotas on success. All-or-nothing.
  Admission admit(Tenant& t, std::size_t systems, std::size_t bytes,
                  double now_s);

  /// Returns an admitted request's charge (the front door's settle()).
  void release(Tenant& t, std::size_t systems, std::size_t bytes);

  /// Decoded payload bytes charged across every tenant: admitted and
  /// not yet released (the net.inflight_bytes_now gauge).
  [[nodiscard]] std::size_t inflight_bytes() const;

  [[nodiscard]] std::size_t size() const;

  // --- live-reconfiguration surface (ops admin socket / snapshots) ---

  /// Name -> tenant; nullptr when unknown. Same pointer-stability
  /// contract as authenticate().
  [[nodiscard]] Tenant* find(const std::string& name);

  /// Updates an existing tenant's config in place — quotas, token,
  /// weight, default deadline — rebuilding the token bucket when the
  /// rate/burst changed. Live usage counters and the Tenant* survive.
  /// False when no tenant has that name.
  bool update(const std::string& name, const TenantConfig& cfg);

  /// Tombstones a tenant: authenticate() stops matching it and admit()
  /// rejects, but queued/in-flight work and the pointer stay valid.
  /// False when unknown. enable() reverses it.
  bool disable(const std::string& name, bool disabled = true);

  /// Copies of every tenant's row, in registration order.
  using Row = TenantRow;
  [[nodiscard]] std::vector<Row> rows() const;

 private:
  mutable std::mutex mu_;
  // Stable addresses: Tenant* handles live in connections and lane
  // entries across the registry's whole life.
  std::vector<std::unique_ptr<Tenant>> tenants_;
};

/// Deficit round-robin over per-tenant lanes of opaque items. The front
/// door instantiates it with its queued-request type; tests drive it
/// with ints. Single-threaded (poll-loop-owned).
template <typename Item>
class DrrScheduler {
 public:
  explicit DrrScheduler(double quantum) : quantum_(quantum) {}

  void enqueue(Tenant* t, Item item, double cost) {
    Lane& lane = lane_of(t);
    lane.items.push_back({std::move(item), cost});
    total_ += 1;
  }

  [[nodiscard]] bool empty() const { return total_ == 0; }
  [[nodiscard]] std::size_t size() const { return total_; }

  /// Dequeues the next item under DRR order; false when idle. A lane
  /// earns quantum * weight once per round-robin visit and serves while
  /// its deficit covers the head's cost; an expensive head simply waits
  /// more rounds, it never underpays. Consecutive dequeue() calls keep
  /// serving the same lane until its deficit runs out (classic DRR
  /// "serve the quantum through").
  bool dequeue(Item& out) {
    return dequeue_if(out, [](Tenant*) { return true; });
  }

  /// dequeue() restricted to lanes whose tenant satisfies `eligible`
  /// — the front door's AIMD limiter parks a lane at its concurrency
  /// window without losing its queue position. An ineligible lane
  /// passes its turn uncharged (deficit untouched), so when it becomes
  /// eligible again it resumes exactly where DRR left it. Returns false
  /// when every queued lane is ineligible or the scheduler is idle.
  template <typename Eligible>
  bool dequeue_if(Item& out, Eligible eligible) {
    if (total_ == 0) return false;
    // Each full sweep tops every eligible non-empty lane up by one
    // quantum, so a head of cost C is served within
    // ceil(C / (quantum * weight)) sweeps. The cap is a defensive bound
    // for absurd cost/quantum ratios; past it, the head of the next
    // eligible lane is served regardless so the scheduler can never
    // wedge.
    constexpr int kMaxSweeps = 1 << 14;
    bool any_eligible = false;
    for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
      any_eligible = false;
      for (std::size_t step = 0; step < lanes_.size(); ++step) {
        Lane& lane = lanes_[cursor_ % lanes_.size()];
        if (lane.items.empty()) {
          lane.tenant->deficit = 0.0;
          lane.charged_this_visit = false;
          ++cursor_;
          continue;
        }
        if (!eligible(lane.tenant)) {
          lane.charged_this_visit = false;
          ++cursor_;
          continue;
        }
        any_eligible = true;
        if (!lane.charged_this_visit) {
          lane.tenant->deficit += quantum_ * lane.tenant->cfg.weight;
          lane.charged_this_visit = true;
        }
        if (lane.tenant->deficit >= lane.items.front().cost) {
          return serve(lane, out);
        }
        lane.charged_this_visit = false;
        ++cursor_;
      }
      if (!any_eligible) return false;
    }
    for (std::size_t step = 0; step < lanes_.size(); ++step) {
      Lane& lane = lanes_[cursor_ % lanes_.size()];
      if (!lane.items.empty() && eligible(lane.tenant))
        return serve(lane, out);
      ++cursor_;
    }
    return false;
  }

  /// Drops every queued item satisfying `pred`, calling `on_drop` for
  /// each (used when a connection dies with requests still queued).
  template <typename Pred, typename OnDrop>
  void drop_if(Pred pred, OnDrop on_drop) {
    for (Lane& lane : lanes_) {
      for (auto it = lane.items.begin(); it != lane.items.end();) {
        if (pred(it->item)) {
          on_drop(it->item);
          it = lane.items.erase(it);
          total_ -= 1;
        } else {
          ++it;
        }
      }
    }
  }

 private:
  struct Entry {
    Item item;
    double cost = 0.0;
  };
  struct Lane {
    Tenant* tenant = nullptr;
    std::deque<Entry> items;
    bool charged_this_visit = false;
  };

  /// Pops `lane`'s head into `out`, charging its deficit. The cursor
  /// stays on a lane that still has deficit and items (it may serve
  /// again next call); an emptied lane resets and passes the turn.
  bool serve(Lane& lane, Item& out) {
    out = std::move(lane.items.front().item);
    lane.tenant->deficit -= lane.items.front().cost;
    lane.items.pop_front();
    total_ -= 1;
    if (lane.items.empty()) {
      lane.tenant->deficit = 0.0;
      lane.charged_this_visit = false;
      ++cursor_;
    }
    return true;
  }

  Lane& lane_of(Tenant* t) {
    for (Lane& lane : lanes_) {
      if (lane.tenant == t) return lane;
    }
    lanes_.push_back(Lane{t, {}, false});
    return lanes_.back();
  }

  double quantum_;
  std::vector<Lane> lanes_;
  std::size_t cursor_ = 0;
  std::size_t total_ = 0;
};

}  // namespace tda::net
