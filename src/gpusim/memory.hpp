#pragma once
// Device global-memory accounting (docs/ROBUSTNESS.md).
//
// The paper's premise is that the multi-stage solver handles any (m, n)
// workload "as long as it fits in global memory" — this is the piece
// that knows what fits. Every Device owns a MemoryTracker whose budget
// defaults to the spec's global-memory size (overridable via the
// TDA_MEM_BUDGET env var for tests and pressure benches); device-side
// buffers reserve through it and a reservation that would exceed the
// budget throws the typed OutOfMemory error — deliberately distinct
// from faults::DeviceFault, because OOM is not transient: retrying the
// same allocation fails forever, so the recovery story is *shrinking
// the work* (solver::Pipeline) rather than retry/failover.
//
// The tracker also serves as the principled target of the `oom` fault
// site (faults::Site::DeviceOOM): injection exercises the same error
// path a genuine budget exhaustion takes, while the per-site decision
// counters keep the two separately observable.

#include <cstddef>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>

#include "telemetry/telemetry.hpp"

namespace tda::gpusim {

/// Device memory budget exhausted (or `oom` injected). NOT a
/// faults::DeviceFault: retrying the identical allocation cannot
/// succeed — callers must shrink the working set or fall back.
class OutOfMemory : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Parses a byte count with an optional k/m/g (KiB/MiB/GiB) suffix,
/// e.g. "262144", "256k", "1.5m". Returns 0 for empty/malformed input.
std::size_t parse_mem_bytes(const std::string& text);

/// The effective memory budget for a device with `device_default` bytes
/// of global memory: $TDA_MEM_BUDGET when set and parsable (tests and
/// pressure runs shrink budgets without touching device specs),
/// otherwise the device default.
std::size_t mem_budget_from_env(std::size_t device_default);

/// Tracked allocate/release accounting against a byte budget, with a
/// high-water-mark gauge. A budget of 0 means unlimited (a DeviceSpec
/// that declares no global-memory size enforces nothing). Thread-safe
/// (the service queries budgets from scheduler and watchdog threads
/// while workers allocate).
class MemoryTracker {
 public:
  explicit MemoryTracker(std::size_t budget_bytes) : budget_(budget_bytes) {}

  /// Rebinds the budget. Shrinking below the current in-use total is
  /// allowed: existing reservations stay valid, new ones fail until
  /// enough is released.
  void set_budget(std::size_t bytes) {
    std::lock_guard lk(mu_);
    budget_ = bytes;
  }

  [[nodiscard]] std::size_t budget() const {
    std::lock_guard lk(mu_);
    return budget_;
  }
  [[nodiscard]] std::size_t in_use() const {
    std::lock_guard lk(mu_);
    return in_use_;
  }
  /// Largest in-use total ever observed.
  [[nodiscard]] std::size_t high_water() const {
    std::lock_guard lk(mu_);
    return high_water_;
  }
  /// Bytes a new reservation may still claim (max() when unlimited).
  [[nodiscard]] std::size_t available() const {
    std::lock_guard lk(mu_);
    if (budget_ == 0) return std::numeric_limits<std::size_t>::max();
    return budget_ > in_use_ ? budget_ - in_use_ : 0;
  }
  /// Reservations refused for exceeding the budget (injected OOMs are
  /// counted by the fault injector, not here).
  [[nodiscard]] std::size_t oom_count() const {
    std::lock_guard lk(mu_);
    return oom_count_;
  }
  [[nodiscard]] std::size_t allocations() const {
    std::lock_guard lk(mu_);
    return allocations_;
  }

  /// Metrics sink for the mem_in_use / mem_high_water gauges (registered
  /// once here) and the oom counter; nullptr detaches. Not owned.
  void set_telemetry(telemetry::Telemetry* tel);

  /// Claims `bytes`; throws OutOfMemory (tagged with `what`) when the
  /// budget would be exceeded.
  void allocate(std::size_t bytes, const char* what);

  /// Returns `bytes` to the budget (clamped at zero so a double release
  /// cannot underflow the gauge during unwinding).
  void release(std::size_t bytes);

 private:
  mutable std::mutex mu_;
  std::size_t budget_;
  std::size_t in_use_ = 0;
  std::size_t high_water_ = 0;
  std::size_t oom_count_ = 0;
  std::size_t allocations_ = 0;
  telemetry::Telemetry* tel_ = nullptr;
  /// tel_'s two gauges, registered by set_telemetry (false if detached).
  telemetry::Gauge in_use_gauge_, high_water_gauge_;
};

/// RAII claim on a MemoryTracker: releases its bytes on destruction.
/// Movable, not copyable; a default-constructed reservation tracks
/// nothing (untracked host/tuning buffers).
class MemoryReservation {
 public:
  MemoryReservation() = default;
  MemoryReservation(MemoryTracker* tracker, std::size_t bytes)
      : tracker_(tracker), bytes_(bytes) {}
  ~MemoryReservation() { reset(); }

  MemoryReservation(MemoryReservation&& other) noexcept
      : tracker_(other.tracker_), bytes_(other.bytes_) {
    other.tracker_ = nullptr;
    other.bytes_ = 0;
  }
  MemoryReservation& operator=(MemoryReservation&& other) noexcept {
    if (this != &other) {
      reset();
      tracker_ = other.tracker_;
      bytes_ = other.bytes_;
      other.tracker_ = nullptr;
      other.bytes_ = 0;
    }
    return *this;
  }
  MemoryReservation(const MemoryReservation&) = delete;
  MemoryReservation& operator=(const MemoryReservation&) = delete;

  [[nodiscard]] std::size_t bytes() const { return bytes_; }
  [[nodiscard]] bool tracked() const { return tracker_ != nullptr; }

  void reset() {
    if (tracker_ != nullptr) tracker_->release(bytes_);
    tracker_ = nullptr;
    bytes_ = 0;
  }

 private:
  MemoryTracker* tracker_ = nullptr;
  std::size_t bytes_ = 0;
};

}  // namespace tda::gpusim
