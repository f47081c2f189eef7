#pragma once
// Kernel launcher and per-block execution context.
//
// A "kernel" is any callable void(BlockContext&). The launcher executes
// every block functionally while each block records cost events through
// its BlockContext; the cost model then turns the aggregate into
// simulated time, which the owning Device accumulates on its timeline.
//
// Execution is parallel across host threads (gpusim::ThreadPool, sized
// by $TDA_THREADS) yet bitwise deterministic: every block's cost lands
// in a per-block slot and the slots are reduced in block order after
// the workers join, so simulated time, solutions and thrown errors are
// identical at any thread count (one lane runs every block inline, in
// block order, on the same path). Each pool lane owns
// its shared-memory arena and kernel scratch (EngineScratch), and every
// shared allocation is zeroed (or NaN-poisoned) before the block sees
// it — a block can never observe another block's arena contents.
//
// BlockContext owns the block's shared-memory arena slice: kernels
// allocate their working set from it, so a configuration whose working
// set exceeds the declared shared_bytes fails loudly during functional
// execution — the simulator's analogue of a CUDA launch failure.

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <limits>
#include <mutex>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/check.hpp"
#include "common/cli.hpp"
#include "faults/faults.hpp"
#include "gpusim/cost_model.hpp"
#include "gpusim/device.hpp"
#include "gpusim/memory.hpp"
#include "gpusim/memory_model.hpp"
#include "gpusim/occupancy.hpp"
#include "gpusim/thread_pool.hpp"
#include "telemetry/telemetry.hpp"

namespace tda::gpusim {

/// Execution context of one block: cost recorder + shared-memory arena.
class BlockContext {
 public:
  BlockContext(const DeviceSpec& spec, const LaunchConfig& cfg,
               std::size_t block_index, std::byte* shared_arena,
               int resident_blocks, EngineScratch* scratch = nullptr,
               bool poison = false)
      : spec_(&spec),
        cfg_(&cfg),
        block_index_(block_index),
        shared_arena_(shared_arena),
        scratch_(scratch),
        resident_blocks_(resident_blocks > 0 ? resident_blocks : 1),
        poison_(poison) {}

  [[nodiscard]] std::size_t block_index() const { return block_index_; }
  [[nodiscard]] int threads() const { return cfg_->threads_per_block; }
  [[nodiscard]] const DeviceSpec& device() const { return *spec_; }

  /// Allocates `count` elements of block-shared memory. Throws when the
  /// block's declared shared_bytes budget is exceeded. The slice is
  /// zeroed (0xFF-poisoned when the device's arena poison is on) so a
  /// block can never observe another block's — or a previous launch's —
  /// arena contents; real shared memory holds garbage, not neighbours'
  /// secrets.
  template <typename T>
  std::span<T> shared_alloc(std::size_t count) {
    const std::size_t bytes = count * sizeof(T);
    // keep allocations aligned to the element size
    std::size_t aligned_off =
        (shared_used_ + alignof(T) - 1) / alignof(T) * alignof(T);
    TDA_REQUIRE(aligned_off + bytes <= cfg_->shared_bytes,
                "kernel exceeded its declared shared memory budget");
    std::byte* raw = shared_arena_ + aligned_off;
    std::memset(raw, poison_ ? 0xFF : 0x00, bytes);
    shared_used_ = aligned_off + bytes;
    return {reinterpret_cast<T*>(raw), count};
  }

  /// Allocates `count` elements of per-block kernel scratch (the
  /// simulator's stand-in for the register file: PCR register staging
  /// and the like). Served from the executing lane's grow-only arena —
  /// no heap allocation in steady state — and valid until the block
  /// returns. Same fill guarantee as shared_alloc.
  template <typename T>
  std::span<T> scratch_alloc(std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "kernel scratch is for plain numeric data");
    TDA_REQUIRE(scratch_ != nullptr, "block context has no scratch arena");
    void* p = scratch_->scratch_alloc(count * sizeof(T), alignof(T));
    std::memset(p, poison_ ? 0xFF : 0x00, count * sizeof(T));
    return {static_cast<T*>(p), count};
  }

  /// Records a global-memory access of `useful_bytes` payload performed
  /// warp-wide at the given element stride (1 = coalesced).
  void charge_global(double useful_bytes, std::size_t stride_elems,
                     std::size_t elem_bytes) {
    cost_.global_bytes_eff +=
        effective_global_bytes(*spec_, useful_bytes, stride_elems,
                               elem_bytes);
  }

  /// Records a compute/shared phase: `active_threads` threads each execute
  /// a dependent chain of `chain_ops` steps, every step issuing
  /// `warp_insts_per_op` warp instructions (replayed `conflict_factor`
  /// times for shared-bank conflicts) and carrying `dep_per_op` dependent-
  /// latency units (≈ how many back-to-back instruction results each step
  /// waits on; division-heavy steps are deep).
  ///
  /// The phase cost folds latency-boundness in at phase granularity:
  /// with R resident blocks per SM the phase cannot run faster than its
  /// critical path spread over R concurrent blocks, however few warps it
  /// occupies — this is what makes a 16-thread Thomas tail expensive and
  /// drives the stage-3→4 switch point (paper Fig. 6).
  void charge_phase(int active_threads, double chain_ops,
                    double warp_insts_per_op = 1.0,
                    double conflict_factor = 1.0, double dep_per_op = 1.0) {
    if (active_threads <= 0 || chain_ops <= 0.0) return;
    const int warps =
        (active_threads + spec_->warp_size - 1) / spec_->warp_size;
    const double issue =
        static_cast<double>(spec_->warp_size) / spec_->thread_procs_per_sm;
    const double throughput = static_cast<double>(warps) * chain_ops *
                              warp_insts_per_op * conflict_factor * issue;
    const double critical =
        chain_ops * dep_per_op * spec_->dep_latency_cycles;
    cost_.throughput_cycles +=
        std::max(throughput, critical / resident_blocks_);
    cost_.critical_cycles += critical;
  }

  /// Records one __syncthreads().
  void sync() { cost_.syncs += 1.0; }

  [[nodiscard]] const BlockCost& cost() const { return cost_; }

 private:
  const DeviceSpec* spec_;
  const LaunchConfig* cfg_;
  std::size_t block_index_;
  std::byte* shared_arena_;
  EngineScratch* scratch_;
  int resident_blocks_;
  bool poison_;
  std::size_t shared_used_ = 0;
  BlockCost cost_;
};

/// A simulated GPU: a DeviceSpec plus an accumulating timeline.
class Device {
 public:
  explicit Device(DeviceSpec spec)
      : spec_(std::move(spec)),
        mem_(mem_budget_from_env(spec_.global_mem_bytes)) {}

  [[nodiscard]] const DeviceSpec& spec() const { return spec_; }
  [[nodiscard]] DeviceQuery query() const { return spec_.query(); }

  /// Runs `body(BlockContext&)` for every block of the grid — sharded
  /// across the engine thread pool when it has workers — charges the
  /// aggregate cost, advances the timeline, and returns the launch
  /// stats. Bitwise deterministic at any thread count: per-block costs
  /// are reduced in block order, and the lowest-indexed failing block's
  /// exception is the one rethrown. `name` labels the launch's tracer
  /// `kernel` span.
  template <typename F>
  KernelStats launch(const LaunchConfig& cfg, F&& body,
                     const char* name = "kernel") {
    if (faults_armed_) {
      auto& inj = faults::FaultInjector::global();
      inj.maybe_device_fault(faults::Site::DeviceAlloc, name);
      inj.maybe_device_fault(faults::Site::DeviceLaunch, name);
    }
    TDA_REQUIRE(cfg.blocks >= 1, "grid must contain at least one block");
    TDA_REQUIRE(cfg.blocks <=
                    static_cast<std::size_t>(spec_.max_grid_blocks),
                "grid exceeds the device's block limit");
    const Occupancy occ = compute_occupancy(spec_, cfg);
    TDA_REQUIRE(occ.blocks_per_sm > 0,
                std::string("unlaunchable configuration (") + occ.limiter +
                    ")");

    // When the tracer clock is not this device's simulated timeline
    // (service workers share one wall-clock session), kernel spans need
    // wall timestamps bracketing the block execution instead.
    const double wall0 =
        (telemetry_ != nullptr && !owns_clock_ &&
         telemetry_->tracer.enabled())
            ? telemetry_->tracer.now()
            : 0.0;

    // Every slot is written before the fold reads it (or the launch
    // rethrows), so the reused buffer needs no clearing.
    slots_.resize(cfg.blocks);
    // Lowest failing block index; later blocks stop early once a
    // lower one has failed (their work would be discarded anyway).
    std::atomic<std::size_t> first_error{
        std::numeric_limits<std::size_t>::max()};
    std::mutex err_mu;
    std::exception_ptr err;
    std::size_t err_block = std::numeric_limits<std::size_t>::max();
    ThreadPool::global().run(cfg.blocks, [&](std::size_t begin,
                                             std::size_t end) {
      EngineScratch& es = EngineScratch::local();
      std::byte* arena = es.shared_arena(spec_.shared_mem_per_sm);
      for (std::size_t b = begin; b < end; ++b) {
        if (first_error.load(std::memory_order_relaxed) < b) return;
        es.reset_scratch();
        BlockContext ctx(spec_, cfg, b, arena, occ.blocks_per_sm, &es,
                         arena_poison_);
        try {
          body(ctx);
        } catch (...) {
          std::lock_guard lk(err_mu);
          if (b < err_block) {
            err_block = b;
            err = std::current_exception();
            first_error.store(b, std::memory_order_relaxed);
          }
          return;
        }
        slots_[b] = ctx.cost();
      }
    });
    // The chunk owning the overall-lowest failing block always reaches
    // it (nothing lower can have failed and stopped it), so the
    // rethrown error is the one a serial run would raise first.
    if (err) std::rethrow_exception(err);
    KernelCost agg;
    for (const BlockCost& c : slots_) agg.add_block(c);
    const double t0 = elapsed_seconds_;
    KernelStats st = kernel_time(spec_, cfg, agg);
    elapsed_seconds_ += st.seconds;
    ++kernels_launched_;
    if (telemetry_ != nullptr) {
      record_launch_telemetry(name, cfg, agg, st, t0, wall0);
    }
    return st;
  }

  /// Attaches (or detaches, with nullptr) a telemetry session. Every
  /// launch then emits a child span under the caller's open span and
  /// updates launch counters. With `adopt_clock` (the default) the
  /// tracer's clock is pointed at this device's simulated timeline;
  /// pass false when the session's clock belongs to someone else — the
  /// service shares one wall-clock session across many worker devices —
  /// and kernel spans then carry wall timestamps (simulated ms stays in
  /// the "ms" attr). The device does not own the session.
  void set_telemetry(tda::telemetry::Telemetry* tel,
                     bool adopt_clock = true) {
    telemetry_ = tel;
    mem_.set_telemetry(tel);
    launch_series_ = {};
    if (tel != nullptr) {
      auto& mx = tel->metrics;
      launch_series_ = {mx.counter_handle("device.kernel_launches"),
                        mx.counter_handle("device.bytes_moved"),
                        mx.histogram_handle("device.launch_ms")};
    }
    owns_clock_ = tel != nullptr && adopt_clock;
    if (owns_clock_) {
      tel->tracer.set_clock([this] { return elapsed_seconds_; });
    }
  }
  [[nodiscard]] tda::telemetry::Telemetry* telemetry() const {
    return telemetry_;
  }

  /// Total simulated time since construction / last reset.
  [[nodiscard]] double elapsed_seconds() const { return elapsed_seconds_; }
  [[nodiscard]] double elapsed_ms() const { return elapsed_seconds_ * 1e3; }
  [[nodiscard]] std::size_t kernels_launched() const {
    return kernels_launched_;
  }

  void reset_timeline() {
    elapsed_seconds_ = 0.0;
    kernels_launched_ = 0;
  }

  /// Arena fill policy: poisoned allocations are filled with 0xFF (a
  /// NaN pattern for float/double), so a kernel reading shared or
  /// scratch memory it never wrote computes NaNs that the guards and
  /// tests catch loudly, instead of silently reusing stale values.
  /// Defaults to on in debug builds or when $TDA_ARENA_POISON is set.
  void set_arena_poison(bool on = true) { arena_poison_ = on; }

  /// Arms the device-level fault sites (DeviceLaunch/DeviceAlloc) on this
  /// device. Off by default: only callers with a recovery story — the
  /// service's retry/failover path, fault tests, the resilience bench —
  /// opt in, so a stray TDA_FAULTS env var cannot crash a bare solver
  /// run that has no way to handle a DeviceFault.
  void arm_faults(bool on = true) { faults_armed_ = on; }
  [[nodiscard]] bool faults_armed() const { return faults_armed_; }

  /// This device's global-memory accounting. The budget defaults to
  /// spec().global_mem_bytes (or $TDA_MEM_BUDGET when set).
  [[nodiscard]] MemoryTracker& memory() { return mem_; }
  [[nodiscard]] const MemoryTracker& memory() const { return mem_; }
  void set_mem_budget(std::size_t bytes) { mem_.set_budget(bytes); }

  /// Claims `bytes` of device global memory; throws OutOfMemory when the
  /// budget would be exceeded — or, on armed devices, when the `oom`
  /// fault site fires (same error type, so recovery code exercised by
  /// injection is exactly the code a genuine exhaustion takes).
  MemoryReservation mem_reserve(std::size_t bytes, const char* what) {
    if (faults_armed_ &&
        faults::FaultInjector::global().fire(faults::Site::DeviceOOM)) {
      if (telemetry_ != nullptr) {
        telemetry_->metrics.add("device.oom_injected");
      }
      throw OutOfMemory(std::string("injected oom (") + what + ")");
    }
    mem_.allocate(bytes, what);
    return MemoryReservation(&mem_, bytes);
  }

 private:
  void record_launch_telemetry(const char* name, const LaunchConfig& cfg,
                               const KernelCost& agg, const KernelStats& st,
                               double t0, double wall0) {
    auto& tracer = telemetry_->tracer;
    if (tracer.enabled()) {
      const double b = owns_clock_ ? t0 : wall0;
      const double e = owns_clock_ ? elapsed_seconds_ : tracer.now();
      const auto span = tracer.emit(name, "kernel", b, e);
      tracer.attr(span, "blocks", static_cast<double>(cfg.blocks));
      tracer.attr(span, "threads",
                  static_cast<double>(cfg.threads_per_block));
      tracer.attr(span, "ms", st.seconds * 1e3);
      tracer.attr(span, "mem_ms", st.mem_seconds * 1e3);
      tracer.attr(span, "compute_ms", st.compute_seconds * 1e3);
      tracer.attr(span, "occupancy", st.occupancy.fraction);
      tracer.attr(span, "hiding", st.hiding_factor);
      tracer.attr(span, "bytes", agg.total.global_bytes_eff);
    }
    launch_series_.launches.add();
    launch_series_.bytes_moved.add(agg.total.global_bytes_eff);
    launch_series_.launch_ms.observe(st.seconds * 1e3);
  }

  static bool default_arena_poison() {
#ifdef NDEBUG
    const bool dbg = false;
#else
    const bool dbg = true;
#endif
    return env_flag("TDA_ARENA_POISON", dbg);
  }

  DeviceSpec spec_;
  MemoryTracker mem_;
  double elapsed_seconds_ = 0.0;
  std::size_t kernels_launched_ = 0;
  bool faults_armed_ = false;
  bool owns_clock_ = false;  ///< tracer clock is this device's timeline
  bool arena_poison_ = default_arena_poison();
  /// Per-block cost slots of the launch in flight, kept across launches
  /// (launches on one Device are serial).
  std::vector<BlockCost> slots_;
  tda::telemetry::Telemetry* telemetry_ = nullptr;
  /// telemetry_'s launch series, registered once by set_telemetry.
  struct LaunchSeries {
    tda::telemetry::Counter launches, bytes_moved;
    tda::telemetry::Histogram launch_ms;
  } launch_series_;
};

}  // namespace tda::gpusim
