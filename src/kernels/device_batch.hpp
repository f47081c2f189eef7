#pragma once
// Device-resident batch: the coefficient arrays a multi-stage solve works
// on, double-buffered for PCR's read-old/write-new steps.
//
// "Upload" copies a host TridiagBatch into the ping buffer; each split
// step reads the current buffer and writes the other, then swap() flips
// parity. The solution array x is single-buffered. download() copies x
// back into a host batch.
//
// Storage is ONE slab from the process BufferPool (9 segments: the 8
// double-buffered coefficient arrays plus x, each 64-byte aligned), so
// repeated service flushes of one shape reuse a warm slab instead of
// paying malloc + zero-fill per solve (docs/PERFORMANCE.md). Pooled
// memory arrives dirty: the upload path overwrites the ping buffer and
// the stage pipeline fully writes the pong buffer and x before reading
// them, which the TDA_POOL_POISON regression tests pin down. The
// shape-only (cost-only) constructor still zero-fills — tuning batches
// are off the hot path and must stay numerically inert. Device *budget*
// accounting is unchanged: tracked batches claim footprint_bytes()
// through the device's MemoryTracker before acquiring the slab.

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <span>
#include <utility>

#include "common/buffer_pool.hpp"
#include "common/check.hpp"
#include "gpusim/launch.hpp"
#include "tridiag/batch.hpp"

namespace tda::kernels {

using tridiag::SystemView;
using tridiag::TridiagBatch;

template <typename T>
class DeviceBatch {
 public:
  /// Shape-only batch (zero coefficients) — used for cost-only tuning
  /// runs, where only sizes and access patterns matter. The all-zero
  /// diagonal would break real arithmetic; set b to 1 so a cost-only
  /// batch is also numerically inert if accidentally executed fully.
  DeviceBatch(std::size_t num_systems, std::size_t system_size)
      : m_(num_systems), n_(system_size) {
    TDA_REQUIRE(m_ >= 1 && n_ >= 1, "empty batch");
    allocate();
    make_inert();
  }

  explicit DeviceBatch(const TridiagBatch<T>& host)
      : m_(host.num_systems()), n_(host.system_size()) {
    allocate();
    upload(host);
  }

  /// Tracked shape-only batch: reserves its footprint against `dev`'s
  /// memory budget before touching any buffer (throws gpusim::OutOfMemory
  /// without allocating when the budget cannot cover it).
  DeviceBatch(gpusim::Device& dev, std::size_t num_systems,
              std::size_t system_size)
      : m_(num_systems), n_(system_size) {
    TDA_REQUIRE(m_ >= 1 && n_ >= 1, "empty batch");
    mem_ = dev.mem_reserve(footprint_bytes(m_, n_), "device batch");
    allocate();
    make_inert();
  }

  /// Tracked upload of a host batch (see above).
  DeviceBatch(gpusim::Device& dev, const TridiagBatch<T>& host)
      : m_(host.num_systems()), n_(host.system_size()) {
    mem_ = dev.mem_reserve(footprint_bytes(m_, n_), "device batch");
    allocate();
    upload(host);
  }

  /// Device-resident bytes of an (m, n) batch: 8 double-buffered
  /// coefficient arrays plus x, each m*n elements.
  [[nodiscard]] static constexpr std::size_t footprint_bytes(
      std::size_t num_systems, std::size_t system_size) {
    return 9 * num_systems * system_size * sizeof(T);
  }

  [[nodiscard]] std::size_t num_systems() const { return m_; }
  [[nodiscard]] std::size_t system_size() const { return n_; }
  [[nodiscard]] std::size_t total_equations() const { return m_ * n_; }

  /// Layout of the CURRENT coefficient buffer. upload() always leaves
  /// system-major data (the host wire layout); the interleaved pipeline
  /// flips this to ElementMajor after its transpose-in stage and back
  /// after transpose-out, so a reused batch (chunked solves, tuner
  /// scratch) is always observed system-major between runs.
  [[nodiscard]] tridiag::BatchLayout layout() const { return layout_; }
  void set_layout(tridiag::BatchLayout l) { layout_ = l; }

  /// Raw lane k (0=a 1=b 2=c 3=d) of the current / alternate buffer —
  /// the interleaved kernels index lanes directly instead of through
  /// per-system views, since in element-major layout a "system" is a
  /// stride-m column.
  [[nodiscard]] std::span<T> cur_lane(int k) {
    TDA_REQUIRE(k >= 0 && k < 4, "lane index out of range");
    return {arr_[cur_ * 4 + k], m_ * n_};
  }
  [[nodiscard]] std::span<T> alt_lane(int k) {
    TDA_REQUIRE(k >= 0 && k < 4, "lane index out of range");
    return {arr_[(1 - cur_) * 4 + k], m_ * n_};
  }

  /// Current (source) coefficient view of system s; stride 1.
  [[nodiscard]] SystemView<T> cur_system(std::size_t s) {
    return view_of(cur_, s);
  }
  /// Alternate (destination) coefficient view of system s.
  [[nodiscard]] SystemView<T> alt_system(std::size_t s) {
    return view_of(1 - cur_, s);
  }
  /// Const view of the current coefficients of system s.
  [[nodiscard]] SystemView<const T> cur_system_const(std::size_t s) const {
    TDA_REQUIRE(s < m_, "system index out of range");
    const std::size_t off = s * n_;
    const T* const* arr = arr_ + cur_ * 4;
    return SystemView<const T>{StridedView<const T>(arr[0] + off, n_, 1),
                               StridedView<const T>(arr[1] + off, n_, 1),
                               StridedView<const T>(arr[2] + off, n_, 1),
                               StridedView<const T>(arr[3] + off, n_, 1)};
  }

  /// Solution view of system s.
  [[nodiscard]] StridedView<T> solution(std::size_t s) {
    TDA_REQUIRE(s < m_, "system index out of range");
    return StridedView<T>(arr_[8] + s * n_, n_, 1);
  }
  [[nodiscard]] std::span<T> x() { return {arr_[8], m_ * n_}; }
  [[nodiscard]] std::span<const T> x() const { return {arr_[8], m_ * n_}; }

  /// Flips the ping-pong parity after a split step.
  void swap_buffers() { cur_ = 1 - cur_; }

  /// Copies the solution into `host.x()`.
  void download(TridiagBatch<T>& host) const {
    TDA_REQUIRE(host.num_systems() == m_ && host.system_size() == n_,
                "download: shape mismatch");
    std::copy(arr_[8], arr_[8] + m_ * n_, host.x().begin());
  }

 private:
  void upload(const TridiagBatch<T>& host) {
    layout_ = tridiag::BatchLayout::SystemMajor;
    std::copy(host.a().begin(), host.a().end(), arr_[0]);
    std::copy(host.b().begin(), host.b().end(), arr_[1]);
    std::copy(host.c().begin(), host.c().end(), arr_[2]);
    std::copy(host.d().begin(), host.d().end(), arr_[3]);
  }

  /// Carves the pooled slab into 9 cache-line-aligned segments:
  /// [a0 b0 c0 d0 a1 b1 c1 d1 x].
  void allocate() {
    const std::size_t seg_bytes =
        (m_ * n_ * sizeof(T) + kCacheLineBytes - 1) / kCacheLineBytes *
        kCacheLineBytes;
    slab_ = BufferPool::global().acquire(9 * seg_bytes);
    const std::size_t seg_elems = seg_bytes / sizeof(T);
    T* base = reinterpret_cast<T*>(slab_.data());
    for (int k = 0; k < 9; ++k) arr_[k] = base + k * seg_elems;
  }

  /// Zero everything, then a unit diagonal (shape-only batches).
  void make_inert() {
    std::memset(slab_.data(), 0, slab_.capacity());
    std::fill(arr_[1], arr_[1] + m_ * n_, T{1});
  }

  [[nodiscard]] SystemView<T> view_of(int which, std::size_t s) {
    TDA_REQUIRE(s < m_, "system index out of range");
    const std::size_t off = s * n_;
    T* const* arr = arr_ + which * 4;
    return SystemView<T>{StridedView<T>(arr[0] + off, n_, 1),
                         StridedView<T>(arr[1] + off, n_, 1),
                         StridedView<T>(arr[2] + off, n_, 1),
                         StridedView<T>(arr[3] + off, n_, 1)};
  }

  std::size_t m_;
  std::size_t n_;
  int cur_ = 0;
  tridiag::BatchLayout layout_ = tridiag::BatchLayout::SystemMajor;
  gpusim::MemoryReservation mem_;  ///< empty for untracked (tuning) batches
  tda::PoolBlock slab_;
  T* arr_[9] = {};  ///< a0 b0 c0 d0 a1 b1 c1 d1 x
};

/// A contiguous system of `len` equations in the block's lane scratch
/// (zero- or poison-filled like every scratch allocation).
template <typename T>
tridiag::SystemView<T> scratch_system(gpusim::BlockContext& ctx,
                                      std::size_t len) {
  T* p = ctx.scratch_alloc<T>(4 * len).data();
  return {StridedView<T>(p, len, 1), StridedView<T>(p + len, len, 1),
          StridedView<T>(p + 2 * len, len, 1),
          StridedView<T>(p + 3 * len, len, 1)};
}

}  // namespace tda::kernels
