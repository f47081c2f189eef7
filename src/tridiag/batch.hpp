#pragma once
// Batched tridiagonal systems in structure-of-arrays layout.
//
// A batch holds m systems of n equations each. System s of the batch is
//
//   b[0] x0 + c[0] x1                     = d[0]
//   a[i] x(i-1) + b[i] xi + c[i] x(i+1)   = d[i]     0 < i < n-1
//   a[n-1] x(n-2) + b[n-1] x(n-1)         = d[n-1]
//
// stored system-major: coefficient array A holds system 0's n entries, then
// system 1's, ... — so one GPU block reading its own system with consecutive
// threads produces coalesced accesses, exactly the access pattern the
// paper's kernels rely on. a[0] and c[n-1] are 0 by convention.

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <span>
#include <utility>

#include "common/aligned_buffer.hpp"
#include "common/buffer_pool.hpp"
#include "common/check.hpp"
#include "common/strided_view.hpp"

namespace tda::tridiag {

/// How a batch's m×n coefficient arrays are ordered in memory.
///
///  * SystemMajor — element i of system s lives at [s*n + i]: one GPU
///    block reads its own system contiguously (the paper's layout).
///  * ElementMajor — it lives at [i*m + s]: all systems' i-th elements
///    are adjacent, so one SIMD lane (or GPU thread) per system walks
///    the Thomas/PCR recurrences over stride-1 memory — the interleaved
///    layout of cuThomasBatch-style batched solvers.
enum class BatchLayout { SystemMajor, ElementMajor };

inline const char* to_string(BatchLayout l) {
  return l == BatchLayout::SystemMajor ? "system" : "element";
}

/// Cache-blocked out-of-place transpose of an R×C row-major array:
/// dst[c*R + r] = src[r*C + c]. Tiles of kTransposeTile² elements keep
/// both the strided side and the contiguous side inside L1 — the
/// routine behind every layout conversion (host and device).
/// system→element is (R=m, C=n); element→system is (R=n, C=m).
inline constexpr std::size_t kTransposeTile = 64;

template <typename T>
void blocked_transpose(const T* src, T* dst, std::size_t rows,
                       std::size_t cols) {
  for (std::size_t r0 = 0; r0 < rows; r0 += kTransposeTile) {
    const std::size_t r1 = std::min(rows, r0 + kTransposeTile);
    for (std::size_t c0 = 0; c0 < cols; c0 += kTransposeTile) {
      const std::size_t c1 = std::min(cols, c0 + kTransposeTile);
      for (std::size_t r = r0; r < r1; ++r) {
        for (std::size_t c = c0; c < c1; ++c) {
          dst[c * rows + r] = src[r * cols + c];
        }
      }
    }
  }
}

/// Where a TridiagBatch's coefficient arrays live.
enum class BatchStorage {
  Fresh,  ///< five zero-initialized AlignedBuffers (the default)
  Pooled  ///< one BufferPool slab shared by all five lanes — repeated
          ///< same-shape batches (figure benches, generators in loops)
          ///< reuse a warm allocation instead of paying malloc + free
};

/// Non-owning view of one (sub)system's coefficients. All four views share
/// count and stride. PCR rewrites a/b/c/d in place (via a double buffer);
/// the unknowns are written to a separate x view.
template <typename T>
struct SystemView {
  StridedView<T> a, b, c, d;

  [[nodiscard]] std::size_t size() const { return a.size(); }
  [[nodiscard]] std::size_t stride() const { return a.stride(); }

  /// Even/odd children after one PCR split.
  [[nodiscard]] std::pair<SystemView, SystemView> split() const {
    auto [ae, ao] = a.split();
    auto [be, bo] = b.split();
    auto [ce, co] = c.split();
    auto [de, doo] = d.split();
    return {SystemView{ae, be, ce, de}, SystemView{ao, bo, co, doo}};
  }

  /// j-th of 2^k interleaved subsystems.
  [[nodiscard]] SystemView subsystem(std::size_t k, std::size_t j) const {
    return SystemView{a.subsystem(k, j), b.subsystem(k, j),
                      c.subsystem(k, j), d.subsystem(k, j)};
  }

  /// Rebind to const.
  [[nodiscard]] SystemView<const T> as_const() const {
    return {a.as_const(), b.as_const(), c.as_const(), d.as_const()};
  }
};

/// Copies src's coefficients into dst element by element; the two views
/// may differ in stride (gathering a strided subsystem into a contiguous
/// buffer, or scattering it back).
template <typename T>
void copy_system(const SystemView<T>& src, const SystemView<T>& dst) {
  TDA_REQUIRE(src.size() == dst.size(), "copy_system: size mismatch");
  for (std::size_t i = 0; i < src.size(); ++i) {
    dst.a[i] = src.a[i];
    dst.b[i] = src.b[i];
    dst.c[i] = src.c[i];
    dst.d[i] = src.d[i];
  }
}

/// Owning batch of m tridiagonal systems of size n (SoA, system-major).
/// Storage is either five fresh AlignedBuffers or one pooled slab (see
/// BatchStorage); both are zero-initialized and 64-byte aligned, so the
/// choice is invisible to everything downstream of the five lane spans.
template <typename T>
class TridiagBatch {
 public:
  TridiagBatch() = default;

  TridiagBatch(std::size_t num_systems, std::size_t system_size,
               BatchStorage storage = BatchStorage::Fresh,
               BatchLayout layout = BatchLayout::SystemMajor)
      : m_(num_systems), n_(system_size), layout_(layout) {
    TDA_REQUIRE(num_systems > 0, "batch needs at least one system");
    TDA_REQUIRE(system_size > 0, "system size must be positive");
    allocate(storage);
  }

  TridiagBatch(const TridiagBatch& other)
      : m_(other.m_), n_(other.n_), layout_(other.layout_) {
    if (m_ == 0) return;
    allocate(other.storage());
    copy_lanes_from(other);
  }
  TridiagBatch& operator=(const TridiagBatch& other) {
    if (this == &other) return *this;
    if (m_ != other.m_ || n_ != other.n_ || storage() != other.storage()) {
      *this = TridiagBatch();  // drop current storage
      m_ = other.m_;
      n_ = other.n_;
      if (m_ > 0) allocate(other.storage());
    }
    layout_ = other.layout_;
    if (m_ > 0) copy_lanes_from(other);
    return *this;
  }
  // Both storage kinds are heap allocations whose data pointers survive
  // a move of their owning handle, so the lane pointers transfer as-is;
  // the source is left empty (not just unspecified) so a stale span can
  // never be taken from it.
  TridiagBatch(TridiagBatch&& other) noexcept
      : m_(other.m_),
        n_(other.n_),
        layout_(other.layout_),
        a_(std::move(other.a_)),
        b_(std::move(other.b_)),
        c_(std::move(other.c_)),
        d_(std::move(other.d_)),
        x_(std::move(other.x_)),
        slab_(std::move(other.slab_)),
        pa_(other.pa_),
        pb_(other.pb_),
        pc_(other.pc_),
        pd_(other.pd_),
        px_(other.px_) {
    other.clear_handle();
  }
  TridiagBatch& operator=(TridiagBatch&& other) noexcept {
    if (this != &other) {
      m_ = other.m_;
      n_ = other.n_;
      layout_ = other.layout_;
      a_ = std::move(other.a_);
      b_ = std::move(other.b_);
      c_ = std::move(other.c_);
      d_ = std::move(other.d_);
      x_ = std::move(other.x_);
      slab_ = std::move(other.slab_);
      pa_ = other.pa_;
      pb_ = other.pb_;
      pc_ = other.pc_;
      pd_ = other.pd_;
      px_ = other.px_;
      other.clear_handle();
    }
    return *this;
  }

  [[nodiscard]] std::size_t num_systems() const { return m_; }
  [[nodiscard]] std::size_t system_size() const { return n_; }
  [[nodiscard]] std::size_t total_equations() const { return m_ * n_; }
  [[nodiscard]] BatchStorage storage() const {
    return slab_ ? BatchStorage::Pooled : BatchStorage::Fresh;
  }
  [[nodiscard]] BatchLayout layout() const { return layout_; }

  /// Physically transposes all five lanes to `target` (no-op when the
  /// batch already has that layout). Cache-blocked through one pooled
  /// staging lane, so repeated conversions of a shape reuse a warm slab;
  /// system→element→system restores every lane byte-for-byte (the
  /// transpose is a bijection on element slots — nothing is recomputed).
  void convert_layout(BatchLayout target) {
    if (target == layout_ || m_ == 0) {
      layout_ = target;
      return;
    }
    const std::size_t rows = layout_ == BatchLayout::SystemMajor ? m_ : n_;
    const std::size_t cols = layout_ == BatchLayout::SystemMajor ? n_ : m_;
    PoolBlock staging = BufferPool::global().acquire(m_ * n_ * sizeof(T));
    T* tmp = reinterpret_cast<T*>(staging.data());
    for (T* lane : {pa_, pb_, pc_, pd_, px_}) {
      blocked_transpose(lane, tmp, rows, cols);
      std::copy(tmp, tmp + m_ * n_, lane);
    }
    layout_ = target;
  }

  [[nodiscard]] std::span<T> a() { return {pa_, m_ * n_}; }
  [[nodiscard]] std::span<T> b() { return {pb_, m_ * n_}; }
  [[nodiscard]] std::span<T> c() { return {pc_, m_ * n_}; }
  [[nodiscard]] std::span<T> d() { return {pd_, m_ * n_}; }
  [[nodiscard]] std::span<T> x() { return {px_, m_ * n_}; }
  [[nodiscard]] std::span<const T> a() const { return {pa_, m_ * n_}; }
  [[nodiscard]] std::span<const T> b() const { return {pb_, m_ * n_}; }
  [[nodiscard]] std::span<const T> c() const { return {pc_, m_ * n_}; }
  [[nodiscard]] std::span<const T> d() const { return {pd_, m_ * n_}; }
  [[nodiscard]] std::span<const T> x() const { return {px_, m_ * n_}; }

  /// Coefficient view of system s (contiguous stride-1 when
  /// system-major; stride-m when element-major).
  [[nodiscard]] SystemView<T> system(std::size_t s) {
    TDA_REQUIRE(s < m_, "system index out of range");
    const std::size_t off = layout_ == BatchLayout::SystemMajor ? s * n_ : s;
    const std::size_t str = layout_ == BatchLayout::SystemMajor ? 1 : m_;
    return SystemView<T>{StridedView<T>(pa_ + off, n_, str),
                         StridedView<T>(pb_ + off, n_, str),
                         StridedView<T>(pc_ + off, n_, str),
                         StridedView<T>(pd_ + off, n_, str)};
  }

  /// Solution view of system s.
  [[nodiscard]] StridedView<T> solution(std::size_t s) {
    TDA_REQUIRE(s < m_, "system index out of range");
    return layout_ == BatchLayout::SystemMajor
               ? StridedView<T>(px_ + s * n_, n_, 1)
               : StridedView<T>(px_ + s, n_, m_);
  }

  /// Enforces the boundary convention a[0] = c[n-1] = 0 on every system.
  void normalize_boundaries() {
    if (layout_ == BatchLayout::SystemMajor) {
      for (std::size_t s = 0; s < m_; ++s) {
        pa_[s * n_] = T{0};
        pc_[s * n_ + n_ - 1] = T{0};
      }
    } else {
      for (std::size_t s = 0; s < m_; ++s) {
        pa_[s] = T{0};
        pc_[(n_ - 1) * m_ + s] = T{0};
      }
    }
  }

 private:
  /// One lane's bytes, padded so every lane inside a pooled slab starts
  /// on a cache-line boundary.
  [[nodiscard]] std::size_t lane_bytes() const {
    constexpr std::size_t kAlign = 64;
    return (m_ * n_ * sizeof(T) + kAlign - 1) / kAlign * kAlign;
  }

  void allocate(BatchStorage storage) {
    const std::size_t total = m_ * n_;
    if (storage == BatchStorage::Pooled) {
      const std::size_t lane = lane_bytes();
      slab_ = BufferPool::global().acquire(5 * lane);
      // Pooled memory is returned dirty; zero it to match Fresh exactly.
      std::memset(slab_.data(), 0, 5 * lane);
      pa_ = reinterpret_cast<T*>(slab_.data());
      pb_ = reinterpret_cast<T*>(slab_.data() + lane);
      pc_ = reinterpret_cast<T*>(slab_.data() + 2 * lane);
      pd_ = reinterpret_cast<T*>(slab_.data() + 3 * lane);
      px_ = reinterpret_cast<T*>(slab_.data() + 4 * lane);
    } else {
      a_.resize(total);
      b_.resize(total);
      c_.resize(total);
      d_.resize(total);
      x_.resize(total);
      pa_ = a_.data();
      pb_ = b_.data();
      pc_ = c_.data();
      pd_ = d_.data();
      px_ = x_.data();
    }
  }

  void clear_handle() {
    m_ = 0;
    n_ = 0;
    layout_ = BatchLayout::SystemMajor;
    pa_ = pb_ = pc_ = pd_ = px_ = nullptr;
  }

  void copy_lanes_from(const TridiagBatch& other) {
    const std::size_t total = m_ * n_;
    std::copy(other.pa_, other.pa_ + total, pa_);
    std::copy(other.pb_, other.pb_ + total, pb_);
    std::copy(other.pc_, other.pc_ + total, pc_);
    std::copy(other.pd_, other.pd_ + total, pd_);
    std::copy(other.px_, other.px_ + total, px_);
  }

  std::size_t m_ = 0;
  std::size_t n_ = 0;
  BatchLayout layout_ = BatchLayout::SystemMajor;
  AlignedBuffer<T> a_, b_, c_, d_, x_;  ///< Fresh storage (empty if pooled)
  PoolBlock slab_;                      ///< Pooled storage (empty if fresh)
  T* pa_ = nullptr;
  T* pb_ = nullptr;
  T* pc_ = nullptr;
  T* pd_ = nullptr;
  T* px_ = nullptr;
};

}  // namespace tda::tridiag
