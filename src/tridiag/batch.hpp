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

#include <cstddef>
#include <span>
#include <utility>

#include "common/aligned_buffer.hpp"
#include "common/check.hpp"
#include "common/strided_view.hpp"

namespace tda::tridiag {

/// How the simulated device orders a batch's m×n coefficient arrays
/// (DeviceBatch::layout, a tuner choice in SwitchPoints). The host batch
/// is always SystemMajor.
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

/// Non-owning view of one (sub)system's coefficients. All four views share
/// count and stride. PCR rewrites a/b/c/d in place (via a double buffer);
/// the unknowns are written to a separate x view.
template <typename T>
struct SystemView {
  StridedView<T> a, b, c, d;

  [[nodiscard]] std::size_t size() const { return a.size(); }
  [[nodiscard]] std::size_t stride() const { return a.stride(); }
  /// True when all four lanes are contiguous.
  [[nodiscard]] bool unit_stride() const {
    return a.stride() == 1 && b.stride() == 1 && c.stride() == 1 &&
           d.stride() == 1;
  }

  /// Even/odd children after one PCR split.
  [[nodiscard]] std::pair<SystemView, SystemView> split() const {
    auto [ae, ao] = a.split();
    auto [be, bo] = b.split();
    auto [ce, co] = c.split();
    auto [de, doo] = d.split();
    return {SystemView{ae, be, ce, de}, SystemView{ao, bo, co, doo}};
  }

  /// Equations [offset, offset + count).
  [[nodiscard]] SystemView slice(std::size_t offset, std::size_t count) const {
    return SystemView{a.slice(offset, count), b.slice(offset, count),
                      c.slice(offset, count), d.slice(offset, count)};
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

/// Owning batch of m tridiagonal systems of size n (SoA, system-major).
/// The five lanes a, b, c, d, x live in one zero-initialized, 64-byte
/// aligned allocation, each lane starting on a cache-line boundary.
template <typename T>
class TridiagBatch {
 public:
  TridiagBatch() = default;

  TridiagBatch(std::size_t num_systems, std::size_t system_size)
      : m_(num_systems), n_(system_size) {
    TDA_REQUIRE(num_systems > 0, "batch needs at least one system");
    TDA_REQUIRE(system_size > 0, "system size must be positive");
    lanes_.resize(5 * lane_stride());
  }

  TridiagBatch(const TridiagBatch&) = default;
  TridiagBatch& operator=(const TridiagBatch&) = default;
  // The source is left empty (not just unspecified) so a stale span can
  // never be taken from it.
  TridiagBatch(TridiagBatch&& other) noexcept
      : m_(std::exchange(other.m_, 0)),
        n_(std::exchange(other.n_, 0)),
        lanes_(std::move(other.lanes_)) {}
  TridiagBatch& operator=(TridiagBatch&& other) noexcept {
    m_ = std::exchange(other.m_, 0);
    n_ = std::exchange(other.n_, 0);
    lanes_ = std::move(other.lanes_);
    return *this;
  }

  [[nodiscard]] std::size_t num_systems() const { return m_; }
  [[nodiscard]] std::size_t system_size() const { return n_; }
  [[nodiscard]] std::size_t total_equations() const { return m_ * n_; }

  [[nodiscard]] std::span<T> a() { return lane(0); }
  [[nodiscard]] std::span<T> b() { return lane(1); }
  [[nodiscard]] std::span<T> c() { return lane(2); }
  [[nodiscard]] std::span<T> d() { return lane(3); }
  [[nodiscard]] std::span<T> x() { return lane(4); }
  [[nodiscard]] std::span<const T> a() const { return lane(0); }
  [[nodiscard]] std::span<const T> b() const { return lane(1); }
  [[nodiscard]] std::span<const T> c() const { return lane(2); }
  [[nodiscard]] std::span<const T> d() const { return lane(3); }
  [[nodiscard]] std::span<const T> x() const { return lane(4); }

  /// Contiguous (stride-1) coefficient view of system s.
  [[nodiscard]] SystemView<T> system(std::size_t s) {
    TDA_REQUIRE(s < m_, "system index out of range");
    const auto view = [&](std::span<T> l) {
      return StridedView<T>(l.data() + s * n_, n_, 1);
    };
    return SystemView<T>{view(a()), view(b()), view(c()), view(d())};
  }

  /// Contiguous solution view of system s.
  [[nodiscard]] StridedView<T> solution(std::size_t s) {
    TDA_REQUIRE(s < m_, "system index out of range");
    return StridedView<T>(x().data() + s * n_, n_, 1);
  }

  /// Enforces the boundary convention a[0] = c[n-1] = 0 on every system.
  void normalize_boundaries() {
    const std::span<T> la = a(), lc = c();
    for (std::size_t s = 0; s < m_; ++s) {
      la[s * n_] = T{0};
      lc[s * n_ + n_ - 1] = T{0};
    }
  }

 private:
  /// Elements from one lane's start to the next: m·n rounded up to a
  /// whole number of cache lines.
  [[nodiscard]] std::size_t lane_stride() const {
    constexpr std::size_t kLine = kCacheLineBytes / sizeof(T);
    return (m_ * n_ + kLine - 1) / kLine * kLine;
  }
  [[nodiscard]] std::span<T> lane(std::size_t k) {
    return {lanes_.data() + k * lane_stride(), m_ * n_};
  }
  [[nodiscard]] std::span<const T> lane(std::size_t k) const {
    return {lanes_.data() + k * lane_stride(), m_ * n_};
  }

  std::size_t m_ = 0;
  std::size_t n_ = 0;
  AlignedBuffer<T> lanes_;  ///< a, b, c, d, x, lane_stride() apart
};

}  // namespace tda::tridiag
