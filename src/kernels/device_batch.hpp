#pragma once
// Device-resident batch: the coefficient arrays a multi-stage solve works
// on, double-buffered for PCR's read-old/write-new steps.
//
// "Upload" copies nothing: a batch built from a host TridiagBatch points
// its current coefficient buffer at the host's a, b, c, d, read-only,
// until its first swap_buffers(). From then on it ping-pongs between its
// two owned buffers: each split step reads the current buffer and writes
// the other, then swap() flips parity. This rests on one invariant: no
// kernel writes the current buffer. The current-buffer accessors are
// read-only; the one kernel that rewrites its input in place (the
// interleaved Thomas sweep, after transpose_in's swap) goes through
// owned_cur_lane(), which refuses a borrowed buffer. A batch therefore
// must not outlive the host batch it was built from, and cannot be built
// from a temporary. The solution array x is single-buffered. download()
// copies x back into a host batch.
//
// Host segment layout. On the device a split never moves data: after k
// splits subsystem p of a system is its rows p, p + 2^k, ..., and the
// kernels charge those stride-2^k accesses through the cost model. The
// host stores each current subsystem as a contiguous SEGMENT of its
// system's range instead: a split writes the even equations of a segment
// into its first ⌈len/2⌉ rows and the odd ones into the rest, so the two
// children tile their parent, even half first (SplitState::segment). The
// geometry is a pure function of (n, SplitState), ragged n included, and
// every host split step is a shift-1 step over contiguous memory. Stage 3
// writes the solution of subsystem p as row p of a subsystem-major x
// (SplitState::solution_offset); download() remembers that and restores
// natural order with tile transposes. Only host loops see this layout:
// charges, launch shapes and per-equation arithmetic are the device's.
//
// Storage is ONE slab from the process BufferPool (9 segments: the 8
// double-buffered coefficient arrays plus x, each 64-byte aligned), so
// repeated service flushes of one shape reuse a warm slab instead of
// paying malloc + zero-fill per solve (docs/PERFORMANCE.md). A borrowing
// batch keeps the whole slab, its first coefficient set included, so its
// footprint is that of a copying one. Pooled memory arrives dirty, and
// the stage pipeline writes every buffer before reading it: the first
// kernel writes the alternate set from the borrowed input, the set the
// first swap hands back is written by the next split before any read,
// and x is written by the base kernel or transpose_out. The
// TDA_POOL_POISON regression tests pin that down. The shape-only
// (cost-only) constructor still zero-fills — tuning batches are off the
// hot path and must stay numerically inert. Device *budget* accounting is
// unchanged: tracked batches claim footprint_bytes() through the device's
// MemoryTracker before acquiring the slab.
//
// download() copies x in kCopyPieceBytes pieces on the engine's thread
// pool; a batch whose x fits in one piece is copied inline.

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstring>
#include <span>
#include <utility>

#include "common/buffer_pool.hpp"
#include "common/check.hpp"
#include "gpusim/launch.hpp"
#include "gpusim/thread_pool.hpp"
#include "tridiag/batch.hpp"
#include "tridiag/transpose.hpp"

namespace tda::kernels {

using tridiag::SystemView;
using tridiag::TridiagBatch;

/// Bytes of one host-copy task of DeviceBatch::download.
inline constexpr std::size_t kCopyPieceBytes = std::size_t{64} << 10;

/// Copies `count` elements from src to dst: inline when they fit in one
/// kCopyPieceBytes piece, else as one task per piece on the engine's
/// thread pool.
template <typename T>
void copy_pieces(const T* src, T* dst, std::size_t count) {
  const std::size_t piece = kCopyPieceBytes / sizeof(T);
  if (count <= piece) {
    std::copy_n(src, count, dst);
    return;
  }
  gpusim::ThreadPool::global().run(
      (count + piece - 1) / piece, [&](std::size_t begin, std::size_t end) {
        for (std::size_t t = begin; t < end; ++t) {
          const std::size_t off = t * piece;
          std::copy_n(src + off, std::min(piece, count - off), dst + off);
        }
      });
}

/// One current subsystem of an n-equation system: interleaved index p
/// (original rows p, p + parts, ...) and the contiguous segment
/// [offset, offset + size) of the system's range that holds it.
struct Segment {
  std::size_t p = 0;
  std::size_t offset = 0;
  std::size_t size = 0;
};

/// Tracks how many split steps a batch has undergone. After `splits`
/// steps every original system consists of 2^splits independent
/// subsystems, each stored as one segment (see the header comment).
struct SplitState {
  std::size_t splits = 0;

  [[nodiscard]] std::size_t parts() const { return std::size_t{1} << splits; }
  /// Size of the largest subsystem of an original system of size n.
  [[nodiscard]] std::size_t max_sub_size(std::size_t n) const {
    return (n + parts() - 1) / parts();
  }

  /// Segment of subsystem p (p < parts() <= n). Split t sends p to the
  /// odd child when bit t of p is set.
  [[nodiscard]] Segment segment(std::size_t n, std::size_t p) const {
    TDA_REQUIRE(p < parts(), "subsystem index out of range");
    Segment seg{p, 0, n};
    for (std::size_t t = 0; t < splits; ++t) {
      const std::size_t even = (seg.size + 1) / 2;
      if ((p >> t) & 1) {
        seg.offset += even;
        seg.size -= even;
      } else {
        seg.size = even;
      }
    }
    return seg;
  }

  /// Segment that holds row i (i < n) of the system's range.
  [[nodiscard]] Segment segment_at(std::size_t n, std::size_t i) const {
    TDA_REQUIRE(i < n, "row out of range");
    Segment seg{0, 0, n};
    for (std::size_t t = 0; t < splits; ++t) {
      const std::size_t even = (seg.size + 1) / 2;
      if (i >= seg.offset + even) {
        seg.p |= std::size_t{1} << t;
        seg.offset += even;
        seg.size -= even;
      } else {
        seg.size = even;
      }
    }
    return seg;
  }

  /// Offset of subsystem p's row in the subsystem-major solution: rows
  /// are in p order, and the first n % parts() rows are one longer.
  [[nodiscard]] std::size_t solution_offset(std::size_t n,
                                            std::size_t p) const {
    return p * (n / parts()) + std::min(p, n % parts());
  }
};

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

  /// Batch over a host batch: borrows its a, b, c, d as the current
  /// buffer, read-only, until the first swap_buffers() (see the header
  /// comment). `host` must outlive the batch.
  explicit DeviceBatch(const TridiagBatch<T>& host)
      : m_(host.num_systems()), n_(host.system_size()) {
    allocate();
    borrow(host);
  }
  /// A temporary would be gone before the kernels read it.
  explicit DeviceBatch(const TridiagBatch<T>&&) = delete;

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

  /// Tracked batch over a host batch (see above).
  DeviceBatch(gpusim::Device& dev, const TridiagBatch<T>& host)
      : m_(host.num_systems()), n_(host.system_size()) {
    mem_ = dev.mem_reserve(footprint_bytes(m_, n_), "device batch");
    allocate();
    borrow(host);
  }
  DeviceBatch(gpusim::Device& dev, const TridiagBatch<T>&&) = delete;

  /// Device-resident bytes of an (m, n) batch: 8 double-buffered
  /// coefficient arrays plus x, each m*n elements.
  [[nodiscard]] static constexpr std::size_t footprint_bytes(
      std::size_t num_systems, std::size_t system_size) {
    return 9 * num_systems * system_size * sizeof(T);
  }

  [[nodiscard]] std::size_t num_systems() const { return m_; }
  [[nodiscard]] std::size_t system_size() const { return n_; }
  [[nodiscard]] std::size_t total_equations() const { return m_ * n_; }

  /// Layout of the CURRENT coefficient buffer. A fresh batch is always
  /// system-major (the host wire layout); the interleaved pipeline
  /// flips this to ElementMajor after its transpose-in stage and back
  /// after transpose-out, so a reused batch (chunked solves, tuner
  /// scratch) is always observed system-major between runs.
  [[nodiscard]] tridiag::BatchLayout layout() const { return layout_; }
  void set_layout(tridiag::BatchLayout l) { layout_ = l; }

  /// True while the current buffer is the host batch's (before the
  /// first swap_buffers()).
  [[nodiscard]] bool borrowing() const { return borrowed_[0] != nullptr; }

  /// Raw lane k (0=a 1=b 2=c 3=d) of the current / alternate buffer —
  /// the interleaved kernels index lanes directly instead of through
  /// per-system views, since in element-major layout a "system" is a
  /// stride-m column. The current lane is read-only.
  [[nodiscard]] std::span<const T> cur_lane(int k) const {
    return {cur_ptr(k), m_ * n_};
  }
  [[nodiscard]] std::span<T> alt_lane(int k) {
    TDA_REQUIRE(k >= 0 && k < 4, "lane index out of range");
    return {arr_[(1 - cur_) * 4 + k], m_ * n_};
  }
  /// Writable current lane k, for a kernel that rewrites its input in
  /// place; the buffer must be owned (not borrowed from the host).
  [[nodiscard]] std::span<T> owned_cur_lane(int k) {
    TDA_REQUIRE(!borrowing(),
                "the current buffer is the caller's batch, not writable");
    TDA_REQUIRE(k >= 0 && k < 4, "lane index out of range");
    return {arr_[cur_ * 4 + k], m_ * n_};
  }

  /// Current (source) coefficient view of system s; stride 1, read-only.
  [[nodiscard]] SystemView<const T> cur_system(std::size_t s) const {
    TDA_REQUIRE(s < m_, "system index out of range");
    const std::size_t off = s * n_;
    const auto lane = [&](int k) {
      return StridedView<const T>(cur_ptr(k) + off, n_, 1);
    };
    return {lane(0), lane(1), lane(2), lane(3)};
  }
  /// Alternate (destination) coefficient view of system s.
  [[nodiscard]] SystemView<T> alt_system(std::size_t s) {
    TDA_REQUIRE(s < m_, "system index out of range");
    const std::size_t off = s * n_;
    T* const* arr = arr_ + (1 - cur_) * 4;
    return SystemView<T>{StridedView<T>(arr[0] + off, n_, 1),
                         StridedView<T>(arr[1] + off, n_, 1),
                         StridedView<T>(arr[2] + off, n_, 1),
                         StridedView<T>(arr[3] + off, n_, 1)};
  }

  /// Contiguous current / alternate coefficients of one segment of
  /// system s.
  [[nodiscard]] SystemView<const T> cur_segment(std::size_t s,
                                                const Segment& seg) const {
    return cur_system(s).slice(seg.offset, seg.size);
  }
  [[nodiscard]] SystemView<T> alt_segment(std::size_t s, const Segment& seg) {
    return alt_system(s).slice(seg.offset, seg.size);
  }

  /// Solution view of system s, in natural order.
  [[nodiscard]] StridedView<T> solution(std::size_t s) {
    TDA_REQUIRE(s < m_, "system index out of range");
    return StridedView<T>(arr_[8] + s * n_, n_, 1);
  }
  /// Contiguous solution row of subsystem p of system s after st's
  /// splits. A writer of these rows records the layout with
  /// set_solution_splits(st.splits).
  [[nodiscard]] StridedView<T> solution_row(std::size_t s,
                                            const SplitState& st,
                                            std::size_t p) {
    TDA_REQUIRE(s < m_, "system index out of range");
    return StridedView<T>(arr_[8] + s * n_ + st.solution_offset(n_, p),
                          st.segment(n_, p).size, 1);
  }
  [[nodiscard]] std::span<T> x() { return {arr_[8], m_ * n_}; }
  [[nodiscard]] std::span<const T> x() const { return {arr_[8], m_ * n_}; }

  /// Records how the last writer laid out x: 0 for natural order, k for
  /// the 2^k subsystem rows of solution_row. download() reads it.
  void set_solution_splits(std::size_t splits) { x_splits_ = splits; }

  /// Flips the ping-pong parity after a split step. The first swap ends
  /// the borrow: both buffers are owned from then on.
  void swap_buffers() {
    cur_ = 1 - cur_;
    borrowed_.fill(nullptr);
  }

  /// Copies the solution into `host.x()` in natural order.
  void download(TridiagBatch<T>& host) const {
    TDA_REQUIRE(host.num_systems() == m_ && host.system_size() == n_,
                "download: shape mismatch");
    if (x_splits_ == 0) {
      copy_pieces<T>(arr_[8], host.x().data(), m_ * n_);
    } else {
      download_rows(host.x().data());
    }
  }

 private:
  /// The current buffer's lane k: the host batch's while borrowing.
  [[nodiscard]] const T* cur_ptr(int k) const {
    TDA_REQUIRE(k >= 0 && k < 4, "lane index out of range");
    return borrowing() ? borrowed_[k] : arr_[cur_ * 4 + k];
  }

  void borrow(const TridiagBatch<T>& host) {
    borrowed_ = {host.a().data(), host.b().data(), host.c().data(),
                 host.d().data()};
  }

  /// download() of a subsystem-major x: per system, the parts x ⌈n/parts⌉
  /// rows transpose into natural order (row p, column i is row
  /// p + i*parts). The first n % parts rows are one longer, so they
  /// transpose as one matrix and the rest, read from an offset base, as
  /// a second. Tasks are (system, column block) pairs of about
  /// kCopyPieceBytes, walked in tiles of one cache line's worth of rows:
  /// each column of a tile stores one whole line, and the few rows it
  /// gathers from stay in L1 even when they lie 4 KiB apart.
  void download_rows(T* out) const {
    constexpr std::size_t kTileRows = kCacheLineBytes / sizeof(T);
    const std::size_t parts = std::size_t{1} << x_splits_;
    TDA_REQUIRE(parts <= n_, "solution rows exceed the system size");
    const std::size_t lo = n_ / parts;
    const std::size_t wide = n_ % parts;  // rows [0, wide) hold lo + 1
    const std::size_t cols = lo + (wide > 0 ? 1 : 0);
    const std::size_t block =
        std::max<std::size_t>(64, kCopyPieceBytes / sizeof(T) / parts);
    const std::size_t blocks = (cols + block - 1) / block;
    const auto run = [&](std::size_t begin, std::size_t end) {
      for (std::size_t t = begin; t < end; ++t) {
        const T* src = arr_[8] + t / blocks * n_;
        T* dst = out + t / blocks * n_;
        const std::size_t c0 = t % blocks * block;
        const std::size_t c1 = std::min(cols, c0 + block);
        for (std::size_t r0 = 0; r0 < parts; r0 += kTileRows) {
          const std::size_t r1 = std::min(parts, r0 + kTileRows);
          if (r0 < wide) {
            tridiag::transpose_tile<T>({src, dst, parts, lo + 1, r0,
                                        std::min(r1, wide), c0, c1});
          }
          if (r1 > wide && c0 < lo) {
            tridiag::transpose_tile<T>({src + wide, dst, parts, lo,
                                        std::max(r0, wide), r1, c0,
                                        std::min(c1, lo)});
          }
        }
      }
    };
    if (m_ * n_ <= kCopyPieceBytes / sizeof(T)) {
      run(0, m_ * blocks);
    } else {
      gpusim::ThreadPool::global().run(m_ * blocks, run);
    }
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

  std::size_t m_;
  std::size_t n_;
  int cur_ = 0;
  std::size_t x_splits_ = 0;
  tridiag::BatchLayout layout_ = tridiag::BatchLayout::SystemMajor;
  gpusim::MemoryReservation mem_;  ///< empty for untracked (tuning) batches
  tda::PoolBlock slab_;
  T* arr_[9] = {};  ///< a0 b0 c0 d0 a1 b1 c1 d1 x
  /// The host batch's a, b, c, d while borrowing, else null.
  std::array<const T*, 4> borrowed_{};
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
