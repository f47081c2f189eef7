#pragma once
// Element-major (interleaved) kernel variants: one lane per SYSTEM.
//
// In element-major layout all m systems' i-th elements are adjacent
// ([i*m + s]), so the Thomas recurrence — strictly serial DOWN a system
// — becomes embarrassingly parallel ACROSS systems with stride-1 memory:
// one simulated GPU thread (and one host SIMD lane) per system walks the
// forward/backward sweeps over contiguous rows. This is the cuThomasBatch
// interleaved solver / OMEGA's VecLength vector-batched Thomas, grafted
// onto the paper's auto-tuning: whether the two transposes pay for the
// single-pass solve is a tuner decision (src/tuning/dynamic_tuner.hpp).
//
// Pipeline (reusing DeviceBatch's ping-pong slab — no extra device
// memory beyond the batch's existing footprint):
//
//   transpose_in   cur (system-major) → alt (element-major), swap
//   thomas         in-place on cur; x staged element-major in alt.d
//   transpose_out  alt.d → x (system-major)
//
// Every stage decomposes into blocks owning DISJOINT output regions
// (tiles, or column strips of systems), so there are no cross-block
// hazards and execution is bitwise deterministic at every TDA_THREADS:
// per-system arithmetic is elementwise independent, so how the host
// walks a strip is a pure scheduling choice that cannot change a single
// result bit.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>

#include "common/check.hpp"
#include "gpusim/launch.hpp"
#include "kernels/config.hpp"
#include "kernels/device_batch.hpp"
#include "kernels/split_kernels.hpp"
#include "tridiag/batch.hpp"
#include "tridiag/thomas.hpp"
#include "tridiag/transpose.hpp"

namespace tda::kernels {

/// Systems per simulated block of the interleaved kernels: one thread
/// per system, 256 threads per block (the cuThomasBatch geometry; six
/// such blocks fill a Fermi SM to full occupancy, which the bandwidth
/// model rewards). This is a property of the SIMULATED launch — fixed,
/// so the cost model and every tuner decision derived from it are
/// identical on every build host.
inline constexpr std::size_t kInterleavedBlockSystems = 256;

/// Warp instructions per equation of the interleaved Thomas sweep:
/// ~5 flops forward + ~2 backward + address arithmetic. One pass — this
/// is the compute advantage over the multi-step PCR pipeline.
inline constexpr double kInterleavedThomasWarpInstsPerEq = 9.0;
/// Dependent-latency depth per equation of the forward sweep (division
/// plus the multiply-adds feeding it) and the backward sweep.
inline constexpr double kInterleavedFwdDepPerEq = 7.0;
inline constexpr double kInterleavedBwdDepPerEq = 3.0;
/// Global values moved per equation by the interleaved Thomas: forward
/// reads a,b,c,d and rewrites c,d (6), backward re-reads c,d and writes
/// x (3) — all stride-1 across systems.
inline constexpr double kInterleavedThomasValuesPerEq = 9.0;
/// Values moved per equation by one tile-transpose pass over `lanes`
/// arrays: each element is read once and written once.
inline constexpr double kTransposeValuesPerElem = 2.0;

/// Largest tile side of the transpose kernel: a 64² tile keeps both the
/// strided and the contiguous side of the host traversal inside L1.
inline constexpr std::size_t kTransposeTile = 64;

/// Simulated shared tile side of the transpose kernel on a device: the
/// largest power-of-two tile (≤ kTransposeTile, ≥ 8) whose staged tile
/// fits in HALF the SM's shared memory, so at least two blocks stay
/// resident even on shared-starved devices (the GeForce 8800's 16 KB
/// would make a 64² double tile unlaunchable outright).
inline std::size_t transpose_tile(const gpusim::DeviceSpec& spec,
                                  std::size_t elem_bytes) {
  std::size_t tile = kTransposeTile;
  while (tile > 8 && tile * tile * elem_bytes > spec.shared_mem_per_sm / 2) {
    tile /= 2;
  }
  return tile;
}

namespace detail {

/// Shared launch skeleton of the transpose stages: grid over
/// kTransposeTile² tiles of an R×C row-major source (blocks loop over
/// tiles when the grid is clamped), transposing `lanes` pairs of
/// src→dst arrays with dst[c*R + r] = src[r*C + c].
template <typename T, std::size_t N>
gpusim::KernelStats transpose_launch(gpusim::Device& dev, std::size_t rows,
                                     std::size_t cols,
                                     const std::array<const T*, N>& src,
                                     const std::array<T*, N>& dst,
                                     ExecMode mode, const char* name) {
  const std::size_t tile = transpose_tile(dev.spec(), sizeof(T));
  const std::size_t tiles_r = (rows + tile - 1) / tile;
  const std::size_t tiles_c = (cols + tile - 1) / tile;
  const std::size_t tiles = tiles_r * tiles_c;

  gpusim::LaunchConfig cfg;
  cfg.blocks = std::min<std::size_t>(
      tiles, static_cast<std::size_t>(dev.spec().max_grid_blocks));
  cfg.threads_per_block = static_cast<int>(std::min<std::size_t>(
      tile * 8, static_cast<std::size_t>(dev.spec().max_threads_per_block)));
  cfg.shared_bytes = tile * tile * sizeof(T);
  cfg.regs_per_thread = split_kernel_regs_per_thread(dev.query());

  return dev.launch(cfg, [&](gpusim::BlockContext& ctx) {
    for (std::size_t t = ctx.block_index(); t < tiles; t += cfg.blocks) {
      const std::size_t r0 = (t / tiles_c) * tile;
      const std::size_t c0 = (t % tiles_c) * tile;
      const std::size_t r1 = std::min(rows, r0 + tile);
      const std::size_t c1 = std::min(cols, c0 + tile);
      const double elems = static_cast<double>(r1 - r0) *
                           static_cast<double>(c1 - c0) *
                           static_cast<double>(N);
      if (mode == ExecMode::Full) {
        // The host tile stores contiguously into dst: the analogue of
        // the coalesced shared-staged store.
        for (std::size_t k = 0; k < N; ++k) {
          tridiag::transpose_tile<T>(
              {src[k], dst[k], rows, cols, r0, r1, c0, c1});
        }
      }
      // Tile staged through shared memory: both global sides coalesced;
      // the on-chip shuffle is a short conflict-prone phase.
      ctx.charge_global(kTransposeValuesPerElem * elems * sizeof(T), 1,
                        sizeof(T));
      ctx.charge_phase(ctx.threads(),
                       std::ceil(elems / ctx.threads()), 2.0, 2.0, 1.0);
      ctx.sync();
    }
  }, name);
}

}  // namespace detail

/// Transposes the four CURRENT coefficient lanes from system-major
/// (m×n) into the alternate buffer as element-major (n×m), flips the
/// ping-pong parity and tags the batch ElementMajor.
template <typename T>
gpusim::KernelStats transpose_in_stage(gpusim::Device& dev,
                                       DeviceBatch<T>& batch,
                                       ExecMode mode = ExecMode::Full) {
  TDA_REQUIRE(batch.layout() == tridiag::BatchLayout::SystemMajor,
              "transpose_in: batch is already element-major");
  const std::size_t m = batch.num_systems();
  const std::size_t n = batch.system_size();
  const std::array<const T*, 4> src{
      batch.cur_lane(0).data(), batch.cur_lane(1).data(),
      batch.cur_lane(2).data(), batch.cur_lane(3).data()};
  const std::array<T*, 4> dst{
      batch.alt_lane(0).data(), batch.alt_lane(1).data(),
      batch.alt_lane(2).data(), batch.alt_lane(3).data()};
  auto stats =
      detail::transpose_launch<T, 4>(dev, m, n, src, dst, mode,
                                     "interleaved_transpose_in");
  batch.swap_buffers();
  batch.set_layout(tridiag::BatchLayout::ElementMajor);
  return stats;
}

/// Transposes the element-major solution staged in the ALTERNATE d lane
/// (written by interleaved_thomas_stage) back into the batch's x array
/// in system-major order, and tags the batch SystemMajor again so a
/// reused DeviceBatch is always observed in the wire layout.
template <typename T>
gpusim::KernelStats transpose_out_stage(gpusim::Device& dev,
                                        DeviceBatch<T>& batch,
                                        ExecMode mode = ExecMode::Full) {
  TDA_REQUIRE(batch.layout() == tridiag::BatchLayout::ElementMajor,
              "transpose_out: batch is not element-major");
  const std::size_t m = batch.num_systems();
  const std::size_t n = batch.system_size();
  const std::array<const T*, 1> src{batch.alt_lane(3).data()};
  const std::array<T*, 1> dst{batch.x().data()};
  auto stats =
      detail::transpose_launch<T, 1>(dev, n, m, src, dst, mode,
                                     "interleaved_transpose_out");
  batch.set_layout(tridiag::BatchLayout::SystemMajor);
  if (mode == ExecMode::Full) batch.set_solution_splits(0);
  return stats;
}

/// Solves every system of an element-major batch with one Thomas lane
/// per system. Blocks own disjoint strips of kInterleavedBlockSystems
/// adjacent systems. The batch is one n*m-row system whose m interleaved
/// subsystems are the batch's systems, so the host solves a strip as
/// the window of tridiag::thomas_solve_interleaved over its columns. The
/// forward sweep rewrites the current c/d lanes in place; the solution
/// is written element-major into the ALTERNATE d lane, where
/// transpose_out_stage picks it up.
template <typename T>
gpusim::KernelStats interleaved_thomas_stage(gpusim::Device& dev,
                                             DeviceBatch<T>& batch,
                                             ExecMode mode = ExecMode::Full) {
  TDA_REQUIRE(batch.layout() == tridiag::BatchLayout::ElementMajor,
              "interleaved Thomas needs an element-major batch");
  const std::size_t m = batch.num_systems();
  const std::size_t n = batch.system_size();
  const std::size_t width = kInterleavedBlockSystems;
  const std::size_t strips = (m + width - 1) / width;
  const auto& spec = dev.spec();

  gpusim::LaunchConfig cfg;
  cfg.blocks = std::min<std::size_t>(
      strips, static_cast<std::size_t>(spec.max_grid_blocks));
  cfg.threads_per_block = static_cast<int>(std::min<std::size_t>(
      width, static_cast<std::size_t>(spec.max_threads_per_block)));
  cfg.shared_bytes = 0;
  cfg.regs_per_thread = split_kernel_regs_per_thread(dev.query());

  // transpose_in_stage's swap left an owned current buffer, which the
  // forward sweep may rewrite.
  T* const lanes[5] = {
      batch.owned_cur_lane(0).data(), batch.owned_cur_lane(1).data(),
      batch.owned_cur_lane(2).data(), batch.owned_cur_lane(3).data(),
      batch.alt_lane(3).data()};

  auto stats = dev.launch(cfg, [&](gpusim::BlockContext& ctx) {
    for (std::size_t strip = ctx.block_index(); strip < strips;
         strip += cfg.blocks) {
      const std::size_t s0 = strip * width;
      const std::size_t s1 = std::min(m, s0 + width);
      const std::size_t w = s1 - s0;

      if (mode == ExecMode::Full) {
        // Rows s0 .. n*m-1, whose subsystems 0, 1, ... are systems s0,
        // s0+1, ...
        const auto lane = [&](int k) {
          return tda::StridedView<T>(lanes[k] + s0, n * m - s0, 1);
        };
        const bool ok = tridiag::thomas_solve_interleaved(
            {lane(0), lane(1), lane(2), lane(3)}, lane(4), m, w);
        TDA_ENSURE(ok, "interleaved Thomas kernel hit a zero pivot");
      }

      // Every row is touched exactly once.
      const double eqs = static_cast<double>(n);
      const double vals = kInterleavedThomasValuesPerEq * eqs *
                          static_cast<double>(w) * sizeof(T);
      ctx.charge_global(vals, 1, sizeof(T));
      // Two dependent chains covering n equations each, one thread per
      // system.
      ctx.charge_phase(static_cast<int>(w), eqs,
                       kInterleavedThomasWarpInstsPerEq * 2.0 / 3.0, 1.0,
                       kInterleavedFwdDepPerEq);
      ctx.charge_phase(static_cast<int>(w), eqs,
                       kInterleavedThomasWarpInstsPerEq / 3.0, 1.0,
                       kInterleavedBwdDepPerEq);
    }
  }, "interleaved_thomas");
  return stats;
}

}  // namespace tda::kernels
