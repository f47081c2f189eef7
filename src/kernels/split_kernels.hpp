#pragma once
// Global-memory splitting kernels (paper Stages 1 and 2).
//
// Both stages perform PCR steps with doubling shifts over the original
// contiguous arrays; neither reorders data, so subsystems stay interleaved
// and accesses stay coalesced until strides grow. They differ in launch
// structure and therefore cost:
//
//  * Stage 1 (cooperative split): ONE split per kernel launch. The grid
//    covers all equations with many small blocks, so even a single system
//    saturates the memory system — but every split pays a kernel-launch
//    (grid synchronization) overhead. Used while there are too few
//    independent systems to keep the machine busy.
//
//  * Stage 2 (independent split): each block owns one current subsystem
//    and performs ALL remaining splits in one launch with cheap block-
//    level syncs. Parallelism equals the number of independent
//    subsystems, and accesses inherit the subsystem stride at entry.

#include <algorithm>
#include <cstddef>

#include "common/check.hpp"
#include "gpusim/launch.hpp"
#include "kernels/config.hpp"
#include "kernels/device_batch.hpp"
#include "tridiag/pcr.hpp"

namespace tda::kernels {

/// Tracks how many split steps a batch has undergone. After `splits`
/// steps every original system consists of 2^splits independent
/// interleaved subsystems.
struct SplitState {
  std::size_t splits = 0;

  [[nodiscard]] std::size_t parts() const { return std::size_t{1} << splits; }
  /// Size of the largest subsystem of an original system of size n.
  [[nodiscard]] std::size_t max_sub_size(std::size_t n) const {
    return (n + parts() - 1) / parts();
  }
};

/// Flops per equation of one PCR step (warp instructions, incl. address
/// arithmetic and shared/global moves).
inline constexpr double kPcrStepWarpInsts = 16.0;
/// Global traffic per equation per split step, in coefficient values:
/// 12 reads (self + both neighbour windows, 4 arrays — uncached on these
/// parts, so the overlapping windows hit DRAM separately) + 4 writes.
inline constexpr double kPcrStepValuesPerEq = 16.0;

/// Stage 1: one cooperative split of every system in the batch (one
/// kernel launch; the caller loops). Advances `st` by one split.
template <typename T>
gpusim::KernelStats stage1_split_step(gpusim::Device& dev,
                                      DeviceBatch<T>& batch, SplitState& st,
                                      ExecMode mode = ExecMode::Full) {
  const std::size_t m = batch.num_systems();
  const std::size_t n = batch.system_size();
  const std::size_t shift = st.parts();  // global-index shift of this step
  TDA_REQUIRE(shift < n, "system is already fully decoupled");

  const int threads = 256;
  const std::size_t total = m * n;
  gpusim::LaunchConfig cfg;
  cfg.blocks = (total + threads - 1) / threads;
  cfg.blocks = std::min<std::size_t>(
      cfg.blocks, static_cast<std::size_t>(dev.spec().max_grid_blocks));
  cfg.threads_per_block = threads;
  cfg.shared_bytes = 0;
  cfg.regs_per_thread = split_kernel_regs_per_thread(dev.query());

  const std::size_t chunk = (total + cfg.blocks - 1) / cfg.blocks;
  auto stats = dev.launch(cfg, [&](gpusim::BlockContext& ctx) {
    const std::size_t g0 = ctx.block_index() * chunk;
    const std::size_t g1 = std::min(total, g0 + chunk);
    if (g0 >= g1) return;
    // Work through every system this chunk overlaps.
    for (std::size_t s = g0 / n; s * n < g1 && s < m; ++s) {
      const std::size_t lo = (g0 > s * n) ? g0 - s * n : 0;
      const std::size_t hi = std::min(n, g1 - s * n);
      if (lo >= hi) continue;
      if (mode == ExecMode::Full) {
        auto src = batch.cur_system_const(s);
        auto dst = batch.alt_system(s);
        tridiag::pcr_step_range(src, dst, shift, lo, hi);
      }

      const double len = static_cast<double>(hi - lo);
      // Grid-wide synchronization penalty: every Stage-1 split is a
      // dependent full-array pass bounded by coop_sync_efficiency of
      // peak bandwidth.
      ctx.charge_global(kPcrStepValuesPerEq * len * sizeof(T) /
                            ctx.device().coop_sync_efficiency,
                        1, sizeof(T));
      ctx.charge_phase(ctx.threads(),
                       std::ceil(len / ctx.threads()),
                       kPcrStepWarpInsts);
    }
  }, "stage1_coop_split");
  batch.swap_buffers();
  ++st.splits;
  return stats;
}

/// Stage 2: every current subsystem gets its own block, which performs
/// `steps` further splits in a single launch. Advances `st` by `steps`.
template <typename T>
gpusim::KernelStats stage2_split(gpusim::Device& dev, DeviceBatch<T>& batch,
                                 SplitState& st, std::size_t steps,
                                 ExecMode mode = ExecMode::Full) {
  TDA_REQUIRE(steps >= 1, "stage 2 must perform at least one step");
  const std::size_t m = batch.num_systems();
  const std::size_t n = batch.system_size();
  const std::size_t entry_parts = st.parts();
  const std::size_t entry_stride = entry_parts;
  TDA_REQUIRE((entry_parts << steps) <= n,
              "stage 2 would split below one equation per subsystem");

  gpusim::LaunchConfig cfg;
  cfg.blocks = m * entry_parts;
  cfg.threads_per_block = 256;
  cfg.shared_bytes = 0;
  cfg.regs_per_thread = split_kernel_regs_per_thread(dev.query());

  auto stats = dev.launch(cfg, [&](gpusim::BlockContext& ctx) {
    const std::size_t s = ctx.block_index() / entry_parts;
    const std::size_t p = ctx.block_index() % entry_parts;
    // The device kernel ping-pongs the block's stride-entry_parts
    // subsystem between the two global buffers; the subsystem is
    // disjoint from every other block's, so that is hazard-free. The
    // host runs the first step from the strided global subsystem into
    // contiguous lane scratch, ping-pongs there, and runs the last step
    // into the global buffer the device's ping-pong ends in (a single
    // step goes global to global and needs no scratch). The charges
    // model the device's strided passes either way.
    const tridiag::SystemView<T> global[2] = {
        batch.cur_system(s).subsystem(st.splits, p),
        batch.alt_system(s).subsystem(st.splits, p)};
    const std::size_t len = global[0].size();
    tridiag::SystemView<T> staged[2];
    if (mode == ExecMode::Full) {
      for (std::size_t k = 0; k < std::min<std::size_t>(steps - 1, 2); ++k) {
        staged[k] = scratch_system<T>(ctx, len);
      }
    }
    for (std::size_t t = 0; t < steps; ++t) {
      const std::size_t shift = std::size_t{1} << t;  // subsystem-local
      if (mode == ExecMode::Full) {
        const auto& src = t == 0 ? global[0] : staged[(t - 1) % 2];
        const auto& dst = t + 1 == steps ? global[steps % 2] : staged[t % 2];
        tridiag::pcr_step(src.as_const(), dst, shift);
      }

      const double dlen = static_cast<double>(len);
      ctx.charge_global(kPcrStepValuesPerEq * dlen * sizeof(T),
                        entry_stride, sizeof(T));
      ctx.charge_phase(ctx.threads(), std::ceil(dlen / ctx.threads()),
                       kPcrStepWarpInsts);
      if (t + 1 < steps) ctx.sync();
    }
  }, "stage2_independent_split");
  if (steps % 2 == 1) batch.swap_buffers();
  st.splits += steps;
  return stats;
}

}  // namespace tda::kernels
