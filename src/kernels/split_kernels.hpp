#pragma once
// Global-memory splitting kernels (paper Stages 1 and 2).
//
// Both stages perform PCR steps with doubling shifts over the original
// arrays; on the device neither reorders data, so subsystems stay
// interleaved and accesses stay coalesced until strides grow. That is
// what the charges model. The host keeps every current subsystem as one
// contiguous segment instead (DeviceBatch's segment layout), so each of
// its split steps is the shift-1 splitting step of tridiag/pcr.hpp over
// contiguous memory, with the device's per-equation arithmetic. For
// float that step forms its coupling products in double and narrows
// them, which gives the same bits: by stage 2's last splits those
// products are subnormal, and a float multiply producing one would take
// an x86 microcode assist. The stages differ in launch structure and
// therefore cost:
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
#include <cmath>
#include <cstddef>

#include "common/check.hpp"
#include "gpusim/launch.hpp"
#include "kernels/config.hpp"
#include "kernels/device_batch.hpp"
#include "tridiag/pcr.hpp"

namespace tda::kernels {

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
  TDA_REQUIRE(st.parts() < n, "system is already fully decoupled");

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
        // Split every segment the rows [lo, hi) overlap.
        for (std::size_t i = lo; i < hi;) {
          const Segment seg = st.segment_at(n, i);
          const std::size_t end = std::min(hi, seg.offset + seg.size);
          tridiag::pcr_split_step_range(
              batch.cur_segment(s, seg), batch.alt_segment(s, seg),
              i - seg.offset, end - seg.offset);
          i = end;
        }
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
/// `steps` further splits in a single launch. Advances `st` by `steps`;
/// the result lands in the alternate buffer, which becomes current.
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
    const Segment seg = st.segment(n, ctx.block_index() % entry_parts);
    // The device kernel ping-pongs the block's stride-entry_parts
    // subsystem between the two global buffers; the subsystem is
    // disjoint from every other block's, so that is hazard-free. The
    // host splits the block's segment, each step writing the sub-segments
    // it splits into the same range of another buffer: contiguous lane
    // scratch or the alternate global buffer, alternating so that the
    // last step lands in the alternate buffer (a single step goes global
    // to global). So the current buffer is only read, whatever the step
    // count, and may be the caller's batch (DeviceBatch). The charges
    // model the device's strided passes, which end in either buffer.
    const tridiag::SystemView<const T> entry = batch.cur_segment(s, seg);
    const tridiag::SystemView<T> alt = batch.alt_segment(s, seg);
    const std::size_t len = seg.size;
    const tridiag::SystemView<T> staged =
        mode == ExecMode::Full && steps > 1 ? scratch_system<T>(ctx, len)
                                            : tridiag::SystemView<T>{};
    const auto out = [&](std::size_t t) -> const tridiag::SystemView<T>& {
      return (steps - 1 - t) % 2 == 0 ? alt : staged;
    };
    for (std::size_t t = 0; t < steps; ++t) {
      if (mode == ExecMode::Full) {
        const tridiag::SystemView<const T> src =
            t == 0 ? entry : out(t - 1).as_const();
        const auto& dst = out(t);
        const SplitState level{t};
        for (std::size_t q = 0; q < level.parts(); ++q) {
          const Segment sub = level.segment(len, q);
          tridiag::pcr_split_step(src.slice(sub.offset, sub.size),
                                  dst.slice(sub.offset, sub.size));
        }
      }

      const double dlen = static_cast<double>(len);
      ctx.charge_global(kPcrStepValuesPerEq * dlen * sizeof(T),
                        entry_stride, sizeof(T));
      ctx.charge_phase(ctx.threads(), std::ceil(dlen / ctx.threads()),
                       kPcrStepWarpInsts);
      if (t + 1 < steps) ctx.sync();
    }
  }, "stage2_independent_split");
  batch.swap_buffers();
  st.splits += steps;
  return stats;
}

}  // namespace tda::kernels
