#pragma once
// Stage 3+4: the hybrid PCR-Thomas shared-memory kernel (the paper's base
// kernel, §III-A).
//
// Each block fetches one subsystem from global into shared memory, keeps
// splitting it with PCR (block-local syncs) until it holds at least
// `thomas_switch` interleaved subsystems, then lets every thread solve one
// subsystem serially with the Thomas algorithm, and writes the unknowns
// back.
//
// Two load variants exist because stage-2 output is interleaved with
// stride 2^splits:
//  * Strided — each block gathers exactly its own subsystem. The gather
//    is uncoalesced: the memory system moves whole segments, and with S
//    subsystems per segment each segment is fetched by S different blocks
//    (inflation min(S, segment/elem)). All later work stays in shared.
//  * Coalesced — each block streams a contiguous window (every byte
//    fetched exactly once, inflation 1) but the window holds fragments of
//    S subsystems, so each PCR step leaks boundary accesses to global
//    memory (≈ 2 per fragment per array). Wins at small S, loses at
//    large S; the crossover is device-dependent (segment size), which is
//    why the self-tuner probes it (§IV-D).
//
// Both variants execute identical arithmetic in the simulator; only their
// charged access patterns differ (DESIGN.md §5).

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/check.hpp"
#include "gpusim/launch.hpp"
#include "kernels/config.hpp"
#include "kernels/device_batch.hpp"
#include "kernels/split_kernels.hpp"
#include "tridiag/hybrid.hpp"
#include "tridiag/pcr.hpp"
#include "tridiag/thomas.hpp"

namespace tda::kernels {

/// Global->shared load strategy of the base kernel.
enum class LoadVariant { Strided, Coalesced };

inline const char* to_string(LoadVariant v) {
  return v == LoadVariant::Strided ? "strided" : "coalesced";
}

/// Warp instructions per equation of one shared-memory PCR step
/// (arithmetic + shared traffic).
inline constexpr double kSharedPcrWarpInsts = 16.0;
/// Dependent-latency depth of one shared PCR step (division + the chain
/// of multiply-adds feeding it).
inline constexpr double kSharedPcrDepPerStep = 6.0;
/// Warp instructions per equation of the per-thread Thomas phase.
inline constexpr double kThomasWarpInstsPerEq = 10.0;
/// Dependent-latency depth per Thomas equation: each element of the
/// forward sweep waits on a division plus the multiply-adds feeding it,
/// then the backward sweep repeats the dependence — roughly ten
/// instruction latencies per equation, serially per thread.
inline constexpr double kThomasDepPerEq = 10.0;

/// Solves every current subsystem of `batch` on-chip and writes the
/// solution into the batch's x array.
///
/// `thomas_switch` — the stage-3→4 switch point: the number of
/// interleaved subsystems a block creates before handing each to a
/// Thomas thread (paper Fig. 6 sweeps this).
template <typename T>
gpusim::KernelStats pcr_thomas_stage(gpusim::Device& dev,
                                     DeviceBatch<T>& batch,
                                     const SplitState& st,
                                     std::size_t thomas_switch,
                                     LoadVariant variant,
                                     ExecMode mode = ExecMode::Full) {
  TDA_REQUIRE(thomas_switch >= 1, "thomas_switch must be >= 1");
  const std::size_t m = batch.num_systems();
  const std::size_t n = batch.system_size();
  const std::size_t parts = st.parts();
  const std::size_t stride = parts;  // global element stride of subsystems
  const std::size_t n_sub = st.max_sub_size(n);
  const auto& spec = dev.spec();

  gpusim::LaunchConfig cfg;
  cfg.blocks = m * parts;
  cfg.threads_per_block = static_cast<int>(
      std::min<std::size_t>(n_sub, spec.max_threads_per_block));
  cfg.threads_per_block = std::max(cfg.threads_per_block, 1);
  cfg.shared_bytes = pcr_thomas_shared_bytes(n_sub, sizeof(T));
  cfg.regs_per_thread = pcr_thomas_regs_per_thread(dev.query());

  auto stats = dev.launch(cfg, [&](gpusim::BlockContext& ctx) {
    const std::size_t s = ctx.block_index() / parts;
    const std::size_t p = ctx.block_index() % parts;
    auto gsub = batch.cur_system(s).subsystem(st.splits, p);
    auto gx = batch.solution(s).subsystem(st.splits, p);
    const std::size_t len = gsub.size();
    if (len == 0) return;

    // --- shared memory working set: a,b,c,d + x ---
    auto sa = ctx.shared_alloc<T>(n_sub);
    auto sb = ctx.shared_alloc<T>(n_sub);
    auto sc = ctx.shared_alloc<T>(n_sub);
    auto sd = ctx.shared_alloc<T>(n_sub);
    auto sx = ctx.shared_alloc<T>(n_sub);
    // Register staging for the PCR steps: on the real device every thread
    // holds its equation's next coefficients in registers between the two
    // syncs of a step, then writes them back to shared. The simulator
    // models that register file with a host-side buffer (its capacity is
    // enforced through regs_per_thread in the launch configuration, not
    // through the shared budget) and lets it ping-pong with shared
    // instead of copying back: each step reads the buffer the previous
    // step wrote. The buffer comes from the lane's bump arena — one warm
    // slab per worker thread instead of heap allocations per block.
    const tridiag::SystemView<T> reg_view = scratch_system<T>(ctx, len);

    // --- load ---
    if (mode == ExecMode::Full) {
      for (std::size_t i = 0; i < len; ++i) {
        sa[i] = gsub.a[i];
        sb[i] = gsub.b[i];
        sc[i] = gsub.c[i];
        sd[i] = gsub.d[i];
      }
    }
    const double bytes_loaded = 4.0 * static_cast<double>(len) * sizeof(T);
    if (variant == LoadVariant::Strided) {
      ctx.charge_global(bytes_loaded, stride, sizeof(T));
    } else {
      ctx.charge_global(bytes_loaded, 1, sizeof(T));
    }
    ctx.sync();

    // --- stage 3: PCR splits in shared memory (register-staged) ---
    const tridiag::SystemView<T> views[2] = {
        {tda::StridedView<T>(sa.data(), len, 1),
         tda::StridedView<T>(sb.data(), len, 1),
         tda::StridedView<T>(sc.data(), len, 1),
         tda::StridedView<T>(sd.data(), len, 1)},
        reg_view};
    int cur = 0;
    const std::size_t j = tridiag::pcr_thomas_split_steps(len, thomas_switch);
    for (std::size_t t = 0; t < j; ++t) {
      if (mode == ExecMode::Full) {
        tridiag::pcr_step(views[cur].as_const(), views[1 - cur],
                          std::size_t{1} << t);
      }
      cur = 1 - cur;
      ctx.charge_phase(static_cast<int>(std::min<std::size_t>(
                           len, ctx.threads())),
                       std::ceil(static_cast<double>(len) / ctx.threads()),
                       kSharedPcrWarpInsts, 1.0, kSharedPcrDepPerStep);
      if (variant == LoadVariant::Coalesced && stride > 1) {
        // Window-boundary leakage: ~2 out-of-window elements per fragment
        // per coefficient array, serviced by whole-segment transactions.
        ctx.charge_global(8.0 * static_cast<double>(stride) * sizeof(T),
                          stride, sizeof(T));
      }
      // Device: compute into registers, sync, write back to shared, sync.
      ctx.sync();
      ctx.sync();
    }

    // --- stage 4: one Thomas thread per interleaved subsystem ---
    // The host runs the threads as one sweep across the subsystems.
    const std::size_t thomas_parts = std::min(std::size_t{1} << j, len);
    if (mode == ExecMode::Full) {
      const bool ok = tridiag::thomas_solve_interleaved(
          views[cur], tda::StridedView<T>(sx.data(), len, 1), thomas_parts);
      TDA_ENSURE(ok, "PCR-Thomas kernel hit a zero pivot");
    }
    const double eqs_per_thread = std::ceil(
        static_cast<double>(len) / static_cast<double>(thomas_parts));
    ctx.charge_phase(static_cast<int>(thomas_parts), eqs_per_thread,
                     kThomasWarpInstsPerEq, 1.0, kThomasDepPerEq);
    ctx.sync();

    // --- write back ---
    if (mode == ExecMode::Full) {
      for (std::size_t i = 0; i < len; ++i) gx[i] = sx[i];
    }
    ctx.charge_global(static_cast<double>(len) * sizeof(T), stride,
                      sizeof(T));
    if (variant == LoadVariant::Coalesced && stride > 1) {
      ctx.charge_global(8.0 * static_cast<double>(stride) * sizeof(T),
                        stride, sizeof(T));
    }
  }, variant == LoadVariant::Strided ? "pcr_thomas_strided"
                                     : "pcr_thomas_coalesced");
  return stats;
}

}  // namespace tda::kernels
