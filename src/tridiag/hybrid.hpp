#pragma once
// CPU reference implementations of the two hybrid algorithms:
//
//  * PCR-Thomas (the paper's base kernel, §III-A): run j PCR
//    shift-doubling steps so the system decomposes into 2^j interleaved
//    subsystems, then solve each subsystem serially with Thomas.
//  * CR-PCR (Zhang et al., PPoPP 2010 — the prior-art baseline): run CR
//    forward steps until the reduced system is small, solve it with PCR,
//    then CR back-substitution.
//
// The GPU-sim kernels in src/kernels mirror these step for step; tests pin
// the kernels against these references.

#include <cstddef>
#include <utility>

#include "common/aligned_buffer.hpp"
#include "common/check.hpp"
#include "tridiag/batch.hpp"
#include "tridiag/cr.hpp"
#include "tridiag/pcr.hpp"
#include "tridiag/thomas.hpp"

namespace tda::tridiag {

/// Number of PCR splitting steps the PCR-Thomas hybrid performs for a
/// system of size n and a stage-3→4 switch point of `target_subsystems`:
/// the smallest j with 2^j >= target, capped so subsystems keep >= 1
/// equation.
inline std::size_t pcr_thomas_split_steps(std::size_t n,
                                          std::size_t target_subsystems) {
  std::size_t j = 0;
  while ((std::size_t{1} << j) < target_subsystems &&
         (std::size_t{1} << (j + 1)) <= n) {
    ++j;
  }
  return j;
}

/// PCR-Thomas hybrid solve of one system.
///
/// `target_subsystems` plays the role of the paper's stage-3→4 switch
/// point: PCR splits until the system has decomposed into at least that
/// many independent subsystems (capped so subsystems keep >= 1 equation).
/// Overwrites sys and scratch; writes unknowns to x.
template <typename T>
void pcr_thomas_solve(SystemView<T> sys, SystemView<T> scratch,
                      StridedView<T> x, std::size_t target_subsystems) {
  const std::size_t n = sys.size();
  TDA_REQUIRE(scratch.size() == n, "scratch size mismatch");
  TDA_REQUIRE(x.size() == n, "solution size mismatch");
  TDA_REQUIRE(target_subsystems >= 1, "need at least one subsystem");
  if (n == 0) return;

  const std::size_t j = pcr_thomas_split_steps(n, target_subsystems);

  SystemView<T>* src = &sys;
  SystemView<T>* dst = &scratch;
  for (std::size_t step = 0; step < j; ++step) {
    pcr_step(src->as_const(), *dst, std::size_t{1} << step);
    std::swap(src, dst);
  }

  // The system is now 2^j interleaved subsystems; solve them with Thomas.
  const bool ok = thomas_solve_interleaved(*src, x, std::size_t{1} << j);
  TDA_ENSURE(ok, "PCR-Thomas hit a zero pivot");
}

/// CR-PCR hybrid solve of one system (Zhang et al. baseline).
///
/// CR-reduces until the active system has at most `pcr_threshold`
/// equations, solves the reduced strided system with PCR, then finishes
/// CR back substitution. Overwrites sys; writes unknowns to x.
template <typename T>
void cr_pcr_solve(SystemView<T> sys, StridedView<T> x,
                  std::size_t pcr_threshold) {
  const std::size_t n = sys.size();
  TDA_REQUIRE(x.size() == n, "solution size mismatch");
  TDA_REQUIRE(pcr_threshold >= 1, "threshold must be >= 1");
  if (n == 0) return;

  // CR forward. After completing the step with stride s, the active
  // (reduced) system is the indices 2s-1, 4s-1, ... coupling at distance
  // 2s. `stride` below always holds the stride of the NEXT forward step;
  // the current active system starts at stride-1 with step `stride`.
  std::size_t stride = 1;
  std::size_t active_count = n;
  while (active_count > pcr_threshold && active_count >= 2) {
    for (std::size_t i = 2 * stride - 1; i < n; i += 2 * stride) {
      cr_forward_update(sys, i, stride);
    }
    stride *= 2;
    const std::size_t start = stride - 1;
    active_count = (n > start) ? (n - start + stride - 1) / stride : 0;
  }

  if (stride == 1) {
    // No reduction happened: solve the whole system with PCR.
    AlignedBuffer<T> buf(4 * n);
    SystemView<T> scratch{StridedView<T>(buf.data(), n, 1),
                          StridedView<T>(buf.data() + n, n, 1),
                          StridedView<T>(buf.data() + 2 * n, n, 1),
                          StridedView<T>(buf.data() + 3 * n, n, 1)};
    pcr_solve(sys, scratch, x);
    return;
  }

  // Solve the reduced strided system with PCR.
  const std::size_t start = stride - 1;
  if (start < n && active_count > 0) {
    const std::size_t es = sys.a.stride();  // element stride of the view
    SystemView<T> red{
        StridedView<T>(&sys.a[start], active_count, es * stride),
        StridedView<T>(&sys.b[start], active_count, es * stride),
        StridedView<T>(&sys.c[start], active_count, es * stride),
        StridedView<T>(&sys.d[start], active_count, es * stride)};
    AlignedBuffer<T> buf(4 * active_count);
    SystemView<T> scratch{
        StridedView<T>(buf.data(), active_count, 1),
        StridedView<T>(buf.data() + active_count, active_count, 1),
        StridedView<T>(buf.data() + 2 * active_count, active_count, 1),
        StridedView<T>(buf.data() + 3 * active_count, active_count, 1)};
    StridedView<T> xr(&x[start], active_count, x.stride() * stride);
    pcr_solve(red, scratch, xr);
  }

  // CR back substitution for the remaining levels. Level `lvl` holds the
  // indices lvl-1, 3·lvl-1, 5·lvl-1, ... whose equations couple at
  // distance lvl to unknowns of strictly higher levels (already solved).
  for (std::size_t lvl = stride / 2; lvl >= 1; lvl /= 2) {
    for (std::size_t i = lvl - 1; i < n; i += 2 * lvl) {
      T acc = sys.d[i];
      if (i >= lvl) acc -= sys.a[i] * x[i - lvl];
      if (i + lvl < n) acc -= sys.c[i] * x[i + lvl];
      x[i] = acc / sys.b[i];
    }
    if (lvl == 1) break;
  }
}

}  // namespace tda::tridiag
