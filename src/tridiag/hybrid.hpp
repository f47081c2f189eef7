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
// The GPU-sim kernels in src/kernels run the same PCR steps, Thomas sweep
// and CR levels, charging between them; tests pin each kernel's x to
// these references bit for bit.

#include <bit>
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
  const std::size_t parts = std::size_t{1} << j;
  const bool ok = thomas_solve_interleaved(*src, x, parts, parts);
  TDA_ENSURE(ok, "PCR-Thomas hit a zero pivot");
}

/// Stride of the reduced system the CR-PCR hybrid hands to PCR: CR
/// forward levels with strides 1, 2, 4, ... run while more than
/// `pcr_threshold` (>= 1) equations stay active, and after the level
/// with stride s the n/(2s) equations 2s-1, 4s-1, ... do. 1 means no CR
/// level runs.
inline std::size_t cr_pcr_stride(std::size_t n, std::size_t pcr_threshold) {
  std::size_t stride = 1;
  while (n / stride > pcr_threshold) stride *= 2;
  return stride;
}

/// The active system after the CR forward levels below `stride` (a power
/// of two): equations stride-1, 2*stride-1, ..., coupled at distance
/// stride, as a view into sys (or x).
template <typename V>
V cr_reduced(const V& v, std::size_t stride) {
  return v.subsystem(static_cast<std::size_t>(std::countr_zero(stride)),
                     stride - 1);
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

  const std::size_t top = cr_pcr_stride(n, pcr_threshold);
  for (std::size_t s = 1; s < top; s *= 2) cr_forward_level(sys, s);

  const SystemView<T> red = cr_reduced(sys, top);
  const std::size_t r = red.size();
  if (r > 0) {
    AlignedBuffer<T> buf(4 * r);
    const auto lane = [&](std::size_t k) {
      return StridedView<T>(buf.data() + k * r, r, 1);
    };
    pcr_solve(red, {lane(0), lane(1), lane(2), lane(3)}, cr_reduced(x, top));
  }

  for (std::size_t s = top / 2; s >= 1; s /= 2) cr_backward_level(sys, x, s);
}

}  // namespace tda::tridiag
