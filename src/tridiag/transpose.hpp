#pragma once
// Tile transpose between the two batch layouts (BatchLayout): the host
// side of the element-major kernels' transpose stages. Pure copies, run
// on the host's widest ISA variant (tridiag/isa.hpp).

#include <cstddef>

#include "common/simd_loop.hpp"
#include "tridiag/isa.hpp"

namespace tda::tridiag {

/// Tile [r0, r1) x [c0, c1) of the row-major rows x cols matrix src,
/// written into the row-major cols x rows matrix dst:
/// dst[c*rows + r] = src[r*cols + c].
template <typename T>
struct TransposeTile {
  const T* src;
  T* dst;
  std::size_t rows, cols, r0, r1, c0, c1;
};

namespace detail {

template <typename T>
void transpose_tile_loop(const TransposeTile<T>& t) {
  const auto [src, dst, rows, cols, r0, r1, c0, c1] = t;
  // Column-outer order: the inner loop stores contiguously into dst (and
  // gather-loads the strided side), which vectorizes.
  for (std::size_t c = c0; c < c1; ++c) {
    TDA_SIMD_LOOP
    for (std::size_t r = r0; r < r1; ++r) dst[c * rows + r] = src[r * cols + c];
  }
}

/// transpose_tile_loop compiled for `isa`, which must be supported.
/// Defined in isa.cpp for float and double.
template <typename T>
void transpose_tile_isa(Isa isa, const TransposeTile<T>& t);

}  // namespace detail

/// Copies one tile on the host's widest ISA variant.
template <typename T>
void transpose_tile(const TransposeTile<T>& t) {
  if constexpr (detail::kIsaDispatched<T>) {
    detail::transpose_tile_isa(detail::host_isa(), t);
  } else {
    detail::transpose_tile_loop(t);
  }
}

}  // namespace tda::tridiag
