#pragma once
// Strided views over coefficient arrays.
//
// On the device PCR splitting never physically reorders data: after k
// splits a subsystem is the set of equations {offset, offset+stride,
// offset+2*stride, ...}. (The simulator's host copy stores each subsystem
// contiguously instead; see kernels/device_batch.hpp.)
// StridedView captures exactly that (offset is folded into the pointer), and
// split() produces the even/odd children — including the uneven ⌈n/2⌉/⌊n/2⌋
// split for odd sizes, which is what lets the solver handle arbitrary n.

#include <cstddef>
#include <utility>

#include "common/check.hpp"

namespace tda {

/// Non-owning strided view: element i lives at data[i * stride].
template <typename T>
class StridedView {
 public:
  StridedView() = default;
  StridedView(T* data, std::size_t count, std::size_t stride)
      : data_(data), count_(count), stride_(stride) {
    TDA_REQUIRE(stride >= 1, "stride must be positive");
  }

  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] std::size_t stride() const noexcept { return stride_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] T* data() const noexcept { return data_; }

  [[nodiscard]] T& operator[](std::size_t i) const {
    TDA_ASSERT(i < count_);
    return data_[i * stride_];
  }

  /// Children after one PCR split: (even elements, odd elements).
  /// even has ⌈n/2⌉ elements, odd has ⌊n/2⌋; both double the stride.
  [[nodiscard]] std::pair<StridedView, StridedView> split() const {
    TDA_REQUIRE(count_ >= 2, "cannot split a view with fewer than 2 elements");
    StridedView even(data_, (count_ + 1) / 2, stride_ * 2);
    StridedView odd(data_ + stride_, count_ / 2, stride_ * 2);
    return {even, odd};
  }

  /// View of the j-th of 2^k interleaved subsystems after k splits.
  [[nodiscard]] StridedView subsystem(std::size_t k, std::size_t j) const {
    std::size_t parts = std::size_t{1} << k;
    TDA_REQUIRE(j < parts, "subsystem index out of range");
    // Element i of subsystem j is original element j + i*parts.
    std::size_t cnt = (count_ > j) ? (count_ - j + parts - 1) / parts : 0;
    return StridedView(data_ + j * stride_, cnt, stride_ * parts);
  }

  /// Elements [offset, offset + count) of this view.
  [[nodiscard]] StridedView slice(std::size_t offset, std::size_t count) const {
    TDA_REQUIRE(offset + count <= count_, "slice out of range");
    return StridedView(data_ + offset * stride_, count, stride_);
  }

  /// Rebind to const.
  [[nodiscard]] StridedView<const T> as_const() const noexcept {
    return StridedView<const T>(data_, count_, stride_);
  }

 private:
  T* data_ = nullptr;
  std::size_t count_ = 0;
  std::size_t stride_ = 1;
};

}  // namespace tda
