// Unit & property tests for the tridiagonal algorithm core: Thomas, PCR,
// CR, the two hybrids, generators and verification, against the dense
// Gaussian-elimination reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/rng.hpp"
#include "tridiag/batch.hpp"
#include "tridiag/cr.hpp"
#include "tridiag/generators.hpp"
#include "tridiag/guard_scans.hpp"
#include "tridiag/hybrid.hpp"
#include "tridiag/pcr.hpp"
#include "tridiag/thomas.hpp"
#include "tridiag/transpose.hpp"
#include "tridiag/verify.hpp"

namespace {

using namespace tda;
using namespace tda::tridiag;

// Helper: wrap contiguous vectors in a SystemView.
template <typename T>
SystemView<T> view_of(std::vector<T>& a, std::vector<T>& b, std::vector<T>& c,
                      std::vector<T>& d) {
  const std::size_t n = b.size();
  return SystemView<T>{StridedView<T>(a.data(), n, 1),
                       StridedView<T>(b.data(), n, 1),
                       StridedView<T>(c.data(), n, 1),
                       StridedView<T>(d.data(), n, 1)};
}

template <typename T>
SystemView<const T> const_view(const SystemView<T>& v) {
  return SystemView<const T>{v.a.as_const(), v.b.as_const(), v.c.as_const(),
                             v.d.as_const()};
}

// Scratch of the same shape as a system of size n.
template <typename T>
struct Scratch {
  explicit Scratch(std::size_t n) : buf(4 * n), n_(n) {}
  SystemView<T> view() {
    return SystemView<T>{StridedView<T>(buf.data(), n_, 1),
                         StridedView<T>(buf.data() + n_, n_, 1),
                         StridedView<T>(buf.data() + 2 * n_, n_, 1),
                         StridedView<T>(buf.data() + 3 * n_, n_, 1)};
  }
  AlignedBuffer<T> buf;
  std::size_t n_;
};

// ---------- batch container ----------

TEST(TridiagBatch, ShapeAndLayout) {
  TridiagBatch<double> batch(3, 5);
  EXPECT_EQ(batch.num_systems(), 3u);
  EXPECT_EQ(batch.system_size(), 5u);
  EXPECT_EQ(batch.total_equations(), 15u);
  batch.b()[7] = 4.0;  // system 1, equation 2
  auto sys = batch.system(1);
  EXPECT_EQ(sys.b[2], 4.0);
}

TEST(TridiagBatch, NormalizeBoundaries) {
  TridiagBatch<double> batch(2, 4);
  for (auto& v : batch.a()) v = 1.0;
  for (auto& v : batch.c()) v = 1.0;
  batch.normalize_boundaries();
  EXPECT_EQ(batch.a()[0], 0.0);
  EXPECT_EQ(batch.a()[4], 0.0);
  EXPECT_EQ(batch.c()[3], 0.0);
  EXPECT_EQ(batch.c()[7], 0.0);
  EXPECT_EQ(batch.a()[1], 1.0);
}

// The five lanes share one allocation: each starts on a cache line,
// none overlaps the next, and all start zeroed.
TEST(TridiagBatch, LanesAreAlignedDisjointAndZeroed) {
  TridiagBatch<float> batch(3, 7);  // 21 floats: not a whole cache line
  const std::span<float> lanes[] = {batch.a(), batch.b(), batch.c(),
                                    batch.d(), batch.x()};
  for (std::size_t k = 0; k < 5; ++k) {
    EXPECT_EQ(lanes[k].size(), 21u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(lanes[k].data()) % 64, 0u);
    for (const float v : lanes[k]) EXPECT_EQ(v, 0.0f);
    if (k > 0) {
      EXPECT_GE(lanes[k].data(), lanes[k - 1].data() + 21);
    }
  }
}

TEST(TridiagBatch, CopyIsDeepAndMoveEmptiesTheSource) {
  TridiagBatch<double> batch(2, 3);
  batch.d()[4] = 7.0;
  TridiagBatch<double> copy = batch;
  copy.d()[4] = 1.0;
  EXPECT_EQ(batch.d()[4], 7.0);
  TridiagBatch<double> moved = std::move(batch);
  EXPECT_EQ(moved.d()[4], 7.0);
  EXPECT_EQ(batch.num_systems(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(batch.x().empty());  // NOLINT(bugprone-use-after-move)
}

TEST(TridiagBatch, RejectsEmpty) {
  EXPECT_THROW(TridiagBatch<float>(0, 4), ContractError);
  EXPECT_THROW(TridiagBatch<float>(4, 0), ContractError);
}

// ---------- generators ----------

TEST(Generators, DiagDominantIsDominant) {
  auto batch = make_diag_dominant<double>(4, 64, 42);
  auto a = batch.a();
  auto b = batch.b();
  auto c = batch.c();
  for (std::size_t k = 0; k < batch.total_equations(); ++k) {
    EXPECT_GT(std::abs(b[k]), std::abs(a[k]) + std::abs(c[k]));
  }
}

TEST(Generators, BoundariesAreZero) {
  auto batch = make_diag_dominant<double>(3, 16, 1);
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(batch.a()[s * 16], 0.0);
    EXPECT_EQ(batch.c()[s * 16 + 15], 0.0);
  }
}

TEST(Generators, DeterministicInSeed) {
  auto b1 = make_diag_dominant<float>(2, 32, 777);
  auto b2 = make_diag_dominant<float>(2, 32, 777);
  for (std::size_t k = 0; k < b1.total_equations(); ++k) {
    EXPECT_EQ(b1.b()[k], b2.b()[k]);
    EXPECT_EQ(b1.d()[k], b2.d()[k]);
  }
}

TEST(Generators, SeedChangesData) {
  auto b1 = make_diag_dominant<float>(1, 32, 1);
  auto b2 = make_diag_dominant<float>(1, 32, 2);
  bool any_diff = false;
  for (std::size_t k = 0; k < 32; ++k) {
    if (b1.d()[k] != b2.d()[k]) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Generators, PoissonStencil) {
  auto batch = make_poisson<double>(1, 8, 3);
  EXPECT_EQ(batch.b()[3], 2.0);
  EXPECT_EQ(batch.a()[3], -1.0);
  EXPECT_EQ(batch.c()[3], -1.0);
  EXPECT_EQ(batch.a()[0], 0.0);
  EXPECT_EQ(batch.c()[7], 0.0);
}

TEST(Generators, ToeplitzStencil) {
  auto batch = make_toeplitz<double>(1, 6, -1.0, 4.0, -2.0, 5);
  EXPECT_EQ(batch.a()[2], -1.0);
  EXPECT_EQ(batch.b()[2], 4.0);
  EXPECT_EQ(batch.c()[2], -2.0);
}

TEST(Generators, KnownSolutionRoundTrip) {
  std::vector<double> x_true;
  auto batch = make_with_known_solution<double>(2, 33, 11, &x_true);
  ASSERT_EQ(x_true.size(), 66u);
  // d was built as A*x: residual of x_true must be ~0.
  EXPECT_LT(batch_residual_inf(batch, std::span<const double>(x_true)),
            1e-12);
}

// ---------- dense reference sanity ----------

TEST(DenseSolve, Solves2x2) {
  std::vector<double> a{0, 1}, b{2, 3}, c{1, 0}, d{3, 4};
  auto v = view_of(a, b, c, d);
  auto x = dense_solve(const_view(v));
  // [2 1; 1 3] x = [3;4] -> x = [1;1]
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 1.0, 1e-12);
}

TEST(DenseSolve, HandlesPivoting) {
  // b[0] = 0 forces a row swap.
  std::vector<double> a{0, 1}, b{0, 1}, c{2, 0}, d{2, 2};
  auto v = view_of(a, b, c, d);
  auto x = dense_solve(const_view(v));
  // [0 2; 1 1] x = [2;2] -> x = [1;1]
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 1.0, 1e-12);
}

// ---------- Thomas ----------

TEST(Thomas, MatchesDenseOnSmallSystem) {
  auto batch = make_diag_dominant<double>(1, 9, 5);
  auto sys = batch.system(0);
  auto ref = dense_solve(const_view(sys));
  auto x = batch.solution(0);
  ASSERT_TRUE(thomas_solve_inplace(sys, x));
  for (std::size_t i = 0; i < 9; ++i) EXPECT_NEAR(x[i], ref[i], 1e-10);
}

TEST(Thomas, SizeOne) {
  std::vector<double> a{0}, b{4}, c{0}, d{8};
  std::vector<double> x(1);
  auto v = view_of(a, b, c, d);
  ASSERT_TRUE(thomas_solve_inplace(v, StridedView<double>(x.data(), 1, 1)));
  EXPECT_DOUBLE_EQ(x[0], 2.0);
}

TEST(Thomas, DetectsZeroPivot) {
  std::vector<double> a{0, 1}, b{0, 1}, c{1, 0}, d{1, 1};
  std::vector<double> x(2);
  auto v = view_of(a, b, c, d);
  EXPECT_FALSE(thomas_solve_inplace(v, StridedView<double>(x.data(), 2, 1)));
}

TEST(Thomas, WorksOnStridedViews) {
  // Solve the even-indexed half of an interleaved layout.
  auto batch = make_diag_dominant<double>(1, 16, 7);
  // Copy system into a stride-2 arrangement.
  std::vector<double> a(32), b(32), c(32), d(32), x(32);
  auto sys = batch.system(0);
  for (std::size_t i = 0; i < 16; ++i) {
    a[2 * i] = sys.a[i];
    b[2 * i] = sys.b[i];
    c[2 * i] = sys.c[i];
    d[2 * i] = sys.d[i];
  }
  SystemView<double> sv{StridedView<double>(a.data(), 16, 2),
                        StridedView<double>(b.data(), 16, 2),
                        StridedView<double>(c.data(), 16, 2),
                        StridedView<double>(d.data(), 16, 2)};
  ASSERT_TRUE(thomas_solve_inplace(sv, StridedView<double>(x.data(), 16, 2)));
  auto fresh = make_diag_dominant<double>(1, 16, 7);
  auto ref_sys = fresh.system(0);
  auto ref = dense_solve(const_view(ref_sys));
  for (std::size_t i = 0; i < 16; ++i) EXPECT_NEAR(x[2 * i], ref[i], 1e-10);
}

// Windows of the interleaved sweep: every subsystem, all but the last,
// and the first half (none when parts is 1).
std::vector<std::size_t> sweep_widths(std::size_t parts) {
  std::vector<std::size_t> widths{parts, parts - 1, parts / 2};
  widths.erase(std::unique(widths.begin(), widths.end()), widths.end());
  return widths;
}

// The sweep gives every subsystem of its window exactly
// thomas_solve_inplace's operations and leaves the others alone, so c,
// d and x must match a per-subsystem loop bit for bit — on contiguous
// lanes (the vector path) and on the same lanes embedded at stride 2
// (the StridedView path).
template <typename T>
void expect_sweep_bitwise(std::size_t len, std::size_t parts,
                          std::size_t width) {
  SCOPED_TRACE(testing::Message() << "len " << len << " parts " << parts
                                  << " width " << width);
  const auto input = make_diag_dominant<T>(1, len, 1000 + len * 7 + parts);
  std::size_t k = 0;
  while ((std::size_t{1} << k) < parts) ++k;
  auto ref = input;
  for (std::size_t q = 0; q < width; ++q) {
    auto sub = ref.system(0).subsystem(k, q);
    if (sub.size() == 0) continue;
    ASSERT_TRUE(thomas_solve_inplace(sub, ref.solution(0).subsystem(k, q)));
  }
  auto sweep = input;
  ASSERT_TRUE(thomas_solve_interleaved(sweep.system(0), sweep.solution(0),
                                       parts, width));
  const auto same = [&](std::span<const T> got, std::span<const T> want) {
    return std::memcmp(got.data(), want.data(), len * sizeof(T)) == 0;
  };
  EXPECT_TRUE(same(sweep.c(), ref.c()));
  EXPECT_TRUE(same(sweep.d(), ref.d()));
  EXPECT_TRUE(same(sweep.x(), ref.x()));

  std::vector<T> lanes(5 * 2 * len);
  const auto lane = [&](std::size_t l) {
    return StridedView<T>(lanes.data() + l * 2 * len, len, 2);
  };
  const SystemView<T> strided{lane(0), lane(1), lane(2), lane(3)};
  for (std::size_t i = 0; i < len; ++i) {
    strided.a[i] = input.a()[i];
    strided.b[i] = input.b()[i];
    strided.c[i] = input.c()[i];
    strided.d[i] = input.d()[i];
  }
  ASSERT_TRUE(thomas_solve_interleaved(strided, lane(4), parts, width));
  for (std::size_t i = 0; i < len; ++i) {
    const T got = lane(4)[i];
    EXPECT_EQ(std::memcmp(&got, &ref.x()[i], sizeof(T)), 0) << "row " << i;
  }
}

template <typename T>
void expect_sweep_bitwise_all() {
  for (const std::size_t len : {1, 2, 3, 17, 100, 1023, 1024, 1025}) {
    // The last parts exceeds len: empty subsystems.
    for (std::size_t parts = 1; parts <= 2 * len; parts *= 2) {
      for (const std::size_t width : sweep_widths(parts)) {
        expect_sweep_bitwise<T>(len, parts, width);
      }
    }
  }
}

TEST(Thomas, InterleavedSweepBitwiseEqualsPerSubsystem) {
  expect_sweep_bitwise_all<float>();
  expect_sweep_bitwise_all<double>();
}

TEST(Thomas, InterleavedSweepFlagsZeroPivot) {
  // Subsystem 2 of 4, at its third row (row 2 + 2*4): a = b = 0 makes the
  // pivot b - a*c' exactly zero there and nowhere else.
  auto batch = make_diag_dominant<double>(1, 17, 9);
  auto sys = batch.system(0);
  sys.a[10] = 0.0;
  sys.b[10] = 0.0;
  auto scalar = batch;
  EXPECT_FALSE(thomas_solve_inplace(scalar.system(0).subsystem(2, 2),
                                    scalar.solution(0).subsystem(2, 2)));
  EXPECT_FALSE(thomas_solve_interleaved(sys, batch.solution(0), 4, 4));
}

// ---------- PCR ----------

TEST(Pcr, StepsToDecouple) {
  EXPECT_EQ(pcr_steps_to_decouple(1), 0u);
  EXPECT_EQ(pcr_steps_to_decouple(2), 1u);
  EXPECT_EQ(pcr_steps_to_decouple(8), 3u);
  EXPECT_EQ(pcr_steps_to_decouple(9), 4u);
  EXPECT_EQ(pcr_steps_to_decouple(1024), 10u);
}

TEST(Pcr, OneStepDecouplesEvenOdd) {
  // After a shift-1 step, even equations must not reference odd unknowns:
  // solve the even subsystem alone and check against the full solution.
  const std::size_t n = 10;
  auto batch = make_diag_dominant<double>(1, n, 9);
  auto sys = batch.system(0);
  auto full_ref = dense_solve(const_view(sys));

  Scratch<double> scratch(n);
  auto dst = scratch.view();
  pcr_step(const_view(sys), dst, 1);

  // Even subsystem of the POST-step coefficients, solved independently.
  auto even = dst.subsystem(1, 0);
  auto even_ref = dense_solve(const_view(even));
  for (std::size_t i = 0; i < even.size(); ++i) {
    EXPECT_NEAR(even_ref[i], full_ref[2 * i], 1e-9);
  }
  // Odd subsystem too.
  auto odd = dst.subsystem(1, 1);
  auto odd_ref = dense_solve(const_view(odd));
  for (std::size_t i = 0; i < odd.size(); ++i) {
    EXPECT_NEAR(odd_ref[i], full_ref[2 * i + 1], 1e-9);
  }
}

TEST(Pcr, TwoStepsQuarterTheSystemAndPreserveSolutions) {
  // After shift-1 then shift-2 steps the equations couple at distance 4:
  // the four interleaved residue-class subsystems are independent
  // tridiagonal systems whose solutions must equal the original's.
  const std::size_t n = 13;
  auto batch = make_diag_dominant<double>(1, n, 21);
  auto sys = batch.system(0);
  auto ref = dense_solve(const_view(sys));
  Scratch<double> s1(n), s2(n);
  auto mid = s1.view();
  auto fin = s2.view();
  pcr_step(const_view(sys), mid, 1);
  pcr_step(const_view(mid), fin, 2);
  for (std::size_t p = 0; p < 4; ++p) {
    auto sub = fin.subsystem(2, p);
    auto sub_ref = dense_solve(const_view(sub));
    for (std::size_t i = 0; i < sub.size(); ++i) {
      EXPECT_NEAR(sub_ref[i], ref[p + 4 * i], 1e-9)
          << "p=" << p << " i=" << i;
    }
  }
}

TEST(Pcr, FullSolveMatchesDense) {
  for (std::size_t n : {1u, 2u, 3u, 7u, 8u, 16u, 31u, 64u, 100u}) {
    auto batch = make_diag_dominant<double>(1, n, 100 + n);
    auto pristine = make_diag_dominant<double>(1, n, 100 + n);
    auto sys = batch.system(0);
    auto ref = dense_solve(const_view(pristine.system(0)));
    Scratch<double> scratch(n);
    auto x = batch.solution(0);
    pcr_solve(sys, scratch.view(), x);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(x[i], ref[i], 1e-8) << "n=" << n << " i=" << i;
  }
}

TEST(Pcr, RangeStepEqualsFullStep) {
  const std::size_t n = 17;
  auto batch = make_diag_dominant<double>(1, n, 31);
  auto sys = batch.system(0);
  Scratch<double> s1(n), s2(n);
  pcr_step(const_view(sys), s1.view(), 2);
  // Chunked: three ranges.
  auto dst2 = s2.view();
  pcr_step_range(const_view(sys), dst2, 2, 0, 5);
  pcr_step_range(const_view(sys), dst2, 2, 5, 12);
  pcr_step_range(const_view(sys), dst2, 2, 12, 17);
  auto v1 = s1.view();
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(v1.b[i], dst2.b[i]);
    EXPECT_DOUBLE_EQ(v1.d[i], dst2.d[i]);
  }
}

// ---------- PCR core: bitwise equal to the scalar strided loop ----------

// The scalar strided PCR step that preceded the split-by-neighbour core,
// kept verbatim as the bitwise reference.
template <typename T>
void reference_pcr_step(const SystemView<const T>& src,
                        const SystemView<T>& dst, std::size_t shift) {
  const std::size_t n = src.size();
  const auto s = static_cast<std::ptrdiff_t>(shift);
  const auto nn = static_cast<std::ptrdiff_t>(n);

  for (std::ptrdiff_t i = 0; i < nn; ++i) {
    const std::ptrdiff_t im = i - s;
    const std::ptrdiff_t ip = i + s;
    const auto ui = static_cast<std::size_t>(i);

    T alpha{0}, gamma{0};
    T nb = src.b[ui];
    T na{0}, nc{0};
    T nd = src.d[ui];

    if (im >= 0) {
      const auto uim = static_cast<std::size_t>(im);
      alpha = -src.a[ui] / src.b[uim];
      nb += alpha * src.c[uim];
      na = alpha * src.a[uim];
      nd += alpha * src.d[uim];
    }
    if (ip < nn) {
      const auto uip = static_cast<std::size_t>(ip);
      gamma = -src.c[ui] / src.b[uip];
      nb += gamma * src.a[uip];
      nc = gamma * src.c[uip];
      nd += gamma * src.d[uip];
    }
    dst.a[ui] = na;
    dst.b[ui] = nb;
    dst.c[ui] = nc;
    dst.d[ui] = nd;
  }
}

// Four coefficient arrays of n equations at a given element stride in
// one buffer, filled with a poison byte. Elements are re-poisoned before
// every step; the gaps between them never are, so a final whole-buffer
// memcmp also catches writes outside the view.
template <typename T>
struct StridedSystem {
  static constexpr unsigned char kPoison = 0xA5;

  StridedSystem(std::size_t n, std::size_t stride)
      : n_(n), lane_(std::max<std::size_t>(n, 1) * stride), stride_(stride),
        buf(4 * lane_) {
    std::memset(buf.data(), kPoison, buf.size() * sizeof(T));
  }
  SystemView<T> view() {
    return SystemView<T>{StridedView<T>(buf.data(), n_, stride_),
                         StridedView<T>(buf.data() + lane_, n_, stride_),
                         StridedView<T>(buf.data() + 2 * lane_, n_, stride_),
                         StridedView<T>(buf.data() + 3 * lane_, n_, stride_)};
  }
  T* at(int k, std::size_t i) { return buf.data() + k * lane_ + i * stride_; }
  void poison_elements() {
    for (int k = 0; k < 4; ++k)
      for (std::size_t i = 0; i < n_; ++i)
        std::memset(at(k, i), kPoison, sizeof(T));
  }
  bool same_elements(StridedSystem& o) {
    for (int k = 0; k < 4; ++k)
      for (std::size_t i = 0; i < n_; ++i)
        if (std::memcmp(at(k, i), o.at(k, i), sizeof(T)) != 0) return false;
    return true;
  }
  bool same_bytes(const StridedSystem& o) const {
    return std::memcmp(buf.data(), o.buf.data(), buf.size() * sizeof(T)) == 0;
  }

  std::size_t n_, lane_, stride_;
  std::vector<T> buf;
};

// Random diagonally dominant coefficients.
template <typename T>
void fill_dominant(const SystemView<T>& v, Rng& rng) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    v.a[i] = static_cast<T>(rng.uniform(-1.0, 1.0));
    v.b[i] = static_cast<T>(rng.uniform(2.0, 3.0));
    v.c[i] = static_cast<T>(rng.uniform(-1.0, 1.0));
    v.d[i] = static_cast<T>(rng.uniform(-1.0, 1.0));
  }
}

// Diagonally dominant coefficients whose couplings are so small that the
// coupling products of one PCR step land in T's subnormal range: |a| and
// |c| log-uniform in [2^-70, 2^-60] for float ([2^-540, 2^-520] for
// double), either sign; b in [2, 3].
template <typename T>
void fill_underflowing(const SystemView<T>& v, Rng& rng) {
  const double lo = std::is_same_v<T, float> ? -70.0 : -540.0;
  const double hi = std::is_same_v<T, float> ? -60.0 : -520.0;
  const auto tiny = [&] {
    const double mag = std::exp2(rng.uniform(lo, hi));
    return static_cast<T>(rng.below(2) == 0 ? mag : -mag);
  };
  for (std::size_t i = 0; i < v.size(); ++i) {
    v.a[i] = tiny();
    v.b[i] = static_cast<T>(rng.uniform(2.0, 3.0));
    v.c[i] = tiny();
    v.d[i] = static_cast<T>(rng.uniform(-1.0, 1.0));
  }
}

// Subnormal values in the a and c lanes of v: after one PCR step those
// are the coupling products themselves.
template <typename T>
std::size_t subnormal_couplings(const SystemView<T>& v) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    count += std::fpclassify(v.a[i]) == FP_SUBNORMAL;
    count += std::fpclassify(v.c[i]) == FP_SUBNORMAL;
  }
  return count;
}

template <typename T>
void check_pcr_core_bitwise() {
  Rng rng(0x9c7u);
  // (input, output) strides: the unit-stride path, either side strided
  // alone, and both strided; each side sees 1, 3 and 64.
  const std::pair<std::size_t, std::size_t> strides[] = {
      {1, 1}, {1, 64}, {3, 1}, {64, 3}};
  for (std::size_t n : {1u, 2u, 3u, 5u, 17u, 64u, 1000u, 1025u}) {
    for (const auto& [in_stride, out_stride] : strides) {
      StridedSystem<T> src(n, in_stride);
      fill_dominant(src.view(), rng);
      const auto in = const_view(src.view());
      StridedSystem<T> want(n, out_stride), full(n, out_stride),
          ranged(n, out_stride);
      // Every shift below n (so n < 2*shift is covered) and one at n,
      // where no equation has a neighbour.
      for (std::size_t shift = 1; shift <= n; ++shift) {
        reference_pcr_step(in, want.view(), shift);

        full.poison_elements();
        pcr_step(in, full.view(), shift);
        ASSERT_TRUE(full.same_elements(want))
            << "pcr_step n=" << n << " shift=" << shift
            << " strides=" << in_stride << "/" << out_stride;

        // Ranges cut at the edge-region boundaries (shift, n-shift) and
        // at a random point, run back to front.
        const std::size_t edge = std::min(shift, n);
        std::vector<std::size_t> cuts{
            0, n, edge, n - edge, static_cast<std::size_t>(rng.below(n + 1))};
        std::sort(cuts.begin(), cuts.end());
        ranged.poison_elements();
        for (std::size_t k = cuts.size() - 1; k-- > 0;) {
          pcr_step_range(in, ranged.view(), shift, cuts[k], cuts[k + 1]);
        }
        ASSERT_TRUE(ranged.same_elements(want))
            << "pcr_step_range n=" << n << " shift=" << shift
            << " strides=" << in_stride << "/" << out_stride;
      }
      EXPECT_TRUE(full.same_bytes(want)) << "write outside the view";
      EXPECT_TRUE(ranged.same_bytes(want)) << "write outside the view";
    }
  }
}

TEST(Pcr, CoreBitwiseEqualsScalarReferenceFloat) {
  check_pcr_core_bitwise<float>();
}

TEST(Pcr, CoreBitwiseEqualsScalarReferenceDouble) {
  check_pcr_core_bitwise<double>();
}

// The PCR and Thomas loop internals and their ISA variants.
namespace core = tda::tridiag::detail;

using core::Isa;

constexpr Isa kAllIsas[] = {Isa::Default, Isa::Avx2, Isa::Avx512};

const char* isa_name(Isa isa) {
  return isa == Isa::Avx512 ? "avx512" : isa == Isa::Avx2 ? "avx2" : "default";
}

// Sizes for the bitwise path and variant checks: tiny systems, one odd
// size, and both sides of a power of two.
constexpr std::size_t kBitwiseSizes[] = {1, 2, 3, 17, 1023, 1024, 1025};

// (src, dst) element strides: both contiguous, either side strided, both.
constexpr std::pair<std::size_t, std::size_t> kStridePairs[] = {
    {1, 1}, {1, 3}, {3, 1}, {3, 3}};

// pcr_step_range runs a contiguous side on raw pointers and a strided one
// on StridedViews. Every pairing must equal the StridedView path run on
// the same views, split into two ranges at a random cut, and must write
// nothing outside the view.
template <typename T>
void check_mixed_stride_step() {
  Rng rng(0x5eedu);
  for (const std::size_t n : kBitwiseSizes) {
    for (const auto& [in_stride, out_stride] : kStridePairs) {
      SCOPED_TRACE(testing::Message() << "n " << n << " strides "
                                      << in_stride << "/" << out_stride);
      StridedSystem<T> src(n, in_stride);
      fill_dominant(src.view(), rng);
      const auto in = const_view(src.view());
      StridedSystem<T> want(n, out_stride), got(n, out_stride);
      for (std::size_t shift = 1; shift <= n; ++shift) {
        want.poison_elements();
        core::pcr_step_regions<T>(
            core::PcrStep<StridedView<const T>, StridedView<T>>{
                core::view_lanes(in), core::view_lanes(want.view()), n, shift,
                0, n});
        got.poison_elements();
        const auto cut = static_cast<std::size_t>(rng.below(n + 1));
        pcr_step_range(in, got.view(), shift, cut, n);
        pcr_step_range(in, got.view(), shift, 0, cut);
        ASSERT_TRUE(got.same_elements(want)) << "shift " << shift;
      }
      EXPECT_TRUE(got.same_bytes(want)) << "write outside the view";
    }
  }
}

TEST(Pcr, MixedStrideStepBitwise) {
  check_mixed_stride_step<float>();
  check_mixed_stride_step<double>();
}

// The splitting step puts equation i of a shift-1 step into row i/2 of
// the even child or row ceil(n/2) + i/2 of the odd one. On every variant
// the CPU runs it must equal pcr_step followed by that permutation bit
// for bit, over the whole range and over ranges cut at random points
// (odd cuts included) run back to front, and write nothing outside the
// system. The splitting step forms its coupling products of float in
// double and pcr_step does not, so the underflowing fill checks the
// widened products against plain float multiplies; it must produce
// subnormals.
template <typename T>
void check_split_step(bool underflowing) {
  Rng rng(underflowing ? 0x5b19u : 0x5b17u);
  for (const Isa isa : kAllIsas) {
    if (!core::isa_supported(isa)) continue;
    std::size_t subnormals = 0;
    for (const std::size_t n : kBitwiseSizes) {
      SCOPED_TRACE(testing::Message() << isa_name(isa) << " n " << n);
      StridedSystem<T> src(n, 1);
      if (underflowing) {
        fill_underflowing(src.view(), rng);
      } else {
        fill_dominant(src.view(), rng);
      }
      const auto in = const_view(src.view());
      StridedSystem<T> step(n, 1), want(n, 1), got(n, 1);
      core::pcr_step_range_on(isa, in, step.view(), 1, 0, n);
      subnormals += subnormal_couplings(step.view());
      for (int k = 0; k < 4; ++k) {
        for (std::size_t i = 0; i < n; ++i) {
          std::memcpy(want.at(k, i / 2 + i % 2 * ((n + 1) / 2)),
                      step.at(k, i), sizeof(T));
        }
      }
      core::pcr_split_step_range_on(isa, in, got.view(), 0, n);
      ASSERT_TRUE(got.same_bytes(want)) << "whole range";
      for (int trial = 0; trial < 4; ++trial) {
        std::vector<std::size_t> cuts{0, n};
        for (int c = 0; c < 3; ++c) {
          cuts.push_back(static_cast<std::size_t>(rng.below(n + 1)));
        }
        std::sort(cuts.begin(), cuts.end());
        got.poison_elements();
        for (std::size_t k = cuts.size() - 1; k-- > 0;) {
          core::pcr_split_step_range_on(isa, in, got.view(), cuts[k],
                                        cuts[k + 1]);
        }
        ASSERT_TRUE(got.same_bytes(want)) << "trial " << trial;
      }
    }
    if (underflowing) {
      EXPECT_GT(subnormals, 1000u) << isa_name(isa);
    }
  }
}

TEST(Pcr, SplitStepBitwiseEqualsStepThenDeinterleave) {
  for (const bool underflowing : {false, true}) {
    SCOPED_TRACE(underflowing ? "underflowing couplings" : "ordinary");
    check_split_step<float>(underflowing);
    check_split_step<double>(underflowing);
  }
}

// The splitting step's widened product, core::mul<true>, must give the
// bits of a plain float multiply for every pair of floats: the float
// product is exact in double, so narrowing it rounds once, as IEEE
// multiplication does, gradual underflow and overflow included. NaN
// inputs must give a NaN; its payload is not compared.
float plain_product(float x, float y) { return x * y; }

bool same_float_bits(float x, float y) {
  return std::memcmp(&x, &y, sizeof(float)) == 0;
}

TEST(Pcr, ExactProductMatchesFloatMultiply) {
  const auto exact = [](float x, float y) { return core::mul<true>(x, y); };
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kMax = std::numeric_limits<float>::max();
  constexpr float kMinNormal = std::numeric_limits<float>::min();
  constexpr float kMinSub = std::numeric_limits<float>::denorm_min();
  const float edges[][2] = {
      // Exact subnormal ties, rounded to even: 1.5, 2.5 and 0.5 times
      // the smallest subnormal, each made two ways, and the tie between
      // the largest subnormal and the smallest normal.
      {0x1.8p-75f, 0x1p-74f},
      {0x1.4p-74f, 0x1p-74f},
      {0x1p-75f, 0x1p-75f},
      {kMinSub, 1.5f},
      {kMinSub, 2.5f},
      {kMinSub, 0.5f},
      {0x1.fffffep-1f, 0x1p-126f},
      // Just above half the smallest subnormal, exactly the smallest,
      // back to normal, and just below the smallest normal.
      {0x1.000002p-75f, 0x1p-75f},
      {0x1p-75f, 0x1p-74f},
      {kMinSub, 0x1p127f},
      {kMinNormal, 0x1.fffffep-1f},
      // Underflow to zero and overflow, both signs.
      {kMinSub, kMinSub},
      {-kMinSub, 0x1p-30f},
      {kMax, 0x1.000002p0f},
      {-kMax, 2.0f},
      {kMax, 1.0f},
      // Signed zeros and infinities.
      {0.0f, 1.0f},
      {-0.0f, 1.0f},
      {0.0f, -kMinSub},
      {-0.0f, -0.0f},
      {-0.0f, kMax},
      {kInf, 2.0f},
      {kInf, -kMinSub},
      {-kInf, -kInf},
      {kInf, -kInf},
  };
  for (const auto& [x, y] : edges) {
    for (const auto& [p, q] : {std::pair{x, y}, std::pair{y, x}}) {
      EXPECT_TRUE(same_float_bits(exact(p, q), plain_product(p, q)))
          << std::hexfloat << p << " * " << q << ": " << exact(p, q)
          << " vs " << plain_product(p, q);
    }
  }

  // NaN inputs, quiet and signalling, and inf * 0, which makes one.
  const float qnan = std::numeric_limits<float>::quiet_NaN();
  const float snan = std::numeric_limits<float>::signaling_NaN();
  for (const auto& [p, q] : {std::pair{qnan, 1.0f}, {2.0f, -qnan},
                             {snan, kMinSub}, {qnan, snan}, {kInf, 0.0f},
                             {-0.0f, kInf}}) {
    EXPECT_TRUE(std::isnan(exact(p, q))) << p << " * " << q;
    EXPECT_TRUE(std::isnan(plain_product(p, q))) << p << " * " << q;
  }

  // Random pairs whose biased exponents span the whole range, subnormal
  // inputs included, so the products fall in every range: overflow,
  // normal, subnormal and underflow to zero. Each range must be met.
  Rng rng(0xe7ac7u);
  int overflow = 0, normal = 0, subnormal = 0, zero = 0;
  const auto random_float = [&] {
    const auto sign = static_cast<std::uint32_t>(rng.below(2)) << 31;
    const auto exponent = static_cast<std::uint32_t>(rng.below(255)) << 23;
    const auto mantissa = static_cast<std::uint32_t>(rng.below(1u << 23));
    const std::uint32_t bits = sign | exponent | mantissa;
    float f;
    std::memcpy(&f, &bits, sizeof f);
    return f;
  };
  for (int k = 0; k < 1'000'000; ++k) {
    const float x = random_float();
    const float y = random_float();
    const float want = plain_product(x, y);
    const float got = exact(x, y);
    ASSERT_TRUE(same_float_bits(got, want))
        << std::hexfloat << x << " * " << y << ": " << got << " vs " << want;
    switch (std::fpclassify(want)) {
      case FP_INFINITE:
        ++overflow;
        break;
      case FP_NORMAL:
        ++normal;
        break;
      case FP_SUBNORMAL:
        ++subnormal;
        break;
      default:
        ++zero;
        break;
    }
  }
  EXPECT_GT(overflow, 1000);
  EXPECT_GT(normal, 1000);
  EXPECT_GT(subnormal, 1000);
  EXPECT_GT(zero, 1000);
}

// ---------- ISA variants: bitwise equal to the default variant ----------

TEST(IsaVariants, HostIsaIsTheWidestSupported) {
  EXPECT_TRUE(core::isa_supported(Isa::Default));
  EXPECT_TRUE(core::isa_supported(core::host_isa()));
  for (const Isa isa : kAllIsas) {
    if (core::isa_supported(isa)) {
      EXPECT_GE(static_cast<int>(core::host_isa()), static_cast<int>(isa))
          << isa_name(isa);
    }
  }
}

// Every variant the CPU runs, on every stride pairing, every shift, the
// whole range and a random partial one: the destination buffer, gaps
// included, must match the default variant byte for byte.
template <typename T>
void check_pcr_variants() {
  Rng rng(0x15au);
  for (const Isa isa : kAllIsas) {
    if (!core::isa_supported(isa)) continue;
    for (const std::size_t n : kBitwiseSizes) {
      for (const auto& [in_stride, out_stride] : kStridePairs) {
        SCOPED_TRACE(testing::Message()
                     << isa_name(isa) << " n " << n << " strides "
                     << in_stride << "/" << out_stride);
        StridedSystem<T> src(n, in_stride);
        fill_dominant(src.view(), rng);
        const auto in = const_view(src.view());
        StridedSystem<T> want(n, out_stride), got(n, out_stride);
        for (std::size_t shift = 1; shift <= n; ++shift) {
          const auto begin = static_cast<std::size_t>(rng.below(n + 1));
          const auto end =
              begin + static_cast<std::size_t>(rng.below(n - begin + 1));
          for (const auto& [lo, hi] :
               {std::pair<std::size_t, std::size_t>{0, n}, {begin, end}}) {
            want.poison_elements();
            got.poison_elements();
            core::pcr_step_range_on(Isa::Default, in, want.view(), shift,
                                    lo, hi);
            core::pcr_step_range_on(isa, in, got.view(), shift, lo, hi);
            ASSERT_TRUE(got.same_bytes(want))
                << "shift " << shift << " range [" << lo << ", " << hi
                << ")";
          }
        }
      }
    }
  }
}

TEST(IsaVariants, PcrStepBitwiseEqualsDefaultFloat) {
  check_pcr_variants<float>();
}

TEST(IsaVariants, PcrStepBitwiseEqualsDefaultDouble) {
  check_pcr_variants<double>();
}

// The splitting step on every variant the CPU runs, whole and random
// partial ranges, with ordinary and with underflowing couplings: the
// destination buffer must match the default variant byte for byte, and
// the underflowing fill must produce subnormals.
template <typename T>
void check_split_variants(bool underflowing) {
  Rng rng(underflowing ? 0x5b1au : 0x5b18u);
  for (const Isa isa : kAllIsas) {
    if (!core::isa_supported(isa)) continue;
    std::size_t subnormals = 0;
    for (const std::size_t n : kBitwiseSizes) {
      SCOPED_TRACE(testing::Message() << isa_name(isa) << " n " << n);
      StridedSystem<T> src(n, 1);
      if (underflowing) {
        fill_underflowing(src.view(), rng);
      } else {
        fill_dominant(src.view(), rng);
      }
      const auto in = const_view(src.view());
      StridedSystem<T> want(n, 1), got(n, 1);
      core::pcr_split_step_range_on(Isa::Default, in, want.view(), 0, n);
      subnormals += subnormal_couplings(want.view());
      for (int trial = 0; trial < 8; ++trial) {
        const auto begin = static_cast<std::size_t>(rng.below(n + 1));
        const auto end =
            begin + static_cast<std::size_t>(rng.below(n - begin + 1));
        for (const auto& [lo, hi] :
             {std::pair<std::size_t, std::size_t>{0, n}, {begin, end}}) {
          want.poison_elements();
          got.poison_elements();
          core::pcr_split_step_range_on(Isa::Default, in, want.view(), lo,
                                        hi);
          core::pcr_split_step_range_on(isa, in, got.view(), lo, hi);
          ASSERT_TRUE(got.same_bytes(want))
              << "range [" << lo << ", " << hi << ")";
        }
      }
    }
    if (underflowing) {
      EXPECT_GT(subnormals, 1000u) << isa_name(isa);
    }
  }
}

TEST(IsaVariants, PcrSplitStepBitwiseEqualsDefaultFloat) {
  check_split_variants<float>(false);
  check_split_variants<float>(true);
}

TEST(IsaVariants, PcrSplitStepBitwiseEqualsDefaultDouble) {
  check_split_variants<double>(false);
  check_split_variants<double>(true);
}

// One interleaved Thomas sweep on `isa` over a copy of input laid out at
// `stride` (contiguous lanes take the raw-pointer path). Returns the
// zero-pivot flag and the whole five-lane buffer: c and d after the
// forward sweep, then x.
template <typename T>
std::pair<bool, std::vector<T>> isa_sweep(Isa isa,
                                          const TridiagBatch<T>& input,
                                          std::size_t stride,
                                          std::size_t parts,
                                          std::size_t width) {
  const std::size_t n = input.system_size();
  std::vector<T> buf(5 * n * stride, T{-7});
  const auto lane = [&](std::size_t l) {
    return StridedView<T>(buf.data() + l * n * stride, n, stride);
  };
  const SystemView<T> sys{lane(0), lane(1), lane(2), lane(3)};
  for (std::size_t i = 0; i < n; ++i) {
    sys.a[i] = input.a()[i];
    sys.b[i] = input.b()[i];
    sys.c[i] = input.c()[i];
    sys.d[i] = input.d()[i];
  }
  const bool ok =
      core::thomas_solve_interleaved_on(isa, sys, lane(4), parts, width);
  return {ok, std::move(buf)};
}

template <typename T>
void check_thomas_variants() {
  for (const Isa isa : kAllIsas) {
    if (!core::isa_supported(isa)) continue;
    for (const std::size_t n : kBitwiseSizes) {
      for (std::size_t parts = 1; parts <= 2 * n; parts *= 2) {
        for (const std::size_t width : sweep_widths(parts)) {
          for (const std::size_t stride : {1, 3}) {
            SCOPED_TRACE(testing::Message()
                         << isa_name(isa) << " n " << n << " parts " << parts
                         << " width " << width << " stride " << stride);
            auto input = make_diag_dominant<T>(1, n, 500 + n + parts);
            const auto sweep = [&](Isa on) {
              return isa_sweep(on, input, stride, parts, width);
            };
            const auto want = sweep(Isa::Default);
            const auto got = sweep(isa);
            EXPECT_TRUE(want.first);
            EXPECT_EQ(got.first, want.first);
            ASSERT_EQ(std::memcmp(got.second.data(), want.second.data(),
                                  got.second.size() * sizeof(T)),
                      0);
            // A zero pivot in the middle row: a = b = 0 makes b - a*c'
            // exactly zero there, and every variant must flag it when
            // the window holds that row's subsystem.
            input.a()[n / 2] = T{0};
            input.b()[n / 2] = T{0};
            const bool swept = (n / 2) % parts < width;
            const auto bad_want = sweep(Isa::Default);
            const auto bad_got = sweep(isa);
            EXPECT_EQ(bad_want.first, !swept);
            EXPECT_EQ(bad_got.first, !swept);
            ASSERT_EQ(std::memcmp(bad_got.second.data(),
                                  bad_want.second.data(),
                                  bad_got.second.size() * sizeof(T)),
                      0);
          }
        }
      }
    }
  }
}

TEST(IsaVariants, ThomasSweepBitwiseEqualsDefaultFloat) {
  check_thomas_variants<float>();
}

TEST(IsaVariants, ThomasSweepBitwiseEqualsDefaultDouble) {
  check_thomas_variants<double>();
}

// Whole, partial and empty tiles of an odd-shaped matrix: every variant
// must write exactly the default variant's bytes, and nothing else.
template <typename T>
void check_transpose_variants() {
  Rng rng(0x7a5u);
  const std::size_t rows = 67, cols = 45;
  std::vector<T> src(rows * cols);
  for (auto& v : src) v = static_cast<T>(rng.uniform(-1.0, 1.0));
  const std::size_t tiles[][4] = {
      {0, rows, 0, cols}, {3, 64, 5, 37}, {66, 67, 0, 1}, {10, 10, 0, cols}};
  for (const Isa isa : kAllIsas) {
    if (!core::isa_supported(isa)) continue;
    for (const auto& [r0, r1, c0, c1] : tiles) {
      SCOPED_TRACE(testing::Message() << isa_name(isa) << " rows [" << r0
                                      << ", " << r1 << ") cols [" << c0
                                      << ", " << c1 << ")");
      std::vector<T> want(rows * cols, T{-7}), got(rows * cols, T{-7});
      core::transpose_tile_isa<T>(
          Isa::Default, {src.data(), want.data(), rows, cols, r0, r1, c0, c1});
      core::transpose_tile_isa<T>(
          isa, {src.data(), got.data(), rows, cols, r0, r1, c0, c1});
      ASSERT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(T)),
                0);
    }
  }
}

TEST(IsaVariants, TransposeTileBitwiseEqualsDefault) {
  check_transpose_variants<float>();
  check_transpose_variants<double>();
}

// The guard scans on every variant the CPU runs: the screen verdict must
// equal the default variant's and the residual must match it byte for
// byte, on clean systems and with a NaN, an Inf or a zero in every lane
// (x included) at the edges and in the middle.
template <typename T>
void check_guard_scan_variants() {
  const T bad_values[] = {std::numeric_limits<T>::quiet_NaN(),
                          std::numeric_limits<T>::infinity(),
                          -std::numeric_limits<T>::infinity(), T{0}};
  for (const std::size_t n : {1, 2, 3, 8, 9, 17, 1023, 1024, 1025}) {
    auto batch = make_random_general<T>(1, n, 0x9a4d + n);
    Rng rng(n);
    for (auto& v : batch.x()) v = static_cast<T>(rng.uniform(-2.0, 2.0));
    const auto sys = batch.system(0);
    const auto x = batch.solution(0);
    const auto compare = [&](const char* what) {
      const auto in = const_view(sys);
      const auto xs = x.as_const();
      const auto want_verdict = core::screen_verdict_on(Isa::Default, in);
      const double want = core::relative_residual_on(Isa::Default, in, xs);
      for (const Isa isa : kAllIsas) {
        if (!core::isa_supported(isa)) continue;
        SCOPED_TRACE(testing::Message() << isa_name(isa) << " n " << n
                                        << " " << what);
        EXPECT_EQ(core::screen_verdict_on(isa, in), want_verdict);
        const double got = core::relative_residual_on(isa, in, xs);
        EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0)
            << got << " vs " << want;
      }
    };
    compare("clean");
    std::vector<std::size_t> rows{0, 1, n / 2, n - 2, n - 1};
    rows.erase(std::remove_if(rows.begin(), rows.end(),
                              [n](std::size_t i) { return i >= n; }),
               rows.end());
    for (StridedView<T> lane : {sys.a, sys.b, sys.c, sys.d, x}) {
      for (const std::size_t i : rows) {
        for (const T bad : bad_values) {
          const T keep = lane[i];
          lane[i] = bad;
          compare("bad value");
          lane[i] = keep;
        }
      }
    }
  }
}

TEST(IsaVariants, GuardScansEqualDefaultFloat) {
  check_guard_scan_variants<float>();
}

TEST(IsaVariants, GuardScansEqualDefaultDouble) {
  check_guard_scan_variants<double>();
}

// ---------- CR ----------

TEST(Cr, MatchesDenseAcrossSizes) {
  for (std::size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 15u, 16u, 33u, 128u}) {
    auto batch = make_diag_dominant<double>(1, n, 200 + n);
    auto pristine = make_diag_dominant<double>(1, n, 200 + n);
    auto sys = batch.system(0);
    auto ref = dense_solve(const_view(pristine.system(0)));
    auto x = batch.solution(0);
    cr_solve(sys, x);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(x[i], ref[i], 1e-8) << "n=" << n << " i=" << i;
  }
}

TEST(Cr, PoissonSystemExactlySolvable) {
  const std::size_t n = 64;
  auto batch = make_poisson<double>(1, n, 17);
  auto pristine = make_poisson<double>(1, n, 17);
  auto sys = batch.system(0);
  auto x = batch.solution(0);
  cr_solve(sys, x);
  std::vector<double> xs(n);
  for (std::size_t i = 0; i < n; ++i) xs[i] = x[i];
  EXPECT_LT(batch_residual_inf(pristine, std::span<const double>(xs)), 1e-10);
}

// ---------- PCR-Thomas hybrid ----------

class PcrThomasSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(PcrThomasSweep, MatchesDense) {
  const auto [n, target] = GetParam();
  auto batch = make_diag_dominant<double>(1, n, 300 + n + target);
  auto pristine = make_diag_dominant<double>(1, n, 300 + n + target);
  auto sys = batch.system(0);
  auto ref = dense_solve(const_view(pristine.system(0)));
  Scratch<double> scratch(n);
  auto x = batch.solution(0);
  pcr_thomas_solve(sys, scratch.view(), x, target);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(x[i], ref[i], 1e-8) << "n=" << n << " target=" << target;
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndSwitches, PcrThomasSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 8, 17, 64, 100, 256),
                       ::testing::Values(1, 2, 4, 16, 64, 1024)));

TEST(PcrThomas, SplitStepsCapped) {
  // Never splits below one equation per subsystem.
  EXPECT_EQ(pcr_thomas_split_steps(8, 1024), 3u);
  EXPECT_EQ(pcr_thomas_split_steps(8, 4), 2u);
  EXPECT_EQ(pcr_thomas_split_steps(1, 64), 0u);
  EXPECT_EQ(pcr_thomas_split_steps(1024, 64), 6u);
}

// ---------- CR-PCR hybrid (Zhang et al. baseline) ----------

class CrPcrSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(CrPcrSweep, MatchesDense) {
  const auto [n, threshold] = GetParam();
  auto batch = make_diag_dominant<double>(1, n, 400 + n + threshold);
  auto pristine = make_diag_dominant<double>(1, n, 400 + n + threshold);
  auto sys = batch.system(0);
  auto ref = dense_solve(const_view(pristine.system(0)));
  auto x = batch.solution(0);
  cr_pcr_solve(sys, x, threshold);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(x[i], ref[i], 1e-8) << "n=" << n << " thr=" << threshold;
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndThresholds, CrPcrSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 8, 17, 64, 100, 255, 256),
                       ::testing::Values(1, 2, 8, 32, 512)));

// ---------- float precision paths ----------

TEST(FloatPath, AllAlgorithmsAgree) {
  const std::size_t n = 128;
  auto make = [&] { return make_diag_dominant<float>(1, n, 555); };

  auto b_thomas = make();
  auto s = b_thomas.system(0);
  ASSERT_TRUE(thomas_solve_inplace(s, b_thomas.solution(0)));

  auto b_pcr = make();
  {
    AlignedBuffer<float> buf(4 * n);
    SystemView<float> scratch{StridedView<float>(buf.data(), n, 1),
                              StridedView<float>(buf.data() + n, n, 1),
                              StridedView<float>(buf.data() + 2 * n, n, 1),
                              StridedView<float>(buf.data() + 3 * n, n, 1)};
    pcr_solve(b_pcr.system(0), scratch, b_pcr.solution(0));
  }

  auto b_cr = make();
  cr_solve(b_cr.system(0), b_cr.solution(0));

  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(b_pcr.x()[i], b_thomas.x()[i], 2e-4f);
    EXPECT_NEAR(b_cr.x()[i], b_thomas.x()[i], 2e-4f);
  }
}

// ---------- residual / verification ----------

TEST(Verify, ResidualZeroForExactSolution) {
  std::vector<double> x_true;
  auto batch = make_with_known_solution<double>(1, 50, 77, &x_true);
  EXPECT_LT(batch_residual_inf(batch, std::span<const double>(x_true)),
            1e-13);
}

TEST(Verify, ResidualLargeForWrongSolution) {
  std::vector<double> x_true;
  auto batch = make_with_known_solution<double>(1, 50, 78, &x_true);
  for (auto& v : x_true) v += 1.0;
  EXPECT_GT(batch_residual_inf(batch, std::span<const double>(x_true)),
            1e-3);
}

TEST(Verify, NonFiniteSolutionNeverVerifies) {
  std::vector<double> x_true;
  auto batch = make_with_known_solution<double>(3, 50, 79, &x_true);
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), inf,
                           -inf}) {
    // One bad unknown in the middle system, and every unknown bad.
    std::vector<double> one = x_true;
    one[50 + 17] = bad;
    std::vector<double> all(x_true.size(), bad);
    for (const auto* x : {&one, &all}) {
      const std::span<const double> xs(*x);
      EXPECT_EQ(batch_residual_inf(batch, xs), inf) << bad;
      EXPECT_EQ(residual_inf(const_view(batch.system(1)),
                             StridedView<const double>(xs.data() + 50, 50, 1)),
                inf)
          << bad;
    }
  }
}

// ---------- property sweep: every solver, random dominant systems ----------

class AllSolversProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AllSolversProperty, ResidualTiny) {
  const std::size_t seed = GetParam();
  Rng shape_rng(seed);
  const std::size_t n = 1 + shape_rng.below(300);
  auto pristine = make_diag_dominant<double>(1, n, seed * 13 + 1);

  auto run_and_check = [&](auto solve_fn, const char* name) {
    auto batch = make_diag_dominant<double>(1, n, seed * 13 + 1);
    solve_fn(batch);
    std::vector<double> xs(n);
    for (std::size_t i = 0; i < n; ++i) xs[i] = batch.x()[i];
    EXPECT_LT(batch_residual_inf(pristine, std::span<const double>(xs)),
              1e-10)
        << name << " n=" << n << " seed=" << seed;
  };

  run_and_check(
      [&](auto& b) {
        ASSERT_TRUE(thomas_solve_inplace(b.system(0), b.solution(0)));
      },
      "thomas");
  run_and_check(
      [&](auto& b) {
        Scratch<double> sc(n);
        pcr_solve(b.system(0), sc.view(), b.solution(0));
      },
      "pcr");
  run_and_check([&](auto& b) { cr_solve(b.system(0), b.solution(0)); },
                "cr");
  run_and_check(
      [&](auto& b) {
        Scratch<double> sc(n);
        pcr_thomas_solve(b.system(0), sc.view(), b.solution(0), 16);
      },
      "pcr-thomas");
  run_and_check([&](auto& b) { cr_pcr_solve(b.system(0), b.solution(0), 8); },
                "cr-pcr");
}

INSTANTIATE_TEST_SUITE_P(RandomShapes, AllSolversProperty,
                         ::testing::Range<std::size_t>(1, 21));

}  // namespace
