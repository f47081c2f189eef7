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
#include "tridiag/hybrid.hpp"
#include "tridiag/pcr.hpp"
#include "tridiag/thomas.hpp"
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

TEST(Thomas, NonDestructiveVariantPreservesInput) {
  auto batch = make_diag_dominant<double>(1, 16, 6);
  auto sys = batch.system(0);
  std::vector<double> c_before(16), cs(16), ds(16), x(16);
  for (std::size_t i = 0; i < 16; ++i) c_before[i] = sys.c[i];
  ASSERT_TRUE(thomas_solve(const_view(sys),
                           StridedView<double>(x.data(), 16, 1),
                           StridedView<double>(cs.data(), 16, 1),
                           StridedView<double>(ds.data(), 16, 1)));
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(sys.c[i], c_before[i]);
  EXPECT_LT(residual_inf(const_view(sys),
                         StridedView<const double>(x.data(), 16, 1)),
            1e-12);
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

// The sweep gives every interleaved subsystem exactly
// thomas_solve_inplace's operations, so x must match a per-subsystem loop
// bit for bit — on contiguous lanes (the vector path) and on the same
// lanes embedded at stride 2 (the StridedView path).
template <typename T>
void expect_sweep_bitwise(std::size_t len, std::size_t parts) {
  SCOPED_TRACE(testing::Message() << "len " << len << " parts " << parts);
  const auto input = make_diag_dominant<T>(1, len, 1000 + len * 7 + parts);
  std::size_t k = 0;
  while ((std::size_t{1} << k) < parts) ++k;
  auto ref = input;
  for (std::size_t q = 0; q < parts; ++q) {
    auto sub = ref.system(0).subsystem(k, q);
    if (sub.size() == 0) continue;
    ASSERT_TRUE(thomas_solve_inplace(sub, ref.solution(0).subsystem(k, q)));
  }
  auto sweep = input;
  ASSERT_TRUE(
      thomas_solve_interleaved(sweep.system(0), sweep.solution(0), parts));
  EXPECT_EQ(std::memcmp(ref.x().data(), sweep.x().data(), len * sizeof(T)),
            0);

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
  ASSERT_TRUE(thomas_solve_interleaved(strided, lane(4), parts));
  for (std::size_t i = 0; i < len; ++i) {
    const T got = lane(4)[i];
    EXPECT_EQ(std::memcmp(&got, &ref.x()[i], sizeof(T)), 0) << "row " << i;
  }
}

template <typename T>
void expect_sweep_bitwise_all() {
  for (const std::size_t len : {1, 2, 3, 17, 100, 1023, 1024, 1025}) {
    std::size_t parts = 1;
    for (; parts <= len; parts *= 2) expect_sweep_bitwise<T>(len, parts);
    expect_sweep_bitwise<T>(len, parts);  // parts > len: empty subsystems
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
  EXPECT_FALSE(thomas_solve_interleaved(sys, batch.solution(0), 4));
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
      auto sv = src.view();
      for (std::size_t i = 0; i < n; ++i) {
        sv.a[i] = static_cast<T>(rng.uniform(-1.0, 1.0));
        sv.b[i] = static_cast<T>(rng.uniform(2.0, 3.0));
        sv.c[i] = static_cast<T>(rng.uniform(-1.0, 1.0));
        sv.d[i] = static_cast<T>(rng.uniform(-1.0, 1.0));
      }
      const auto in = const_view(sv);
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
