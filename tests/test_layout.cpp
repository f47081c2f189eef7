// Tests for the interleaved (element-major) layout family: device
// transposes, solver equivalence between the two layouts across
// ragged shapes, bitwise determinism of the SIMD paths under different
// host lane counts, the tuner's layout decision at the occupancy
// crossover, and the v2 cache records that persist it.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "gpusim/thread_pool.hpp"
#include "kernels/device_batch.hpp"
#include "kernels/interleaved_kernels.hpp"
#include "solver/gpu_solver.hpp"
#include "tridiag/generators.hpp"
#include "tridiag/thomas.hpp"
#include "tridiag/verify.hpp"
#include "tuning/cache.hpp"
#include "tuning/dynamic_tuner.hpp"

namespace {

using namespace tda;
using tridiag::BatchLayout;
using tridiag::make_diag_dominant;

// ---------- device-side transpose stages ----------

TEST(Layout, DeviceTransposeInProducesElementMajorLanes) {
  const std::size_t m = 37, n = 19;
  auto host = make_diag_dominant<float>(m, n, 5);
  gpusim::Device dev(gpusim::geforce_gtx_470());
  dev.set_arena_poison(false);
  kernels::DeviceBatch<float> batch(dev, host);
  kernels::transpose_in_stage(dev, batch, kernels::ExecMode::Full);
  ASSERT_EQ(batch.layout(), BatchLayout::ElementMajor);
  const std::span<const float> lanes[4] = {host.a(), host.b(), host.c(),
                                           host.d()};
  for (int k = 0; k < 4; ++k) {
    auto lane = batch.cur_lane(k);
    for (std::size_t s = 0; s < m; ++s) {
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(lane[i * m + s], lanes[k][s * n + i])
            << "lane " << k << " system " << s << " element " << i;
      }
    }
  }
}

TEST(Layout, DeviceTransposeRoundTripIsByteIdentical) {
  const std::size_t m = 65, n = 33;
  auto host = make_diag_dominant<float>(m, n, 9);
  gpusim::Device dev(gpusim::geforce_gtx_470());
  dev.set_arena_poison(false);
  kernels::DeviceBatch<float> batch(dev, host);
  kernels::transpose_in_stage(dev, batch, kernels::ExecMode::Full);
  // The interleaved Thomas kernel stages x element-major in the alternate
  // d lane; emulate that by copying the transposed d lane across, then
  // check transpose-out lands the original bytes in x.
  auto src = batch.cur_lane(3);
  auto dst = batch.alt_lane(3);
  std::copy(src.begin(), src.end(), dst.begin());
  kernels::transpose_out_stage(dev, batch, kernels::ExecMode::Full);
  ASSERT_EQ(batch.layout(), BatchLayout::SystemMajor);
  EXPECT_EQ(std::memcmp(batch.x().data(), host.d().data(),
                        m * n * sizeof(float)), 0);
}

// ---------- solver equivalence across layouts ----------

template <typename T>
void expect_layout_equivalence(std::size_t m, std::size_t n, double tol) {
  for (auto layout : {BatchLayout::SystemMajor, BatchLayout::ElementMajor}) {
    gpusim::Device dev(gpusim::geforce_gtx_470());
    dev.set_arena_poison(false);
    solver::SwitchPoints sp;
    sp.layout = layout;
    solver::GpuTridiagonalSolver<T> solver(dev, sp);
    auto batch = make_diag_dominant<T>(m, n, 42);
    auto stats = solver.solve(batch);
    EXPECT_LT(tridiag::batch_residual_inf(batch), tol)
        << m << "x" << n << " layout=" << tridiag::to_string(layout);
    if (layout == BatchLayout::ElementMajor) {
      EXPECT_GT(stats.transpose_ms, 0.0);
    } else {
      EXPECT_EQ(stats.transpose_ms, 0.0);
    }
  }
}

TEST(Layout, SolversAgreeAcrossRaggedShapesFloat) {
  // Includes 1-equation systems, a single system, and sizes straddling
  // the stage-3 switch points (non-powers of two on both axes).
  const std::size_t shapes[][2] = {{1, 1},  {3, 1},    {1, 129},
                                   {5, 7},  {33, 257}, {17, 1025},
                                   {7, 2048}};
  for (const auto& s : shapes) {
    expect_layout_equivalence<float>(s[0], s[1], 1e-3);
  }
}

TEST(Layout, SolversAgreeAcrossRaggedShapesDouble) {
  const std::size_t shapes[][2] = {{3, 1}, {33, 257}, {17, 1025}};
  for (const auto& s : shapes) {
    expect_layout_equivalence<double>(s[0], s[1], 1e-9);
  }
}

// ---------- determinism of the SIMD paths across lane counts ----------

template <typename T>
std::vector<T> solve_element_major(std::size_t m, std::size_t n) {
  gpusim::Device dev(gpusim::geforce_gtx_470());
  dev.set_arena_poison(false);
  solver::SwitchPoints sp;
  sp.layout = BatchLayout::ElementMajor;
  solver::GpuTridiagonalSolver<T> solver(dev, sp);
  auto batch = make_diag_dominant<T>(m, n, 7);
  solver.solve(batch);
  return {batch.x().begin(), batch.x().end()};
}

TEST(Layout, ElementMajorPathIsBitwiseDeterministicAcrossLanes) {
  auto& pool = gpusim::ThreadPool::global();
  const int saved = pool.lanes();
  pool.resize(1);
  const auto reference = solve_element_major<float>(257, 96);
  for (int lanes : {2, 4}) {
    pool.resize(lanes);
    const auto got = solve_element_major<float>(257, 96);
    ASSERT_EQ(got.size(), reference.size());
    EXPECT_EQ(std::memcmp(got.data(), reference.data(),
                          got.size() * sizeof(float)), 0)
        << "element-major result changed at " << lanes << " lanes";
  }
  pool.resize(saved);
}

// The element-major kernel sweeps each strip with
// tridiag::thomas_solve_interleaved, so every system's x is its own
// thomas_solve_inplace, bit for bit. m = 300 leaves a partial block
// strip of 44 systems.
template <typename T>
void expect_element_major_is_per_system_thomas() {
  const std::size_t m = 300;
  ASSERT_NE(m % kernels::kInterleavedBlockSystems, 0u);
  for (const std::size_t n : {1, 2, 3, 64, 100}) {
    const auto got = solve_element_major<T>(m, n);
    auto ref = make_diag_dominant<T>(m, n, 7);
    for (std::size_t s = 0; s < m; ++s) {
      ASSERT_TRUE(
          tridiag::thomas_solve_inplace(ref.system(s), ref.solution(s)));
    }
    EXPECT_EQ(std::memcmp(got.data(), ref.x().data(), m * n * sizeof(T)), 0)
        << "n " << n;
  }
}

TEST(Layout, ElementMajorBitwiseEqualsPerSystemThomas) {
  expect_element_major_is_per_system_thomas<float>();
  expect_element_major_is_per_system_thomas<double>();
}

TEST(Layout, SystemMajorPathStaysDeterministicAcrossLanes) {
  auto& pool = gpusim::ThreadPool::global();
  const int saved = pool.lanes();
  auto solve_once = [] {
    gpusim::Device dev(gpusim::geforce_gtx_470());
    dev.set_arena_poison(false);
    solver::GpuTridiagonalSolver<float> solver(dev, solver::SwitchPoints{});
    auto batch = make_diag_dominant<float>(48, 513, 3);
    solver.solve(batch);
    return std::vector<float>(batch.x().begin(), batch.x().end());
  };
  pool.resize(1);
  const auto reference = solve_once();
  pool.resize(3);
  const auto got = solve_once();
  EXPECT_EQ(std::memcmp(got.data(), reference.data(),
                        got.size() * sizeof(float)), 0);
  pool.resize(saved);
}

// ---------- tuner crossover ----------

TEST(Layout, TunerPicksElementMajorWhereOneThreadPerSystemFills) {
  // 21504 systems of 64 equations: system-major runs one under-occupied
  // block per system while one-thread-per-system fills every SM of the
  // GTX 470, so the tuner must learn the element-major layout.
  gpusim::Device dev(gpusim::geforce_gtx_470());
  dev.set_arena_poison(false);
  tuning::DynamicTuner<float> tuner(dev);
  auto result = tuner.tune({21504, 64});
  EXPECT_EQ(result.points.layout, BatchLayout::ElementMajor);
}

TEST(Layout, TunerKeepsSystemMajorWhereTransposeDominates) {
  gpusim::Device dev(gpusim::geforce_gtx_470());
  dev.set_arena_poison(false);
  tuning::DynamicTuner<float> tuner(dev);
  auto result = tuner.tune({512, 1024});
  EXPECT_EQ(result.points.layout, BatchLayout::SystemMajor);
}

// ---------- cache persistence of the layout dimension ----------

TEST(Layout, CacheRoundTripsElementMajorRecords) {
  const std::string path = "/tmp/tda_cache_layout_test.txt";
  std::remove(path.c_str());
  const std::string key = tuning::TuningCache::make_key("Test GPU", 4, 64, 64);
  tuning::TuningCache cache;
  tuning::CacheEntry entry;
  entry.points.stage1_target_systems = 32;
  entry.points.stage3_system_size = 128;
  entry.points.thomas_switch = 16;
  entry.points.variant = kernels::LoadVariant::Coalesced;
  entry.points.layout = BatchLayout::ElementMajor;
  entry.tuned_ms = 0.75;
  cache.store(key, entry);
  ASSERT_TRUE(cache.save(path));

  tuning::TuningCache loaded;
  ASSERT_EQ(loaded.load(path), 1u);
  auto found = loaded.find(key);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->points.layout, BatchLayout::ElementMajor);
  EXPECT_EQ(found->points.variant, kernels::LoadVariant::Coalesced);
  EXPECT_EQ(found->points.stage3_system_size, 128u);
  EXPECT_DOUBLE_EQ(found->tuned_ms, 0.75);
  std::remove(path.c_str());
}

TEST(Layout, LegacyRecordsWithoutLayoutTokenDefaultToSystemMajor) {
  const std::string path = "/tmp/tda_cache_layout_legacy.txt";
  const std::string key = tuning::TuningCache::make_key("Old GPU", 4, 8, 512);
  {
    std::ofstream out(path);
    out << "# tridiag_autotune tuning cache v1\n";
    out << key << "\t16 256 64 strided 1.5\n";
  }
  tuning::TuningCache cache;
  ASSERT_EQ(cache.load(path), 1u);
  auto found = cache.find(key);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->points.layout, BatchLayout::SystemMajor);
  EXPECT_EQ(found->points.variant, kernels::LoadVariant::Strided);
  EXPECT_DOUBLE_EQ(found->tuned_ms, 1.5);
  std::remove(path.c_str());
}

// ---------- lane pinning ----------

TEST(Layout, PinnedLanesSolveCorrectly) {
  // TDA_PIN is best-effort affinity; the observable contract is simply
  // that a pinned pool still produces a correct (and converted-back)
  // solve on the element-major path.
  const char* saved = std::getenv("TDA_PIN");
  const std::string saved_val = saved != nullptr ? saved : "";
  ::setenv("TDA_PIN", "1", 1);
  auto& pool = gpusim::ThreadPool::global();
  const int saved_lanes = pool.lanes();
  pool.resize(1);   // drop workers so the next resize respawns pinned
  pool.resize(3);
  gpusim::Device dev(gpusim::geforce_gtx_470());
  dev.set_arena_poison(false);
  solver::SwitchPoints sp;
  sp.layout = BatchLayout::ElementMajor;
  solver::GpuTridiagonalSolver<float> solver(dev, sp);
  auto batch = make_diag_dominant<float>(96, 48, 13);
  solver.solve(batch);
  EXPECT_LT(tridiag::batch_residual_inf(batch), 1e-3);
  if (saved != nullptr) {
    ::setenv("TDA_PIN", saved_val.c_str(), 1);
  } else {
    ::unsetenv("TDA_PIN");
  }
  pool.resize(saved_lanes);
}

}  // namespace
