// Tests for the parameter-selection strategies: default constants, static
// machine-query selection, the dynamic self-tuner (decoupled search) and
// the tuning cache.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/buffer_pool.hpp"
#include "faults/faults.hpp"
#include "golden_hex.hpp"
#include "gpusim/launch.hpp"
#include "solver/gpu_solver.hpp"
#include "tridiag/generators.hpp"
#include "tridiag/verify.hpp"
#include "tuning/cache.hpp"
#include "tuning/dynamic_tuner.hpp"
#include "tuning/tuners.hpp"

namespace {

using namespace tda;
using namespace tda::tuning;
using solver::Workload;

// ---------- default parameters ----------

TEST(DefaultTuner, PaperConstants) {
  auto sp = default_switch_points<float>();
  EXPECT_EQ(sp.stage3_system_size, 256u);
  EXPECT_EQ(sp.stage1_target_systems, 16u);
  EXPECT_EQ(sp.thomas_switch, 32u);
  EXPECT_EQ(sp.variant, kernels::LoadVariant::Strided);
}

TEST(DefaultTuner, SafeOnEveryRegistryDevice) {
  // The defining property of defaults (§IV-B): they must launch (not
  // crash) on every supported device, in both precisions.
  for (const auto& spec : gpusim::device_registry()) {
    gpusim::Device dev(spec);
    {
      solver::GpuTridiagonalSolver<float> s(dev,
                                            default_switch_points<float>());
      auto batch = tridiag::make_diag_dominant<float>(4, 1024, 3);
      EXPECT_NO_THROW(s.solve(batch)) << spec.name;
    }
    {
      solver::GpuTridiagonalSolver<double> s(
          dev, default_switch_points<double>());
      auto batch = tridiag::make_diag_dominant<double>(4, 1024, 3);
      EXPECT_NO_THROW(s.solve(batch)) << spec.name;
    }
  }
}

// ---------- static machine-query tuning ----------

TEST(StaticTuner, UsesSharedCapacity) {
  EXPECT_EQ(static_switch_points<float>(gpusim::geforce_8800_gtx().query())
                .stage3_system_size,
            256u);
  EXPECT_EQ(static_switch_points<float>(gpusim::geforce_gtx_280().query())
                .stage3_system_size,
            512u);
  EXPECT_EQ(static_switch_points<float>(gpusim::geforce_gtx_470().query())
                .stage3_system_size,
            1024u);
}

TEST(StaticTuner, ThomasSwitchIsWarpBasedAndDeviceIndependent) {
  // §IV-C: bank count/bandwidth are not queryable, so the guess is 64 on
  // every device.
  for (const auto& spec : gpusim::device_registry()) {
    EXPECT_EQ(static_switch_points<float>(spec.query()).thomas_switch, 64u)
        << spec.name;
  }
}

TEST(StaticTuner, StageOneTargetTracksProcessorCount) {
  const auto sp8800 =
      static_switch_points<float>(gpusim::geforce_8800_gtx().query());
  const auto sp280 =
      static_switch_points<float>(gpusim::geforce_gtx_280().query());
  EXPECT_EQ(sp8800.stage1_target_systems, 14u);
  EXPECT_EQ(sp280.stage1_target_systems, 30u);
}

// ---------- dynamic tuner ----------

TEST(DynamicTuner, NeverWorseThanStaticOrDefault) {
  // The core property claimed in §V: dynamic >= static >= (usually)
  // default. We assert the dynamic result is at least as good as both on
  // every device for a mixed workload set.
  const Workload workloads[] = {{64, 1024}, {4, 8192}, {1, 65536}};
  for (const auto& spec : gpusim::device_registry()) {
    for (const auto& w : workloads) {
      gpusim::Device dev(spec);
      DynamicTuner<float> tuner(dev);
      auto result = tuner.tune(w);

      auto eval = [&](const solver::SwitchPoints& sp) {
        solver::GpuTridiagonalSolver<float> s(dev, sp);
        return s.simulate_ms(w);
      };
      const double t_default = eval(default_switch_points<float>());
      const double t_static = eval(static_switch_points<float>(dev.query()));
      const double t_dynamic = eval(result.points);

      EXPECT_LE(t_dynamic, t_static * 1.0001)
          << spec.name << " m=" << w.num_systems << " n=" << w.system_size;
      EXPECT_LE(t_dynamic, t_default * 1.0001)
          << spec.name << " m=" << w.num_systems << " n=" << w.system_size;
      EXPECT_NEAR(t_dynamic, result.best_ms, result.best_ms * 1e-9);
    }
  }
}

TEST(DynamicTuner, DecoupledSearchIsAdditive) {
  // |A| + |B| evaluations, not |A| × |B|: the paper's example is 16+32=48
  // vs 16×32=512. Assert the dynamic tuner evaluates far fewer configs
  // than the exhaustive cross product.
  gpusim::Device dev(gpusim::geforce_gtx_470());
  const Workload w{8, 8192};
  DynamicTuner<float> tuner(dev);
  auto dyn = tuner.tune(w);
  auto exh = exhaustive_tune<float>(dev, w);
  EXPECT_LT(dyn.evaluations, exh.evaluations / 4);
  // And the hill descent must land within a few percent of the global
  // optimum over the same space.
  EXPECT_LE(dyn.best_ms, exh.best_ms * 1.05);
}

TEST(DynamicTuner, SearchAcquiresNoPoolMemory) {
  // Every evaluation is a cost-only run on a shape, which owns no
  // memory: a cold tune of solve_large's shape and an exhaustive search
  // take nothing from the buffer pool.
  gpusim::Device dev(gpusim::geforce_gtx_470());
  const auto before = BufferPool::global().stats();
  const auto tuned = DynamicTuner<float>(dev).tune({16, 65536});
  EXPECT_GT(tuned.evaluations, 0u);
  EXPECT_EQ(BufferPool::global().stats().acquires, before.acquires);
  const auto exh = exhaustive_tune<float>(dev, {8, 8192});
  EXPECT_GT(exh.evaluations, 0u);
  EXPECT_EQ(BufferPool::global().stats().acquires, before.acquires);
}

TEST(DynamicTuner, TunedPointsAreValidForDevice) {
  for (const auto& spec : gpusim::device_registry()) {
    gpusim::Device dev(spec);
    DynamicTuner<double> tuner(dev);
    auto result = tuner.tune({16, 4096});
    const std::size_t cap =
        kernels::max_shared_system_size(dev.query(), sizeof(double));
    EXPECT_LE(result.points.stage3_system_size, cap) << spec.name;
    EXPECT_GE(result.points.thomas_switch, 1u);
  }
}

TEST(DynamicTuner, SkipsStageOneTuningWhenMachineIsFull) {
  gpusim::Device dev(gpusim::geforce_gtx_470());
  DynamicTuner<float> tuner(dev);
  auto big_m = tuner.tune({4096, 1024});
  EXPECT_FALSE(big_m.stage1_tuned);
  auto small_m = tuner.tune({1, 262144});
  EXPECT_TRUE(small_m.stage1_tuned);
}

TEST(DynamicTuner, DeterministicAcrossRuns) {
  gpusim::Device dev(gpusim::geforce_gtx_280());
  DynamicTuner<float> t1(dev), t2(dev);
  auto r1 = t1.tune({32, 2048});
  auto r2 = t2.tune({32, 2048});
  EXPECT_EQ(r1.points.stage3_system_size, r2.points.stage3_system_size);
  EXPECT_EQ(r1.points.thomas_switch, r2.points.thomas_switch);
  EXPECT_EQ(r1.points.stage1_target_systems,
            r2.points.stage1_target_systems);
  EXPECT_EQ(r1.evaluations, r2.evaluations);
  EXPECT_DOUBLE_EQ(r1.best_ms, r2.best_ms);
}

// ---------- cache ----------

TEST(Cache, StoreAndFind) {
  TuningCache cache;
  const auto key = TuningCache::make_key("GeForce GTX 470", 4, 64, 1024);
  EXPECT_FALSE(cache.find(key).has_value());
  CacheEntry e;
  e.points.stage3_system_size = 512;
  e.points.thomas_switch = 128;
  e.tuned_ms = 1.25;
  cache.store(key, e);
  auto hit = cache.find(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->points.stage3_system_size, 512u);
  EXPECT_DOUBLE_EQ(hit->tuned_ms, 1.25);
}

TEST(Cache, KeySeparatesPrecisionAndShape) {
  const auto k1 = TuningCache::make_key("dev", 4, 64, 1024);
  const auto k2 = TuningCache::make_key("dev", 8, 64, 1024);
  const auto k3 = TuningCache::make_key("dev", 4, 64, 2048);
  EXPECT_NE(k1, k2);
  EXPECT_NE(k1, k3);
}

TEST(Cache, FileRoundTrip) {
  const std::string path = "/tmp/tda_cache_test.txt";
  std::remove(path.c_str());
  {
    TuningCache cache;
    CacheEntry e;
    e.points.stage1_target_systems = 8;
    e.points.stage3_system_size = 512;
    e.points.thomas_switch = 128;
    e.points.variant = kernels::LoadVariant::Coalesced;
    e.tuned_ms = 3.5;
    cache.store(TuningCache::make_key("GeForce GTX 280", 4, 16, 4096), e);
    ASSERT_TRUE(cache.save(path));
  }
  TuningCache loaded;
  EXPECT_EQ(loaded.load(path), 1u);
  auto hit = loaded.find(TuningCache::make_key("GeForce GTX 280", 4, 16, 4096));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->points.stage1_target_systems, 8u);
  EXPECT_EQ(hit->points.stage3_system_size, 512u);
  EXPECT_EQ(hit->points.thomas_switch, 128u);
  EXPECT_EQ(hit->points.variant, kernels::LoadVariant::Coalesced);
  EXPECT_DOUBLE_EQ(hit->tuned_ms, 3.5);
  std::remove(path.c_str());
}

TEST(Cache, LoadMissingFileIsZero) {
  TuningCache cache;
  EXPECT_EQ(cache.load("/tmp/definitely_missing_tda_cache.txt"), 0u);
}

// ---------- cache robustness: header, checksum, malformed records ----------

namespace cache_files {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void write_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::trunc);
  out << contents;
}

std::string save_one_entry(const std::string& path) {
  std::remove(path.c_str());
  TuningCache cache;
  CacheEntry e;
  e.points.stage3_system_size = 512;
  e.tuned_ms = 2.0;
  cache.store(TuningCache::make_key("GeForce GTX 470", 8, 32, 2048), e);
  EXPECT_TRUE(cache.save(path));
  return read_file(path);
}

}  // namespace cache_files

TEST(CacheRobustness, SavedFileCarriesVersionedChecksumHeader) {
  const std::string path = "/tmp/tda_cache_header.txt";
  const std::string contents = cache_files::save_one_entry(path);
  EXPECT_EQ(contents.rfind("# tridiag_autotune tuning cache v2 checksum=", 0),
            0u)
      << contents;
  TuningCache loaded;
  EXPECT_EQ(loaded.load(path), 1u);
  std::remove(path.c_str());
}

TEST(CacheRobustness, BitFlippedFileIsRejectedWholesale) {
  const std::string path = "/tmp/tda_cache_bitflip.txt";
  std::string contents = cache_files::save_one_entry(path);
  // The shared corruption helper: "a corrupt file" means the same thing
  // in tests and in CacheCorrupt injection.
  faults::corrupt_bytes(contents, 7, 3);
  cache_files::write_file(path, contents);

  TuningCache loaded;
  EXPECT_EQ(loaded.load(path), 0u);
  EXPECT_EQ(loaded.size(), 0u);
  std::remove(path.c_str());
}

TEST(CacheRobustness, TruncatedFileIsRejectedWholesale) {
  const std::string path = "/tmp/tda_cache_trunc.txt";
  const std::string contents = cache_files::save_one_entry(path);
  cache_files::write_file(path, contents.substr(0, contents.size() / 2));

  TuningCache loaded;
  EXPECT_EQ(loaded.load(path), 0u);
  EXPECT_EQ(loaded.size(), 0u);
  std::remove(path.c_str());
}

TEST(CacheRobustness, MissingHeaderIsRejectedWholesale) {
  const std::string path = "/tmp/tda_cache_nohdr.txt";
  const std::string contents = cache_files::save_one_entry(path);
  // Strip the header line; the records themselves are intact.
  const std::size_t nl = contents.find('\n');
  cache_files::write_file(path, contents.substr(nl + 1));

  TuningCache loaded;
  EXPECT_EQ(loaded.load(path), 0u);
  std::remove(path.c_str());
}

TEST(CacheRobustness, LegacyV1HeaderLoadsWithoutChecksum) {
  const std::string path = "/tmp/tda_cache_v1.txt";
  std::string contents = cache_files::save_one_entry(path);
  const std::size_t nl = contents.find('\n');
  cache_files::write_file(
      path, "# tridiag_autotune tuning cache v1" + contents.substr(nl));

  TuningCache loaded;
  EXPECT_EQ(loaded.load(path), 1u);
  std::remove(path.c_str());
}

TEST(CacheRobustness, MalformedRecordsAreSkippedNotFatal) {
  const std::string path = "/tmp/tda_cache_malformed.txt";
  std::string contents = cache_files::save_one_entry(path);
  const std::size_t nl = contents.find('\n');
  // v1 header (no checksum to invalidate), one good record, then a pile
  // of malformed ones: garbage, negative / non-finite / fractional
  // switch points, and a missing field.
  std::string doctored = "# tridiag_autotune tuning cache v1";
  doctored += contents.substr(nl);
  doctored += "complete garbage line\n";
  doctored += "dev|fp64|4x128\t-8 512 128 strided 1.0\n";
  doctored += "dev|fp64|4x256\tnan 512 128 strided 1.0\n";
  doctored += "dev|fp64|4x512\t8.5 512 128 strided 1.0\n";
  doctored += "dev|fp64|4x1024\t8 512\n";
  cache_files::write_file(path, doctored);

  TuningCache loaded;
  EXPECT_EQ(loaded.load(path), 1u);  // only the genuine record survives
  EXPECT_TRUE(loaded
                  .find(TuningCache::make_key("GeForce GTX 470", 8, 32,
                                              2048))
                  .has_value());
  EXPECT_FALSE(loaded.find("dev|fp64|4x128").has_value());
  std::remove(path.c_str());
}

TEST(CacheRobustness, InjectedCorruptionTriggersWholeFileFallback) {
  const std::string path = "/tmp/tda_cache_inject.txt";
  cache_files::save_one_entry(path);

  faults::FaultConfig fc;
  fc.seed = 11;
  fc.rate_of(faults::Site::CacheCorrupt) = 1.0;
  faults::ScopedFaultConfig scoped(fc);
  TuningCache loaded;
  // The injector flips bytes between disk and parser; the checksum must
  // catch it and the cache must come up empty rather than poisoned.
  EXPECT_EQ(loaded.load(path), 0u);
  EXPECT_EQ(loaded.size(), 0u);
  std::remove(path.c_str());
}

TEST(CacheRobustness, TwoEntryV2FileGoldenBytes) {
  // A v2 cache file, pinned byte for byte. Recorded before the checksum
  // and durable write moved to common/; never edit the expected bytes to
  // make a change pass — a diff here means every cache on disk goes cold.
  const std::string path = "/tmp/tda_cache_golden.txt";
  std::remove(path.c_str());
  TuningCache cache;
  CacheEntry large;
  large.points.stage1_target_systems = 64;
  large.points.stage3_system_size = 128;
  large.points.thomas_switch = 16;
  large.points.variant = kernels::LoadVariant::Coalesced;
  large.tuned_ms = 11.548326470023644;
  cache.store(TuningCache::make_key("GeForce GTX 280", 4, 16, 65536), large);
  CacheEntry small;
  small.points.layout = tridiag::BatchLayout::ElementMajor;
  small.tuned_ms = 0.25;
  cache.store(TuningCache::make_key("GeForce GTX 470", 8, 21504, 64), small);
  ASSERT_TRUE(cache.save(path));

  EXPECT_EQ(golden::to_hex(cache_files::read_file(path)),
            "2320747269646961675f6175746f74756e652074756e696e6720636163686520"
            "763220636865636b73756d3d363763636139376631383866383562340a476546"
            "6f72636520475458203238307c667033327c3136783635353336093634203132"
            "3820313620636f616c65736365642073797374656d2031312e353438330a4765"
            "466f72636520475458203437307c667036347c32313530347836340931362032"
            "3536203332207374726964656420656c656d656e7420302e32350a");
  TuningCache loaded;
  EXPECT_EQ(loaded.load(path), 2u);
  std::remove(path.c_str());
}

TEST(DynamicTuner, SecondTuneHitsCache) {
  gpusim::Device dev(gpusim::geforce_gtx_470());
  TuningCache cache;
  DynamicTuner<float> tuner(dev, &cache);
  auto first = tuner.tune({64, 2048});
  EXPECT_FALSE(first.from_cache);
  EXPECT_EQ(cache.size(), 1u);
  auto second = tuner.tune({64, 2048});
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(second.points.stage3_system_size,
            first.points.stage3_system_size);
  EXPECT_EQ(second.evaluations, 0u);
}

// ---------- tuned solver still solves correctly ----------

TEST(DynamicTuner, TunedSolverProducesCorrectSolutions) {
  gpusim::Device dev(gpusim::geforce_gtx_280());
  DynamicTuner<double> tuner(dev);
  auto result = tuner.tune({8, 4096});
  solver::GpuTridiagonalSolver<double> s(dev, result.points);
  auto batch = tridiag::make_diag_dominant<double>(8, 4096, 999);
  auto pristine = batch;
  s.solve(batch);
  EXPECT_LT(tridiag::batch_residual_inf(pristine, batch.x()), 1e-9);
}

}  // namespace
