// Tests for the GPU simulator: device registry (paper Table I), query
// subset (Table II), coalescing model, bank conflicts, occupancy
// calculator, cost model and launcher.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "gpusim/cost_model.hpp"
#include "gpusim/device.hpp"
#include "gpusim/launch.hpp"
#include "gpusim/memory_model.hpp"
#include "gpusim/occupancy.hpp"

namespace {

using namespace tda;
using namespace tda::gpusim;

// ---------- device registry (paper Table I) ----------

TEST(DeviceRegistry, HasThreePaperDevices) {
  auto devs = device_registry();
  ASSERT_EQ(devs.size(), 3u);
  EXPECT_EQ(devs[0].name, "GeForce 8800 GTX");
  EXPECT_EQ(devs[1].name, "GeForce GTX 280");
  EXPECT_EQ(devs[2].name, "GeForce GTX 470");
}

TEST(DeviceRegistry, TableOneBandwidths) {
  EXPECT_DOUBLE_EQ(geforce_8800_gtx().global_bw_gb_s, 57.6);
  EXPECT_DOUBLE_EQ(geforce_gtx_280().global_bw_gb_s, 141.7);
  EXPECT_DOUBLE_EQ(geforce_gtx_470().global_bw_gb_s, 133.9);
}

TEST(DeviceRegistry, TableOneSharedMemory) {
  EXPECT_EQ(geforce_8800_gtx().shared_mem_per_sm, 16u * 1024);
  EXPECT_EQ(geforce_gtx_280().shared_mem_per_sm, 16u * 1024);
  EXPECT_EQ(geforce_gtx_470().shared_mem_per_sm, 48u * 1024);
}

TEST(DeviceRegistry, TableOneProcessorCounts) {
  EXPECT_EQ(geforce_8800_gtx().sm_count, 14);
  EXPECT_EQ(geforce_gtx_280().sm_count, 30);
  EXPECT_EQ(geforce_gtx_470().sm_count, 14);
  EXPECT_EQ(geforce_8800_gtx().thread_procs_per_sm, 8);
  EXPECT_EQ(geforce_gtx_280().thread_procs_per_sm, 8);
  EXPECT_EQ(geforce_gtx_470().thread_procs_per_sm, 32);
}

TEST(DeviceRegistry, LookupByName) {
  auto d = device_by_name("GeForce GTX 280");
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->sm_count, 30);
  EXPECT_FALSE(device_by_name("GeForce 9999").has_value());
}

// ---------- DeviceQuery: only Table II properties ----------

TEST(DeviceQuery, ExposesQueryableSubset) {
  auto spec = geforce_gtx_470();
  auto q = spec.query();
  EXPECT_EQ(q.name, spec.name);
  EXPECT_EQ(q.sm_count, spec.sm_count);
  EXPECT_EQ(q.shared_mem_per_sm, spec.shared_mem_per_sm);
  EXPECT_EQ(q.warp_size, 32);
  EXPECT_EQ(q.registers_per_sm, spec.registers_per_sm);
  EXPECT_EQ(q.max_threads_per_block, spec.max_threads_per_block);
  // The hidden performance fields simply do not exist on DeviceQuery —
  // this is a compile-time guarantee; here we just document the intent.
  EXPECT_GT(q.max_grid_blocks, 0);
}

// ---------- coalescing model ----------

TEST(Coalescing, ContiguousIsFree) {
  for (const auto& d : device_registry()) {
    EXPECT_DOUBLE_EQ(strided_inflation(d, 1, 4), 1.0) << d.name;
    EXPECT_DOUBLE_EQ(strided_inflation(d, 1, 8), 1.0) << d.name;
  }
}

TEST(Coalescing, InflationGrowsWithStrideThenSaturates) {
  auto d = geforce_gtx_280();  // 64-byte segments
  double prev = 1.0;
  for (std::size_t s = 2; s <= 64; s *= 2) {
    const double infl = strided_inflation(d, s, 4);
    EXPECT_GE(infl, prev);
    prev = infl;
  }
  // Cap: one 64B segment per 4B element -> 16x.
  EXPECT_DOUBLE_EQ(strided_inflation(d, 64, 4), 16.0);
  EXPECT_DOUBLE_EQ(strided_inflation(d, 4096, 4), 16.0);
}

TEST(Coalescing, CapDependsOnElementSize) {
  auto d = geforce_gtx_280();
  // Doubles: 64B / 8B = 8x worst case.
  EXPECT_DOUBLE_EQ(strided_inflation(d, 1024, 8), 8.0);
}

TEST(Coalescing, DeviceSegmentSizesDiffer) {
  // Worst-case inflation: G80 (128B segments) suffers most, Fermi (32B)
  // least — the architecture story behind the variant crossover.
  const double i8800 = strided_inflation(geforce_8800_gtx(), 4096, 4);
  const double i280 = strided_inflation(geforce_gtx_280(), 4096, 4);
  const double i470 = strided_inflation(geforce_gtx_470(), 4096, 4);
  EXPECT_GT(i8800, i280);
  EXPECT_GT(i280, i470);
  EXPECT_DOUBLE_EQ(i8800, 32.0);
  EXPECT_DOUBLE_EQ(i470, 8.0);
}

TEST(Coalescing, EffectiveBytesMultiplies) {
  auto d = geforce_gtx_470();
  EXPECT_DOUBLE_EQ(effective_global_bytes(d, 1000.0, 1, 4), 1000.0);
  // Raw inflation 2 at stride 2, but Fermi's caches absorb 85 % of the
  // redundant segment traffic: 1 + (2-1)*0.15 = 1.15.
  EXPECT_DOUBLE_EQ(effective_global_bytes(d, 1000.0, 2, 4), 1150.0);
}

TEST(Coalescing, ReuseAdjustedInflation) {
  // G80 has no cache: adjusted == raw. Fermi keeps only 15 % of the
  // redundancy.
  auto g80 = geforce_8800_gtx();
  EXPECT_DOUBLE_EQ(reuse_adjusted_inflation(g80, 8, 4),
                   strided_inflation(g80, 8, 4));
  auto fermi = geforce_gtx_470();
  const double raw = strided_inflation(fermi, 8, 4);
  EXPECT_DOUBLE_EQ(reuse_adjusted_inflation(fermi, 8, 4),
                   1.0 + (raw - 1.0) * 0.15);
}

TEST(Coalescing, RejectsZeroStride) {
  EXPECT_THROW((void)strided_inflation(geforce_gtx_470(), 0, 4),
               ContractError);
}

// ---------- bank conflicts ----------

TEST(BankConflicts, UnitStrideConflictFree) {
  for (const auto& d : device_registry()) {
    EXPECT_DOUBLE_EQ(bank_conflict_factor(d, 1, 4), 1.0) << d.name;
  }
}

TEST(BankConflicts, PowerOfTwoStridesCollide) {
  auto d = geforce_gtx_280();  // 16 banks
  EXPECT_DOUBLE_EQ(bank_conflict_factor(d, 2, 4), 2.0);
  EXPECT_DOUBLE_EQ(bank_conflict_factor(d, 4, 4), 4.0);
  EXPECT_DOUBLE_EQ(bank_conflict_factor(d, 16, 4), 16.0);
  EXPECT_DOUBLE_EQ(bank_conflict_factor(d, 32, 4), 16.0);  // gcd caps
}

TEST(BankConflicts, OddStrideConflictFree) {
  auto d = geforce_gtx_470();  // 32 banks
  EXPECT_DOUBLE_EQ(bank_conflict_factor(d, 3, 4), 1.0);
  EXPECT_DOUBLE_EQ(bank_conflict_factor(d, 17, 4), 1.0);
}

TEST(BankConflicts, DoublesOccupyTwoBanks) {
  auto d = geforce_gtx_280();
  // 8-byte elements at stride 1 -> word stride 2 -> 2-way conflicts.
  EXPECT_DOUBLE_EQ(bank_conflict_factor(d, 1, 8), 2.0);
}

// ---------- occupancy ----------

TEST(Occupancy, SimpleConfigFullyOccupies470) {
  LaunchConfig cfg;
  cfg.threads_per_block = 512;
  cfg.shared_bytes = 16 * 1024;
  cfg.regs_per_thread = 20;
  auto occ = compute_occupancy(geforce_gtx_470(), cfg);
  EXPECT_EQ(occ.blocks_per_sm, 3);  // 1536/512 threads, 48K/16K shared
  EXPECT_EQ(occ.warps_per_sm, 48);
  EXPECT_DOUBLE_EQ(occ.fraction, 1.0);
}

TEST(Occupancy, RegistersLimit8800) {
  // The 256-equation PCR-Thomas block: 256 threads * 32 regs = full file.
  LaunchConfig cfg;
  cfg.threads_per_block = 256;
  cfg.shared_bytes = 8 * 1024;
  cfg.regs_per_thread = 32;
  auto occ = compute_occupancy(geforce_8800_gtx(), cfg);
  EXPECT_EQ(occ.blocks_per_sm, 1);
  EXPECT_STREQ(occ.limiter, "registers");
}

TEST(Occupancy, UnlaunchableWhenBlockTooBig) {
  LaunchConfig cfg;
  cfg.threads_per_block = 1024;  // > 512 limit on GT200
  auto occ = compute_occupancy(geforce_gtx_280(), cfg);
  EXPECT_EQ(occ.blocks_per_sm, 0);
  EXPECT_STREQ(occ.limiter, "threads_per_block");
}

TEST(Occupancy, UnlaunchableWhenSharedTooBig) {
  LaunchConfig cfg;
  cfg.threads_per_block = 64;
  cfg.shared_bytes = 17 * 1024;  // > 16K on GT200
  auto occ = compute_occupancy(geforce_gtx_280(), cfg);
  EXPECT_EQ(occ.blocks_per_sm, 0);
  EXPECT_STREQ(occ.limiter, "shared_memory");
}

TEST(Occupancy, MaxBlocksCap) {
  LaunchConfig cfg;
  cfg.threads_per_block = 32;
  cfg.shared_bytes = 0;
  cfg.regs_per_thread = 8;
  auto occ = compute_occupancy(geforce_gtx_470(), cfg);
  EXPECT_EQ(occ.blocks_per_sm, 8);  // capped by max_blocks_per_sm
}

// ---------- cost model ----------

TEST(CostModel, MemoryBoundKernelScalesWithBytes) {
  auto spec = geforce_gtx_470();
  LaunchConfig cfg;
  cfg.blocks = 1024;
  cfg.threads_per_block = 256;
  cfg.regs_per_thread = 16;

  KernelCost cost1, cost2;
  for (std::size_t b = 0; b < cfg.blocks; ++b) {
    BlockCost bc;
    bc.global_bytes_eff = 1e5;
    cost1.add_block(bc);
    bc.global_bytes_eff = 2e5;
    cost2.add_block(bc);
  }
  auto t1 = kernel_time(spec, cfg, cost1);
  auto t2 = kernel_time(spec, cfg, cost2);
  EXPECT_NEAR((t2.seconds - t2.launch_seconds) /
                  (t1.seconds - t1.launch_seconds),
              2.0, 1e-6);
}

TEST(CostModel, PeakBandwidthAchievedAtFullOccupancy) {
  auto spec = geforce_gtx_470();
  LaunchConfig cfg;
  cfg.blocks = 4096;
  cfg.threads_per_block = 512;
  cfg.shared_bytes = 16 * 1024;
  cfg.regs_per_thread = 20;
  KernelCost cost;
  for (std::size_t b = 0; b < cfg.blocks; ++b) {
    BlockCost bc;
    bc.global_bytes_eff = 1e6;
    cost.add_block(bc);
  }
  auto st = kernel_time(spec, cfg, cost);
  // The tail wave leaves a whisker below full occupancy on average.
  EXPECT_GT(st.hiding_factor, 0.98);
  EXPECT_NEAR(st.mem_seconds, 4096e6 / (133.9e9), 1e-3);
}

TEST(CostModel, TinyGridStarvesBandwidth) {
  auto spec = geforce_gtx_470();
  LaunchConfig cfg;
  cfg.blocks = 1;  // single block cannot hide latency
  cfg.threads_per_block = 256;
  cfg.regs_per_thread = 16;
  KernelCost cost;
  BlockCost bc;
  bc.global_bytes_eff = 1e6;
  cost.add_block(bc);
  auto st = kernel_time(spec, cfg, cost);
  EXPECT_LT(st.hiding_factor, 0.3);
}

TEST(CostModel, LaunchOverheadAlwaysPresent) {
  auto spec = geforce_8800_gtx();
  LaunchConfig cfg;
  cfg.blocks = 1;
  cfg.threads_per_block = 32;
  cfg.regs_per_thread = 8;
  KernelCost cost;
  cost.add_block(BlockCost{});
  auto st = kernel_time(spec, cfg, cost);
  EXPECT_GE(st.seconds, spec.launch_overhead_us * 1e-6);
}

TEST(CostModel, CriticalPathFloorsLatencyBoundKernels) {
  auto spec = geforce_gtx_470();
  LaunchConfig cfg;
  cfg.blocks = static_cast<std::size_t>(spec.sm_count);
  cfg.threads_per_block = 32;
  cfg.regs_per_thread = 16;
  KernelCost cost;
  for (std::size_t b = 0; b < cfg.blocks; ++b) {
    BlockCost bc;
    bc.throughput_cycles = 10.0;      // trivial throughput
    bc.critical_cycles = 100000.0;    // long dependent chain
    cost.add_block(bc);
  }
  auto st = kernel_time(spec, cfg, cost);
  const double chain_seconds = 100000.0 / (spec.clock_ghz * 1e9);
  EXPECT_GE(st.compute_seconds, chain_seconds * 0.99);
}

TEST(CostModel, RejectsUnlaunchable) {
  auto spec = geforce_gtx_280();
  LaunchConfig cfg;
  cfg.blocks = 1;
  cfg.threads_per_block = 1024;  // too big
  KernelCost cost;
  cost.add_block(BlockCost{});
  EXPECT_THROW((void)kernel_time(spec, cfg, cost), ContractError);
}

// ---------- launcher ----------

TEST(Launcher, ExecutesEveryBlockOnce) {
  Device dev(geforce_gtx_470());
  LaunchConfig cfg;
  cfg.blocks = 37;
  cfg.threads_per_block = 64;
  cfg.regs_per_thread = 16;
  std::vector<int> counts(37, 0);
  dev.launch(cfg, [&](BlockContext& ctx) { counts[ctx.block_index()]++; });
  for (int c : counts) EXPECT_EQ(c, 1);
}

TEST(Launcher, AccumulatesTimeline) {
  Device dev(geforce_gtx_280());
  LaunchConfig cfg;
  cfg.blocks = 4;
  cfg.threads_per_block = 64;
  cfg.regs_per_thread = 16;
  EXPECT_EQ(dev.elapsed_seconds(), 0.0);
  dev.launch(cfg, [](BlockContext&) {});
  const double t1 = dev.elapsed_seconds();
  EXPECT_GT(t1, 0.0);
  dev.launch(cfg, [](BlockContext&) {});
  EXPECT_GT(dev.elapsed_seconds(), t1);
  EXPECT_EQ(dev.kernels_launched(), 2u);
  dev.reset_timeline();
  EXPECT_EQ(dev.elapsed_seconds(), 0.0);
  EXPECT_EQ(dev.kernels_launched(), 0u);
}

TEST(Launcher, SharedAllocationEnforcesBudget) {
  Device dev(geforce_gtx_280());
  LaunchConfig cfg;
  cfg.blocks = 1;
  cfg.threads_per_block = 32;
  cfg.shared_bytes = 1024;
  cfg.regs_per_thread = 16;
  EXPECT_THROW(dev.launch(cfg,
                          [](BlockContext& ctx) {
                            (void)ctx.shared_alloc<float>(300);  // 1200 B
                          }),
               ContractError);
  // Within budget is fine and data is usable.
  dev.launch(cfg, [](BlockContext& ctx) {
    auto s = ctx.shared_alloc<float>(256);
    s[0] = 1.0f;
    s[255] = 2.0f;
    EXPECT_EQ(s[0] + s[255], 3.0f);
  });
}

TEST(Launcher, ChargesAffectTime) {
  Device dev(geforce_gtx_470());
  LaunchConfig cfg;
  cfg.blocks = 128;
  cfg.threads_per_block = 256;
  cfg.regs_per_thread = 16;
  auto cheap = dev.launch(cfg, [](BlockContext&) {});
  auto costly = dev.launch(cfg, [](BlockContext& ctx) {
    ctx.charge_global(1e6, 1, 4);
    ctx.charge_phase(256, 100.0, 10.0);
  });
  EXPECT_GT(costly.seconds, cheap.seconds);
}

TEST(Launcher, RejectsOversizedGrid) {
  Device dev(geforce_8800_gtx());
  LaunchConfig cfg;
  cfg.blocks = 65536ull * 65536ull;  // beyond even a 2-D grid
  cfg.threads_per_block = 32;
  EXPECT_THROW(dev.launch(cfg, [](BlockContext&) {}), ContractError);
}

TEST(Launcher, UncoalescedChargeCostsMore) {
  Device dev(geforce_gtx_280());
  LaunchConfig cfg;
  cfg.blocks = 1024;
  cfg.threads_per_block = 256;
  cfg.regs_per_thread = 16;
  auto coalesced = dev.launch(cfg, [](BlockContext& ctx) {
    ctx.charge_global(1e5, 1, 4);
  });
  auto strided = dev.launch(cfg, [](BlockContext& ctx) {
    ctx.charge_global(1e5, 64, 4);
  });
  // Raw 16x inflation, halved by GT200's cross-block reuse -> 8.5x.
  EXPECT_GT(strided.mem_seconds, 5.0 * coalesced.mem_seconds);
}

}  // namespace

// ---------- probes (micro-benchmarks over the simulator) ----------
// Appended tests: keep the anonymous namespace happy by reopening it.

#include "gpusim/probes.hpp"

namespace {

using namespace tda::gpusim;

TEST(Probes, PeakBandwidthNearTableOne) {
  for (const auto& spec : device_registry()) {
    Device dev(spec);
    auto bw = probe_bandwidth(dev, 64ull * spec.sm_count, 256, 1 << 20);
    EXPECT_GT(bw, spec.global_bw_gb_s * 0.9) << spec.name;
    EXPECT_LE(bw, spec.global_bw_gb_s * 1.001) << spec.name;
  }
}

TEST(Probes, StarvedMachineLosesBandwidth) {
  Device dev(geforce_gtx_470());
  auto rep = run_probes(dev);
  EXPECT_LT(rep.starved_bandwidth_gb_s, rep.peak_bandwidth_gb_s * 0.25);
}

TEST(Probes, InflationSaturationTracksSegmentSize) {
  // The probe must discover the (unqueryable) transaction granularity:
  // worst-case inflation saturates at segment/elem elements.
  Device d8800(geforce_8800_gtx());
  EXPECT_EQ(run_probes(d8800).inflation_saturation_stride, 32u);
  Device d280(geforce_gtx_280());
  EXPECT_EQ(run_probes(d280).inflation_saturation_stride, 16u);
  Device d470(geforce_gtx_470());
  EXPECT_EQ(run_probes(d470).inflation_saturation_stride, 8u);
}

TEST(Probes, InflationMonotoneThenFlat) {
  Device dev(geforce_gtx_280());
  auto rep = run_probes(dev);
  double prev = 1.0;
  for (auto [s, infl] : rep.stride_inflation) {
    EXPECT_GE(infl, prev * 0.999) << "stride " << s;
    prev = infl;
  }
}

TEST(Probes, LaunchOverheadMatchesHiddenSpec) {
  for (const auto& spec : device_registry()) {
    Device dev(spec);
    EXPECT_NEAR(probe_launch_overhead(dev), spec.launch_overhead_us,
                spec.launch_overhead_us * 0.5)
        << spec.name;
  }
}

TEST(Probes, DependentChainsCostMore) {
  Device dev(geforce_gtx_470());
  auto rep = run_probes(dev);
  EXPECT_GT(rep.dependency_penalty, 1.5);
}

}  // namespace

// ---------- kernel trace ----------

#include "kernels/device_batch.hpp"
#include "kernels/pcr_thomas_kernel.hpp"
#include "kernels/split_kernels.hpp"
#include "tridiag/batch.hpp"

namespace {

using namespace tda;

TEST(Trace, DisabledByDefault) {
  gpusim::Device dev(gpusim::geforce_gtx_470());
  telemetry::Telemetry tel;
  dev.set_telemetry(&tel);
  gpusim::LaunchConfig cfg;
  cfg.blocks = 2;
  cfg.threads_per_block = 64;
  cfg.regs_per_thread = 16;
  dev.launch(cfg, [](gpusim::BlockContext&) {});
  EXPECT_TRUE(tel.tracer.spans().empty());
}

TEST(Trace, RecordsNamedLaunches) {
  gpusim::Device dev(gpusim::geforce_gtx_470());
  telemetry::Telemetry tel;
  tel.tracer.enable();
  dev.set_telemetry(&tel);
  gpusim::LaunchConfig cfg;
  cfg.blocks = 3;
  cfg.threads_per_block = 128;
  cfg.regs_per_thread = 16;
  dev.launch(cfg, [](gpusim::BlockContext& ctx) {
    ctx.charge_global(1e4, 1, 4);
  }, "probe_a");
  dev.launch(cfg, [](gpusim::BlockContext&) {}, "probe_b");
  const auto& spans = tel.tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "probe_a");
  EXPECT_EQ(spans[0].category, "kernel");
  EXPECT_EQ(spans[0].attr("blocks"), "3");
  EXPECT_EQ(spans[0].attr("threads"), "128");
  EXPECT_GT(std::stod(std::string(spans[0].attr("mem_ms"))), 0.0);
  EXPECT_EQ(spans[1].name, "probe_b");
  tel.tracer.clear();
  EXPECT_TRUE(tel.tracer.spans().empty());
}

TEST(Trace, SolverStagesAppearWithTheirNames) {
  gpusim::Device dev(gpusim::geforce_gtx_280());
  telemetry::Telemetry tel;
  tel.tracer.enable();
  dev.set_telemetry(&tel);
  // A solve that exercises all three kernel kinds: 1 system, big n,
  // through the public stage functions.
  {
    tridiag::TridiagBatch<double> host(1, 4096);
    for (std::size_t i = 0; i < 4096; ++i) {
      host.b()[i] = 4.0;
      host.a()[i] = (i == 0) ? 0.0 : 1.0;
      host.c()[i] = (i == 4095) ? 0.0 : 1.0;
      host.d()[i] = 1.0;
    }
    kernels::DeviceBatch<double> dbatch(host);
    kernels::SplitState st;
    kernels::stage1_split_step(dev, dbatch, st);
    kernels::stage2_split(dev, dbatch, st, 3);
    kernels::pcr_thomas_stage(dev, dbatch, st, 64,
                              kernels::LoadVariant::Strided);
  }
  std::vector<std::string> names;
  for (const auto& sp : tel.tracer.spans()) {
    if (sp.category == "kernel") names.push_back(sp.name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"stage1_coop_split",
                                             "stage2_independent_split",
                                             "pcr_thomas_strided"}));
}

}  // namespace
