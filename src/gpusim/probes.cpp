#include "gpusim/probes.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "telemetry/telemetry.hpp"

namespace tda::gpusim {

double probe_bandwidth(Device& dev, std::size_t blocks, int threads,
                       double bytes_per_block, std::size_t stride_elems,
                       std::size_t elem_bytes) {
  TDA_REQUIRE(bytes_per_block > 0, "probe needs traffic");
  LaunchConfig cfg;
  cfg.blocks = blocks;
  cfg.threads_per_block = threads;
  cfg.regs_per_thread = 16;
  auto st = dev.launch(cfg, [&](BlockContext& ctx) {
    ctx.charge_global(bytes_per_block, stride_elems, elem_bytes);
  });
  const double seconds = st.seconds - st.launch_seconds;
  if (seconds <= 0.0) return 0.0;
  return bytes_per_block * static_cast<double>(blocks) / seconds / 1e9;
}

double probe_launch_overhead(Device& dev) {
  LaunchConfig cfg;
  cfg.blocks = 1;
  cfg.threads_per_block = 32;
  cfg.regs_per_thread = 8;
  auto st = dev.launch(cfg, [](BlockContext&) {});
  return st.seconds * 1e6;
}

ProbeReport run_probes(Device& dev, std::size_t elem_bytes) {
  ProbeReport rep;
  const auto q = dev.query();
  telemetry::Telemetry* tel = dev.telemetry();
  telemetry::ScopedSpan probes_span(telemetry::tracer_of(tel), "probes",
                                    "probe");

  // Saturating configuration: many medium blocks.
  const std::size_t fat_blocks = 64ull * q.sm_count;
  const int threads = 256;
  const double per_block = 1 << 20;  // 1 MiB per block

  {
    telemetry::ScopedSpan span(telemetry::tracer_of(tel),
                               "probe.peak_bandwidth", "probe");
    rep.peak_bandwidth_gb_s =
        probe_bandwidth(dev, fat_blocks, threads, per_block, 1, elem_bytes);
    span.attr("gb_s", rep.peak_bandwidth_gb_s);
  }
  {
    telemetry::ScopedSpan span(telemetry::tracer_of(tel),
                               "probe.starved_bandwidth", "probe");
    rep.starved_bandwidth_gb_s =
        probe_bandwidth(dev, 1, threads, per_block, 1, elem_bytes);
    span.attr("gb_s", rep.starved_bandwidth_gb_s);
  }

  const double base =
      probe_bandwidth(dev, fat_blocks, threads, per_block, 1, elem_bytes);
  double prev_inflation = 1.0;
  rep.inflation_saturation_stride = 0;
  for (std::size_t s = 2; s <= 256; s *= 2) {
    telemetry::ScopedSpan span(telemetry::tracer_of(tel),
                               "probe.stride_inflation", "probe");
    span.attr("stride", static_cast<double>(s));
    const double bw =
        probe_bandwidth(dev, fat_blocks, threads, per_block, s, elem_bytes);
    const double inflation = (bw > 0.0) ? base / bw : 0.0;
    span.attr("inflation", inflation);
    rep.stride_inflation.emplace_back(s, inflation);
    if (rep.inflation_saturation_stride == 0 &&
        inflation < prev_inflation * 1.01 && s > 2) {
      rep.inflation_saturation_stride = s / 2;
    }
    prev_inflation = inflation;
  }
  if (rep.inflation_saturation_stride == 0) {
    rep.inflation_saturation_stride = 256;
  }

  {
    telemetry::ScopedSpan span(telemetry::tracer_of(tel),
                               "probe.launch_overhead", "probe");
    rep.launch_overhead_us = probe_launch_overhead(dev);
    span.attr("us", rep.launch_overhead_us);
  }

  // Latency sensitivity: one long dependent chain vs the same
  // instructions spread over parallel threads.
  {
    telemetry::ScopedSpan span(telemetry::tracer_of(tel),
                               "probe.dependency_penalty", "probe");
    LaunchConfig cfg;
    cfg.blocks = static_cast<std::size_t>(q.sm_count);
    cfg.threads_per_block = 256;
    cfg.regs_per_thread = 16;
    auto wide = dev.launch(cfg, [](BlockContext& ctx) {
      ctx.charge_phase(256, 64.0, 1.0);  // 64-op chains, 8 warps
    });
    auto deep = dev.launch(cfg, [](BlockContext& ctx) {
      ctx.charge_phase(32, 512.0, 1.0);  // one warp, 512-op chain
    });
    const double tw = wide.compute_seconds;
    const double td = deep.compute_seconds;
    rep.dependency_penalty = (tw > 0.0) ? td / tw : 1.0;
    span.attr("penalty", rep.dependency_penalty);
  }

  if (tel != nullptr) {
    auto& mx = tel->metrics;
    mx.add("probes.runs");
    mx.set("probe.peak_bandwidth_gb_s", rep.peak_bandwidth_gb_s);
    mx.set("probe.starved_bandwidth_gb_s", rep.starved_bandwidth_gb_s);
    mx.set("probe.launch_overhead_us", rep.launch_overhead_us);
    mx.set("probe.dependency_penalty", rep.dependency_penalty);
    mx.set("probe.inflation_saturation_stride",
           static_cast<double>(rep.inflation_saturation_stride));
  }
  return rep;
}

}  // namespace tda::gpusim
