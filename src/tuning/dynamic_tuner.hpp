#pragma once
// The dynamic self-tuner (§IV-D) and, for the ablation, an exhaustive
// search over the same space.
//
// The self-tuner prunes the search two ways, exactly as the paper argues:
//
//  1. Decoupling. {stage-2→3 size, stage-3→4 Thomas switch, load variant}
//     are tuned jointly but independently of the stage-1→2 target: the
//     first group's optimum depends on on-chip resources and strides, the
//     second only on machine fill. Cost is additive (|A| + |B|) instead
//     of multiplicative (|A| × |B|).
//
//  2. Seeded local search. Every 1-D sweep is a hill descent started from
//     the machine-query guess, which is near the hyperbolic landscape's
//     local minimum, instead of a full sweep.
//
// Every "measurement" is a simulated cost-only solver run — the tuner
// never reads the hidden DeviceSpec fields, only observed time.

#include <cstddef>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/log.hpp"
#include "gpusim/launch.hpp"
#include "kernels/device_batch.hpp"
#include "solver/gpu_solver.hpp"
#include "solver/switch_points.hpp"
#include "telemetry/telemetry.hpp"
#include "tuning/cache.hpp"
#include "tuning/tuners.hpp"

namespace tda::tuning {

/// Outcome of a tuning run.
struct TuneResult {
  solver::SwitchPoints points;
  double best_ms = std::numeric_limits<double>::infinity();
  std::size_t evaluations = 0;  ///< solver runs performed
  bool from_cache = false;
  bool stage1_tuned = false;  ///< false when the workload never triggers stage 1
};

template <typename T>
class DynamicTuner {
 public:
  explicit DynamicTuner(gpusim::Device& dev, TuningCache* cache = nullptr)
      : dev_(&dev), cache_(cache) {}

  /// Tunes switch points for the given workload shape.
  TuneResult tune(const solver::Workload& w) {
    telemetry::Telemetry* tel = dev_->telemetry();
    telemetry::ScopedSpan span(telemetry::tracer_of(tel), "tune", "tuner");
    span.attr("m", static_cast<double>(w.num_systems));
    span.attr("n", static_cast<double>(w.system_size));

    const std::string key = TuningCache::make_key(
        dev_->spec().name, sizeof(T), w.num_systems, w.system_size);
    if (cache_ != nullptr) {
      if (auto hit = cache_->find(key)) {
        if (tel != nullptr) tel->metrics.add("tuner.cache_hits");
        span.attr("cache", "hit");
        TuneResult r;
        r.points = hit->points;
        r.best_ms = hit->tuned_ms;
        r.from_cache = true;
        return r;
      }
    }
    if (tel != nullptr && cache_ != nullptr) {
      tel->metrics.add("tuner.cache_misses");
    }

    TuneResult r = search(w);
    if (cache_ != nullptr) {
      cache_->store(key, CacheEntry{r.points, r.best_ms});
    }
    if (tel != nullptr) tel->metrics.add("tuner.tunes");
    span.attr("evaluations", static_cast<double>(r.evaluations));
    span.attr("best_ms", r.best_ms);
    span.attr("points", solver::describe(r.points));
    return r;
  }

 private:
  /// All power-of-two values in [lo, hi].
  static std::vector<std::size_t> pow2_range(std::size_t lo,
                                             std::size_t hi) {
    std::vector<std::size_t> v;
    for (std::size_t p = 1; p <= hi; p *= 2) {
      if (p >= lo) v.push_back(p);
      if (p > hi / 2) break;
    }
    return v;
  }

  TuneResult search(const solver::Workload& w) {
    TuneResult r;
    const auto q = dev_->query();
    const solver::SwitchPoints seed = static_switch_points<T>(q);
    const std::size_t cap = kernels::max_shared_system_size(q, sizeof(T));
    TDA_REQUIRE(cap >= 2, "device cannot run the base kernel");

    // Group A is tuned on a machine-filling PROXY workload (§IV-D:
    // "a workload guaranteed to fill the machine — number of systems much
    // greater than the number of processors"), so its optimum is not
    // polluted by stage-1 starvation effects. The proxy keeps the real
    // system size up to the point where the subsystem stride saturates
    // the coalescing model ("repeat increasing the stride count — this
    // simulates solving larger systems"); beyond that, larger n adds no
    // new stride regimes, only cost.
    const solver::Workload fill{
        std::max<std::size_t>(w.num_systems,
                              8 * static_cast<std::size_t>(q.sm_count)),
        std::min<std::size_t>(w.system_size, 32 * cap)};

    telemetry::Telemetry* tel = dev_->telemetry();
    std::map<std::string, double> memo;
    auto eval_on = [&](const solver::Workload& on, const char* tag,
                       const solver::SwitchPoints& sp) {
      const std::string k = std::string(tag) + "|" + solver::describe(sp);
      if (auto it = memo.find(k); it != memo.end()) return it->second;
      // One span per candidate actually simulated (memo hits above are
      // free): the §IV-D search trajectory, inspectable in a trace.
      telemetry::ScopedSpan span(telemetry::tracer_of(tel), "tune.eval",
                                 "tuner");
      span.attr("workload", tag);
      span.attr("points", solver::describe(sp));
      const double ms =
          solver::GpuTridiagonalSolver<T>(*dev_, sp).simulate_ms(on);
      span.attr("ms", ms);
      if (tel != nullptr) {
        tel->metrics.add("tuner.evaluations");
        tel->metrics.observe("tuner.eval_ms", ms);
      }
      memo[k] = ms;
      ++r.evaluations;
      TDA_DEBUG("tune eval " << k << " -> " << ms << " ms");
      return ms;
    };
    auto evaluate_fill = [&](const solver::SwitchPoints& sp) {
      // The proxy always has enough independent systems; neutralize
      // stage 1 so group A measures pure stage-2/3/4 behaviour.
      solver::SwitchPoints p = sp;
      p.stage1_target_systems = 1;
      return eval_on(fill, "fill", p);
    };
    auto evaluate = [&](const solver::SwitchPoints& sp) {
      return eval_on(w, "real", sp);
    };

    // ---- group A: {stage3 size, thomas switch, variant} ----
    // Inner: best thomas/variant for a given stage-3 size, hill-descending
    // the Thomas switch from the warp-based static guess for both load
    // variants ("for the two base PCR-Thomas kernels we coded").
    auto tune_inner = [&](std::size_t s3, solver::SwitchPoints base) {
      base.stage3_system_size = s3;
      solver::SwitchPoints best = base;
      double best_ms = std::numeric_limits<double>::infinity();
      for (auto variant :
           {kernels::LoadVariant::Strided, kernels::LoadVariant::Coalesced}) {
        solver::SwitchPoints sp = base;
        sp.variant = variant;
        const auto ladder = pow2_range(1, s3);
        // start at the static guess clamped into the ladder
        std::size_t idx = 0;
        for (std::size_t i = 0; i < ladder.size(); ++i) {
          if (ladder[i] <= seed.thomas_switch) idx = i;
        }
        sp.thomas_switch = ladder[idx];
        double cur = evaluate_fill(sp);
        bool moved = true;
        while (moved) {
          moved = false;
          for (int dir : {-1, +1}) {
            const long long ni = static_cast<long long>(idx) + dir;
            if (ni < 0 || ni >= static_cast<long long>(ladder.size()))
              continue;
            solver::SwitchPoints cand = sp;
            cand.thomas_switch = ladder[static_cast<std::size_t>(ni)];
            const double ms = evaluate_fill(cand);
            if (ms < cur) {
              cur = ms;
              idx = static_cast<std::size_t>(ni);
              sp = cand;
              moved = true;
            }
          }
        }
        if (cur < best_ms) {
          best_ms = cur;
          best = sp;
        }
      }
      return std::pair{best, best_ms};
    };

    // Outer hill descent on the stage-3 size, seeded at the machine-query
    // choice (= on-chip capacity).
    const auto sizes = pow2_range(2, cap);
    std::size_t sidx = sizes.size() - 1;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      if (sizes[i] <= seed.stage3_system_size) sidx = i;
    }
    auto [best_sp, best_ms] = tune_inner(sizes[sidx], seed);
    bool moved = true;
    while (moved) {
      moved = false;
      for (int dir : {-1, +1}) {
        const long long ni = static_cast<long long>(sidx) + dir;
        if (ni < 0 || ni >= static_cast<long long>(sizes.size())) continue;
        auto [sp, ms] =
            tune_inner(sizes[static_cast<std::size_t>(ni)], best_sp);
        if (ms < best_ms) {
          best_ms = ms;
          best_sp = sp;
          sidx = static_cast<std::size_t>(ni);
          moved = true;
        }
      }
    }

    // Group A is done; score the selection on the REAL workload.
    best_sp.stage1_target_systems = seed.stage1_target_systems;
    best_ms = evaluate(best_sp);

    // ---- group B: stage-1 target, tuned on the real workload ----
    // Only relevant when the workload starts with fewer independent
    // systems than splitting can create; otherwise stage 1 never runs.
    // The stage-1 landscape is BIMODAL (minimal cooperative splitting vs
    // mostly-cooperative splitting are both locally optimal, separated by
    // a starved-stage-2 ridge), so a plain hill descent from the machine
    // guess can land in the wrong basin; the one-dimensional ladder is
    // only ~11 points, so scan it outright — the search stays additive,
    // which is all the decoupling argument needs.
    if (w.num_systems < seed.stage1_target_systems * 4) {
      double cur = std::numeric_limits<double>::infinity();
      for (std::size_t target : pow2_range(1, 1024)) {
        solver::SwitchPoints cand = best_sp;
        cand.stage1_target_systems = target;
        const double ms = evaluate(cand);
        if (ms < cur) {
          cur = ms;
          best_sp = cand;
        }
      }
      best_ms = cur;
      r.stage1_tuned = true;
    }

    // ---- layout: staged pipeline vs interleaved (element-major) ----
    // The element-major path has no switch points of its own (one
    // transpose-in, one single-pass Thomas, one transpose-out), so one
    // extra evaluation on the real workload answers whether the SIMD
    // gain beats the transpose cost for this (device, m, n, dtype) —
    // the same observed-time criterion as every other dimension.
    {
      solver::SwitchPoints cand = best_sp;
      cand.layout = tridiag::BatchLayout::ElementMajor;
      const double ms = evaluate(cand);
      span_note_layout(tel, best_ms, ms);
      if (ms < best_ms) {
        best_ms = ms;
        best_sp = cand;
      }
    }

    r.points = best_sp;
    r.best_ms = best_ms;
    return r;
  }

  /// Records the layout crossover the search observed (system- vs
  /// element-major ms) on the enclosing tune span's metrics.
  static void span_note_layout(telemetry::Telemetry* tel, double system_ms,
                               double element_ms) {
    if (tel == nullptr) return;
    tel->metrics.observe("tuner.layout_system_ms", system_ms);
    tel->metrics.observe("tuner.layout_element_ms", element_ms);
    tel->metrics.add(element_ms < system_ms
                         ? R"(tuner.layout_picked{choice="element"})"
                         : R"(tuner.layout_picked{choice="system"})");
  }

  gpusim::Device* dev_;
  TuningCache* cache_;
};

/// Exhaustive search over the full cross product of the tuning space —
/// what the decoupled search avoids. Used by the search-cost ablation.
template <typename T>
TuneResult exhaustive_tune(gpusim::Device& dev, const solver::Workload& w) {
  TuneResult r;
  const auto q = dev.query();
  const std::size_t cap = kernels::max_shared_system_size(q, sizeof(T));
  const auto consider = [&](const solver::SwitchPoints& sp) {
    const double ms = solver::GpuTridiagonalSolver<T>(dev, sp).simulate_ms(w);
    ++r.evaluations;
    if (ms < r.best_ms) {
      r.best_ms = ms;
      r.points = sp;
    }
  };

  for (std::size_t s3 = 2; s3 <= cap; s3 *= 2) {
    for (std::size_t th = 1; th <= s3; th *= 2) {
      for (auto variant : {kernels::LoadVariant::Strided,
                           kernels::LoadVariant::Coalesced}) {
        for (std::size_t t1 = 1; t1 <= 1024; t1 *= 2) {
          solver::SwitchPoints sp;
          sp.stage3_system_size = s3;
          sp.thomas_switch = th;
          sp.variant = variant;
          sp.stage1_target_systems = t1;
          consider(sp);
        }
      }
    }
  }
  // The element-major variant is a single extra point of the space (its
  // path ignores the staged switch points).
  solver::SwitchPoints element;
  element.layout = tridiag::BatchLayout::ElementMajor;
  consider(element);
  return r;
}

}  // namespace tda::tuning
