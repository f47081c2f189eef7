#pragma once
// Telemetry session: one Tracer + one MetricsRegistry, attached to a
// gpusim::Device (Device::set_telemetry) and shared by every component
// that touches the device — solver stages, the dynamic tuner, the
// micro-benchmark probes. The metrics half always records; tracing is
// the one switch (tracer.enable()), off by default because spans are
// unbounded.

#include "telemetry/metrics.hpp"
#include "telemetry/tracer.hpp"

namespace tda::telemetry {

struct Telemetry {
  Tracer tracer;
  MetricsRegistry metrics;

  void clear() {
    tracer.clear();
    metrics.clear();
  }
};

/// Null-safe accessor used at span call sites:
/// `ScopedSpan s(tracer_of(tel), "solve")`.
inline Tracer* tracer_of(Telemetry* tel) {
  return tel != nullptr ? &tel->tracer : nullptr;
}

}  // namespace tda::telemetry
