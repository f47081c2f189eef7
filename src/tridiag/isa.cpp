// The ISA variants of the hot PCR, Thomas, transpose and guard-scan
// loops (see isa.hpp).
//
// A variant is a set of non-template wrappers, one per entry point, whose
// attributes set the target ISA and inline the whole loop nest into the
// wrapper (flatten), so the nest is compiled for that target. Under GCC
// they also switch FP contraction off: a build that compiles these
// sources with its own flags does not get the project's
// -ffp-contract=off, and an AVX-512 target would otherwise fuse y*x+z
// into vfmadd. Clang gets the same from TDA_FP_CONTRACT_OFF in the loop
// bodies. The choice is a cached CPU check and a switch, not an ifunc,
// so sanitizer builds see plain calls.

#include "tridiag/isa.hpp"

#include "tridiag/guard_scans.hpp"
#include "tridiag/pcr.hpp"
#include "tridiag/thomas.hpp"
#include "tridiag/transpose.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TDA_ISA_X86 1
#else
#define TDA_ISA_X86 0
#endif

#if defined(__clang__)
#define TDA_NO_FP_CONTRACT
#else
#define TDA_NO_FP_CONTRACT optimize("fp-contract=off"),
#endif
#define TDA_BASE_VARIANT __attribute__((TDA_NO_FP_CONTRACT flatten))
#define TDA_TARGET_VARIANT(isa) \
  __attribute__((target(isa), TDA_NO_FP_CONTRACT flatten))

#define TDA_ENTRY(ATTRS, Args, body) \
  ATTRS auto run(const Args& p) { return body(p); }
#define TDA_ENTRIES(ATTRS, T)                                                 \
  TDA_ENTRY(ATTRS, UnitStep<T>, pcr_step_regions<T>)                          \
  TDA_ENTRY(ATTRS, ScatterStep<T>, pcr_step_regions<T>)                       \
  TDA_ENTRY(ATTRS, GatherStep<T>, pcr_step_regions<T>)                        \
  TDA_ENTRY(ATTRS, StridedStep<T>, pcr_step_regions<T>)                       \
  TDA_ENTRY(ATTRS, PcrSplit<T>, pcr_split_regions<T>)                         \
  TDA_ENTRY(ATTRS, ThomasSweep<T*>, thomas_interleaved_rows<T>)               \
  TDA_ENTRY(ATTRS, ThomasSweep<StridedView<T>>, thomas_interleaved_rows<T>)   \
  TDA_ENTRY(ATTRS, TransposeTile<T>, transpose_tile_loop<T>)                  \
  TDA_ENTRY(ATTRS, ScreenScan<T>, screen_rows<T>)                             \
  TDA_ENTRY(ATTRS, ResidualScan<T>, residual_rows<T>)
#define TDA_DEFINE_VARIANT(NS, ATTRS) \
  namespace NS {                      \
  TDA_ENTRIES(ATTRS, float)           \
  TDA_ENTRIES(ATTRS, double)          \
  }

namespace tda::tridiag::detail {
namespace {

// The PCR step's lane pairings: unit to unit, unit to strided (scatter),
// strided to unit (gather) and strided to strided.
template <typename T>
using UnitStep = PcrStep<const T*, T*>;
template <typename T>
using ScatterStep = PcrStep<const T*, StridedView<T>>;
template <typename T>
using GatherStep = PcrStep<StridedView<const T>, T*>;
template <typename T>
using StridedStep = PcrStep<StridedView<const T>, StridedView<T>>;

TDA_DEFINE_VARIANT(base, TDA_BASE_VARIANT)
#if TDA_ISA_X86
TDA_DEFINE_VARIANT(avx2, TDA_TARGET_VARIANT("avx2"))
TDA_DEFINE_VARIANT(avx512, TDA_TARGET_VARIANT("avx512f"))
#endif

struct HostIsa {
  bool avx2 = false;
  bool avx512 = false;

  HostIsa() {
#if TDA_ISA_X86
    __builtin_cpu_init();
    avx2 = __builtin_cpu_supports("avx2");
    avx512 = __builtin_cpu_supports("avx512f");
#endif
  }
};

const HostIsa& host() {
  static const HostIsa h;
  return h;
}

}  // namespace

bool isa_supported(Isa isa) {
  switch (isa) {
    case Isa::Avx2:
      return host().avx2;
    case Isa::Avx512:
      return host().avx512;
    case Isa::Default:
      break;
  }
  return true;
}

Isa host_isa() {
  static const Isa isa = isa_supported(Isa::Avx512) ? Isa::Avx512
                         : isa_supported(Isa::Avx2) ? Isa::Avx2
                                                    : Isa::Default;
  return isa;
}

/// Runs one entry point's arguments on the variant `isa`.
template <typename Args>
auto run_on(Isa isa, const Args& args) {
  switch (isa) {
#if TDA_ISA_X86
    case Isa::Avx512:
      return avx512::run(args);
    case Isa::Avx2:
      return avx2::run(args);
#endif
    default:
      return base::run(args);
  }
}

template <typename T, typename In, typename Out>
void pcr_step_regions_isa(Isa isa, const PcrStep<In, Out>& p) {
  run_on(isa, p);
}

template <typename T>
void pcr_split_regions_isa(Isa isa, const PcrSplit<T>& p) {
  run_on(isa, p);
}

template <typename T, typename V>
bool thomas_interleaved_rows_isa(Isa isa, const ThomasSweep<V>& p) {
  return run_on(isa, p);
}

template <typename T>
void transpose_tile_isa(Isa isa, const TransposeTile<T>& t) {
  run_on(isa, t);
}

template <typename T>
ScreenVerdict screen_rows_isa(Isa isa, const ScreenScan<T>& p) {
  return run_on(isa, p);
}

template <typename T>
double residual_rows_isa(Isa isa, const ResidualScan<T>& p) {
  return run_on(isa, p);
}

#define TDA_INSTANTIATE(T)                                                \
  template void pcr_step_regions_isa<T>(Isa, const UnitStep<T>&);         \
  template void pcr_step_regions_isa<T>(Isa, const ScatterStep<T>&);      \
  template void pcr_step_regions_isa<T>(Isa, const GatherStep<T>&);       \
  template void pcr_step_regions_isa<T>(Isa, const StridedStep<T>&);      \
  template void pcr_split_regions_isa<T>(Isa, const PcrSplit<T>&);        \
  template bool thomas_interleaved_rows_isa<T>(Isa,                       \
                                               const ThomasSweep<T*>&);   \
  template bool thomas_interleaved_rows_isa<T>(                           \
      Isa, const ThomasSweep<StridedView<T>>&);                           \
  template void transpose_tile_isa<T>(Isa, const TransposeTile<T>&);      \
  template ScreenVerdict screen_rows_isa<T>(Isa, const ScreenScan<T>&);   \
  template double residual_rows_isa<T>(Isa, const ResidualScan<T>&);

TDA_INSTANTIATE(float)
TDA_INSTANTIATE(double)

}  // namespace tda::tridiag::detail
