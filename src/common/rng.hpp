#pragma once
// Deterministic, fast pseudo-random generation for workload synthesis.
//
// We use xoshiro256++ seeded through SplitMix64 so every generator, test and
// benchmark is reproducible from a single 64-bit seed, independent of the
// standard library implementation.

#include <algorithm>
#include <cstdint>
#include <limits>

#include "common/check.hpp"

namespace tda {

/// SplitMix64's increment (2^64 / golden ratio).
inline constexpr std::uint64_t kSplitMixGamma = 0x9E3779B97F4A7C15ull;

/// Stateless SplitMix64: one well-mixed word from `z` (counters, hashing).
inline std::uint64_t mix64(std::uint64_t z) noexcept {
  z += kSplitMixGamma;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// SplitMix64 stream step — used to expand a user seed into xoshiro
/// state and as a cheap caller-owned RNG.
inline std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  const std::uint64_t out = mix64(state);
  state += kSplitMixGamma;
  return out;
}

/// Uniform double in [0, 1) from the top 53 bits of `x`.
inline double unit_double(std::uint64_t x) noexcept {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

/// One decorrelated-jitter backoff step (AWS-style): a uniform draw from
/// [base_ms, max(base_ms, 3 * prev_ms)], capped at max_ms; pass the last
/// result back as prev_ms (0 at first). `state` is the caller's
/// splitmix64 stream: equal seeds sleep equal schedules.
inline double decorrelated_backoff_ms(double base_ms, double prev_ms,
                                      double max_ms,
                                      std::uint64_t& state) noexcept {
  const double hi = prev_ms * 3.0 > base_ms ? prev_ms * 3.0 : base_ms;
  const double sleep =
      base_ms + unit_double(splitmix64(state)) * (hi - base_ms);
  return sleep > max_ms ? max_ms : sleep;
}

/// xoshiro256++ generator (Blackman & Vigna). Satisfies
/// UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x1234abcd) noexcept {
    std::uint64_t sm = seed;
    for (auto& s : state_) s = splitmix64(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept { return unit_double((*this)()); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    TDA_ASSERT(lo <= hi);
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n). n must be positive.
  std::uint64_t below(std::uint64_t n) noexcept {
    TDA_ASSERT(n > 0);
    // Floating-point scaling; bias is < 2^-53 * n, irrelevant for
    // workload synthesis.
    return std::min(n - 1, static_cast<std::uint64_t>(
                               uniform() * static_cast<double>(n)));
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi) noexcept {
    TDA_ASSERT(lo <= hi);
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Random sign: +1 or -1.
  double sign() noexcept { return ((*this)() & 1) ? 1.0 : -1.0; }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t state_[4]{};
};

}  // namespace tda
