// Deterministic pseudo-random number generation for all stochastic
// components of the library.
//
// Every experiment in the reproduction takes an explicit 64-bit seed, so all
// results are bit-reproducible across runs and platforms. We implement
// xoshiro256** (Blackman & Vigna) seeded via SplitMix64, rather than relying
// on std::mt19937, so that the stream is stable across standard-library
// implementations. A loop that needs one stream per work item seeds item i
// with Rng(index_seed(base, i)) (common/thread_pool.hpp).
//
// The raw draw and the uniform, integer and Bernoulli draws built on it are
// defined inline below, so hot loops such as GA breeding (several draws
// per child) compile them into the loop instead of calling out per draw.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace mcs::common {

/// SplitMix64 step. Used to expand a single 64-bit seed into the
/// xoshiro256** state, and useful on its own for hashing seeds.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state);

/// xoshiro256** generator: fast, high-quality, 256-bit state.
///
/// Satisfies the C++ UniformRandomBitGenerator requirements, so it can be
/// used with <random> distributions, although the library's own
/// distribution code (mcs::stats) is preferred for cross-platform
/// reproducibility.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from a single 64-bit seed via SplitMix64.
  explicit Rng(std::uint64_t seed = 0xB0BACAFEF00DFACEULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  /// Next 64 random bits.
  result_type operator()();

  /// Uniform double in [0, 1). Uses the top 53 bits.
  [[nodiscard]] double uniform01();

  /// Uniform double in [lo, hi). Requires lo <= hi.
  [[nodiscard]] double uniform(double lo, double hi);

  /// Uniform integer in the closed range [lo, hi]. Requires lo <= hi.
  /// Unbiased (rejection sampling on the top of the range).
  [[nodiscard]] std::uint64_t uniform_u64(std::uint64_t lo, std::uint64_t hi);

  /// Uniform integer in [lo, hi] for signed arguments. Requires lo <= hi.
  [[nodiscard]] std::int64_t uniform_i64(std::int64_t lo, std::int64_t hi);

  /// Standard normal deviate (Marsaglia polar method; stateless across
  /// calls — the spare deviate is cached).
  [[nodiscard]] double normal();

  /// Normal deviate with the given mean and standard deviation (sigma >= 0).
  [[nodiscard]] double normal(double mean, double sigma);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  [[nodiscard]] bool bernoulli(double p);

  /// Exponential deviate with the given rate lambda > 0.
  [[nodiscard]] double exponential(double lambda);

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  double spare_normal_ = 0.0;
  bool has_spare_normal_ = false;
};

inline Rng::result_type Rng::operator()() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

inline double Rng::uniform01() {
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

inline double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform01();
}

inline std::uint64_t Rng::uniform_u64(std::uint64_t lo, std::uint64_t hi) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const std::uint64_t span = hi - lo;
  if (span == kMax) return (*this)();
  const std::uint64_t bound = span + 1;
  // Rejection sampling to avoid modulo bias: a draw above
  // limit = kMax - (kMax % bound) - 1 is redrawn. limit >= kMax - bound, so
  // a draw at or below kMax - bound is accepted without the division that
  // computes limit; draws and results are those of always computing it.
  std::uint64_t draw = (*this)();
  if (draw > kMax - bound) {
    const std::uint64_t limit = kMax - (kMax % bound) - 1;
    while (draw > limit) draw = (*this)();
  }
  return lo + draw % bound;
}

inline bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

}  // namespace mcs::common
