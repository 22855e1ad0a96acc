#include "common/rng.hpp"

#include <cmath>

namespace mcs::common {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = splitmix64(sm);
  // All-zero state is invalid for xoshiro; SplitMix64 cannot produce four
  // consecutive zeros from any seed, but keep a belt-and-braces guard.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

std::int64_t Rng::uniform_i64(std::int64_t lo, std::int64_t hi) {
  // Compute the span in unsigned arithmetic: hi - lo overflows int64_t
  // whenever the range spans more than half the signed domain (e.g.
  // [INT64_MIN, INT64_MAX]), which is UB in signed math but well defined
  // modulo 2^64.
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) +
                                   uniform_u64(0, span));
}

double Rng::normal() {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return spare_normal_;
  }
  double u = 0.0;
  double v = 0.0;
  double s = 0.0;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_normal_ = v * factor;
  has_spare_normal_ = true;
  return u * factor;
}

double Rng::normal(double mean, double sigma) {
  return mean + sigma * normal();
}

double Rng::exponential(double lambda) {
  // 1 - U is in (0,1], so the log argument is never zero.
  return -std::log(1.0 - uniform01()) / lambda;
}

}  // namespace mcs::common
