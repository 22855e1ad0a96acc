#include "common/rng.hpp"

#include <cmath>

namespace mcs::common {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

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

Rng::result_type Rng::operator()() {
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

double Rng::uniform01() {
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform01();
}

std::uint64_t Rng::uniform_u64(std::uint64_t lo, std::uint64_t hi) {
  const std::uint64_t span = hi - lo;
  if (span == std::numeric_limits<std::uint64_t>::max()) return (*this)();
  const std::uint64_t bound = span + 1;
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit =
      std::numeric_limits<std::uint64_t>::max() -
      (std::numeric_limits<std::uint64_t>::max() % bound) - 1;
  std::uint64_t draw = (*this)();
  while (draw > limit) draw = (*this)();
  return lo + draw % bound;
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

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

double Rng::exponential(double lambda) {
  // 1 - U is in (0,1], so the log argument is never zero.
  return -std::log(1.0 - uniform01()) / lambda;
}

}  // namespace mcs::common
