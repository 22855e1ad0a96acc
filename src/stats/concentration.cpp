#include "stats/concentration.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "stats/chebyshev.hpp"

namespace mcs::stats {
namespace {

// Branch points: every one-sided unimodal bound hands over between its
// "near" and "far" regime at the n where both expressions equal 1/6.
const double kVpKnee = std::sqrt(5.0 / 3.0);     // VP:    both sides = 1/6
const double kGaussKnee = 2.0 / std::sqrt(3.0);  // Gauss: both sides = 1/6
const double kSqrt3 = std::sqrt(3.0);

double vp_one_sided(double n) {
  if (n <= 0.0) return 1.0;
  const double base = 1.0 + n * n;
  const double far = 4.0 / (9.0 * base);
  if (n >= kVpKnee) return far;
  return std::min(4.0 / (3.0 * base) - 1.0 / 3.0,
                  chebyshev_exceedance_bound(n));
}

double gauss_one_sided(double n) {
  if (n <= 0.0) return std::min(0.5, vp_one_sided(n));
  const double raw =
      n >= kGaussKnee ? 2.0 / (9.0 * n * n) : (1.0 - n / kSqrt3) / 2.0;
  // Min-chain with VP: under the (stronger) Gauss premise the VP bound
  // also holds, and taking the min keeps the family pointwise ordered
  // Gauss <= VP <= Cantelli for every n.
  return std::min(raw, vp_one_sided(n));
}

double chebyshev_two_sided_inverse(double p) {
  if (p >= 1.0) return 0.0;
  return 1.0 / std::sqrt(p);
}

double vp_inverse(double p) {
  if (p >= 1.0) return 0.0;
  if (p <= 1.0 / 6.0) return std::sqrt(4.0 / (9.0 * p) - 1.0);
  // Near branch: 4/(3(1+n^2)) - 1/3 = p  =>  1+n^2 = 4/(3p+1).
  return std::sqrt(4.0 / (3.0 * p + 1.0) - 1.0);
}

double gauss_inverse(double p) {
  double raw;
  if (p >= 0.5) {
    raw = 0.0;
  } else if (p > 1.0 / 6.0) {
    raw = kSqrt3 * (1.0 - 2.0 * p);
  } else {
    raw = std::sqrt(2.0 / (9.0 * p));
  }
  // The bound is min(raw_gauss, vp), so the smaller branch inverse
  // already drives the min under the target.
  return std::min(raw, vp_inverse(p));
}

}  // namespace

std::string_view bound_name(BoundKind kind) {
  switch (kind) {
    case BoundKind::kCantelli:
      return "cantelli";
    case BoundKind::kChebyshev:
      return "chebyshev2";
    case BoundKind::kVysochanskijPetunin:
      return "vp";
    case BoundKind::kGauss:
      return "gauss";
  }
  return "cantelli";
}

BoundKind parse_bound_kind(std::string_view name) {
  if (name == "cantelli" || name == "chebyshev")
    return BoundKind::kCantelli;
  if (name == "chebyshev2" || name == "two-sided")
    return BoundKind::kChebyshev;
  if (name == "vp" || name == "vysochanskij-petunin")
    return BoundKind::kVysochanskijPetunin;
  if (name == "gauss") return BoundKind::kGauss;
  throw std::invalid_argument("unknown concentration bound: " +
                              std::string(name));
}

double concentration_exceedance(BoundKind kind, double n) {
  switch (kind) {
    case BoundKind::kCantelli:
      return chebyshev_exceedance_bound(n);
    case BoundKind::kChebyshev:
      return chebyshev_two_sided_bound(n);
    case BoundKind::kVysochanskijPetunin:
      return vp_one_sided(n);
    case BoundKind::kGauss:
      return gauss_one_sided(n);
  }
  return 1.0;
}

double concentration_n_for_target(BoundKind kind, double target_prob) {
  if (!(target_prob > 0.0))
    throw std::invalid_argument(
        "concentration_n_for_target: target_prob must be > 0");
  switch (kind) {
    case BoundKind::kCantelli:
      return n_for_exceedance_bound(target_prob);
    case BoundKind::kChebyshev:
      return chebyshev_two_sided_inverse(target_prob);
    case BoundKind::kVysochanskijPetunin:
      return vp_inverse(target_prob);
    case BoundKind::kGauss:
      return gauss_inverse(target_prob);
  }
  return 0.0;
}

UnimodalityReport unimodality_check(std::span<const double> samples) {
  const std::size_t m = samples.size();
  if (m < 32) return {false, 0};

  const auto [lo_it, hi_it] = std::minmax_element(samples.begin(),
                                                  samples.end());
  const double lo = *lo_it;
  const double hi = *hi_it;
  if (!(hi > lo) || !std::isfinite(lo) || !std::isfinite(hi))
    return {false, 0};

  const std::size_t bins = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::sqrt(static_cast<double>(m))), 8, 32);
  std::vector<double> hist(bins, 0.0);
  const double width = (hi - lo) / static_cast<double>(bins);
  for (const double x : samples) {
    auto b = static_cast<std::size_t>((x - lo) / width);
    if (b >= bins) b = bins - 1;
    hist[b] += 1.0;
  }

  // Two [1,2,1]/4 smoothing passes knock out single-bin sampling noise
  // without merging genuinely separated modes.
  for (int pass = 0; pass < 2; ++pass) {
    std::vector<double> next(bins, 0.0);
    for (std::size_t b = 0; b < bins; ++b) {
      const double left = b > 0 ? hist[b - 1] : hist[b];
      const double right = b + 1 < bins ? hist[b + 1] : hist[b];
      next[b] = (left + 2.0 * hist[b] + right) / 4.0;
    }
    hist.swap(next);
  }

  const double tallest = *std::max_element(hist.begin(), hist.end());
  if (tallest <= 0.0) return {false, 0};

  // Collect significant local maxima (plateau-tolerant: strictly higher
  // than the previous distinct level, at least as high as the next).
  struct Peak {
    std::size_t bin;
    double height;
  };
  std::vector<Peak> peaks;
  for (std::size_t b = 0; b < bins; ++b) {
    const double left = b > 0 ? hist[b - 1] : -1.0;
    const double right = b + 1 < bins ? hist[b + 1] : -1.0;
    if (hist[b] > left && hist[b] >= right &&
        hist[b] >= 0.10 * tallest)
      peaks.push_back({b, hist[b]});
  }
  if (peaks.empty()) return {false, 0};

  // Merge peaks whose connecting valley stays above 70% of the smaller
  // peak — those are one mode with bin noise, not two modes.
  std::size_t modes = 1;
  std::size_t prev = peaks.front().bin;
  double prev_height = peaks.front().height;
  for (std::size_t i = 1; i < peaks.size(); ++i) {
    const auto& peak = peaks[i];
    double valley = prev_height;
    for (std::size_t b = prev; b <= peak.bin; ++b)
      valley = std::min(valley, hist[b]);
    if (valley < 0.70 * std::min(prev_height, peak.height)) {
      ++modes;
      prev_height = peak.height;
    } else {
      prev_height = std::max(prev_height, peak.height);
    }
    prev = peak.bin;
  }
  return {modes == 1, modes};
}

}  // namespace mcs::stats
