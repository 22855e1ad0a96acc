#include "stats/chebyshev.hpp"

#include <cmath>
#include <limits>

namespace mcs::stats {

double cantelli_upper_bound(double variance, double a) {
  if (a < 0.0) return 1.0;
  if (variance <= 0.0) return a > 0.0 ? 0.0 : 1.0;
  return chebyshev_exceedance_bound(a / std::sqrt(variance));
}

double chebyshev_exceedance_bound(double n) {
  if (n < 0.0) return 1.0;
  return 1.0 / (1.0 + n * n);
}

double chebyshev_two_sided_bound(double n) {
  if (n <= 1.0) return 1.0;
  return 1.0 / (n * n);
}

double n_for_exceedance_bound(double target_prob) {
  if (target_prob >= 1.0) return 0.0;
  if (target_prob <= 0.0) return std::numeric_limits<double>::infinity();
  return std::sqrt(1.0 / target_prob - 1.0);
}

double implied_n(double acet, double sigma, double wcet_opt) {
  if (sigma <= 0.0) {
    return wcet_opt >= acet ? std::numeric_limits<double>::infinity()
                            : -std::numeric_limits<double>::infinity();
  }
  return (wcet_opt - acet) / sigma;
}

}  // namespace mcs::stats
