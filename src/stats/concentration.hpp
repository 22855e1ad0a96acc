// Concentration-bound family generalizing the paper's Cantelli bound
// (Eq. 2/5) with the sharper unimodal inequalities from the related work
// (Toba et al., "Generalized Inequality-based Approach for Probabilistic
// WCET Estimation"):
//
//   Cantelli (one-sided Chebyshev, distribution-free):
//     Pr[X - mean >= n*sigma] <= 1 / (1 + n^2)
//   Two-sided Chebyshev (distribution-free):
//     Pr[|X - mean| >= n*sigma] <= min(1, 1 / n^2)
//   One-sided Vysochanskij-Petunin (premise: unimodal X):
//     <= 4 / (9 (1 + n^2))            for n >= sqrt(5/3)
//     <= 4 / (3 (1 + n^2)) - 1/3      otherwise
//   One-sided Gauss (premise: unimodal X, mode ~= mean):
//     <= 2 / (9 n^2)                  for n >= 2/sqrt(3)
//     <= (1 - n/sqrt(3)) / 2          otherwise
//
// The Gauss bound is min-chained with VP so the family is pointwise
// ordered Gauss <= VP <= Cantelli for every n >= 0 (the min of valid
// upper bounds is a valid upper bound under the joint premises). Each
// bound exposes the exceedance at a multiplier and the closed-form
// inverse (smallest n whose bound is <= a target probability), which is
// what the vp_n_sigma / gauss_n_sigma policies consume. The Cantelli and
// two-sided members, and the Cantelli inverse, are stats/chebyshev's
// functions; this module adds the unimodal members and the dispatch.
//
// The unimodal premises are *checked*, not assumed: unimodality_check
// runs a smoothed-histogram mode count over a sample set and the policy
// layer falls back to Cantelli whenever the check cannot certify a
// single mode (small samples deliberately fail the check — conservative
// by construction).
#pragma once

#include <cstddef>
#include <span>
#include <string_view>

namespace mcs::stats {

/// The members of the concentration-bound family.
enum class BoundKind {
  kCantelli,             ///< one-sided Chebyshev (paper's Eq. 2), any X
  kChebyshev,            ///< two-sided Chebyshev, any X
  kVysochanskijPetunin,  ///< one-sided VP, unimodal X
  kGauss,                ///< one-sided Gauss, unimodal X with mode ~= mean
};

/// Stable lower-case name ("cantelli", "chebyshev2", "vp", "gauss").
[[nodiscard]] std::string_view bound_name(BoundKind kind);

/// Parses a bound name (as printed by bound_name, plus the long aliases
/// "vysochanskij-petunin" and "chebyshev"). Throws std::invalid_argument
/// on an unknown name.
[[nodiscard]] BoundKind parse_bound_kind(std::string_view name);

/// Exceedance bound at the normalized deviation n (Pr[X - mean >= n*sigma],
/// or the two-sided probability for kChebyshev). Negative n yields the
/// vacuous bound 1. Monotonically non-increasing in n and continuous at
/// every branch point.
[[nodiscard]] double concentration_exceedance(BoundKind kind, double n);

/// Smallest n such that concentration_exceedance(kind, n) <= target_prob.
/// Requires target_prob > 0 (throws std::invalid_argument otherwise);
/// targets the bound can reach at n = 0 yield 0.
[[nodiscard]] double concentration_n_for_target(BoundKind kind,
                                                double target_prob);

/// Result of the sample-based unimodality pre-check.
struct UnimodalityReport {
  bool unimodal = false;  ///< true only when a single mode is certified
  std::size_t modes = 0;  ///< distinct modes found (0 = sample too small)
};

/// Smoothed-histogram mode count over a sample set. Deterministic in the
/// sample values alone: ~sqrt(m) equal-width bins (clamped to [8, 32]),
/// two [1,2,1]/4 smoothing passes, local maxima below 10% of the tallest
/// peak are ignored, and two peaks only count as distinct modes when the
/// valley between them dips under 70% of the smaller peak. Samples with
/// m < 32 (or a degenerate value range) cannot certify unimodality and
/// report {false, 0} — callers treat that as "premise not established".
[[nodiscard]] UnimodalityReport unimodality_check(
    std::span<const double> samples);

}  // namespace mcs::stats
