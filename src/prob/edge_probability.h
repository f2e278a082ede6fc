#ifndef IMGRN_PROB_EDGE_PROBABILITY_H_
#define IMGRN_PROB_EDGE_PROBABILITY_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/random.h"

namespace imgrn {

/// Monte Carlo estimator of the IM-GRN edge existence probability
/// (Definition 2 after the Lemma-1 reduction):
///
///   e_{s,t}.p = Pr{ dist(X_s, X_t^R) > dist(X_s, X_t) }
///
/// where X_t^R ranges over uniform random permutations of X_t (population
/// size l!). The estimator draws `num_samples` permutations and returns the
/// fraction whose distance exceeds dist(X_s, X_t). Vectors must be
/// standardized (mean 0, ||X||^2 = l) for the reduction to be valid; callers
/// standardize once per matrix via GeneMatrix::StandardizeColumns(). The
/// distance-space methods (Estimate, ExactByEnumeration) return 0 when
/// either vector is all zeros, a standardized constant column, without
/// drawing: every permuted distance ties the observed one, and only
/// rounding would break the tie.
class EdgeProbabilityEstimator {
 public:
  /// `num_samples` is typically RequiredSampleSize(eps, delta); the paper's
  /// experiments use modest fixed budgets, so the default keeps inference
  /// fast while staying well inside the Lemma-2 guarantee for eps ~ 0.2.
  explicit EdgeProbabilityEstimator(size_t num_samples = 200);

  size_t num_samples() const { return num_samples_; }

  /// Estimates e.p for standardized vectors `xs`, `xt` (equal length >= 2).
  /// Deterministic given `rng` state.
  double Estimate(std::span<const double> xs, std::span<const double> xt,
                  Rng* rng) const;

  /// Reference implementation of Definition 2 directly in correlation space:
  /// Pr{ cor(X_s, X_t) > cor(X_s, X_t^R) } with *signed* Pearson
  /// correlation. Used by tests to validate the Lemma-1 reduction (the two
  /// must agree sample-for-sample when the same permutations are drawn).
  double EstimateViaCorrelation(std::span<const double> xs,
                                std::span<const double> xt, Rng* rng) const;

  /// Variant of Definition 2 with the paper's literal Eq. (1): absolute
  /// Pearson correlation r = |cor|. Differs from the Euclidean reduction
  /// only when the observed or randomized correlation is negative; exposed
  /// for the measure-comparison experiments.
  double EstimateViaAbsoluteCorrelation(std::span<const double> xs,
                                        std::span<const double> xt,
                                        Rng* rng) const;

  /// Exact probability by enumerating all l! permutations. Only feasible for
  /// tiny vectors (l <= 8); used by tests as ground truth.
  double ExactByEnumeration(std::span<const double> xs,
                            std::span<const double> xt) const;

 private:
  size_t num_samples_;
};

/// Estimates E[dist(X^R, pivot)] over random permutations X^R of `x`, the
/// quantity y_s[w] stored in the pivot embedding (Section 4.2) and the E(W)
/// numerator of the pivot-based Markov bound. Deterministic given `rng`.
double SampledExpectedPermutedDistance(std::span<const double> x,
                                       std::span<const double> pivot,
                                       size_t num_samples, Rng* rng);

}  // namespace imgrn

#endif  // IMGRN_PROB_EDGE_PROBABILITY_H_
