#include "prob/edge_probability.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "matrix/vector_ops.h"

namespace imgrn {

EdgeProbabilityEstimator::EdgeProbabilityEstimator(size_t num_samples)
    : num_samples_(num_samples) {
  IMGRN_CHECK_GT(num_samples, 0u);
}

double EdgeProbabilityEstimator::Estimate(std::span<const double> xs,
                                          std::span<const double> xt,
                                          Rng* rng) const {
  IMGRN_CHECK_EQ(xs.size(), xt.size());
  IMGRN_CHECK_GT(xs.size(), 1u);
  if (IsZeroVector(xs) || IsZeroVector(xt)) return 0.0;
  const double observed = SquaredEuclideanDistance(xs, xt);
  std::vector<uint32_t> perm;
  std::vector<double> permuted(xt.size());
  size_t hits = 0;
  for (size_t s = 0; s < num_samples_; ++s) {
    rng->Permutation(xt.size(), &perm);
    ApplyPermutation(xt, perm, permuted);
    if (SquaredEuclideanDistance(xs, permuted) > observed) {
      ++hits;
    }
  }
  return static_cast<double>(hits) / static_cast<double>(num_samples_);
}

double EdgeProbabilityEstimator::EstimateViaCorrelation(
    std::span<const double> xs, std::span<const double> xt, Rng* rng) const {
  IMGRN_CHECK_EQ(xs.size(), xt.size());
  IMGRN_CHECK_GT(xs.size(), 1u);
  const double observed = PearsonCorrelation(xs, xt);
  std::vector<uint32_t> perm;
  std::vector<double> permuted(xt.size());
  size_t hits = 0;
  for (size_t s = 0; s < num_samples_; ++s) {
    rng->Permutation(xt.size(), &perm);
    ApplyPermutation(xt, perm, permuted);
    if (observed > PearsonCorrelation(xs, permuted)) {
      ++hits;
    }
  }
  return static_cast<double>(hits) / static_cast<double>(num_samples_);
}

double EdgeProbabilityEstimator::EstimateViaAbsoluteCorrelation(
    std::span<const double> xs, std::span<const double> xt, Rng* rng) const {
  IMGRN_CHECK_EQ(xs.size(), xt.size());
  IMGRN_CHECK_GT(xs.size(), 1u);
  const double observed = AbsolutePearsonCorrelation(xs, xt);
  std::vector<uint32_t> perm;
  std::vector<double> permuted(xt.size());
  size_t hits = 0;
  for (size_t s = 0; s < num_samples_; ++s) {
    rng->Permutation(xt.size(), &perm);
    ApplyPermutation(xt, perm, permuted);
    if (observed > AbsolutePearsonCorrelation(xs, permuted)) {
      ++hits;
    }
  }
  return static_cast<double>(hits) / static_cast<double>(num_samples_);
}

double EdgeProbabilityEstimator::ExactByEnumeration(
    std::span<const double> xs, std::span<const double> xt) const {
  IMGRN_CHECK_EQ(xs.size(), xt.size());
  const size_t l = xs.size();
  IMGRN_CHECK_LE(l, 8u) << "exact enumeration is factorial; keep l <= 8";
  if (IsZeroVector(xs) || IsZeroVector(xt)) return 0.0;
  const double observed = SquaredEuclideanDistance(xs, xt);
  std::vector<uint32_t> perm(l);
  std::iota(perm.begin(), perm.end(), 0u);
  std::vector<double> permuted(l);
  size_t hits = 0;
  size_t total = 0;
  do {
    ApplyPermutation(xt, perm, permuted);
    if (SquaredEuclideanDistance(xs, permuted) > observed) {
      ++hits;
    }
    ++total;
  } while (std::next_permutation(perm.begin(), perm.end()));
  return static_cast<double>(hits) / static_cast<double>(total);
}

double SampledExpectedPermutedDistance(std::span<const double> x,
                                       std::span<const double> pivot,
                                       size_t num_samples, Rng* rng) {
  IMGRN_CHECK_EQ(x.size(), pivot.size());
  IMGRN_CHECK_GT(num_samples, 0u);
  std::vector<uint32_t> perm;
  std::vector<double> permuted(x.size());
  double sum = 0.0;
  for (size_t s = 0; s < num_samples; ++s) {
    rng->Permutation(x.size(), &perm);
    ApplyPermutation(x, perm, permuted);
    sum += EuclideanDistance(permuted, pivot);
  }
  return sum / static_cast<double>(num_samples);
}

}  // namespace imgrn
