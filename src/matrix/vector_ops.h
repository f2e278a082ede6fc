#ifndef IMGRN_MATRIX_VECTOR_OPS_H_
#define IMGRN_MATRIX_VECTOR_OPS_H_

#include <cstdint>
#include <span>
#include <vector>

namespace imgrn {

/// Statistics and vector kernels on gene feature vectors. These are the
/// primitives every higher layer (inference measures, embedding, pruning
/// bounds) is built on.
///
/// Numeric contract: every function here is plain scalar code with a fixed
/// serial accumulation order, compiled without FP contraction, so its
/// result is the same bits on every machine and under every kernel
/// backend. Nothing here dispatches; the one SIMD kernel, the batched
/// Monte Carlo distance of simd_ops.h, is bit-identical to its scalar
/// reference by construction.

/// Arithmetic mean of `values`. Requires a non-empty span.
double Mean(std::span<const double> values);

/// Population variance (divide by n). Requires a non-empty span.
double Variance(std::span<const double> values);

/// Population standard deviation.
double StdDev(std::span<const double> values);

/// Dot product of equally-sized vectors.
double Dot(std::span<const double> a, std::span<const double> b);

/// Squared L2 norm.
double SquaredNorm(std::span<const double> a);

/// Euclidean distance dist(a, b) = sqrt(sum_k (a[k]-b[k])^2)  (Table 1).
double EuclideanDistance(std::span<const double> a, std::span<const double> b);

/// Squared Euclidean distance (avoids the sqrt when only comparisons are
/// needed).
double SquaredEuclideanDistance(std::span<const double> a,
                                std::span<const double> b);

/// Pearson's correlation coefficient between `a` and `b` (signed), Eq. (2)
/// without the absolute value. Returns 0 when either vector is constant
/// (zero variance), which matches the convention used by relevance networks:
/// a constant gene carries no correlation signal.
double PearsonCorrelation(std::span<const double> a, std::span<const double> b);

/// Absolute Pearson's correlation coefficient r(X_s, X_t), Eq. (2).
double AbsolutePearsonCorrelation(std::span<const double> a,
                                  std::span<const double> b);

/// Standardizes `values` in place to mean 0 and *scaled* unit variance such
/// that ||values||^2 == values.size(). With this convention, Appendix B's
/// identity dist^2(X_s, X_t) = 2 l (1 - cor(X_s, X_t)) holds exactly, which
/// is what the Lemma-1 reduction and all pruning bounds rely on.
/// A constant vector standardizes to all zeros.
void StandardizeInPlace(std::span<double> values);

/// Returns a standardized copy.
std::vector<double> Standardized(std::span<const double> values);

/// Returns true if ||values||^2 ~= values.size() and mean(values) ~= 0, the
/// standardization invariant (used for cheap precondition checks).
bool IsStandardized(std::span<const double> values, double tolerance = 1e-6);

/// Applies permutation `perm` to `input`: output[k] = input[perm[k]]. This is
/// the "randomized vector" X^R of Definition 2 for a sampled permutation.
/// `input` and `output` must not overlap (checked): the loop reads input
/// positions out of order relative to its writes, so aliased spans would
/// silently corrupt the result.
void ApplyPermutation(std::span<const double> input,
                      std::span<const uint32_t> perm,
                      std::span<double> output);

/// Converts the Euclidean distance between standardized vectors back to the
/// signed Pearson correlation: cor = 1 - dist^2 / (2 l)  (Appendix B,
/// Eq. 11/12).
double CorrelationFromDistance(double distance, size_t length);

/// Converts a signed correlation to the Euclidean distance between
/// standardized vectors: dist = sqrt(2 l (1 - cor)).
double DistanceFromCorrelation(double correlation, size_t length);

}  // namespace imgrn

#endif  // IMGRN_MATRIX_VECTOR_OPS_H_
