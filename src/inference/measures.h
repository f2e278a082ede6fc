#ifndef IMGRN_INFERENCE_MEASURES_H_
#define IMGRN_INFERENCE_MEASURES_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "matrix/dense_matrix.h"
#include "matrix/gene_matrix.h"

namespace imgrn {

/// Pairwise gene-interaction scoring measures compared in the paper's
/// Section 6.2 / Appendices G-H.
enum class InferenceMeasure {
  /// The paper's contribution (Definition 2): the probability that the
  /// observed correlation beats the correlation of a randomized vector,
  /// estimated by Monte Carlo in the reduced Euclidean space (Lemma 1).
  kImGrn,
  /// Relevance networks [4]: absolute Pearson correlation (Eq. 2).
  kCorrelation,
  /// Partial correlation (Appendix H): -prec_ij / sqrt(prec_ii prec_jj)
  /// from the (ridge-regularized) precision matrix, in absolute value.
  kPartialCorrelation,
  /// Binned mutual information (relevance networks by MI [3] / ARACNE
  /// [23]) — the other scoring-based family of Section 2.2.
  kMutualInformation,
  /// The Section-2.2 future-work extension implemented here: the paper's
  /// randomization idea applied to mutual information,
  ///   Pr{ MI(X_s, X_t) > MI(X_s, X_t^R) },
  /// estimated over random permutations X_t^R.
  kImGrnMutualInformation,
};

const char* InferenceMeasureName(InferenceMeasure measure);

/// Knobs for score computation.
struct ScoreOptions {
  /// Monte Carlo permutations per pair for kImGrn (shared across pairs via
  /// PermutationCache).
  size_t num_samples = 128;

  /// Ridge added to the covariance diagonal before inversion for
  /// kPartialCorrelation; required when l_i <= n_i.
  double ridge = 1e-3;

  /// Seed for the permutation draws.
  uint64_t seed = 42;
};

/// Computes the symmetric n x n score matrix of `measure` over the columns
/// of `matrix` (diagonal is 0). Scores are comparable across pairs and
/// monotone in inferred interaction strength, which is all the ROC sweep
/// needs. The matrix is standardized internally if it is not already.
/// kImGrn scores with the literal Eq.-(1) absolute-correlation measure
/// (Definition 2; the matching pipeline's pruning bounds use the one-sided
/// Lemma-1 form instead), and the mutual-information measures bin by the
/// sqrt rule (DefaultMutualInformationBins).
///
/// kPartialCorrelation returns FailedPrecondition if the regularized
/// covariance cannot be inverted.
Result<DenseMatrix> ComputeScoreMatrix(const GeneMatrix& matrix,
                                       InferenceMeasure measure,
                                       const ScoreOptions& options = {});

}  // namespace imgrn

#endif  // IMGRN_INFERENCE_MEASURES_H_
