#include "inference/measures.h"

#include <cmath>

#include "common/logging.h"
#include "inference/mutual_information.h"
#include "inference/permutation_cache.h"
#include "matrix/linalg.h"
#include "matrix/vector_ops.h"

namespace imgrn {

const char* InferenceMeasureName(InferenceMeasure measure) {
  switch (measure) {
    case InferenceMeasure::kImGrn:
      return "IM-GRN";
    case InferenceMeasure::kCorrelation:
      return "Correlation";
    case InferenceMeasure::kPartialCorrelation:
      return "pCorr";
    case InferenceMeasure::kMutualInformation:
      return "MI";
    case InferenceMeasure::kImGrnMutualInformation:
      return "IM-GRN(MI)";
  }
  return "?";
}

namespace {

// Pearson correlation of every gene pair, zero on the diagonal: Dot / l
// over columns standardized once (||x||^2 == l, so the sample covariance
// of standardized columns is the correlation).
DenseMatrix CorrelationMatrix(const GeneMatrix& matrix) {
  const size_t n = matrix.num_genes();
  const size_t l = matrix.num_samples();
  GeneMatrix standardized = matrix;
  standardized.StandardizeColumns();
  DenseMatrix cor(n, n);
  for (size_t s = 0; s < n; ++s) {
    for (size_t t = s + 1; t < n; ++t) {
      const double c = Dot(standardized.Column(s), standardized.Column(t)) /
                       static_cast<double>(l);
      cor.At(s, t) = c;
      cor.At(t, s) = c;
    }
  }
  return cor;
}

DenseMatrix CorrelationScores(const GeneMatrix& matrix) {
  // |r(X_s, X_t)| of Eq. (2). Rounding can lift a collinear pair's |Dot| / l
  // just above 1, so clamp as PearsonCorrelation does; a NaN column's NaN
  // fails the comparison and passes through, also as it does there.
  DenseMatrix scores = CorrelationMatrix(matrix);
  for (size_t s = 0; s < scores.rows(); ++s) {
    for (size_t t = 0; t < scores.cols(); ++t) {
      double score = std::fabs(scores.At(s, t));
      if (score > 1.0) score = 1.0;
      scores.At(s, t) = score;
    }
  }
  return scores;
}

DenseMatrix ImGrnScores(const GeneMatrix& matrix, const ScoreOptions& options) {
  const size_t n = matrix.num_genes();
  GeneMatrix standardized = matrix;
  standardized.StandardizeColumns();
  PermutationCache cache(options.num_samples, options.seed);
  DenseMatrix scores(n, n);
  for (size_t s = 0; s < n; ++s) {
    for (size_t t = s + 1; t < n; ++t) {
      const double p =
          options.absolute_correlation
              ? EstimateEdgeProbabilityAbsoluteCached(
                    standardized.Column(s), standardized.Column(t), &cache)
              : EstimateEdgeProbabilityCached(standardized.Column(s),
                                              standardized.Column(t), &cache);
      scores.At(s, t) = p;
      scores.At(t, s) = p;
    }
  }
  return scores;
}

Result<DenseMatrix> PartialCorrelationScores(const GeneMatrix& matrix,
                                             const ScoreOptions& options) {
  const size_t n = matrix.num_genes();
  DenseMatrix cov = CorrelationMatrix(matrix);
  for (size_t s = 0; s < n; ++s) cov.At(s, s) = 1.0 + options.ridge;
  Result<DenseMatrix> precision = InvertMatrix(cov);
  if (!precision.ok()) return precision.status();
  DenseMatrix scores(n, n);
  for (size_t s = 0; s < n; ++s) {
    for (size_t t = s + 1; t < n; ++t) {
      const double denom =
          std::sqrt(precision->At(s, s) * precision->At(t, t));
      const double pcorr =
          denom > 0 ? -precision->At(s, t) / denom : 0.0;
      const double score = std::fabs(pcorr);
      scores.At(s, t) = score;
      scores.At(t, s) = score;
    }
  }
  return scores;
}

size_t MiBins(const GeneMatrix& matrix, const ScoreOptions& options) {
  return options.mi_bins > 0
             ? options.mi_bins
             : DefaultMutualInformationBins(matrix.num_samples());
}

DenseMatrix MutualInformationScores(const GeneMatrix& matrix,
                                    const ScoreOptions& options) {
  const size_t n = matrix.num_genes();
  const size_t bins = MiBins(matrix, options);
  DenseMatrix scores(n, n);
  for (size_t s = 0; s < n; ++s) {
    for (size_t t = s + 1; t < n; ++t) {
      const double mi =
          MutualInformation(matrix.Column(s), matrix.Column(t), bins);
      // Squash to [0, 1) so the common threshold sweep applies; monotone,
      // so the ROC is unchanged.
      const double score = 1.0 - std::exp(-2.0 * mi);
      scores.At(s, t) = score;
      scores.At(t, s) = score;
    }
  }
  return scores;
}

DenseMatrix ImGrnMutualInformationScores(const GeneMatrix& matrix,
                                         const ScoreOptions& options) {
  // The randomized-vector idea of Definition 2 applied to MI:
  // Pr{ MI(X_s, X_t) > MI(X_s, X_t^R) } over random permutations.
  const size_t n = matrix.num_genes();
  const size_t bins = MiBins(matrix, options);
  const size_t l = matrix.num_samples();
  PermutationCache cache(options.num_samples, options.seed);
  const PermutationBlocks& blocks = cache.BlocksForLength(l);
  DenseMatrix scores(n, n);
  std::vector<double> permuted(l);
  for (size_t s = 0; s < n; ++s) {
    for (size_t t = s + 1; t < n; ++t) {
      const std::span<const double> column_t = matrix.Column(t);
      const double observed =
          MutualInformation(matrix.Column(s), column_t, bins);
      size_t hits = 0;
      // The samples in draw order: block k, lane b is sample 8k + b.
      for (size_t k = 0; k < blocks.num_blocks(); ++k) {
        const uint32_t* block = blocks.block(k);
        const size_t width = blocks.block_width(k);
        for (size_t b = 0; b < width; ++b) {
          for (size_t i = 0; i < l; ++i) {
            permuted[i] = column_t[block[i * width + b]];
          }
          if (observed > MutualInformation(matrix.Column(s), permuted, bins)) {
            ++hits;
          }
        }
      }
      const double p = static_cast<double>(hits) /
                       static_cast<double>(blocks.num_samples());
      scores.At(s, t) = p;
      scores.At(t, s) = p;
    }
  }
  return scores;
}

}  // namespace

Result<DenseMatrix> ComputeScoreMatrix(const GeneMatrix& matrix,
                                       InferenceMeasure measure,
                                       const ScoreOptions& options) {
  if (matrix.num_genes() < 2) {
    return Status::InvalidArgument("need at least two genes to score pairs");
  }
  switch (measure) {
    case InferenceMeasure::kCorrelation:
      return CorrelationScores(matrix);
    case InferenceMeasure::kImGrn:
      return ImGrnScores(matrix, options);
    case InferenceMeasure::kPartialCorrelation:
      return PartialCorrelationScores(matrix, options);
    case InferenceMeasure::kMutualInformation:
      return MutualInformationScores(matrix, options);
    case InferenceMeasure::kImGrnMutualInformation:
      return ImGrnMutualInformationScores(matrix, options);
  }
  return Status::Internal("unknown measure");
}

}  // namespace imgrn
