#ifndef IMGRN_DATAGEN_QUERY_GEN_H_
#define IMGRN_DATAGEN_QUERY_GEN_H_

#include <cstddef>

#include "common/random.h"
#include "common/status.h"
#include "matrix/gene_matrix.h"

namespace imgrn {

/// How the paper builds query workloads (Section 6.1): pick a random matrix
/// M_i from the database and extract n_Q gene feature columns such that the
/// query GRN Q inferred from them (at threshold gamma) is connected.
struct QueryGenConfig {
  /// n_Q: number of query genes (Table 2 default 5).
  size_t num_genes = 5;

  /// Inference threshold the extracted query must be connected under, in
  /// [0, 1).
  double gamma = 0.5;

  /// Monte Carlo permutations for the connectivity probes, in
  /// [1, kMaxPermutationSamples].
  size_t num_samples = 64;

  /// Matrices tried before giving up.
  size_t max_attempts = 64;
};

/// Extracts one query matrix M_Q, drawing only from `rng`. Grows a
/// connected gene set greedily: start from a random column and repeatedly
/// add a column whose edge probability to some member exceeds gamma
/// (Markov-prescreened). Returns NotFound when no connected n_Q-gene set is
/// found within max_attempts matrices. Returns InvalidArgument, before any
/// draw from `rng`, for an empty database, n_Q = 0, a gamma outside
/// [0, 1) or NaN, or a num_samples outside [1, kMaxPermutationSamples].
Result<GeneMatrix> ExtractQueryMatrix(const GeneDatabase& database,
                                      const QueryGenConfig& config, Rng* rng);

}  // namespace imgrn

#endif  // IMGRN_DATAGEN_QUERY_GEN_H_
