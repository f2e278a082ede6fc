#ifndef IMGRN_INFERENCE_GRN_INFERENCE_H_
#define IMGRN_INFERENCE_GRN_INFERENCE_H_

#include <cstdint>

#include "graph/prob_graph.h"
#include "inference/permutation_cache.h"
#include "matrix/gene_matrix.h"

namespace imgrn {

/// Options for full-GRN inference from one gene feature matrix.
struct GrnInferenceOptions {
  /// Monte Carlo permutations per pair.
  size_t num_samples = 128;

  /// Apply Lemma-3 edge-inference pruning (skip the Monte Carlo estimate
  /// when the Markov closed form already certifies e.p <= gamma).
  bool use_edge_pruning = true;

  uint64_t seed = 42;
};

/// Statistics of one inference run.
struct GrnInferenceStats {
  size_t pairs_total = 0;
  size_t pairs_pruned = 0;     // Skipped by Lemma 3.
  size_t pairs_estimated = 0;  // Monte Carlo runs performed.
  size_t edges_inferred = 0;
};

/// Infers the probabilistic GRN G_i of `matrix` at inference threshold
/// `gamma` (Definitions 2-3): vertices are the matrix's genes (labels =
/// gene ids); an edge (s, t) exists iff the estimated e_{s,t}.p > gamma,
/// and carries that probability. `matrix` is standardized internally if
/// needed. `stats` may be null.
///
/// This is the "materialize one GRN" primitive: the IM-GRN query pipeline
/// deliberately avoids calling it on database matrices (that is the whole
/// point of the index), and infers the query matrix M_Q with its
/// decision-only form InferGrnEdgeSet below. Baseline, `imgrn infer` and
/// the ROC benches use it for its exact probabilities.
ProbGraph InferGrn(const GeneMatrix& matrix, double gamma,
                   const GrnInferenceOptions& options = {},
                   GrnInferenceStats* stats = nullptr);

/// Same, reusing an external PermutationCache (saves regenerating
/// permutations when inferring many matrices of equal sample counts).
ProbGraph InferGrnWithCache(const GeneMatrix& matrix, double gamma,
                            const GrnInferenceOptions& options,
                            PermutationCache* cache,
                            GrnInferenceStats* stats = nullptr);

/// The same edge set as InferGrnWithCache over the same permutations, but
/// each pair's Monte Carlo count stops at the first block boundary where
/// the decision p > gamma is fixed (HitCountStop::kWhenDecided). An edge
/// carries h / S at that point: a lower bound on its full estimate that
/// still exceeds gamma. For callers that read only the topology — the
/// IM-GRN query graph, whose probabilities no answer depends on. `stats`
/// counts as InferGrnWithCache's would.
ProbGraph InferGrnEdgeSet(const GeneMatrix& matrix, double gamma,
                          const GrnInferenceOptions& options,
                          PermutationCache* cache,
                          GrnInferenceStats* stats = nullptr);

}  // namespace imgrn

#endif  // IMGRN_INFERENCE_GRN_INFERENCE_H_
