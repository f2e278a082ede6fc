#include "inference/grn_inference.h"

#include "common/logging.h"
#include "matrix/vector_ops.h"
#include "prob/markov_bound.h"

namespace imgrn {

namespace {

/// The pair loop behind both inference entry points: every gene pair, the
/// Lemma-3 skip, then a Monte Carlo count stopped as `stop` allows.
ProbGraph InferPairs(const GeneMatrix& matrix, double gamma,
                     const GrnInferenceOptions& options,
                     PermutationCache* cache, HitCountStop stop,
                     GrnInferenceStats* stats) {
  IMGRN_CHECK_GE(gamma, 0.0);
  IMGRN_CHECK_LT(gamma, 1.0);
  GeneMatrix standardized = matrix;
  standardized.StandardizeColumns();
  const size_t n = standardized.num_genes();
  const size_t l = standardized.num_samples();
  const size_t min_hits = MinHitsAbove(gamma, cache->num_samples());

  ProbGraph grn;
  for (size_t s = 0; s < n; ++s) {
    grn.AddVertex(standardized.gene_id(s));
  }
  GrnInferenceStats local_stats;
  for (size_t s = 0; s < n; ++s) {
    for (size_t t = s + 1; t < n; ++t) {
      ++local_stats.pairs_total;
      if (options.use_edge_pruning) {
        const double distance =
            EuclideanDistance(standardized.Column(s), standardized.Column(t));
        if (EdgeInferencePrune(distance, l, gamma)) {
          ++local_stats.pairs_pruned;
          continue;
        }
      }
      ++local_stats.pairs_estimated;
      const size_t hits =
          CountPermutedHits(standardized.Column(s), standardized.Column(t),
                            cache, min_hits, stop);
      const double p = static_cast<double>(hits) /
                       static_cast<double>(cache->num_samples());
      if (p > gamma) {
        grn.AddEdge(static_cast<VertexId>(s), static_cast<VertexId>(t), p);
        ++local_stats.edges_inferred;
      }
    }
  }
  if (stats != nullptr) {
    *stats = local_stats;
  }
  return grn;
}

}  // namespace

ProbGraph InferGrn(const GeneMatrix& matrix, double gamma,
                   const GrnInferenceOptions& options,
                   GrnInferenceStats* stats) {
  PermutationCache cache(options.num_samples, options.seed);
  return InferGrnWithCache(matrix, gamma, options, &cache, stats);
}

ProbGraph InferGrnWithCache(const GeneMatrix& matrix, double gamma,
                            const GrnInferenceOptions& options,
                            PermutationCache* cache,
                            GrnInferenceStats* stats) {
  return InferPairs(matrix, gamma, options, cache, HitCountStop::kNever,
                    stats);
}

ProbGraph InferGrnEdgeSet(const GeneMatrix& matrix, double gamma,
                          const GrnInferenceOptions& options,
                          PermutationCache* cache, GrnInferenceStats* stats) {
  return InferPairs(matrix, gamma, options, cache,
                    HitCountStop::kWhenDecided, stats);
}

}  // namespace imgrn
