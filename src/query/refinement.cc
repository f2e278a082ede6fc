#include "query/refinement.h"

#include <algorithm>
#include <unordered_map>

#include "common/logging.h"
#include "graph/appearance.h"
#include "graph/subgraph_iso.h"
#include "matrix/vector_ops.h"
#include "prob/markov_bound.h"

namespace imgrn {

bool RefineMatrix(const ImGrnIndex& index, SourceId source,
                  const ProbGraph& query, const QueryParams& params,
                  PermutationCache* cache, QueryMatch* match,
                  QueryStats* stats) {
  const GeneMatrix& matrix = index.database().matrix(source);
  IMGRN_CHECK(matrix.is_standardized());
  const size_t l = matrix.num_samples();

  // Stage 1: every query gene must be present. (Gene labels are unique per
  // matrix, so the label-constrained embedding is forced; the VF2 run below
  // stays correct even if that assumption is ever relaxed.)
  std::vector<int> column_of(query.num_vertices());
  for (VertexId q = 0; q < query.num_vertices(); ++q) {
    column_of[q] = matrix.ColumnOfGene(query.label(q));
    if (column_of[q] < 0) {
      return false;
    }
  }

  // Stage 2: cheap per-edge upper bounds (Lemma 4 Markov + pivot bound),
  // Lemma-3 and Lemma-5 pruning.
  if (params.use_edge_pruning || params.use_graph_pruning) {
    double product_ub = 1.0;
    for (const ProbEdge& qe : query.edges()) {
      const size_t ca = static_cast<size_t>(column_of[qe.u]);
      const size_t cb = static_cast<size_t>(column_of[qe.v]);
      const double distance =
          EuclideanDistance(matrix.Column(ca), matrix.Column(cb));
      double ub = MarkovUpperBoundClosedForm(distance, l);
      if (params.use_pivot_pruning) {
        const EmbeddedPoint& pa = index.embedded_point(
            RecordRef{source, static_cast<uint32_t>(ca)});
        const EmbeddedPoint& pb = index.embedded_point(
            RecordRef{source, static_cast<uint32_t>(cb)});
        ub = std::min(ub, PivotUpperBound(pa, pb));
        ub = std::min(ub, PivotUpperBound(pb, pa));
      }
      if (params.use_edge_pruning && ub <= params.gamma) {
        return false;  // Lemma 3: this required edge cannot exist.
      }
      product_ub *= ub;
    }
    if (params.use_graph_pruning &&
        GraphExistencePrune(product_ub, params.alpha)) {
      if (stats != nullptr) ++stats->matrices_pruned_graph;
      return false;  // Lemma 5.
    }
  }

  // Stage 3: exact verification. Build the candidate subgraph over the
  // query's gene labels with Monte Carlo edge probabilities, keeping only
  // edges with p > gamma (Definition 2).
  ProbGraph candidate;
  for (VertexId q = 0; q < query.num_vertices(); ++q) {
    candidate.AddVertex(query.label(q));
  }
  for (const ProbEdge& qe : query.edges()) {
    const size_t ca = static_cast<size_t>(column_of[qe.u]);
    const size_t cb = static_cast<size_t>(column_of[qe.v]);
    const double p = EstimateEdgeProbabilityCached(matrix.Column(ca),
                                                   matrix.Column(cb), cache);
    if (p > params.gamma) {
      candidate.AddEdge(qe.u, qe.v, p);
    }
  }

  // Labeled subgraph isomorphism + Eq. 3 appearance probability > alpha.
  SubgraphIsoOptions iso_options;
  iso_options.match_labels = true;
  SubgraphIsomorphism iso(query, candidate, iso_options);
  double best_probability = -1.0;
  Embedding best_embedding;
  iso.Enumerate([&](const Embedding& embedding) {
    const double p = AppearanceProbability(query, candidate, embedding);
    if (p > best_probability) {
      best_probability = p;
      best_embedding = embedding;
    }
    return true;
  });
  if (best_probability <= params.alpha) {
    return false;
  }

  if (match != nullptr) {
    match->source = source;
    match->probability = best_probability;
    match->mapping.clear();
    for (VertexId q = 0; q < query.num_vertices(); ++q) {
      // best_embedding maps into `candidate`, whose vertex order mirrors the
      // query; translate back to matrix columns.
      const VertexId cand_vertex = best_embedding[q];
      match->mapping.emplace_back(
          query.label(q),
          static_cast<uint32_t>(column_of[cand_vertex]));
    }
  }
  return true;
}

}  // namespace imgrn
