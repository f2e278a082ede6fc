#include "query/refinement.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "common/logging.h"
#include "graph/appearance.h"
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

  // Stage 1: every query gene must be present. Gene labels are unique per
  // matrix and per query graph (ValidateQueryGraph), so the only
  // label-preserving embedding maps query vertex q to column_of[q].
  std::vector<int> column_of(query.num_vertices());
  for (VertexId q = 0; q < query.num_vertices(); ++q) {
    column_of[q] = matrix.ColumnOfGene(query.label(q));
    if (column_of[q] < 0) {
      return false;
    }
  }
  const std::vector<ProbEdge>& edges = query.edges();
  const size_t m = edges.size();
  auto column_pair = [&](const ProbEdge& qe) {
    return std::pair{matrix.Column(static_cast<size_t>(column_of[qe.u])),
                     matrix.Column(static_cast<size_t>(column_of[qe.v]))};
  };
  std::vector<double> distance(m);
  for (size_t e = 0; e < m; ++e) {
    const auto [xa, xb] = column_pair(edges[e]);
    distance[e] = EuclideanDistance(xa, xb);
  }

  // Stage 2: cheap per-edge upper bounds (Lemma 4 Markov + pivot bound),
  // Lemma-3 and Lemma-5 pruning.
  if (params.use_edge_pruning || params.use_graph_pruning) {
    double product_ub = 1.0;
    for (size_t e = 0; e < m; ++e) {
      double ub = MarkovUpperBoundClosedForm(distance[e], l);
      if (params.use_pivot_pruning) {
        const EmbeddedPoint& pa = index.embedded_point(
            RecordRef{source, static_cast<uint32_t>(column_of[edges[e].u])});
        const EmbeddedPoint& pb = index.embedded_point(
            RecordRef{source, static_cast<uint32_t>(column_of[edges[e].v])});
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

  // Stage 3: Monte Carlo edge probabilities on the forced embedding. The
  // weakest correlation (largest observed distance) goes first, ties by
  // edge index, since it is the likeliest to decide the matrix early.
  std::vector<size_t> order(m);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return distance[a] != distance[b] ? distance[a] > distance[b] : a < b;
  });
  const size_t num_samples = cache->num_samples();
  const size_t min_hits = MinHitsAbove(params.gamma, num_samples);
  // The product stop rejects the matrix once the running product is a
  // normal double <= alpha·(1 - 4m·2^-53). It never rejects an answer:
  // every estimate lies in (gamma, 1] and rounding is monotone, so the
  // reported query-order product of all m factors is at most the
  // query-order product of the k factors taken so far. That and the running
  // product multiply the same k factors, each step off by at most 2^-53
  // relative (2·2^-53 just below the normal range, the lowest values a
  // normal running product leaves within reach). So the reported product is
  // below the running product times 1 + 3m·2^-53, hence below alpha. With
  // alpha 0 or subnormal the bound lies below the normal range, and the
  // stop never fires.
  const double product_stop =
      params.alpha * (1.0 - 4.0 * static_cast<double>(m) * 0x1p-53);
  std::vector<double> probability(m);
  double running = 1.0;
  for (size_t e : order) {
    const auto [xa, xb] = column_pair(edges[e]);
    const size_t hits = CountPermutedHits(xa, xb, cache, min_hits,
                                          HitCountStop::kWhenUnreachable);
    probability[e] =
        static_cast<double>(hits) / static_cast<double>(num_samples);
    if (probability[e] <= params.gamma) {
      return false;  // Definition 2: a required edge is absent.
    }
    running *= probability[e];
    if (running >= std::numeric_limits<double>::min() &&
        running <= product_stop) {
      return false;
    }
  }

  // Eq. 3: Pr{G} is the product in query-edge order, against alpha.
  double appearance = 1.0;
  for (double p : probability) appearance *= p;
  if (appearance <= params.alpha) {
    return false;
  }

  if (match != nullptr) {
    match->source = source;
    match->probability = appearance;
    match->mapping.clear();
    for (VertexId q = 0; q < query.num_vertices(); ++q) {
      match->mapping.emplace_back(query.label(q),
                                  static_cast<uint32_t>(column_of[q]));
    }
  }
  return true;
}

}  // namespace imgrn
