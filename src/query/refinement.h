#ifndef IMGRN_QUERY_REFINEMENT_H_
#define IMGRN_QUERY_REFINEMENT_H_

#include "graph/prob_graph.h"
#include "index/imgrn_index.h"
#include "inference/permutation_cache.h"
#include "query/query_types.h"

namespace imgrn {

/// The refinement step shared by the IM-GRN query processor (Fig. 4 lines
/// 28-30) and the LinearScan ablation: decides whether candidate matrix
/// `source` is an IM-GRN answer for `query`.
///
/// `query` must not repeat a gene label (ValidateQueryGraph). Labels are
/// then unique on both sides, so a matrix holding every query gene embeds
/// the query one way only — query vertex q onto the column of its gene —
/// and no subgraph-isomorphism search runs.
///
/// Stages, in order:
///  1. label feasibility — every query gene must appear in the matrix;
///  2. cheap upper bounds per query edge — the Lemma-4 Markov closed form
///     and (optionally) the Section-4.2 pivot bound; Lemma-3 kills the
///     matrix when any required edge's bound is <= gamma, Lemma-5 when the
///     bound product is <= alpha;
///  3. exact verification on the forced embedding — a Monte Carlo estimate
///     per query edge, weakest correlation (largest observed distance)
///     first. An edge's count stops once it can no longer exceed gamma,
///     and the first edge with p <= gamma rejects the matrix (Definition
///     2). The running product rejects it once it is certainly <= alpha,
///     with a margin for the rounding of a product taken out of query
///     order. A survivor's Eq.-3 appearance probability is the product of
///     its estimates in query-edge order, tested against alpha; that and
///     the accept/reject outcome are exactly what full estimates of every
///     edge would give.
///
/// Returns true and fills `match` when the matrix is an answer. `stats` may
/// be null; only stage 2's Lemma-5 prunes are counted. `cache` supplies
/// permutations for the exact stage.
bool RefineMatrix(const ImGrnIndex& index, SourceId source,
                  const ProbGraph& query, const QueryParams& params,
                  PermutationCache* cache, QueryMatch* match,
                  QueryStats* stats);

}  // namespace imgrn

#endif  // IMGRN_QUERY_REFINEMENT_H_
