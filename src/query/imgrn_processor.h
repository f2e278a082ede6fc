#ifndef IMGRN_QUERY_IMGRN_PROCESSOR_H_
#define IMGRN_QUERY_IMGRN_PROCESSOR_H_

#include <vector>

#include "graph/prob_graph.h"
#include "index/imgrn_index.h"
#include "query/query_control.h"
#include "query/query_types.h"

namespace imgrn {

/// The IM-GRN query processor — algorithm IM-GRN_Processing of Fig. 4:
///
///  1. infer the exact query GRN Q from M_Q (edge-inference pruning +
///     Monte Carlo, threshold gamma);
///  2. anchor on the highest-degree query gene g_s and its neighbor set
///     NS(g_s); build the query-side bit vectors qV_f / qV_d (the latter via
///     the inverted file IF);
///  3. traverse the R*-tree with a priority queue of node pairs keyed by
///     level (depth-first), pruning pairs by gene-ID signatures, data-source
///     signatures, and Lemma 6 (the signature tests read one side of a
///     pair each, so each node's children are filtered once and Lemma 6
///     sees only the survivors' cross product); at the leaves, prune
///     candidate gene pairs by the pivot condition (Sec. 4.2) and Lemma 3;
///  4. refine the surviving candidate matrices (Lemma 5, exact Monte Carlo
///     probabilities, labeled subgraph isomorphism, Eq. 3 vs alpha).
///
/// The processor borrows the index (and, through it, the database); both
/// must outlive it.
class ImGrnQueryProcessor {
 public:
  explicit ImGrnQueryProcessor(const ImGrnIndex* index);

  /// Full pipeline: infers Q from the query gene feature matrix, then
  /// matches. Returns InvalidArgument for out-of-range gamma/alpha.
  ///
  /// `control`, when non-null, is polled at the pipeline checkpoints
  /// (before inference, per R*-tree pair pop, per refined matrix); an
  /// expired deadline or a cancel request unwinds the query with
  /// DeadlineExceeded / Cancelled instead of a result.
  Result<std::vector<QueryMatch>> Query(
      const GeneMatrix& query_matrix, const QueryParams& params,
      QueryStats* stats = nullptr, const QueryControl* control = nullptr)
      const;

  /// Matching against an already-inferred query graph (used by benches that
  /// reuse one Q across competitor methods, and by tests).
  Result<std::vector<QueryMatch>> QueryWithGraph(
      const ProbGraph& query_graph, const QueryParams& params,
      QueryStats* stats = nullptr, const QueryControl* control = nullptr)
      const;

 private:
  struct TraversalContext;

  /// Returns non-OK when `control` stopped the traversal mid-way.
  Status TraverseIndex(const ProbGraph& query, const QueryParams& params,
                       const QueryControl* control, TraversalContext* ctx,
                       QueryStats* stats) const;

  /// Edgeless queries match any matrix containing all query genes
  /// (Pr{G} = 1, the empty product of Eq. 3).
  std::vector<QueryMatch> MatchEdgeless(const ProbGraph& query) const;

  const ImGrnIndex* index_;
};

}  // namespace imgrn

#endif  // IMGRN_QUERY_IMGRN_PROCESSOR_H_
