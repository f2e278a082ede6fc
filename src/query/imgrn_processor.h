#ifndef IMGRN_QUERY_IMGRN_PROCESSOR_H_
#define IMGRN_QUERY_IMGRN_PROCESSOR_H_

#include <vector>

#include "graph/prob_graph.h"
#include "index/imgrn_index.h"
#include "inference/permutation_cache.h"
#include "query/query_control.h"
#include "query/query_types.h"

namespace imgrn {

/// The IM-GRN query processor — algorithm IM-GRN_Processing of Fig. 4:
///
///  1. infer the query GRN Q from M_Q (edge-inference pruning + Monte
///     Carlo, threshold gamma): the exact edge set, each pair's count
///     stopped once its decision is fixed (InferQueryGraph below);
///  2. anchor on the highest-degree query gene g_s and its neighbor set
///     NS(g_s); build the query-side bit vectors qV_f / qV_d (the latter via
///     the inverted file IF);
///  3. traverse the R*-tree with a priority queue of node pairs keyed by
///     level (depth-first), pruning pairs by gene-ID signatures, data-source
///     signatures, and Lemma 6 (the signature tests read one side of a
///     pair each, so each node's children are filtered once and Lemma 6
///     sees only the survivors' cross product); at the leaves, prune
///     candidate gene pairs by the pivot condition (Sec. 4.2) and Lemma 3;
///  4. refine the surviving candidate matrices (Lemma 5, then Monte Carlo
///     edge probabilities on the one label-preserving embedding, weakest
///     edge first, stopping once the matrix is decided; Eq. 3 vs alpha —
///     see refinement.h).
///
/// The processor borrows the index (and, through it, the database) and the
/// permutation table; all must outlive it. With a null table every query
/// draws its permutations privately; the answers are the same.
class ImGrnQueryProcessor {
 public:
  explicit ImGrnQueryProcessor(const ImGrnIndex* index,
                               PermutationTable* table = nullptr);

  /// Full pipeline: infers Q from the query gene feature matrix, then
  /// matches. Returns InvalidArgument when ValidateQueryParams rejects the
  /// parameters or the query matrix (query/query_types.h).
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
  /// reuse one Q across competitor methods, and by tests). Returns
  /// InvalidArgument when ValidateQueryParams rejects the parameters or
  /// ValidateQueryGraph the graph: it is empty or repeats a gene label.
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
  PermutationTable* table_;  // May be null.
};

/// Step 1 of the pipeline: infers the query GRN of `query_matrix` with
/// the params' inference sample count and seed, drawing its permutations
/// from `table` (null: privately). Every engine infers through this, so
/// the fanned-out shards of a sharded query match against the graph a
/// single engine would infer.
///
/// The edge set equals InferGrn's at the same gamma, sample count and
/// seed, but the edges' probabilities are InferGrnEdgeSet's: h / S where
/// the count stopped, > gamma and <= the full estimate. Nothing reads
/// them — Eq. 3 multiplies the candidate matrix's probabilities, never
/// the query's — so use InferGrn where the probabilities themselves
/// matter.
ProbGraph InferQueryGraph(const GeneMatrix& query_matrix,
                          const QueryParams& params, PermutationTable* table);

}  // namespace imgrn

#endif  // IMGRN_QUERY_IMGRN_PROCESSOR_H_
