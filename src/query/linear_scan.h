#ifndef IMGRN_QUERY_LINEAR_SCAN_H_
#define IMGRN_QUERY_LINEAR_SCAN_H_

#include <vector>

#include "graph/prob_graph.h"
#include "index/imgrn_index.h"
#include "query/query_types.h"

namespace imgrn {

/// The linear-scan method of Section 4.1's motivation: apply the Section-3
/// pruning (Markov / pivot / graph-existence) and refinement to EVERY
/// matrix, with no index traversal. Sits between Baseline (no pruning, full
/// materialization) and the full IM-GRN processor (index + pruning); the
/// ablation bench uses it to isolate how much the R*-tree traversal buys on
/// top of the pair-level pruning.
///
/// Reuses the ImGrnIndex for its per-matrix embeddings and pivots (but not
/// its R*-tree), so its pruning is bit-for-bit the refinement stage of the
/// full processor.
class LinearScanProcessor {
 public:
  explicit LinearScanProcessor(const ImGrnIndex* index);

  /// `query_graph` must not repeat a gene label (CHECKed; see
  /// ValidateQueryGraph).
  std::vector<QueryMatch> QueryWithGraph(const ProbGraph& query_graph,
                                         const QueryParams& params,
                                         QueryStats* stats = nullptr) const;

 private:
  const ImGrnIndex* index_;
};

}  // namespace imgrn

#endif  // IMGRN_QUERY_LINEAR_SCAN_H_
