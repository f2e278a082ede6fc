#include "query/linear_scan.h"

#include "common/logging.h"
#include "common/stopwatch.h"
#include "inference/permutation_cache.h"
#include "query/refinement.h"

namespace imgrn {

LinearScanProcessor::LinearScanProcessor(const ImGrnIndex* index)
    : index_(index) {
  IMGRN_CHECK(index != nullptr);
  IMGRN_CHECK(index->is_built());
}

std::vector<QueryMatch> LinearScanProcessor::QueryWithGraph(
    const ProbGraph& query_graph, const QueryParams& params,
    QueryStats* stats) const {
  IMGRN_CHECK(query_graph.LabelsAreDistinct())
      << "query graph repeats a gene label";
  Stopwatch timer;
  QueryStats local_stats;
  local_stats.query_vertices = query_graph.num_vertices();
  local_stats.query_edges = query_graph.num_edges();

  PermutationCache cache(params.refine_num_samples, params.seed ^ 0x5EEDu);
  std::vector<QueryMatch> matches;
  const GeneDatabase& database = index_->database();
  local_stats.candidate_matrices = index_->num_active();
  for (SourceId i = 0; i < database.size(); ++i) {
    if (!index_->IsActive(i)) continue;
    QueryMatch match;
    if (RefineMatrix(*index_, i, query_graph, params, &cache, &match,
                     &local_stats)) {
      matches.push_back(std::move(match));
    }
  }
  FinalizeMatches(params.top_k, &matches);
  local_stats.answers = matches.size();
  local_stats.total_seconds = timer.ElapsedSeconds();
  local_stats.refinement_seconds = local_stats.total_seconds;
  if (stats != nullptr) *stats = local_stats;
  return matches;
}

}  // namespace imgrn
