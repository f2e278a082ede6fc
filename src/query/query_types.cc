#include "query/query_types.h"

#include <algorithm>
#include <string>

#include "inference/permutation_cache.h"

namespace imgrn {

Status ValidateQueryParams(const QueryParams& params,
                           const GeneMatrix* query_matrix) {
  // Written so that NaN, which fails every comparison, is rejected too.
  if (!(params.gamma >= 0.0 && params.gamma < 1.0)) {
    return Status::InvalidArgument("gamma must be in [0, 1)");
  }
  if (!(params.alpha >= 0.0 && params.alpha < 1.0)) {
    return Status::InvalidArgument("alpha must be in [0, 1)");
  }
  for (const size_t samples :
       {params.query_num_samples, params.refine_num_samples}) {
    if (samples == 0 || samples > kMaxPermutationSamples) {
      return Status::InvalidArgument(
          "query_num_samples and refine_num_samples must be in [1, " +
          std::to_string(kMaxPermutationSamples) + "]");
    }
  }
  if (query_matrix == nullptr) return Status::Ok();
  return ValidateGeneMatrix(*query_matrix, "query matrix");
}

Status ValidateQueryGraph(const ProbGraph& query_graph) {
  if (query_graph.num_vertices() == 0) {
    return Status::InvalidArgument("query graph has no vertices");
  }
  if (!query_graph.LabelsAreDistinct()) {
    return Status::InvalidArgument("query graph repeats a gene label");
  }
  return Status::Ok();
}

void FinalizeMatches(size_t top_k, std::vector<QueryMatch>* matches) {
  if (top_k == 0) return;
  std::sort(matches->begin(), matches->end(),
            [](const QueryMatch& a, const QueryMatch& b) {
              if (a.probability != b.probability) {
                return a.probability > b.probability;
              }
              return a.source < b.source;
            });
  if (matches->size() > top_k) {
    matches->resize(top_k);
  }
}

}  // namespace imgrn
