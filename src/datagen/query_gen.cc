#include "datagen/query_gen.h"

#include <algorithm>
#include <numeric>
#include <string>

#include "inference/permutation_cache.h"
#include "matrix/vector_ops.h"
#include "prob/markov_bound.h"

namespace imgrn {

Result<GeneMatrix> ExtractQueryMatrix(const GeneDatabase& database,
                                      const QueryGenConfig& config, Rng* rng) {
  if (database.empty()) {
    return Status::InvalidArgument("empty database");
  }
  if (config.num_genes == 0) {
    return Status::InvalidArgument("a query needs at least one gene");
  }
  // Written so that NaN fails it too.
  if (!(config.gamma >= 0.0 && config.gamma < 1.0)) {
    return Status::InvalidArgument("gamma=" + std::to_string(config.gamma) +
                                   " must be in [0, 1)");
  }
  if (config.num_samples == 0 ||
      config.num_samples > kMaxPermutationSamples) {
    return Status::InvalidArgument(
        "num_samples=" + std::to_string(config.num_samples) +
        " must be in [1, " + std::to_string(kMaxPermutationSamples) + "]");
  }
  PermutationCache cache(config.num_samples, rng->NextUint64());

  for (size_t attempt = 0; attempt < config.max_attempts; ++attempt) {
    const SourceId source =
        static_cast<SourceId>(rng->UniformUint64(database.size()));
    GeneMatrix matrix = database.matrix(source);
    matrix.StandardizeColumns();
    const size_t n = matrix.num_genes();
    if (n < config.num_genes) continue;

    std::vector<size_t> selected = {
        static_cast<size_t>(rng->UniformUint64(n))};
    std::vector<bool> in_set(n, false);
    in_set[selected[0]] = true;

    // Greedy connected growth: candidates in random order, accepted on the
    // first member they connect to with p > gamma.
    std::vector<size_t> candidates(n);
    std::iota(candidates.begin(), candidates.end(), 0u);
    rng->Shuffle(&candidates);
    bool stuck = false;
    while (selected.size() < config.num_genes && !stuck) {
      stuck = true;
      for (size_t candidate : candidates) {
        if (in_set[candidate]) continue;
        bool connected = false;
        for (size_t member : selected) {
          const double distance = EuclideanDistance(matrix.Column(candidate),
                                                    matrix.Column(member));
          // Markov prescreen (Lemma 3): skip the Monte Carlo estimate when
          // the bound already rules the edge out.
          if (EdgeInferencePrune(distance, matrix.num_samples(),
                                 config.gamma)) {
            continue;
          }
          const double p = EstimateEdgeProbabilityCached(
              matrix.Column(candidate), matrix.Column(member), &cache);
          if (p > config.gamma) {
            connected = true;
            break;
          }
        }
        if (connected) {
          selected.push_back(candidate);
          in_set[candidate] = true;
          stuck = false;
          break;
        }
      }
    }
    if (selected.size() == config.num_genes) {
      return matrix.ExtractColumns(selected);
    }
  }
  return Status::NotFound(
      "no connected query gene set found; lower gamma or raise max_attempts");
}

}  // namespace imgrn
