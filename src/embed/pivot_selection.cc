#include "embed/pivot_selection.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/logging.h"
#include "matrix/vector_ops.h"

namespace imgrn {

double PivotCost(const GeneMatrix& standardized_matrix,
                 const std::vector<size_t>& pivot_columns) {
  IMGRN_CHECK(!pivot_columns.empty());
  double total = 0.0;
  for (size_t s = 0; s < standardized_matrix.num_genes(); ++s) {
    double min_dist = std::numeric_limits<double>::infinity();
    for (size_t pivot : pivot_columns) {
      min_dist = std::min(
          min_dist, EuclideanDistance(standardized_matrix.Column(s),
                                      standardized_matrix.Column(pivot)));
    }
    // min_{r,w} (dist_r + dist_w) == 2 * min_r dist_r.
    total += 2.0 * min_dist;
  }
  return total;
}

PivotSet SelectPivots(const GeneMatrix& matrix, size_t num_pivots,
                      const PivotSelectionOptions& options, Rng* rng) {
  IMGRN_CHECK_GT(num_pivots, 0u);
  GeneMatrix standardized = matrix;
  standardized.StandardizeColumns();
  const size_t n = standardized.num_genes();
  const size_t d = std::min(num_pivots, n);

  std::vector<size_t> all_columns(n);
  std::iota(all_columns.begin(), all_columns.end(), 0u);

  double global_cost = std::numeric_limits<double>::infinity();
  std::vector<size_t> best_pivots;

  for (size_t a = 0; a < std::max<size_t>(1, options.global_iterations); ++a) {
    // Random initial pivot subset (partial Fisher-Yates over all columns).
    std::vector<size_t> columns = all_columns;
    for (size_t i = 0; i < d; ++i) {
      const size_t j =
          i + static_cast<size_t>(rng->UniformUint64(n - i));
      std::swap(columns[i], columns[j]);
    }
    std::vector<size_t> pivots(columns.begin(),
                               columns.begin() + static_cast<long>(d));
    double local_cost = PivotCost(standardized, pivots);

    if (n > d) {
      for (size_t b = 0; b < options.swap_iterations; ++b) {
        // Swap a random pivot with a random non-pivot.
        const size_t pivot_pos =
            static_cast<size_t>(rng->UniformUint64(d));
        size_t candidate;
        do {
          candidate = static_cast<size_t>(rng->UniformUint64(n));
        } while (std::find(pivots.begin(), pivots.end(), candidate) !=
                 pivots.end());
        std::vector<size_t> trial = pivots;
        trial[pivot_pos] = candidate;
        const double trial_cost = PivotCost(standardized, trial);
        if (trial_cost < local_cost) {
          local_cost = trial_cost;
          pivots = std::move(trial);
        }
      }
    }
    if (local_cost < global_cost) {
      global_cost = local_cost;
      best_pivots = pivots;
    }
  }

  PivotSet result;
  result.columns = best_pivots;
  result.vectors.reserve(best_pivots.size());
  for (size_t column : best_pivots) {
    std::span<const double> view = standardized.Column(column);
    result.vectors.emplace_back(view.begin(), view.end());
  }
  return result;
}

}  // namespace imgrn
