#ifndef IMGRN_EMBED_PIVOT_SELECTION_H_
#define IMGRN_EMBED_PIVOT_SELECTION_H_

#include <cstdint>

#include "common/random.h"
#include "embed/pivot_embedding.h"
#include "matrix/gene_matrix.h"

namespace imgrn {

/// Iteration counts of the Fig.-3 randomized-swap pivot selection.
struct PivotSelectionOptions {
  /// Outer restarts (Fig. 3 `global_iter`).
  size_t global_iterations = 3;

  /// Inner random swap attempts per restart (Fig. 3 `swap_iter`).
  size_t swap_iterations = 16;
};

/// The Section-4.3 cost of a pivot choice over `matrix`:
///   T_i = sum_s min_{r,w} ( dist(X_s, piv_r) + dist(X_s, piv_w) ).
/// Since r and w range over the same pivot set independently, this equals
/// 2 * sum_s min_r dist(X_s, piv_r); the implementation uses that
/// simplification (O(n d l) instead of O(n d^2 l)). `pivot_columns` are
/// column indices into the (standardized) matrix.
double PivotCost(const GeneMatrix& standardized_matrix,
                 const std::vector<size_t>& pivot_columns);

/// Procedure Pivot_Selection (Fig. 3): chooses `num_pivots` pivots d
/// (clamped to the matrix's gene count; at least 1), starting from random
/// pivot subsets and greedily accepting random pivot/non-pivot swaps that
/// lower T_i, with `global_iterations` restarts to escape local optima.
/// Returns the best pivot set found (vectors are the standardized
/// columns). `matrix` is standardized internally if necessary.
PivotSet SelectPivots(const GeneMatrix& matrix, size_t num_pivots,
                      const PivotSelectionOptions& options, Rng* rng);

}  // namespace imgrn

#endif  // IMGRN_EMBED_PIVOT_SELECTION_H_
