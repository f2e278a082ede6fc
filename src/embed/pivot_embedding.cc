#include "embed/pivot_embedding.h"

#include <algorithm>

#include "common/logging.h"
#include "matrix/vector_ops.h"

namespace imgrn {

std::vector<double> EmbeddedPoint::ToIndexPoint() const {
  std::vector<double> point;
  point.reserve(2 * x.size() + 1);
  for (size_t w = 0; w < x.size(); ++w) {
    point.push_back(x[w]);
    point.push_back(y[w]);
  }
  point.push_back(static_cast<double>(gene));
  return point;
}

std::vector<EmbeddedPoint> EmbedMatrix(const GeneMatrix& matrix,
                                       const PivotSet& pivots,
                                       PermutationCache* cache) {
  IMGRN_CHECK_GT(pivots.size(), 0u);
  GeneMatrix standardized = matrix;
  standardized.StandardizeColumns();
  const size_t d = pivots.size();
  std::vector<EmbeddedPoint> points;
  points.reserve(standardized.num_genes());
  for (size_t s = 0; s < standardized.num_genes(); ++s) {
    EmbeddedPoint point;
    point.gene = standardized.gene_id(s);
    point.x.resize(d);
    point.y.resize(d);
    for (size_t w = 0; w < d; ++w) {
      IMGRN_CHECK_EQ(pivots.vectors[w].size(), standardized.num_samples());
      // Embedded coordinates are persisted in snapshots and feed pruning
      // decisions, so both must be backend-invariant: x via the scalar
      // EuclideanDistance, y via the batched kernel, which is
      // bit-identical on every backend.
      point.x[w] =
          EuclideanDistance(standardized.Column(s), pivots.vectors[w]);
      point.y[w] = ExpectedPermutedDistanceCached(standardized.Column(s),
                                                  pivots.vectors[w], cache);
    }
    points.push_back(std::move(point));
  }
  return points;
}

bool PivotPruneEdge(const EmbeddedPoint& s, const EmbeddedPoint& t,
                    double gamma) {
  IMGRN_CHECK_EQ(s.num_pivots(), t.num_pivots());
  const size_t d = s.num_pivots();
  // max_r (x_t[r] - x_s[r]) is shared by every w.
  double max_gap = -1.0;
  for (size_t r = 0; r < d; ++r) {
    max_gap = std::max(max_gap, t.x[r] - s.x[r]);
  }
  for (size_t w = 0; w < d; ++w) {
    const double c = max_gap - s.x[w];
    if (c <= 0.0) continue;  // Case 1: bound is 1, no pruning via piv_w.
    if (t.y[w] <= gamma * c) {
      return true;
    }
  }
  return false;
}

double PivotUpperBound(const EmbeddedPoint& s, const EmbeddedPoint& t) {
  IMGRN_CHECK_EQ(s.num_pivots(), t.num_pivots());
  const size_t d = s.num_pivots();
  double max_gap = -1.0;
  for (size_t r = 0; r < d; ++r) {
    max_gap = std::max(max_gap, t.x[r] - s.x[r]);
  }
  double best = 1.0;
  for (size_t w = 0; w < d; ++w) {
    const double c = max_gap - s.x[w];
    if (c <= 0.0) continue;
    best = std::min(best, t.y[w] / c);
  }
  return std::clamp(best, 0.0, 1.0);
}

}  // namespace imgrn
