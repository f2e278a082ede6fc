#include "embed/pivot_selection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>

#include "common/random.h"
#include "matrix/vector_ops.h"
#include "tests/test_util.h"

namespace imgrn {
namespace {

using testing_util::MakePlantedMatrix;

TEST(PivotCostTest, LiteralFormulaEqualsSimplifiedImplementation) {
  // T_i = sum_s min_{r,w} (dist_r + dist_w) == 2 sum_s min_r dist_r.
  Rng rng(1);
  GeneMatrix matrix =
      MakePlantedMatrix(0, 15, {{1, 2, 3}}, {4, 5, 6}, 0.8, &rng);
  matrix.StandardizeColumns();
  const std::vector<size_t> pivots = {0, 4};
  double literal = 0.0;
  for (size_t s = 0; s < matrix.num_genes(); ++s) {
    double best = std::numeric_limits<double>::infinity();
    for (size_t r : pivots) {
      for (size_t w : pivots) {
        best = std::min(
            best, EuclideanDistance(matrix.Column(s), matrix.Column(r)) +
                      EuclideanDistance(matrix.Column(s), matrix.Column(w)));
      }
    }
    literal += best;
  }
  EXPECT_NEAR(PivotCost(matrix, pivots), literal, 1e-9);
}

TEST(PivotCostTest, PivotColumnsContributeZero) {
  Rng rng(2);
  GeneMatrix matrix = MakePlantedMatrix(0, 10, {{1, 2}}, {}, 0.8, &rng);
  matrix.StandardizeColumns();
  // With every column a pivot, each min distance is 0.
  EXPECT_NEAR(PivotCost(matrix, {0, 1}), 0.0, 1e-12);
}

TEST(SelectPivotsTest, ReturnsRequestedCount) {
  Rng data_rng(3);
  GeneMatrix matrix =
      MakePlantedMatrix(0, 12, {{1, 2, 3, 4}}, {5, 6}, 0.7, &data_rng);
  Rng rng(4);
  PivotSet pivots = SelectPivots(matrix, 3, {}, &rng);
  EXPECT_EQ(pivots.size(), 3u);
  EXPECT_EQ(pivots.columns.size(), 3u);
  for (const auto& vec : pivots.vectors) {
    EXPECT_EQ(vec.size(), 12u);
  }
}

TEST(SelectPivotsTest, ClampsToGeneCount) {
  Rng data_rng(5);
  GeneMatrix matrix = MakePlantedMatrix(0, 10, {{1, 2}}, {}, 0.7, &data_rng);
  Rng rng(6);
  PivotSet pivots = SelectPivots(matrix, 10, {}, &rng);
  EXPECT_EQ(pivots.size(), 2u);
}

TEST(SelectPivotsTest, PivotColumnsAreDistinct) {
  Rng data_rng(7);
  GeneMatrix matrix = MakePlantedMatrix(0, 15, {{1, 2, 3, 4, 5}},
                                        {6, 7, 8}, 0.6, &data_rng);
  Rng rng(8);
  PivotSet pivots = SelectPivots(matrix, 4, {}, &rng);
  std::set<size_t> unique(pivots.columns.begin(), pivots.columns.end());
  EXPECT_EQ(unique.size(), pivots.columns.size());
}

TEST(SelectPivotsTest, OptimizedCostNoWorseThanRandomBaseline) {
  Rng data_rng(9);
  GeneMatrix matrix = MakePlantedMatrix(
      0, 20, {{1, 2, 3}, {4, 5, 6}}, {7, 8, 9, 10}, 0.8, &data_rng);
  GeneMatrix standardized = matrix;
  standardized.StandardizeColumns();

  Rng select_rng(10);
  PivotSelectionOptions options;
  options.global_iterations = 4;
  options.swap_iterations = 30;
  PivotSet selected = SelectPivots(matrix, 2, options, &select_rng);
  const double optimized_cost = PivotCost(standardized, selected.columns);

  // Average cost of random pivot pairs must not beat the optimizer.
  Rng random_rng(11);
  double random_total = 0.0;
  constexpr int kTrials = 30;
  for (int trial = 0; trial < kTrials; ++trial) {
    size_t a = static_cast<size_t>(random_rng.UniformUint64(10));
    size_t b;
    do {
      b = static_cast<size_t>(random_rng.UniformUint64(10));
    } while (b == a);
    random_total += PivotCost(standardized, {a, b});
  }
  EXPECT_LE(optimized_cost, random_total / kTrials + 1e-9);
}

TEST(SelectPivotsTest, PivotVectorsAreStandardizedColumns) {
  Rng data_rng(12);
  GeneMatrix matrix =
      MakePlantedMatrix(0, 14, {{1, 2}}, {3}, 0.9, &data_rng);
  GeneMatrix standardized = matrix;
  standardized.StandardizeColumns();
  Rng rng(13);
  PivotSet pivots = SelectPivots(matrix, 2, {}, &rng);
  for (size_t w = 0; w < pivots.size(); ++w) {
    std::span<const double> column =
        standardized.Column(pivots.columns[w]);
    for (size_t i = 0; i < column.size(); ++i) {
      EXPECT_NEAR(pivots.vectors[w][i], column[i], 1e-12);
    }
  }
}

TEST(SelectPivotsTest, DeterministicGivenRngSeed) {
  Rng data_rng(14);
  GeneMatrix matrix = MakePlantedMatrix(0, 12, {{1, 2, 3}},
                                        {4, 5, 6, 7}, 0.7, &data_rng);
  Rng rng_a(15), rng_b(15);
  PivotSet a = SelectPivots(matrix, 2, {}, &rng_a);
  PivotSet b = SelectPivots(matrix, 2, {}, &rng_b);
  EXPECT_EQ(a.columns, b.columns);
}

class PivotCountSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(PivotCountSweep, MorePivotsNeverRaiseOptimalCost) {
  // The optimum over d+1 pivots is at most the optimum over d (adding a
  // pivot can only reduce min distances); the heuristic should roughly
  // track that. We only assert the heuristic result with more pivots is not
  // drastically worse.
  Rng data_rng(16);
  GeneMatrix matrix = MakePlantedMatrix(
      0, 15, {{1, 2, 3}, {4, 5, 6}}, {7, 8, 9}, 0.7, &data_rng);
  GeneMatrix standardized = matrix;
  standardized.StandardizeColumns();
  Rng rng(17);
  PivotSelectionOptions options;
  options.global_iterations = 4;
  options.swap_iterations = 40;
  PivotSet pivots = SelectPivots(matrix, GetParam(), options, &rng);
  EXPECT_EQ(pivots.size(), std::min<size_t>(GetParam(), 9));
  EXPECT_GE(PivotCost(standardized, pivots.columns), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Counts, PivotCountSweep,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace imgrn
