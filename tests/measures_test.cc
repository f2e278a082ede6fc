#include "inference/measures.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/random.h"
#include "matrix/vector_ops.h"
#include "tests/test_util.h"

namespace imgrn {
namespace {

using testing_util::MakePlantedMatrix;

TEST(MeasureNameTest, AllNamed) {
  EXPECT_STREQ(InferenceMeasureName(InferenceMeasure::kImGrn), "IM-GRN");
  EXPECT_STREQ(InferenceMeasureName(InferenceMeasure::kCorrelation),
               "Correlation");
  EXPECT_STREQ(InferenceMeasureName(InferenceMeasure::kPartialCorrelation),
               "pCorr");
}

TEST(ComputeScoreMatrixTest, RejectsSingleGene) {
  Rng rng(1);
  GeneMatrix matrix = MakePlantedMatrix(0, 20, {}, {7}, 0.9, &rng);
  EXPECT_FALSE(
      ComputeScoreMatrix(matrix, InferenceMeasure::kCorrelation).ok());
}

TEST(ComputeScoreMatrixTest, CorrelationScoresSymmetricZeroDiagonal) {
  Rng rng(2);
  GeneMatrix matrix = MakePlantedMatrix(0, 30, {{1, 2}}, {3, 4}, 0.9, &rng);
  Result<DenseMatrix> scores =
      ComputeScoreMatrix(matrix, InferenceMeasure::kCorrelation);
  ASSERT_TRUE(scores.ok());
  const size_t n = matrix.num_genes();
  for (size_t s = 0; s < n; ++s) {
    EXPECT_EQ(scores->At(s, s), 0.0);
    for (size_t t = 0; t < n; ++t) {
      EXPECT_DOUBLE_EQ(scores->At(s, t), scores->At(t, s));
      EXPECT_GE(scores->At(s, t), 0.0);
      EXPECT_LE(scores->At(s, t), 1.0);
    }
  }
}

TEST(ComputeScoreMatrixTest, CorrelationSeparatesClusterFromNoise) {
  Rng rng(3);
  GeneMatrix matrix =
      MakePlantedMatrix(0, 100, {{1, 2}}, {3}, 0.95, &rng);
  Result<DenseMatrix> scores =
      ComputeScoreMatrix(matrix, InferenceMeasure::kCorrelation);
  ASSERT_TRUE(scores.ok());
  // Columns 0,1 are the cluster; column 2 is noise.
  EXPECT_GT(scores->At(0, 1), 0.7);
  EXPECT_LT(scores->At(0, 2), 0.4);
}

// Correlation scores come from one Dot over standardized columns per pair;
// they must agree with the pairwise |Pearson|, including its edge cases.
TEST(ComputeScoreMatrixTest, CorrelationMatchesAbsolutePearson) {
  Rng rng(10);
  GeneMatrix matrix =
      MakePlantedMatrix(0, 40, {{1, 2, 3}}, {4, 5, 6, 7}, 0.9, &rng);
  constexpr size_t kConstant = 3;
  constexpr size_t kCollinear = 4;
  constexpr size_t kWithNan = 5;
  for (size_t j = 0; j < matrix.num_samples(); ++j) {
    matrix.At(j, kConstant) = 2.5;
    matrix.At(j, kCollinear) = -3.0 * matrix.At(j, 0) + 0.5;
  }
  matrix.At(7, kWithNan) = std::numeric_limits<double>::quiet_NaN();
  Result<DenseMatrix> scores =
      ComputeScoreMatrix(matrix, InferenceMeasure::kCorrelation);
  ASSERT_TRUE(scores.ok());
  const size_t n = matrix.num_genes();
  for (size_t s = 0; s < n; ++s) {
    for (size_t t = 0; t < n; ++t) {
      if (s == t) continue;
      const double score = scores->At(s, t);
      if (s == kWithNan || t == kWithNan) {
        // NaN passes through the clamp, even against the constant column
        // (where PearsonCorrelation's zero-variance early-out gives 0).
        EXPECT_TRUE(std::isnan(score)) << s << ", " << t;
        continue;
      }
      const double pearson =
          AbsolutePearsonCorrelation(matrix.Column(s), matrix.Column(t));
      EXPECT_NEAR(score, pearson, 1e-12) << s << ", " << t;
      EXPECT_LE(score, 1.0) << s << ", " << t;
      if (s == kConstant || t == kConstant) {
        EXPECT_EQ(score, 0.0) << s << ", " << t;
      }
    }
  }
  EXPECT_NEAR(scores->At(0, kCollinear), 1.0, 1e-12);
  EXPECT_TRUE(std::isnan(
      AbsolutePearsonCorrelation(matrix.Column(0), matrix.Column(kWithNan))));
}

TEST(ComputeScoreMatrixTest, ImGrnScoresInUnitIntervalAndSymmetric) {
  Rng rng(4);
  GeneMatrix matrix = MakePlantedMatrix(0, 40, {{1, 2, 3}}, {4}, 0.9, &rng);
  ScoreOptions options;
  options.num_samples = 100;
  Result<DenseMatrix> scores =
      ComputeScoreMatrix(matrix, InferenceMeasure::kImGrn, options);
  ASSERT_TRUE(scores.ok());
  for (size_t s = 0; s < 4; ++s) {
    for (size_t t = 0; t < 4; ++t) {
      EXPECT_DOUBLE_EQ(scores->At(s, t), scores->At(t, s));
      EXPECT_GE(scores->At(s, t), 0.0);
      EXPECT_LE(scores->At(s, t), 1.0);
    }
  }
}

TEST(ComputeScoreMatrixTest, ImGrnRanksClusterPairAboveNoisePair) {
  Rng rng(5);
  GeneMatrix matrix =
      MakePlantedMatrix(0, 60, {{1, 2}}, {3, 4}, 0.95, &rng);
  ScoreOptions options;
  options.num_samples = 200;
  Result<DenseMatrix> scores =
      ComputeScoreMatrix(matrix, InferenceMeasure::kImGrn, options);
  ASSERT_TRUE(scores.ok());
  EXPECT_GT(scores->At(0, 1), 0.9);   // Cluster pair: near-certain edge.
  EXPECT_LT(scores->At(2, 3), 0.98);  // Independent pair: not near-certain.
}

TEST(ComputeScoreMatrixTest, ImGrnDeterministicGivenSeed) {
  Rng rng(6);
  GeneMatrix matrix = MakePlantedMatrix(0, 30, {{1, 2}}, {3}, 0.8, &rng);
  ScoreOptions options;
  options.num_samples = 64;
  options.seed = 777;
  Result<DenseMatrix> a =
      ComputeScoreMatrix(matrix, InferenceMeasure::kImGrn, options);
  Result<DenseMatrix> b =
      ComputeScoreMatrix(matrix, InferenceMeasure::kImGrn, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->MaxAbsDifference(*b), 0.0);
}

// The classic property of partial correlation: in a chain A -> B -> C, the
// marginal correlation of (A, C) is high, but conditioning on B removes it.
TEST(ComputeScoreMatrixTest, PartialCorrelationRemovesIndirectEdges) {
  Rng rng(7);
  const size_t l = 400;
  GeneMatrix matrix(0, l, {1, 2, 3});
  for (size_t j = 0; j < l; ++j) {
    const double a = rng.Gaussian();
    const double b = 0.95 * a + 0.3 * rng.Gaussian();
    const double c = 0.95 * b + 0.3 * rng.Gaussian();
    matrix.At(j, 0) = a;
    matrix.At(j, 1) = b;
    matrix.At(j, 2) = c;
  }
  Result<DenseMatrix> marginal =
      ComputeScoreMatrix(matrix, InferenceMeasure::kCorrelation);
  Result<DenseMatrix> partial =
      ComputeScoreMatrix(matrix, InferenceMeasure::kPartialCorrelation);
  ASSERT_TRUE(marginal.ok());
  ASSERT_TRUE(partial.ok());
  // Marginal: (A, C) looks connected. Partial: it should not.
  EXPECT_GT(marginal->At(0, 2), 0.6);
  EXPECT_LT(partial->At(0, 2), 0.3);
  // The direct edges survive conditioning.
  EXPECT_GT(partial->At(0, 1), 0.5);
  EXPECT_GT(partial->At(1, 2), 0.5);
}

TEST(ComputeScoreMatrixTest, PartialCorrelationRidgeHandlesFewSamples) {
  // l < n: the raw covariance is singular; the ridge must rescue it.
  Rng rng(8);
  GeneMatrix matrix =
      MakePlantedMatrix(0, 5, {{1, 2}}, {3, 4, 5, 6, 7, 8}, 0.9, &rng);
  ScoreOptions options;
  options.ridge = 1e-2;
  Result<DenseMatrix> scores = ComputeScoreMatrix(
      matrix, InferenceMeasure::kPartialCorrelation, options);
  ASSERT_TRUE(scores.ok());
}

class MeasureSweepTest : public ::testing::TestWithParam<InferenceMeasure> {};

TEST_P(MeasureSweepTest, ScoreMatrixShapeAndRange) {
  Rng rng(9);
  GeneMatrix matrix =
      MakePlantedMatrix(0, 25, {{1, 2}, {3, 4}}, {5}, 0.85, &rng);
  ScoreOptions options;
  options.num_samples = 64;
  Result<DenseMatrix> scores =
      ComputeScoreMatrix(matrix, GetParam(), options);
  ASSERT_TRUE(scores.ok());
  EXPECT_EQ(scores->rows(), 5u);
  EXPECT_EQ(scores->cols(), 5u);
  for (size_t s = 0; s < 5; ++s) {
    for (size_t t = 0; t < 5; ++t) {
      EXPECT_GE(scores->At(s, t), 0.0);
      EXPECT_LE(scores->At(s, t), 1.0 + 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Measures, MeasureSweepTest,
                         ::testing::Values(
                             InferenceMeasure::kImGrn,
                             InferenceMeasure::kCorrelation,
                             InferenceMeasure::kPartialCorrelation));

}  // namespace
}  // namespace imgrn
