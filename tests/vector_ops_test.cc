#include "matrix/vector_ops.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/random.h"

namespace imgrn {
namespace {

std::vector<double> RandomVector(size_t l, Rng* rng) {
  std::vector<double> values(l);
  for (double& value : values) value = rng->Gaussian();
  return values;
}

TEST(MeanVarianceTest, KnownValues) {
  std::vector<double> values = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Mean(values), 2.5);
  EXPECT_DOUBLE_EQ(Variance(values), 1.25);
  EXPECT_DOUBLE_EQ(StdDev(values), std::sqrt(1.25));
}

TEST(MeanTest, SingleElement) {
  std::vector<double> values = {7.5};
  EXPECT_DOUBLE_EQ(Mean(values), 7.5);
  EXPECT_DOUBLE_EQ(Variance(values), 0.0);
}

TEST(DotTest, KnownValue) {
  std::vector<double> a = {1, 2, 3};
  std::vector<double> b = {4, 5, 6};
  EXPECT_DOUBLE_EQ(Dot(a, b), 32.0);
}

TEST(DotTest, EmptySpansGiveZero) {
  const std::span<const double> empty;
  EXPECT_EQ(Dot(empty, empty), 0.0);
  EXPECT_EQ(SquaredNorm(empty), 0.0);
  EXPECT_EQ(SquaredEuclideanDistance(empty, empty), 0.0);
}

TEST(SquaredNormTest, MatchesSelfDot) {
  Rng rng(1);
  std::vector<double> a = RandomVector(17, &rng);
  EXPECT_NEAR(SquaredNorm(a), Dot(a, a), 1e-12);
}

TEST(EuclideanDistanceTest, KnownValue) {
  std::vector<double> a = {0, 0};
  std::vector<double> b = {3, 4};
  EXPECT_DOUBLE_EQ(EuclideanDistance(a, b), 5.0);
  EXPECT_DOUBLE_EQ(SquaredEuclideanDistance(a, b), 25.0);
}

TEST(EuclideanDistanceTest, IdenticalVectorsZero) {
  std::vector<double> a = {1, 2, 3};
  EXPECT_DOUBLE_EQ(EuclideanDistance(a, a), 0.0);
}

TEST(EuclideanDistanceTest, SymmetryAndTriangleInequality) {
  Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> a = RandomVector(10, &rng);
    std::vector<double> b = RandomVector(10, &rng);
    std::vector<double> c = RandomVector(10, &rng);
    EXPECT_DOUBLE_EQ(EuclideanDistance(a, b), EuclideanDistance(b, a));
    EXPECT_LE(EuclideanDistance(a, c),
              EuclideanDistance(a, b) + EuclideanDistance(b, c) + 1e-12);
  }
}

TEST(PearsonCorrelationTest, PerfectPositive) {
  std::vector<double> a = {1, 2, 3, 4};
  std::vector<double> b = {2, 4, 6, 8};
  EXPECT_NEAR(PearsonCorrelation(a, b), 1.0, 1e-12);
  EXPECT_NEAR(AbsolutePearsonCorrelation(a, b), 1.0, 1e-12);
}

TEST(PearsonCorrelationTest, PerfectNegative) {
  std::vector<double> a = {1, 2, 3, 4};
  std::vector<double> b = {8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(a, b), -1.0, 1e-12);
  EXPECT_NEAR(AbsolutePearsonCorrelation(a, b), 1.0, 1e-12);
}

TEST(PearsonCorrelationTest, ShiftAndScaleInvariance) {
  Rng rng(3);
  std::vector<double> a = RandomVector(30, &rng);
  std::vector<double> b = RandomVector(30, &rng);
  const double base = PearsonCorrelation(a, b);
  std::vector<double> b_transformed(b.size());
  for (size_t i = 0; i < b.size(); ++i) b_transformed[i] = 3.0 * b[i] + 7.0;
  EXPECT_NEAR(PearsonCorrelation(a, b_transformed), base, 1e-10);
  // Negative scaling flips the sign but not the magnitude.
  for (size_t i = 0; i < b.size(); ++i) b_transformed[i] = -2.0 * b[i];
  EXPECT_NEAR(PearsonCorrelation(a, b_transformed), -base, 1e-10);
  EXPECT_NEAR(AbsolutePearsonCorrelation(a, b_transformed), std::fabs(base),
              1e-10);
}

TEST(PearsonCorrelationTest, ConstantVectorGivesZero) {
  std::vector<double> constant = {5, 5, 5, 5};
  std::vector<double> varying = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(PearsonCorrelation(constant, varying), 0.0);
  EXPECT_DOUBLE_EQ(PearsonCorrelation(varying, constant), 0.0);
}

TEST(PearsonCorrelationTest, StaysClampedOnCollinearInput) {
  // Perfectly collinear input puts the raw quotient within rounding of
  // -1; the result must be clamped into [-1, 1].
  std::vector<double> a(41);
  std::vector<double> b(41);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = 0.1 * static_cast<double>(i) - 2.0;
    b[i] = -3.0 * a[i] + 0.5;
  }
  const double cor = PearsonCorrelation(a, b);
  EXPECT_GE(cor, -1.0);
  EXPECT_LE(cor, 1.0);
  EXPECT_NEAR(cor, -1.0, 1e-12);
}

TEST(PearsonCorrelationTest, AlwaysInRange) {
  Rng rng(4);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> a = RandomVector(8, &rng);
    std::vector<double> b = RandomVector(8, &rng);
    const double cor = PearsonCorrelation(a, b);
    EXPECT_GE(cor, -1.0);
    EXPECT_LE(cor, 1.0);
  }
}

TEST(StandardizeTest, ResultHasZeroMeanAndScaledNorm) {
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> values = RandomVector(25, &rng);
    StandardizeInPlace(values);
    EXPECT_NEAR(Mean(values), 0.0, 1e-10);
    EXPECT_NEAR(SquaredNorm(values), 25.0, 1e-8);
    EXPECT_TRUE(IsStandardized(values));
  }
}

TEST(StandardizeTest, Idempotent) {
  Rng rng(6);
  std::vector<double> values = RandomVector(12, &rng);
  StandardizeInPlace(values);
  std::vector<double> again = values;
  StandardizeInPlace(again);
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_NEAR(values[i], again[i], 1e-10);
  }
}

TEST(StandardizeTest, ConstantVectorBecomesZero) {
  std::vector<double> values = {3, 3, 3};
  StandardizeInPlace(values);
  for (double value : values) EXPECT_EQ(value, 0.0);
  EXPECT_TRUE(IsStandardized(values));
}

TEST(StandardizeTest, StandardizedCopyLeavesOriginal) {
  std::vector<double> values = {1, 2, 3};
  std::vector<double> copy = Standardized(values);
  EXPECT_EQ(values[0], 1);
  EXPECT_TRUE(IsStandardized(copy));
  EXPECT_FALSE(IsStandardized(values));
}

TEST(StandardizeTest, PreservesCorrelation) {
  // Standardization must not change Pearson correlation.
  Rng rng(7);
  std::vector<double> a = RandomVector(20, &rng);
  std::vector<double> b = RandomVector(20, &rng);
  const double before = PearsonCorrelation(a, b);
  const double after =
      PearsonCorrelation(Standardized(a), Standardized(b));
  EXPECT_NEAR(before, after, 1e-10);
}

TEST(ApplyPermutationTest, ReordersValues) {
  std::vector<double> input = {10, 20, 30};
  std::vector<uint32_t> perm = {2, 0, 1};
  std::vector<double> output(3);
  ApplyPermutation(input, perm, output);
  EXPECT_EQ(output[0], 30);
  EXPECT_EQ(output[1], 10);
  EXPECT_EQ(output[2], 20);
}

TEST(ApplyPermutationTest, IdentityPermutation) {
  std::vector<double> input = {1, 2, 3, 4};
  std::vector<uint32_t> perm = {0, 1, 2, 3};
  std::vector<double> output(4);
  ApplyPermutation(input, perm, output);
  EXPECT_EQ(output, input);
}

// Appendix B, Eq. (11)/(12): for standardized vectors,
// dist^2(a, b) = 2 l (1 - cor(a, b)).
TEST(DistanceCorrelationIdentityTest, HoldsForStandardizedVectors) {
  Rng rng(8);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t l = 5 + static_cast<size_t>(rng.UniformUint64(40));
    std::vector<double> a = Standardized(RandomVector(l, &rng));
    std::vector<double> b = Standardized(RandomVector(l, &rng));
    const double cor = PearsonCorrelation(a, b);
    const double dist = EuclideanDistance(a, b);
    EXPECT_NEAR(dist * dist, 2.0 * static_cast<double>(l) * (1.0 - cor),
                1e-8);
    // And the two conversion helpers are inverses.
    EXPECT_NEAR(CorrelationFromDistance(dist, l), cor, 1e-8);
    EXPECT_NEAR(DistanceFromCorrelation(cor, l), dist, 1e-8);
  }
}

TEST(DistanceFromCorrelationTest, ClampsNegativeRadicand) {
  // cor slightly above 1 from floating point noise must not produce NaN.
  EXPECT_EQ(DistanceFromCorrelation(1.0 + 1e-15, 10), 0.0);
}

TEST(VectorOpsDeathTest, SizeMismatchAborts) {
  std::vector<double> a = {1, 2};
  std::vector<double> b = {1, 2, 3};
  EXPECT_DEATH(Dot(std::span<const double>(a), std::span<const double>(b)),
               "Check failed");
}

// Regression: aliased input/output used to be silent UB — the loop reads
// input positions out of order relative to its writes, so an overlapping
// output would consume already-overwritten values. The precondition is now
// checked.
TEST(ApplyPermutationDeathTest, FullAliasAborts) {
  std::vector<double> buffer = {1, 2, 3, 4};
  std::vector<uint32_t> perm = {3, 2, 1, 0};
  EXPECT_DEATH(
      ApplyPermutation(buffer, perm, std::span<double>(buffer)),
      "must not overlap");
}

TEST(ApplyPermutationDeathTest, PartialOverlapAborts) {
  std::vector<double> buffer(8, 1.0);
  std::vector<uint32_t> perm = {0, 1, 2, 3};
  std::span<double> all(buffer);
  EXPECT_DEATH(
      ApplyPermutation(all.subspan(0, 4), perm, all.subspan(2, 4)),
      "must not overlap");
  EXPECT_DEATH(
      ApplyPermutation(all.subspan(2, 4), perm, all.subspan(0, 4)),
      "must not overlap");
}

TEST(ApplyPermutationTest, AdjacentNonOverlappingSpansAllowed) {
  // Back-to-back halves of one buffer share no elements; the overlap check
  // must not reject them.
  std::vector<double> buffer = {10, 20, 30, 40, 0, 0, 0, 0};
  std::vector<uint32_t> perm = {3, 2, 1, 0};
  std::span<double> all(buffer);
  ApplyPermutation(all.subspan(0, 4), perm, all.subspan(4, 4));
  EXPECT_EQ(buffer[4], 40);
  EXPECT_EQ(buffer[7], 10);
}

}  // namespace
}  // namespace imgrn
