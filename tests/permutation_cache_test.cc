#include "inference/permutation_cache.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "matrix/vector_ops.h"
#include "prob/edge_probability.h"

namespace imgrn {
namespace {

std::vector<double> RandomStandardized(size_t l, Rng* rng) {
  std::vector<double> values(l);
  for (double& value : values) value = rng->Gaussian();
  StandardizeInPlace(values);
  return values;
}

// Sample s of `blocks`: block s / 8, lane s % 8 of the interleaved layout.
std::vector<uint32_t> Sample(const PermutationBlocks& blocks, size_t s) {
  const size_t k = s / kPermutedDistanceBatch;
  const size_t b = s % kPermutedDistanceBatch;
  const size_t width = blocks.block_width(k);
  std::vector<uint32_t> perm(blocks.length());
  for (size_t i = 0; i < blocks.length(); ++i) {
    perm[i] = blocks.block(k)[i * width + b];
  }
  return perm;
}

std::vector<std::vector<uint32_t>> AllSamples(const PermutationBlocks& blocks) {
  std::vector<std::vector<uint32_t>> samples;
  for (size_t s = 0; s < blocks.num_samples(); ++s) {
    samples.push_back(Sample(blocks, s));
  }
  return samples;
}

TEST(PermutationCacheTest, GeneratesRequestedCount) {
  PermutationCache cache(32, 1);
  const PermutationBlocks& blocks = cache.BlocksForLength(10);
  EXPECT_EQ(blocks.num_samples(), 32u);
  EXPECT_EQ(blocks.num_blocks(), 4u);
}

TEST(PermutationCacheTest, EntriesAreValidPermutations) {
  PermutationCache cache(16, 2);
  for (const auto& perm : AllSamples(cache.BlocksForLength(9))) {
    std::vector<uint32_t> sorted = perm;
    std::sort(sorted.begin(), sorted.end());
    for (uint32_t i = 0; i < 9; ++i) {
      EXPECT_EQ(sorted[i], i);
    }
  }
}

TEST(PermutationCacheTest, RepeatLookupReturnsSameObject) {
  PermutationCache cache(8, 3);
  const auto* first = &cache.BlocksForLength(5);
  const auto* second = &cache.BlocksForLength(5);
  EXPECT_EQ(first, second);
}

TEST(PermutationCacheTest, DifferentLengthsIndependent) {
  PermutationCache cache(8, 4);
  EXPECT_EQ(cache.BlocksForLength(5).length(), 5u);
  EXPECT_EQ(cache.BlocksForLength(7).length(), 7u);
}

TEST(PermutationCacheTest, DeterministicBySeed) {
  PermutationCache a(8, 42);
  PermutationCache b(8, 42);
  EXPECT_EQ(AllSamples(a.BlocksForLength(6)), AllSamples(b.BlocksForLength(6)));
}

// Block k, lane b holds the (8k + b)-th Rng::Permutation draw of the
// stream, including the lanes of a narrow final block (20 samples: two
// full blocks and one of width 4).
TEST(PermutationCacheTest, BlocksHoldDrawsInOrder) {
  Rng block_rng(7);
  const PermutationBlocks blocks(20, 9, &block_rng);
  ASSERT_EQ(blocks.num_blocks(), 3u);
  EXPECT_EQ(blocks.block_width(2), 4u);
  Rng draw_rng(7);
  std::vector<uint32_t> draw;
  for (size_t s = 0; s < blocks.num_samples(); ++s) {
    draw_rng.Permutation(9, &draw);
    EXPECT_EQ(Sample(blocks, s), draw) << "sample " << s;
  }
}

TEST(EstimateEdgeProbabilityCachedTest, AgreesWithFreshEstimator) {
  Rng data_rng(5);
  std::vector<double> a = RandomStandardized(30, &data_rng);
  std::vector<double> b(30);
  for (size_t i = 0; i < 30; ++i) {
    b[i] = 0.8 * a[i] + 0.6 * data_rng.Gaussian();
  }
  StandardizeInPlace(b);
  PermutationCache cache(4000, 6);
  const double cached = EstimateEdgeProbabilityCached(a, b, &cache);
  Rng est_rng(7);
  EdgeProbabilityEstimator estimator(4000);
  const double fresh = estimator.Estimate(a, b, &est_rng);
  EXPECT_NEAR(cached, fresh, 0.05);
}

TEST(EstimateEdgeProbabilityCachedTest, ResultInUnitInterval) {
  Rng rng(8);
  PermutationCache cache(64, 9);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> a = RandomStandardized(12, &rng);
    std::vector<double> b = RandomStandardized(12, &rng);
    const double p = EstimateEdgeProbabilityCached(a, b, &cache);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(ExpectedPermutedDistanceCachedTest, AgreesWithFreshSampler) {
  Rng rng(10);
  std::vector<double> x = RandomStandardized(25, &rng);
  std::vector<double> pivot = RandomStandardized(25, &rng);
  PermutationCache cache(3000, 11);
  const double cached = ExpectedPermutedDistanceCached(x, pivot, &cache);
  const double fresh =
      SampledExpectedPermutedDistance(x, pivot, 3000, &rng);
  EXPECT_NEAR(cached, fresh, 0.1);
}

TEST(PermutationCacheDeathTest, ZeroSamplesAborts) {
  EXPECT_DEATH(PermutationCache(0, 1), "Check failed");
}

}  // namespace
}  // namespace imgrn
