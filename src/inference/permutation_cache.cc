#include "inference/permutation_cache.h"

#include <cmath>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "matrix/vector_ops.h"

namespace imgrn {

PermutationBlocks::PermutationBlocks(size_t num_samples, size_t length,
                                     Rng* rng)
    : num_samples_(num_samples), length_(length) {
  // Every block, including a narrow tail, is allocated at full
  // kPermutedDistanceBatch width so block(k) offsets stay uniform; tail
  // lanes beyond block_width(k) are zero-filled and never read.
  data_.assign(num_blocks() * length_ * kPermutedDistanceBatch, 0);
  std::vector<uint32_t> perm;
  for (size_t s = 0; s < num_samples_; ++s) {
    rng->Permutation(length_, &perm);
    const size_t k = s / kPermutedDistanceBatch;
    const size_t b = s % kPermutedDistanceBatch;
    uint32_t* block_data = data_.data() + k * length_ * kPermutedDistanceBatch;
    const size_t width = block_width(k);
    for (size_t i = 0; i < length_; ++i) {
      block_data[i * width + b] = perm[i];
    }
  }
}

PermutationCache::PermutationCache(size_t num_samples, uint64_t seed)
    : num_samples_(num_samples), seed_(seed) {
  IMGRN_CHECK_GT(num_samples, 0u);
}

const PermutationBlocks& PermutationCache::BlocksForLength(size_t l) {
  auto it = blocks_.find(l);
  if (it != blocks_.end()) return it->second;
  // A fresh stream per length (seed mixed with l) keeps the permutations a
  // function of (seed, num_samples, l) alone — the order lengths are first
  // requested in must not matter, or per-matrix refinement results would
  // depend on which other matrices share the query (breaking the sharded
  // engine's bit-identity with a single engine).
  Stopwatch fill_timer;
  Rng rng(seed_ ^ (0x9E3779B97F4A7C15ULL * (static_cast<uint64_t>(l) + 1)));
  auto& entry =
      blocks_.emplace(l, PermutationBlocks(num_samples_, l, &rng))
          .first->second;
  fill_seconds_ += fill_timer.ElapsedSeconds();
  return entry;
}

double EstimateEdgeProbabilityCached(std::span<const double> xs,
                                     std::span<const double> xt,
                                     PermutationCache* cache) {
  IMGRN_CHECK_EQ(xs.size(), xt.size());
  const PermutationBlocks& blocks = cache->BlocksForLength(xt.size());
  // The observed distance is the accept/reject anchor, computed once per
  // pair in the scalar reference's order (speed is immaterial next to the
  // S samples).
  const double observed = SquaredEuclideanDistance(xs, xt);
  auto* kernel = ActiveKernels().permuted_squared_distance_block;
  double distances[kPermutedDistanceBatch];
  size_t hits = 0;
  for (size_t k = 0; k < blocks.num_blocks(); ++k) {
    const size_t width = blocks.block_width(k);
    kernel(xs, xt, blocks.block(k), width, distances);
    for (size_t b = 0; b < width; ++b) {
      if (distances[b] > observed) ++hits;
    }
  }
  return static_cast<double>(hits) /
         static_cast<double>(blocks.num_samples());
}

double EstimateEdgeProbabilityAbsoluteCached(std::span<const double> xs,
                                             std::span<const double> xt,
                                             PermutationCache* cache) {
  IMGRN_CHECK_EQ(xs.size(), xt.size());
  const PermutationBlocks& blocks = cache->BlocksForLength(xt.size());
  const double two_l = 2.0 * static_cast<double>(xs.size());
  const double observed =
      std::fabs(1.0 - SquaredEuclideanDistance(xs, xt) / two_l);
  auto* kernel = ActiveKernels().permuted_squared_distance_block;
  double distances[kPermutedDistanceBatch];
  size_t hits = 0;
  for (size_t k = 0; k < blocks.num_blocks(); ++k) {
    const size_t width = blocks.block_width(k);
    kernel(xs, xt, blocks.block(k), width, distances);
    for (size_t b = 0; b < width; ++b) {
      const double randomized = std::fabs(1.0 - distances[b] / two_l);
      if (observed > randomized) ++hits;
    }
  }
  return static_cast<double>(hits) /
         static_cast<double>(blocks.num_samples());
}

double ExpectedPermutedDistanceCached(std::span<const double> x,
                                      std::span<const double> pivot,
                                      PermutationCache* cache) {
  IMGRN_CHECK_EQ(x.size(), pivot.size());
  const PermutationBlocks& blocks = cache->BlocksForLength(x.size());
  // Argument roles: the historical loop permutes x and measures against
  // the fixed pivot, so the batched kernel gets (pivot, x) — out[b] =
  // sum_i (pivot[i] - x[perm_b[i]])^2. The sign of each difference is
  // flipped relative to dist(x^R, pivot), but IEEE negation is exact and
  // (-d)*(-d) == d*d bitwise, so the sums stay bit-identical.
  auto* kernel = ActiveKernels().permuted_squared_distance_block;
  double distances[kPermutedDistanceBatch];
  double sum = 0.0;
  for (size_t k = 0; k < blocks.num_blocks(); ++k) {
    const size_t width = blocks.block_width(k);
    kernel(pivot, x, blocks.block(k), width, distances);
    for (size_t b = 0; b < width; ++b) {
      sum += std::sqrt(distances[b]);
    }
  }
  return sum / static_cast<double>(blocks.num_samples());
}

}  // namespace imgrn
