#include "inference/permutation_cache.h"

#include <cmath>

#include "common/logging.h"
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

namespace {

/// The `num_samples` permutations of length `l` for `seed`. A fresh stream
/// per length (seed mixed with l) keeps the permutations a function of
/// (seed, num_samples, l) alone — the order lengths are first requested in
/// must not matter, or per-matrix refinement results would depend on which
/// other matrices share the query (breaking the sharded engine's
/// bit-identity with a single engine).
std::shared_ptr<const PermutationBlocks> DrawBlocks(size_t num_samples,
                                                    uint64_t seed, size_t l) {
  Rng rng(seed ^ (0x9E3779B97F4A7C15ULL * (static_cast<uint64_t>(l) + 1)));
  return std::make_shared<const PermutationBlocks>(num_samples, l, &rng);
}

}  // namespace

std::shared_ptr<const PermutationBlocks> PermutationTable::Lookup(
    size_t num_samples, uint64_t seed, size_t length) {
  const Key key{num_samples, seed, length};
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) return it->second;
  }
  // Drawn without the lock, so lookups of other keys never wait on a fill.
  std::shared_ptr<const PermutationBlocks> drawn =
      DrawBlocks(num_samples, seed, length);
  std::lock_guard<std::mutex> lock(mutex_);
  // A racing fill drew the same permutations; the first insert wins.
  const auto it = entries_.find(key);
  if (it != entries_.end()) return it->second;
  if (drawn->bytes() > kPermutationTableBytes) return drawn;
  while (bytes_ + drawn->bytes() > kPermutationTableBytes) {
    const auto oldest = entries_.find(insertion_order_.front());
    bytes_ -= oldest->second->bytes();
    entries_.erase(oldest);
    insertion_order_.pop_front();
  }
  entries_.emplace(key, drawn);
  insertion_order_.push_back(key);
  bytes_ += drawn->bytes();
  return drawn;
}

size_t PermutationTable::num_entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

size_t PermutationTable::bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

PermutationCache::PermutationCache(size_t num_samples, uint64_t seed,
                                   PermutationTable* table)
    : num_samples_(num_samples), seed_(seed), table_(table) {
  IMGRN_CHECK_GT(num_samples, 0u);
}

const PermutationBlocks& PermutationCache::BlocksForLength(size_t l) {
  std::shared_ptr<const PermutationBlocks>& blocks = blocks_[l];
  if (blocks == nullptr) {
    blocks = table_ != nullptr ? table_->Lookup(num_samples_, seed_, l)
                               : DrawBlocks(num_samples_, seed_, l);
  }
  return *blocks;
}

size_t MinHitsAbove(double gamma, size_t num_samples) {
  // Binary search for the first h in [0, S + 1) whose estimate clears
  // gamma; S + 1 stands for "none does".
  size_t lo = 0;
  size_t hi = num_samples + 1;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (static_cast<double>(mid) / static_cast<double>(num_samples) > gamma) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

size_t CountPermutedHits(std::span<const double> xs,
                         std::span<const double> xt, PermutationCache* cache,
                         size_t min_hits, HitCountStop stop) {
  IMGRN_CHECK_EQ(xs.size(), xt.size());
  if (IsZeroVector(xs) || IsZeroVector(xt)) return 0;
  const PermutationBlocks& blocks = cache->BlocksForLength(xt.size());
  // The observed distance is the accept/reject anchor, computed once per
  // pair in the scalar reference's order (speed is immaterial next to the
  // S samples).
  const double observed = SquaredEuclideanDistance(xs, xt);
  auto* kernel = ActiveKernels().permuted_squared_distance_block;
  double distances[kPermutedDistanceBatch];
  size_t hits = 0;
  size_t remaining = blocks.num_samples();
  for (size_t k = 0; k < blocks.num_blocks(); ++k) {
    const size_t width = blocks.block_width(k);
    kernel(xs, xt, blocks.block(k), width, distances);
    for (size_t b = 0; b < width; ++b) {
      if (distances[b] > observed) ++hits;
    }
    remaining -= width;
    if (stop == HitCountStop::kNever) continue;
    if (hits + remaining < min_hits) break;
    if (stop == HitCountStop::kWhenDecided && hits >= min_hits) break;
  }
  return hits;
}

double EstimateEdgeProbabilityCached(std::span<const double> xs,
                                     std::span<const double> xt,
                                     PermutationCache* cache) {
  const size_t hits =
      CountPermutedHits(xs, xt, cache, 0, HitCountStop::kNever);
  return static_cast<double>(hits) /
         static_cast<double>(cache->num_samples());
}

double EstimateEdgeProbabilityAbsoluteCached(std::span<const double> xs,
                                             std::span<const double> xt,
                                             PermutationCache* cache) {
  IMGRN_CHECK_EQ(xs.size(), xt.size());
  if (IsZeroVector(xs) || IsZeroVector(xt)) return 0.0;
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
