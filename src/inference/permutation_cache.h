#ifndef IMGRN_INFERENCE_PERMUTATION_CACHE_H_
#define IMGRN_INFERENCE_PERMUTATION_CACHE_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "matrix/simd_ops.h"

namespace imgrn {

/// The S permutations of one length, laid out for the batched Monte Carlo
/// kernel (simd_ops.h permuted_squared_distance_block): samples are grouped
/// into blocks of kPermutedDistanceBatch, and within block k the indices
/// are interleaved position-major — entry [i * width(k) + b] is sample
/// (k * kPermutedDistanceBatch + b)'s permutation image of position i. One
/// kernel call then evaluates a whole block's distances in a single pass
/// over the standardized columns. Sample order is draw order: sample s is
/// the s-th Rng::Permutation draw of the generating stream.
class PermutationBlocks {
 public:
  /// Draws `num_samples` permutations of `length` from `rng`, in order,
  /// straight into the interleaved blocks.
  PermutationBlocks(size_t num_samples, size_t length, Rng* rng);

  size_t num_samples() const { return num_samples_; }
  size_t length() const { return length_; }
  size_t num_blocks() const {
    return (num_samples_ + kPermutedDistanceBatch - 1) /
           kPermutedDistanceBatch;
  }
  /// Number of samples in block `k` (kPermutedDistanceBatch except for a
  /// narrower final block).
  size_t block_width(size_t k) const {
    const size_t begin = k * kPermutedDistanceBatch;
    const size_t remaining = num_samples_ - begin;
    return remaining < kPermutedDistanceBatch ? remaining
                                              : kPermutedDistanceBatch;
  }
  /// Interleaved index data of block `k`.
  const uint32_t* block(size_t k) const {
    return data_.data() + k * length_ * kPermutedDistanceBatch;
  }

 private:
  size_t num_samples_ = 0;
  size_t length_ = 0;
  std::vector<uint32_t> data_;
};

/// Caches S random permutations per vector length l. Estimating edge
/// probabilities for all O(n^2) gene pairs of one matrix draws permutations
/// of the same length over and over; reusing a fixed sample of permutations
/// across pairs keeps every per-pair estimate unbiased (each permutation is
/// still uniform) while removing the dominant RNG cost. The Baseline
/// materialization and full-GRN inference use this; the plain
/// EdgeProbabilityEstimator (fresh permutations per pair) remains the
/// reference implementation.
///
/// Thread compatibility: NOT thread-safe — BlocksForLength() mutates the
/// cache on a miss, so a single instance must not be shared across threads
/// without external synchronization. The query pipeline never shares one:
/// ImGrnQueryProcessor, refinement, and InferGrn each construct a per-call
/// cache seeded from the query params, which is also what makes concurrent
/// queries bit-reproducible (see QueryService). ImGrnIndex's long-lived
/// embed cache is only touched on the update path, which QueryService
/// serializes behind its writer lock, and by a parallel Build, which
/// fills BlocksForLength for every length before its workers start, so
/// the workers only look entries up.
///
/// Order invariance: the permutations of length l depend only on
/// (seed, num_samples, l) — each length draws from its own seeded stream,
/// never from a stream shared across lengths. So the permutations a matrix
/// is refined with do not depend on which other matrices were refined
/// first, which is what lets the sharded engine partition a database and
/// still produce bit-identical results to a single engine (see
/// service/sharded_engine.h).
class PermutationCache {
 public:
  /// `num_samples` permutations are generated per distinct length, seeded
  /// deterministically from `seed` and the length.
  PermutationCache(size_t num_samples, uint64_t seed);

  size_t num_samples() const { return num_samples_; }

  /// Returns the cached permutations of length `l`, drawn into interleaved
  /// blocks on first use.
  const PermutationBlocks& BlocksForLength(size_t l);

  /// Cumulative wall-clock spent GENERATING cache entries (the
  /// BlocksForLength misses) since construction. Fills are amortized
  /// overhead of the whole call that owns the cache, not of whichever
  /// matrix happened to trigger them: per-source cost attribution reads
  /// this before/after refining each source and books the delta to a
  /// shared overhead bucket instead of the source (see
  /// QueryStats::permutation_fill_seconds) — otherwise the first refined
  /// source of each length eats the fill and the measured cost model
  /// becomes layout-dependent.
  double fill_seconds() const { return fill_seconds_; }

 private:
  size_t num_samples_;
  uint64_t seed_;
  double fill_seconds_ = 0.0;
  std::unordered_map<size_t, PermutationBlocks> blocks_;
};

/// Estimates e.p = Pr{dist(xs, xt^R) > dist(xs, xt)} using the cached
/// permutations for xt's length — the Lemma-1 reduced (one-sided) measure
/// that all of the paper's pruning bounds are derived against.
///
/// Evaluated via the batched block kernel: S samples cost ceil(S/8) passes
/// over the columns instead of S permute-then-distance passes. The result
/// is bit-identical to the historical per-sample evaluation on EVERY
/// dispatch backend: each lane accumulates its sample's distance in the
/// scalar reference's operation order (simd_ops.h), and the `observed`
/// anchor each sample is compared against is computed with the scalar
/// SquaredEuclideanDistance. The Monte Carlo accept/reject
/// decisions are therefore invariant under IMGRN_FORCE_SCALAR / CPU.
double EstimateEdgeProbabilityCached(std::span<const double> xs,
                                     std::span<const double> xt,
                                     PermutationCache* cache);

/// Estimates the literal Eq.-(1) measure with ABSOLUTE Pearson correlation,
///   Pr{ |cor(xs, xt)| > |cor(xs, xt^R)| },
/// still evaluated in distance space via |cor| = |1 - dist^2 / (2 l)|
/// (Appendix B, Eq. 12). Differs from the one-sided reduction only when a
/// correlation is negative; the ROC experiments of Section 6.2 use this
/// variant so anti-correlated regulatory interactions rank high.
/// Requires standardized vectors.
double EstimateEdgeProbabilityAbsoluteCached(std::span<const double> xs,
                                             std::span<const double> xt,
                                             PermutationCache* cache);

/// Estimates E[dist(x^R, pivot)] using cached permutations.
double ExpectedPermutedDistanceCached(std::span<const double> x,
                                      std::span<const double> pivot,
                                      PermutationCache* cache);

}  // namespace imgrn

#endif  // IMGRN_INFERENCE_PERMUTATION_CACHE_H_
