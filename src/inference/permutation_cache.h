#ifndef IMGRN_INFERENCE_PERMUTATION_CACHE_H_
#define IMGRN_INFERENCE_PERMUTATION_CACHE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "matrix/simd_ops.h"

namespace imgrn {

/// Largest accepted permutation count S: QueryParams' query and refine
/// counts and ImGrnIndexOptions::embed_samples. S permutations of every
/// sample length are drawn and kept, so S is an allocation size; no
/// caller uses more than 1,024.
inline constexpr size_t kMaxPermutationSamples = 65536;

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
  /// Size of the index data in bytes.
  size_t bytes() const { return data_.size() * sizeof(uint32_t); }

 private:
  size_t num_samples_ = 0;
  size_t length_ = 0;
  std::vector<uint32_t> data_;
};

/// Largest total size of the blocks one PermutationTable keeps. The
/// engines' query paths need a few MiB: two seeds (inference and
/// refinement) times the distinct sample lengths, at 4 bytes per index.
inline constexpr size_t kPermutationTableBytes = size_t{16} << 20;

/// The engine-lifetime store of permutation blocks behind the query path,
/// keyed by (S, seed, l). Every query of an engine with the same seed and
/// sample count needs the same draws (see "Order invariance" below), so
/// the first query that needs a length fills it and later queries look it
/// up instead of drawing again.
///
/// Thread-safe. Entries are immutable once published and handed out as
/// shared pointers. A miss draws outside the lock, from the same
/// per-length stream a private PermutationCache uses, and the first insert
/// wins; since both racers drew the same permutations, the content never
/// depends on which thread filled first. The table keeps at most
/// kPermutationTableBytes and evicts in insertion order; an entry larger
/// than the bound is served but not kept. A holder of an evicted entry
/// keeps it alive, so eviction never invalidates a query in flight.
class PermutationTable {
 public:
  PermutationTable() = default;
  PermutationTable(const PermutationTable&) = delete;
  PermutationTable& operator=(const PermutationTable&) = delete;

  /// The S = `num_samples` permutations of `length` drawn from `seed`'s
  /// stream for that length, filled on first use.
  std::shared_ptr<const PermutationBlocks> Lookup(size_t num_samples,
                                                  uint64_t seed,
                                                  size_t length);

  /// Entries kept and their total size in bytes.
  size_t num_entries() const;
  size_t bytes() const;

 private:
  using Key = std::tuple<size_t, uint64_t, size_t>;  // (S, seed, l).

  mutable std::mutex mutex_;
  std::map<Key, std::shared_ptr<const PermutationBlocks>> entries_;
  std::deque<Key> insertion_order_;
  size_t bytes_ = 0;
};

/// Per-call view of S random permutations per vector length l. Estimating
/// edge probabilities for all O(n^2) gene pairs of one matrix draws
/// permutations of the same length over and over; reusing a fixed sample
/// of permutations across pairs keeps every per-pair estimate unbiased
/// (each permutation is still uniform) while removing the dominant RNG
/// cost. The Baseline materialization and full-GRN inference use this;
/// the plain EdgeProbabilityEstimator (fresh permutations per pair)
/// remains the reference implementation.
///
/// A cache built with a PermutationTable looks its lengths up there, so
/// queries share one draw; without one it draws into private blocks. Both
/// return bit-identical blocks. The view keeps every entry it looked up,
/// so a reference BlocksForLength returned stays valid for the view's
/// lifetime even after the table evicts the entry.
///
/// Thread compatibility: the view itself is NOT thread-safe —
/// BlocksForLength() mutates it on a first lookup, so one instance must
/// not be shared across threads without external synchronization. The
/// query pipeline never shares one: ImGrnQueryProcessor's refinement and
/// InferQueryGraph each construct a per-call view over the engine's table,
/// which is thread-safe. ImGrnIndex's long-lived embed cache is only
/// touched on the update path, which ShardedEngine serializes behind the
/// shard replica's writer lock, and by Build, which fills BlocksForLength
/// for every length before its workers start, so the workers only look
/// entries up.
///
/// Order invariance: the permutations of length l depend only on
/// (seed, num_samples, l) — each length draws from its own seeded stream,
/// never from a stream shared across lengths. So the permutations a matrix
/// is refined with do not depend on which other matrices were refined
/// first, which is what lets the sharded engine partition a database and
/// still produce bit-identical results to a single engine (see
/// service/sharded_engine.h). The same holds across queries: a table
/// entry an earlier query filled is exactly what this query would have
/// drawn, so answers do not depend on which queries ran before, nor on
/// what the table evicted.
class PermutationCache {
 public:
  /// `num_samples` permutations are generated per distinct length, seeded
  /// deterministically from `seed` and the length. `table`, when non-null,
  /// supplies the blocks and must outlive the cache.
  PermutationCache(size_t num_samples, uint64_t seed,
                   PermutationTable* table = nullptr);

  size_t num_samples() const { return num_samples_; }

  /// Returns the permutations of length `l`, looked up in the table or
  /// drawn into interleaved blocks on first use.
  const PermutationBlocks& BlocksForLength(size_t l);

 private:
  size_t num_samples_;
  uint64_t seed_;
  PermutationTable* table_;
  std::unordered_map<size_t, std::shared_ptr<const PermutationBlocks>>
      blocks_;
};

/// The smallest hit count h with double(h) / double(S) > gamma, S =
/// `num_samples`, computed with the estimate's own expression. Division by
/// S is monotone, so an estimate h / S exceeds gamma exactly when h is at
/// least this. S + 1 when no count does (gamma >= 1).
size_t MinHitsAbove(double gamma, size_t num_samples);

/// Where CountPermutedHits may stop short of all S samples. It checks at
/// each block boundary: after k samples (a multiple of
/// kPermutedDistanceBatch, or S) with h hits among them.
enum class HitCountStop {
  /// Count all S samples: h / S is the exact estimate.
  kNever,
  /// Stop once h + (S - k) < min_hits: the estimate can no longer exceed
  /// gamma.
  kWhenUnreachable,
  /// Stop then, or once h >= min_hits: it already exceeds gamma.
  kWhenDecided,
};

/// Counts the samples R with dist(xs, xt^R) > dist(xs, xt) over the cached
/// permutations of xt's length, block by block, stopping as `stop` allows
/// against `min_hits` (MinHitsAbove(gamma, S)). Whatever the stop, the
/// count reaches `min_hits` iff the full count does, so `count / S > gamma`
/// decides Definition 2 exactly as the full estimate would. When no stop
/// fires the count is the full one.
///
/// The count is 0 when xs or xt is all zeros, a standardized constant
/// column. Such a vector correlates with nothing, and every permuted
/// distance ties the observed one in exact arithmetic, so counting would
/// leave the outcome to rounding (and to which argument is constant).
size_t CountPermutedHits(std::span<const double> xs,
                         std::span<const double> xt, PermutationCache* cache,
                         size_t min_hits, HitCountStop stop);

/// Estimates e.p = Pr{dist(xs, xt^R) > dist(xs, xt)} using the cached
/// permutations for xt's length — the Lemma-1 reduced (one-sided) measure
/// that all of the paper's pruning bounds are derived against. This is
/// CountPermutedHits with no stop, divided by S.
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
/// Requires standardized vectors; 0 when either is all zeros, as for
/// CountPermutedHits.
double EstimateEdgeProbabilityAbsoluteCached(std::span<const double> xs,
                                             std::span<const double> xt,
                                             PermutationCache* cache);

/// Estimates E[dist(x^R, pivot)] using cached permutations.
double ExpectedPermutedDistanceCached(std::span<const double> x,
                                      std::span<const double> pivot,
                                      PermutationCache* cache);

}  // namespace imgrn

#endif  // IMGRN_INFERENCE_PERMUTATION_CACHE_H_
