#ifndef IMGRN_SERVICE_PARTITIONER_H_
#define IMGRN_SERVICE_PARTITIONER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "matrix/gene_matrix.h"

namespace imgrn {

/// A full assignment of global source ids to shards: source i lives on
/// shard shard_of[i]. A Partitioner produces it, and
/// ShardedEngine::LoadDatabase places each source by it for good.
struct PartitionPlan {
  size_t num_shards = 0;

  /// shard_of[i] = shard owning global source i; size = number of sources.
  std::vector<uint32_t> shard_of;

  /// InvalidArgument unless shard_of has `num_sources` entries, every one
  /// of them < num_shards, and num_shards >= 1.
  Status Validate(size_t num_sources) const;
};

/// Deterministic proxy for the per-query work a source induces: candidate
/// gene pairs scale with n_i^2 and each refinement permutation touches all
/// l_i samples, so cost = n_i^2 * l_i. The absolute scale is meaningless;
/// only ratios matter (bin packing, imbalance gauges). Partitioning by
/// this proxy — not by source count — is what relieves skewed databases
/// (one 10x matrix costs ~100x, so "equal counts" serializes the fan-out
/// on the hot shard).
double EstimateSourceCost(const GeneMatrix& matrix);

/// EstimateSourceCost over every matrix of the database, by source id.
std::vector<double> EstimateSourceCosts(const GeneDatabase& database);

/// max(shard_costs) / mean(shard_costs): 1.0 is perfect balance, K is the
/// worst case (all load on one of K shards). Fan-out latency is bounded by
/// the hottest shard, so this ratio IS the skew penalty. Returns 1.0 for
/// an empty vector or an idle engine (mean 0).
double MaxMeanImbalance(const std::vector<double>& shard_costs);

/// Placement policy of a ShardedEngine: produces the initial partition
/// plan at LoadDatabase time and places each incrementally added source.
/// Implementations must be deterministic (same costs -> same plan) and
/// stateless/thread-safe — the engine may consult them from any thread
/// holding its update lock.
///
/// Partitioning NEVER affects query results: the differential suite
/// (tests/partition_invariance_test.cc) proves any plan — balanced,
/// adversarial, or degenerate — yields results bit-identical to a single
/// unsharded engine. A partitioner only chooses how much work each shard
/// shoulders.
class Partitioner {
 public:
  virtual ~Partitioner() = default;

  /// Stable name ("modulo", "balanced", "explicit") for logs and CLI.
  virtual const char* name() const = 0;

  /// Assigns costs.size() sources to `num_shards` shards.
  virtual PartitionPlan Partition(const std::vector<double>& costs,
                                  size_t num_shards) const = 0;

  /// Shard for a newly appended source, given the current per-shard load.
  /// Default: least-loaded shard (lowest index on ties).
  virtual size_t PlaceSource(SourceId source, double cost,
                             const std::vector<double>& shard_costs) const;
};

/// The PR-2 baseline: source i -> shard i mod K. Ignores costs entirely,
/// so a skewed source-size distribution lands wherever the ids happen to
/// fall — the pathology the balanced partitioner exists to fix.
class ModuloPartitioner : public Partitioner {
 public:
  const char* name() const override { return "modulo"; }
  PartitionPlan Partition(const std::vector<double>& costs,
                          size_t num_shards) const override;
  size_t PlaceSource(SourceId source, double cost,
                     const std::vector<double>& shard_costs) const override;
};

/// Size-balanced greedy bin packing (LPT: longest processing time first):
/// sources sorted by cost descending (ties by id ascending) are assigned
/// one by one to the currently least-loaded shard. Guarantees max shard
/// cost <= (4/3 - 1/(3K)) x optimal; in practice near-perfect whenever no
/// single source dominates the total.
class BalancedPartitioner : public Partitioner {
 public:
  const char* name() const override { return "balanced"; }
  PartitionPlan Partition(const std::vector<double>& costs,
                          size_t num_shards) const override;
};

/// A fixed, caller-supplied map — the escape hatch for operators (pin a
/// source to a shard) and the workhorse of the property-based differential
/// tests (random maps, empty shards, all-in-one). New sources fall back to
/// least-loaded placement.
class ExplicitPartitioner : public Partitioner {
 public:
  explicit ExplicitPartitioner(PartitionPlan plan) : plan_(std::move(plan)) {}

  const char* name() const override { return "explicit"; }

  /// Returns the stored plan whatever `costs` and `num_shards` ask for.
  /// ShardedEngine::LoadDatabase CHECKs the fit: the plan must cover the
  /// database over the engine's shard count.
  PartitionPlan Partition(const std::vector<double>& costs,
                          size_t num_shards) const override;

 private:
  PartitionPlan plan_;
};

/// Factory for the CLI / bench strategy flags: "modulo" or "balanced".
/// Returns null for an unknown name; prefer ParsePartitioner where a
/// diagnosable Status is wanted.
std::shared_ptr<const Partitioner> MakePartitioner(const std::string& name);

/// The names MakePartitioner accepts, comma-separated, for error messages
/// and --help text: "modulo, balanced".
const char* KnownPartitionerNames();

/// MakePartitioner with a proper error channel: an unknown `name` yields
/// InvalidArgument naming the valid strategies (never a null partitioner),
/// so CLI/bench/service code can propagate it without a null check.
Result<std::shared_ptr<const Partitioner>> ParsePartitioner(
    const std::string& name);

}  // namespace imgrn

#endif  // IMGRN_SERVICE_PARTITIONER_H_
