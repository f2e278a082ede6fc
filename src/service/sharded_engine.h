#ifndef IMGRN_SERVICE_SHARDED_ENGINE_H_
#define IMGRN_SERVICE_SHARDED_ENGINE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/prob_graph.h"
#include "inference/permutation_cache.h"
#include "matrix/gene_matrix.h"
#include "query/query_control.h"
#include "query/query_types.h"
#include "service/replica_set.h"
#include "service/thread_pool.h"

namespace imgrn {

/// Deterministic proxy for the per-query work a source induces: candidate
/// gene pairs scale with n_i^2 and each refinement permutation touches all
/// l_i samples, so cost = n_i^2 * l_i. The absolute scale is meaningless;
/// only ratios matter (the per-shard cost gauges and their imbalance).
double EstimateSourceCost(const GeneMatrix& matrix);

/// max(shard_costs) / mean(shard_costs): 1.0 is perfect balance, K is the
/// worst case (all load on one of K shards). Fan-out latency is bounded by
/// the hottest shard, so this ratio IS the skew penalty. Returns 1.0 for
/// an empty vector or an idle engine (mean 0).
double MaxMeanImbalance(const std::vector<double>& shard_costs);

/// Knobs of a ShardedEngine.
struct ShardedEngineOptions {
  /// Number of independent ImGrnEngine shards, each with its own index,
  /// its own R*-tree pages and its own buffer pool. 1 is the unsharded
  /// case: one engine over the whole database. Fixed for the engine's
  /// lifetime; source g lives on shard g mod num_shards.
  size_t num_shards = 4;

  /// Replicas per shard (1 = no replication, the historical behavior).
  /// Every replica is a bit-exact mirror of its shard: updates apply to
  /// all replicas in lock step, and each sub-query is served by ONE
  /// replica picked round-robin, so answers stay byte-identical. Fixed for
  /// the engine's lifetime.
  size_t num_replicas = 1;
};

/// Per-replica counters inside one ShardStats.
struct ReplicaStats {
  size_t replica = 0;
  uint64_t sub_queries = 0;      ///< Finished sub-queries this replica served.
  uint64_t sub_query_errors = 0; ///< Of those, non-OK (incl. cancelled).
  uint64_t in_flight = 0;        ///< Sub-queries running right now.
};

/// Per-shard counters of one StatsSnapshot() call. The sub-query counters
/// are sums over the shard's replicas; `replicas` holds the per-replica
/// split.
struct ShardStats {
  size_t shard = 0;
  size_t sources = 0;            ///< Active (added minus removed) sources.
  double cost = 0.0;             ///< Estimated load (EstimateSourceCost sum).
  double measured_seconds = 0.0; ///< Measured load: the summed busy time
                                 ///< (QueryStats::total_seconds) of the
                                 ///< sub-queries its replicas served
                                 ///< (0 until queries ran).
  uint64_t sub_queries = 0;      ///< Finished per-shard sub-queries.
  uint64_t sub_query_errors = 0; ///< Of those, non-OK (incl. cancelled).
  uint64_t in_flight = 0;        ///< Sub-queries running right now.
  std::vector<ReplicaStats> replicas;
};

struct ShardedEngineStatsSnapshot {
  std::vector<ShardStats> shards;

  /// Replicas per shard (uniform across shards).
  size_t replicas = 1;

  /// max/mean of the per-shard cost gauges (1.0 = perfectly balanced,
  /// num_shards = all load on one shard). Fan-out latency is bounded by
  /// the hottest shard, so this is the skew penalty of the placement.
  double imbalance = 1.0;

  /// The same max/mean ratio over the MEASURED per-shard busy time
  /// (ShardStats::measured_seconds). 1.0 before any sub-query ran; after
  /// that, the imbalance queries actually experienced, which can disagree
  /// with the estimate in either direction (e.g. a giant source the index
  /// prunes perfectly inflates the estimate but costs little measured).
  double measured_imbalance = 1.0;

  /// One line per shard, e.g. "shard0: sources=3 load=1.2e5
  /// measured=2.1e-3s sub_queries=17 errors=0 in_flight=0", each followed
  /// by one line per replica with its counters, then an
  /// "imbalance=" summary line reporting both ratios.
  std::string DebugString() const;
};

/// The serving engine: a database partitioned across K independent
/// ImGrnEngine instances, each optionally mirrored across R replicas, made
/// safe for concurrent queries and updates. QueryService serves exactly
/// this class; K = 1 is the unsharded case, one ImGrnEngine behind a
/// reader-writer lock. A query is validated, fans out one sub-query per
/// shard and merges them. Placement is a fixed function of the id: source
/// g lives on shard g mod K at that shard's local id g div K, whether it
/// arrives with LoadDatabase or AddSource, and nothing moves it
/// afterwards. The shard and replica counts are fixed at construction; a
/// different layout is a new engine loaded with the database.
///
/// Contract:
///   - Every method except the setup-phase LoadDatabase and BuildIndex is
///     safe to call from any thread at any time once BuildIndex has run.
///     ImGrnEngine alone promises only a thread-compatible const query
///     path; the per-replica reader-writer locks below add the rest.
///   - Source ids are dense and append-only across the engine's lifetime:
///     the i-th source has id i, and AddSource requires the next id in
///     sequence. RemoveSource retracts a source from query results; its id
///     is never reused.
///   - A query fails whole (see "Error semantics").
///
/// Why shards: an update routes to exactly one shard and only write-locks
/// that shard's replicas — with K > 1, queries keep running on the other
/// K-1 shards — and every replica traverses its own R*-tree over its own
/// buffer pool. The shards also build their indices in parallel. Sharding
/// splits the data; replication multiplies READ capacity: R replicas
/// serve R sub-queries of the same shard concurrently (reads take shared
/// locks, but each replica has its own buffer pool and engine, so they do
/// not contend). The engine persists nothing: a durable index is a plain
/// ImGrnEngine's snapshot, and a sharded engine re-partitions on load.
///
/// Query semantics are bit-identical to a single ImGrnEngine over the
/// unpartitioned database, for every shard count and every replica count:
///   - the query GRN is inferred ONCE (same seed, same stream), then fanned
///     out to each shard as a sub-query over that shard's sources;
///   - refinement probabilities are per-source deterministic regardless of
///     partitioning: the engine's one PermutationTable serves its
///     inference and every replica's refinement, and each entry depends
///     only on (S, seed, l), never on which query, shard or replica filled
///     it (see inference/permutation_cache.h), so WHICH replica serves a
///     sub-query cannot change its matches;
///   - matches come back with shard-local ids, are remapped to global
///     source ids (local l on shard s is l * K + s), merged in ascending
///     source order, and the top_k policy is applied once to the merged
///     set;
///   - index pruning only ever discards non-answers, so different per-shard
///     pivots change work, not results.
/// tests/sharded_engine_test.cc enforces this differentially across shard
/// counts (empty shards and K > num_sources included);
/// tests/replication_test.cc across replica counts.
///
/// Load accounting is static plus one measurement: each shard sums the
/// genes² × samples estimates of its live sources (ShardStats::cost), and
/// each replica sums the QueryStats::total_seconds of the sub-queries it
/// serves (ShardStats::measured_seconds). Sub-queries skip the per-source
/// breakdown, so QueryStats::source_costs stays empty here.
///
/// Fan-out runs on the ThreadPool passed at construction (pass null to run
/// sub-queries sequentially on the calling thread; a single shard's
/// sub-query always runs there, since it has nothing to overlap with). The
/// pool may be shared with the QueryService that serves this engine:
/// gathering uses ThreadPool::WaitReady, so a worker blocked on its
/// sub-queries executes queued tasks itself instead of deadlocking the
/// pool.
///
/// Error semantics: a query fails whole, like one ImGrnEngine. Each
/// sub-query runs once, on the replica the round-robin cursor picks; there
/// is no retry, no failover and no partial answer. Every sub-query is
/// gathered first (no orphaned tasks), then the query returns the error
/// Status of the lowest-numbered failing shard, or the merged matches
/// when every shard answered. A cancelled/expired QueryControl fans out
/// to every shard, so all sub-queries unwind at their next checkpoint.
///
/// Locking: LoadDatabase/BuildIndex are setup-phase calls, and no other
/// call may overlap them. Queries read the shard list without a lock,
/// since only LoadDatabase writes it; updates serialize on one mutex and
/// write-lock only the replicas of the shard they touch.
class ShardedEngine {
 public:
  explicit ShardedEngine(ShardedEngineOptions options = {},
                         ThreadPool* pool = nullptr);

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// Splits the database across fresh shards: source g goes to shard
  /// g mod K at local id g div K, mirrored onto every replica of that
  /// shard. Invalidates any previously built indices.
  void LoadDatabase(GeneDatabase database);

  /// Builds every non-empty shard replica's index, in parallel when a
  /// pool is available. Must be called after LoadDatabase and before
  /// Query. InvalidArgument, with nothing built, when a matrix fails
  /// ValidateGeneMatrix. FailedPrecondition, keeping the built indices,
  /// after a RemoveSource (see ImGrnEngine::BuildIndex).
  Status BuildIndex();

  /// Runs one IM-GRN query (ad-hoc inference + matching) against the
  /// current source set. `stats` may be null; `control`, when non-null,
  /// carries the request's deadline/cancellation flag.
  Result<std::vector<QueryMatch>> Query(
      const GeneMatrix& query_matrix, const QueryParams& params,
      QueryStats* stats = nullptr,
      const QueryControl* control = nullptr) const;

  /// Variant taking an already-inferred query GRN.
  Result<std::vector<QueryMatch>> QueryWithGraph(
      const ProbGraph& query_graph, const QueryParams& params,
      QueryStats* stats = nullptr,
      const QueryControl* control = nullptr) const;

  /// Appends a new data source; `matrix.source_id()` must equal
  /// num_sources(). The matrix is appended to every replica of shard
  /// ShardOf(id) (lock step), at local id id div K, and only those
  /// replicas are write-locked. InvalidArgument, with nothing changed, when
  /// the matrix fails ValidateGeneMatrix.
  Status AddSource(GeneMatrix matrix);

  /// Retracts a source from query results and frees its data on every
  /// replica (ImGrnEngine::RemoveMatrix). Write-locks only the owning
  /// shard's replicas.
  Status RemoveSource(SourceId source);

  size_t num_shards() const { return options_.num_shards; }

  /// Replicas per shard (uniform across shards).
  size_t num_replicas() const { return options_.num_replicas; }

  /// Total sources ever added (the dense global id space; removed sources
  /// still count — ids are never reused).
  size_t num_sources() const;

  /// The shard that owns global source id `source`: source mod K.
  size_t ShardOf(SourceId source) const {
    return source % options_.num_shards;
  }

  bool has_index() const { return built_; }

  /// Runs one shard's sub-query on its PRIMARY replica under that
  /// replica's reader lock, returning that shard's matches with GLOBAL
  /// source ids (ascending). An empty shard yields an empty result; a
  /// graph QueryWithGraph refuses (ValidateQueryGraph) is refused on every
  /// shard, empty or not. This is the unit Query fans out (there routed
  /// across all replicas); it is also useful on its own (tests, debugging a
  /// single shard).
  Result<std::vector<QueryMatch>> QueryShard(
      size_t shard, const ProbGraph& query_graph, const QueryParams& params,
      QueryStats* stats = nullptr,
      const QueryControl* control = nullptr) const;

  ShardedEngineStatsSnapshot StatsSnapshot() const;

  /// Test/instrumentation hook: the reader-writer lock of one shard's
  /// primary replica, e.g. to pin it in the "update in progress" state and
  /// observe that the other shards keep serving.
  std::shared_mutex& shard_mutex_for_testing(size_t shard) const;

 private:
  /// QueryShard body without the public bounds check: one sub-query on
  /// the given replica.
  Result<std::vector<QueryMatch>> RunShard(size_t shard_index,
                                           size_t replica_index,
                                           const ProbGraph& query_graph,
                                           const QueryParams& params,
                                           QueryStats* stats,
                                           const QueryControl* control) const;

  /// Replaces the shard list with num_shards fresh sets of num_replicas
  /// empty replicas.
  void ResetShards();

  /// Appends `matrix`, which carries its global source id, to `replica`'s
  /// engine under its write lock, bootstrapping the engine if the replica
  /// was empty.
  Status AppendToReplicaLocked(ShardReplica& replica, GeneMatrix matrix,
                               double cost);

  ShardedEngineOptions options_;
  ThreadPool* pool_;  // May be null (sequential fan-out); not owned.

  /// The query path's permutations: this engine's inference and every
  /// shard replica's refinement look them up here. Internally
  /// synchronized, hence mutable. Declared before shards_, whose engines
  /// hold a pointer to it.
  mutable PermutationTable permutation_table_;

  /// One ReplicaSet per shard. Written only by the constructor and
  /// LoadDatabase, so queries read it without a lock.
  std::vector<std::unique_ptr<ReplicaSet>> shards_;

  /// Serializes the updates with each other. Queries never touch this
  /// mutex — an update only contends with sub-queries of its own shard,
  /// via the replica mutexes.
  mutable std::mutex update_mutex_;

  /// Total sources ever added: the next global id. Guarded by
  /// update_mutex_.
  size_t num_sources_ = 0;

  /// Set by BuildIndex, cleared by LoadDatabase.
  bool built_ = false;
};

}  // namespace imgrn

#endif  // IMGRN_SERVICE_SHARDED_ENGINE_H_
