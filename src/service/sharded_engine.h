#ifndef IMGRN_SERVICE_SHARDED_ENGINE_H_
#define IMGRN_SERVICE_SHARDED_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "core/query_engine.h"
#include "service/partitioner.h"
#include "service/replica_set.h"
#include "service/thread_pool.h"

namespace imgrn {

/// Knobs of a ShardedEngine.
struct ShardedEngineOptions {
  /// Number of independent ImGrnEngine shards. Each shard has its own
  /// index, its own R*-tree paged file, and therefore its own buffer pool
  /// — the shared buffer-pool mutex of the single-engine service does not
  /// exist here. Resize() can change the count at runtime.
  size_t num_shards = 4;

  /// Replicas per shard (1 = no replication, the historical behavior).
  /// Every replica is a bit-exact mirror of its shard: updates apply to
  /// all replicas in lock step, and each sub-query is served by ONE
  /// replica picked round-robin, so answers stay byte-identical.
  /// SetReplicas() can change the count at runtime.
  size_t num_replicas = 1;

  /// Placement policy: decides which shard owns each source, both for the
  /// initial LoadDatabase split and for every AddSource. Null means
  /// ModuloPartitioner (source i -> shard i mod K, the PR-2 behavior).
  /// See service/partitioner.h; partitioning never affects query results.
  std::shared_ptr<const Partitioner> partitioner;

  /// Engine/index options applied to every shard replica, verbatim. Keep
  /// `engine.storage` in memory (the default): a disk path would be opened
  /// by every replica at once.
  EngineOptions engine;
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
                                 ///< sub-queries its current replicas
                                 ///< served (0 until queries ran).
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
  /// the hottest shard, so this is the skew penalty a rebalance removes.
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

/// A database partitioned across K independent ImGrnEngine instances,
/// each optionally mirrored across R replicas. A query is validated, pins
/// one topology, fans out one sub-query per shard and merges them. The
/// partition map is pluggable (see ShardedEngineOptions::partitioner) and
/// can be changed while the engine serves: Rebalance(plan) migrates
/// sources between shards, Resize(K') changes the shard count,
/// SetReplicas(R') the replica count — all without a reload and without
/// ever perturbing query results.
///
/// Why: the single-engine QueryService write-locks the WHOLE index for
/// every AddMatrix/RemoveMatrix, and all queries contend on one buffer
/// pool. Here an update routes to exactly one shard and only write-locks
/// that shard's replicas — queries keep running on the other K-1 shards —
/// and every replica traverses its own R*-tree over its own buffer pool.
/// Sharding splits the data; replication multiplies READ capacity: R
/// replicas serve R sub-queries of the same shard concurrently (reads
/// take shared locks, but each replica has its own buffer pool and
/// engine, so they do not contend). The engine persists nothing: a
/// durable index is a plain ImGrnEngine's snapshot, and a sharded engine
/// re-partitions on load.
///
/// Query semantics are bit-identical to a single ImGrnEngine over the
/// unpartitioned database, for every shard count, every replica count and
/// every partition map:
///   - the query GRN is inferred ONCE (same seed, same stream), then fanned
///     out to each shard as a sub-query over that shard's sources;
///   - refinement probabilities are per-source deterministic regardless of
///     partitioning (PermutationCache draws per-length streams — see
///     inference/permutation_cache.h), so WHICH replica serves a
///     sub-query cannot change its matches;
///   - matches come back with shard-local ids, are remapped to global
///     source ids, merged in ascending source order, and the top_k policy
///     is applied once to the merged set (sub-queries run with top_k
///     disabled so per-shard truncation can never hide a global winner);
///   - index pruning only ever discards non-answers, so different per-shard
///     pivots change work, not results.
/// tests/sharded_engine_test.cc enforces this differentially across shard
/// counts; tests/partition_invariance_test.cc for arbitrary partition
/// maps and across live Rebalance/Resize; tests/replication_test.cc
/// across replica counts.
///
/// Topology changes: the shard list (one ReplicaSet per shard) and the
/// partition map live in one immutable Topology object published behind a
/// mutex. Every query pins the current topology for its whole fan-out (a
/// pin count on the topology object) and filters each shard's matches
/// through the pinned map, so a query is answered by exactly one owner per
/// source even while sources are in flight between shards. Rebalance,
/// Resize and SetReplicas share one copy -> publish -> drain step: copy
/// the listed sources into their destination replicas (under those
/// replicas' write locks), publish the successor topology, then
/// optionally wait for every query pinned to an older topology to finish.
/// A migration runs it twice (a cutover that keeps ownership, then the
/// moving sources) and deletes the moved sources from their old shards
/// afterwards. Between the copy and the delete a moving source is
/// materialized on two shards, but the map filter guarantees each query
/// counts it exactly once — old-topology queries see it on the old owner
/// (whose data outlives them), new-topology queries on the new.
/// SetReplicas grows by cloning each primary into fresh replicas (no
/// drain: older pins stay servable) and shrinks by publishing sets without
/// the tail replicas, then draining. A replica that leaves the topology
/// dies with its last shared_ptr. Queries on shards untouched by a change
/// never block; updates (AddSource/RemoveSource) serialize with a change
/// in progress.
///
/// Load accounting is static plus one measurement: placement and Resize
/// pack the genes² × samples estimates (ShardStats::cost), and each
/// replica sums the QueryStats::total_seconds of the sub-queries it serves
/// (ShardStats::measured_seconds). Sub-queries skip the per-source
/// breakdown, so QueryStats::source_costs stays empty here.
///
/// Fan-out runs on the ThreadPool passed at construction (pass null to run
/// sub-queries sequentially on the calling thread). The pool may be shared
/// with the QueryService that owns this engine: gathering uses
/// ThreadPool::WaitReady, so a worker blocked on its sub-queries executes
/// queued tasks itself instead of deadlocking the pool.
///
/// Error semantics: a query fails whole, like one ImGrnEngine. Each
/// sub-query runs once, on the replica the round-robin cursor picks; there
/// is no retry, no failover and no partial answer. Every sub-query is
/// gathered first (no orphaned tasks), then the query returns the error
/// Status of the lowest-numbered failing shard, or the merged matches
/// when every shard answered. A cancelled/expired QueryControl fans out
/// to every shard, so all sub-queries unwind at their next checkpoint.
///
/// Thread safety: Query/QueryWithGraph/AddSource/RemoveSource/Rebalance/
/// Resize/SetReplicas/StatsSnapshot are safe from any thread once
/// BuildIndex has run (the QueryEngine contract). LoadDatabase/BuildIndex
/// are setup-phase calls: no other call may overlap them.
class ShardedEngine : public QueryEngine {
 public:
  explicit ShardedEngine(ShardedEngineOptions options = {},
                         ThreadPool* pool = nullptr);

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// Partitions the database across the shards following the configured
  /// partitioner's plan over the per-source cost estimates (each shard's
  /// slice is remapped to that shard's dense local id space, mirrored
  /// onto every replica). Invalidates any previously built indices.
  void LoadDatabase(GeneDatabase database);

  /// Builds every non-empty shard replica's index, in parallel when a
  /// pool is available. Must be called after LoadDatabase and before
  /// Query. InvalidArgument, with nothing built, when a matrix fails
  /// ValidateGeneMatrix.
  Status BuildIndex();

  Result<std::vector<QueryMatch>> Query(
      const GeneMatrix& query_matrix, const QueryParams& params,
      QueryStats* stats = nullptr,
      const QueryControl* control = nullptr) const override;

  Result<std::vector<QueryMatch>> QueryWithGraph(
      const ProbGraph& query_graph, const QueryParams& params,
      QueryStats* stats = nullptr,
      const QueryControl* control = nullptr) const override;

  /// Appends a new data source; `matrix.source_id()` must equal
  /// num_sources(). The partitioner picks the owning shard (modulo: id mod
  /// K; cost-based policies: the least-loaded shard); the matrix is
  /// appended to every replica of that shard (lock step), and only those
  /// replicas are write-locked. InvalidArgument, with nothing changed, when
  /// the matrix fails ValidateGeneMatrix.
  Status AddSource(GeneMatrix matrix) override;

  /// Retracts a source from query results. Write-locks only the owning
  /// shard's replicas.
  Status RemoveSource(SourceId source) override;

  /// Migrates sources so that source i lives on shard plan.shard_of[i],
  /// while queries keep running (see the locking protocol above). The plan
  /// must cover exactly num_sources() sources over num_shards() shards.
  /// Retracted sources are accepted in the plan but nothing moves for
  /// them. Blocks concurrent AddSource/RemoveSource/Rebalance/Resize for
  /// the duration; queries only ever wait on the replicas a migration
  /// step is actively copying into or deleting from.
  Status Rebalance(const PartitionPlan& plan);

  /// Re-partitions the database across `new_num_shards` shards (grow or
  /// shrink) using the configured partitioner over the static cost
  /// estimates, without a reload. Shards keep their identity below
  /// min(K, K'); dropped shards are retired once the last in-flight query
  /// pinned to them drains; new shards get the current replica count.
  /// InvalidArgument, with nothing changed, when the partitioner's plan
  /// does not cover every source over `new_num_shards` shards (an
  /// ExplicitPartitioner's fixed plan after AddSource or for another
  /// shard count). Same blocking behavior as Rebalance.
  Status Resize(size_t new_num_shards);

  /// Changes the per-shard replica count at runtime, without a reload and
  /// without perturbing queries. Growing clones every shard's primary
  /// into fresh replicas (bit-exact copies through the same append path
  /// migrations use) before publishing them; shrinking publishes sets
  /// without the tail replicas and drains the queries that could still
  /// route to them, after which they are destroyed.
  Status SetReplicas(size_t num_replicas);

  size_t num_shards() const;

  /// Current replicas per shard (uniform across shards).
  size_t num_replicas() const;

  /// Total sources ever added (the dense global id space; removed sources
  /// still count — ids are never reused).
  size_t num_sources() const override;

  /// Which shard owns a global source id under the CURRENT partition map
  /// (a Rebalance/Resize may change the answer). `source` must be <
  /// num_sources().
  size_t ShardOf(SourceId source) const;

  bool has_index() const { return built_; }

  /// Runs one shard's sub-query on its PRIMARY replica under that
  /// replica's reader lock, returning matches with GLOBAL source ids
  /// (ascending) for the sources the current partition map assigns to
  /// that shard. An empty shard yields an empty result. This is the unit
  /// Query fans out (there routed across all replicas); it is also useful
  /// on its own (tests, debugging a single shard).
  Result<std::vector<QueryMatch>> QueryShard(
      size_t shard, const ProbGraph& query_graph, const QueryParams& params,
      QueryStats* stats = nullptr,
      const QueryControl* control = nullptr) const;

  ShardedEngineStatsSnapshot StatsSnapshot() const;

  /// Test/instrumentation hook: the reader-writer lock of one shard
  /// replica, e.g. to pin a replica in the "update in progress" state and
  /// observe that the other shards keep serving.
  std::shared_mutex& shard_mutex_for_testing(size_t shard,
                                             size_t replica = 0) const;

 private:
  /// The unit of atomicity for queries: an immutable shard list (one
  /// ReplicaSet per shard) + partition map, published as a whole. Queries
  /// pin one topology for their entire fan-out; a topology change
  /// publishes a successor and waits for the pins on its predecessors to
  /// drain before deleting migrated data (or dropping replicas).
  struct Topology {
    std::vector<std::shared_ptr<ReplicaSet>> shards;

    /// Global source id -> owning shard index (size = sources known when
    /// this topology was published; later-added sources are absent and
    /// pass the query filter on whichever single shard holds them).
    std::vector<uint32_t> shard_of;

    /// Queries currently pinned to this topology. Incremented only under
    /// topology_mutex_ while this is the published topology, so once a
    /// successor is published the count can only fall.
    mutable std::atomic<int64_t> pins{0};

    /// Whether `shard` answers for `global` under this map.
    bool Owns(size_t shard, SourceId global) const {
      return global >= shard_of.size() || shard_of[global] == shard;
    }
  };

  using ReplicaSpan = std::span<const std::shared_ptr<ShardReplica>>;

  /// One source a topology change copies: `global`, held at local id
  /// `local` of `donor`, appended to every replica of `to` (a view into a
  /// ReplicaSet of the topology being published).
  struct SourceCopy {
    const ShardReplica* donor;
    SourceId local;
    SourceId global;
    ReplicaSpan to;
  };

  /// RAII pin: snapshots the published topology and holds it for the
  /// caller's lifetime.
  class TopologyPin {
   public:
    explicit TopologyPin(const ShardedEngine& engine);
    ~TopologyPin();
    TopologyPin(const TopologyPin&) = delete;
    TopologyPin& operator=(const TopologyPin&) = delete;
    const Topology& operator*() const { return *topology_; }
    const Topology* operator->() const { return topology_.get(); }

   private:
    std::shared_ptr<const Topology> topology_;
  };

  /// QueryShard body without the public bounds check: one sub-query on
  /// the given replica. `topology` is the pinned snapshot whose map
  /// filters the shard's matches.
  Result<std::vector<QueryMatch>> RunShard(const Topology& topology,
                                           size_t shard_index,
                                           size_t replica_index,
                                           const ProbGraph& query_graph,
                                           const QueryParams& params,
                                           QueryStats* stats,
                                           const QueryControl* control) const;

  /// The published topology.
  std::shared_ptr<const Topology> Current() const;

  /// Publishes `topology` as the current one (under topology_mutex_) and
  /// records the outgoing topology in the drain history.
  void Publish(std::shared_ptr<const Topology> topology);

  /// Blocks until every query pinned to any topology OLDER than `newest`
  /// has finished. Draining only the immediate predecessor is not enough:
  /// AddSource publishes intermediate topologies, so at migration time a
  /// query may still hold a map several generations back (one that does
  /// not even cover a recently added source). Must not hold any shard lock
  /// (drained queries may need them to finish); its one caller,
  /// ApplyTopologyChange, holds update_mutex_, which queries never take.
  void DrainOlder(const Topology& newest) const;

  /// The copy -> publish -> drain step of every topology change. Copies
  /// each entry of `copies` in order (one migrate.copy evaluation per
  /// source), evaluates migrate.publish and publishes `next` — the commit
  /// point: a fault up to here undoes this call's copies and publishes
  /// nothing. With `drain`, then evaluates migrate.drain and waits for
  /// every older pin; a fault there rolls forward (`next` stays). Caller
  /// holds update_mutex_.
  Status ApplyTopologyChange(const std::vector<SourceCopy>& copies,
                             std::shared_ptr<const Topology> next,
                             bool drain);

  /// Shared migration machinery of Rebalance and Resize: moves every
  /// active source to target_map's shard, over the target_shards list
  /// (which reuses the current ReplicaSet objects for indices they
  /// share). Caller holds update_mutex_.
  Status MigrateLocked(std::vector<std::shared_ptr<ReplicaSet>> target_shards,
                       std::vector<uint32_t> target_map);

  /// Appends `matrix` (a global source) to `replica`'s engine under its
  /// write lock, bootstrapping the engine if the replica was empty.
  Status AppendToReplicaLocked(ShardReplica& replica, GeneMatrix matrix,
                               SourceId global, double cost);

  /// Appends a copy of `matrix` to EVERY one of `replicas` (lock step).
  /// On a mid-way failure the copies already appended are rolled back, so
  /// a set never exposes the source on some replicas but not others.
  Status AppendToAllReplicasLocked(ReplicaSpan replicas,
                                   const GeneMatrix& matrix, SourceId global,
                                   double cost);

  /// Deactivates `global` on every one of `replicas` (engine RemoveMatrix
  /// + side tables + gauges, under each replica's write lock). With
  /// `must_exist`, a replica without an active entry is a CHECK failure
  /// (replicas mirror the same active set); without it such replicas are
  /// skipped (rollback of a partially appended copy).
  Status RemoveFromReplicasLocked(ReplicaSpan replicas, SourceId global,
                                  double cost, bool must_exist);

  /// Creates one ShardReplica with the configured engine options.
  std::shared_ptr<ShardReplica> MakeReplica() const;

  /// A fresh ReplicaSet of `num_replicas` empty replicas.
  std::shared_ptr<ReplicaSet> MakeReplicaSet(size_t num_replicas);

  ShardedEngineOptions options_;
  std::shared_ptr<const Partitioner> partitioner_;  // Never null.
  ThreadPool* pool_;  // May be null (sequential fan-out); not owned.

  /// The published topology. Guarded by topology_mutex_ (pointer reads and
  /// swaps only; the pointee is immutable apart from its pin count).
  std::shared_ptr<const Topology> topology_;

  /// Every topology ever superseded, for DrainOlder (weak: a retired
  /// topology is kept alive only by the queries still pinning it; expired
  /// entries are pruned on publish). Guarded by topology_mutex_.
  mutable std::vector<std::weak_ptr<const Topology>> topology_history_;
  mutable std::mutex topology_mutex_;

  /// Serializes the updates and topology changes with each other
  /// (routing + migration metadata below). Queries never touch
  /// this mutex — an update only contends with sub-queries of its own
  /// shard, via the replica mutexes.
  mutable std::mutex update_mutex_;
  size_t next_source_ = 0;
  std::vector<double> source_cost_;  ///< Per global source, for replanning.
  std::vector<bool> retracted_;      ///< RemoveSource'd global ids.

  /// Set by BuildIndex, cleared by LoadDatabase.
  bool built_ = false;
};

}  // namespace imgrn

#endif  // IMGRN_SERVICE_SHARDED_ENGINE_H_
