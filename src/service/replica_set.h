#ifndef IMGRN_SERVICE_REPLICA_SET_H_
#define IMGRN_SERVICE_REPLICA_SET_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "core/engine.h"

namespace imgrn {

/// One physical replica of a logical shard: its own in-memory ImGrnEngine
/// with default options (own index, own R*-tree pages, own buffer pool)
/// and its traffic gauges. Local id l of shard s's engine holds global
/// source l * K + s (see ShardedEngine). Replicas of one shard are
/// bit-exact mirrors of each other: every update applies to all of them in
/// lock step, so any replica answers any sub-query with the identical
/// matches (refinement is per-source deterministic — see
/// inference/permutation_cache.h).
struct ShardReplica {
  /// `table` is the sharded engine's permutation table, shared by every
  /// replica's engine (null: the engine owns one).
  explicit ShardReplica(PermutationTable* table) : engine({}, table) {}

  /// Readers = sub-queries, writer = the update routed to this replica.
  mutable std::shared_mutex mutex;

  /// Holds a built index once the replica received a source; an empty
  /// replica answers every sub-query with no matches.
  ImGrnEngine engine;

  /// Count and estimated cost of active sources, mirrored atomically so
  /// StatsSnapshot never has to touch `mutex` (it stays callable while a
  /// replica is write-locked, e.g. from tests observing an in-flight
  /// update). Only threads holding the engine's update lock write them.
  std::atomic<size_t> active_sources{0};
  std::atomic<double> cost{0.0};

  mutable std::atomic<uint64_t> sub_queries_started{0};
  mutable std::atomic<uint64_t> sub_queries_finished{0};
  mutable std::atomic<uint64_t> sub_query_errors{0};

  /// Summed QueryStats::total_seconds of the sub-queries this replica
  /// served: its measured busy time, the ShardStats::measured_seconds
  /// gauge.
  mutable std::atomic<double> busy_seconds{0.0};
};

/// The replicas of one logical shard, plus the round-robin routing cursor.
/// The replica list is fixed at construction.
class ReplicaSet {
 public:
  explicit ReplicaSet(size_t num_replicas, PermutationTable* table = nullptr) {
    replicas_.reserve(num_replicas);
    for (size_t r = 0; r < num_replicas; ++r) {
      replicas_.push_back(std::make_unique<ShardReplica>(table));
    }
  }

  ReplicaSet(const ReplicaSet&) = delete;
  ReplicaSet& operator=(const ReplicaSet&) = delete;

  size_t size() const { return replicas_.size(); }

  ShardReplica& replica(size_t i) const { return *replicas_[i]; }

  /// Replica 0: the authority for shard-level gauges and update checks
  /// (all replicas mirror the same active set, so any one of them could
  /// answer; pinning to 0 keeps snapshots stable).
  ShardReplica& primary() const { return *replicas_.front(); }

  /// The replica that serves the next sub-query: strict round robin.
  size_t PickReplica() const {
    return cursor_.fetch_add(1, std::memory_order_relaxed) % replicas_.size();
  }

 private:
  std::vector<std::unique_ptr<ShardReplica>> replicas_;
  mutable std::atomic<uint64_t> cursor_{0};
};

}  // namespace imgrn

#endif  // IMGRN_SERVICE_REPLICA_SET_H_
