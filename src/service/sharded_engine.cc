#include "service/sharded_engine.h"

#include <algorithm>
#include <cstdio>
#include <future>
#include <numeric>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"

namespace imgrn {

double EstimateSourceCost(const GeneMatrix& matrix) {
  const double genes = static_cast<double>(matrix.num_genes());
  const double samples = static_cast<double>(matrix.num_samples());
  return genes * genes * samples;
}

double MaxMeanImbalance(const std::vector<double>& shard_costs) {
  if (shard_costs.empty()) return 1.0;
  const double total =
      std::accumulate(shard_costs.begin(), shard_costs.end(), 0.0);
  if (total <= 0.0) return 1.0;
  const double mean = total / static_cast<double>(shard_costs.size());
  return *std::max_element(shard_costs.begin(), shard_costs.end()) / mean;
}

std::string ShardedEngineStatsSnapshot::DebugString() const {
  std::string out;
  for (const ShardStats& shard : shards) {
    char load[64];
    std::snprintf(load, sizeof(load), "%.3g measured=%.3gs", shard.cost,
                  shard.measured_seconds);
    out += "shard" + std::to_string(shard.shard) +
           ": sources=" + std::to_string(shard.sources) + " load=" + load +
           " sub_queries=" + std::to_string(shard.sub_queries) +
           " errors=" + std::to_string(shard.sub_query_errors) +
           " in_flight=" + std::to_string(shard.in_flight) + "\n";
    for (const ReplicaStats& replica : shard.replicas) {
      out += "  replica" + std::to_string(replica.replica) +
             ": sub_queries=" + std::to_string(replica.sub_queries) +
             " errors=" + std::to_string(replica.sub_query_errors) +
             " in_flight=" + std::to_string(replica.in_flight) + "\n";
    }
  }
  char line[96];
  std::snprintf(line, sizeof(line),
                "imbalance=%.3f measured_imbalance=%.3f (max/mean shard "
                "load, estimated / measured)\n",
                imbalance, measured_imbalance);
  out += line;
  return out;
}

ShardedEngine::ShardedEngine(ShardedEngineOptions options, ThreadPool* pool)
    : options_(options), pool_(pool) {
  IMGRN_CHECK_GE(options_.num_shards, 1u);
  IMGRN_CHECK_GE(options_.num_replicas, 1u);
  ResetShards();
}

void ShardedEngine::ResetShards() {
  shards_.clear();
  shards_.reserve(options_.num_shards);
  for (size_t s = 0; s < options_.num_shards; ++s) {
    shards_.push_back(std::make_unique<ReplicaSet>(options_.num_replicas,
                                                   &permutation_table_));
  }
}

void ShardedEngine::LoadDatabase(GeneDatabase database) {
  ResetShards();
  const size_t num_shards = shards_.size();
  const size_t total = database.size();
  std::vector<GeneDatabase> parts(num_shards);
  std::vector<double> shard_costs(num_shards, 0.0);
  for (SourceId global = 0; global < total; ++global) {
    const size_t s = ShardOf(global);
    GeneMatrix matrix = std::move(database.mutable_matrix(global));
    shard_costs[s] += EstimateSourceCost(matrix);
    matrix.set_source_id(static_cast<SourceId>(global / num_shards));
    parts[s].Add(std::move(matrix));
  }
  for (size_t s = 0; s < num_shards; ++s) {
    ReplicaSet& set = *shards_[s];
    // Every replica gets the identical slice (same local id layout, same
    // matrices): replicas are lock-step mirrors from the first byte, so
    // even their per-sub-query COUNTERS match across replicas.
    for (size_t r = 0; r < set.size(); ++r) {
      ShardReplica& replica = set.replica(r);
      replica.active_sources.store(parts[s].size(),
                                   std::memory_order_relaxed);
      replica.cost.store(shard_costs[s], std::memory_order_relaxed);
      if (parts[s].empty()) continue;
      GeneDatabase part = (r + 1 == set.size()) ? std::move(parts[s])
                                                : parts[s];
      replica.engine.LoadDatabase(std::move(part));
    }
  }
  num_sources_ = total;
  built_ = false;
}

Status ShardedEngine::BuildIndex() {
  if (num_sources_ == 0) {
    return Status::FailedPrecondition("no database loaded");
  }
  // The replicas' engines check too, but would name shard-local ids.
  const size_t num_shards = shards_.size();
  for (size_t s = 0; s < num_shards; ++s) {
    const ShardReplica& primary = shards_[s]->primary();
    const GeneDatabase& part = primary.engine.database();
    if (primary.active_sources.load(std::memory_order_relaxed) <
        part.size()) {
      return Status::FailedPrecondition(
          "a removed source's data is freed and cannot be re-indexed");
    }
    for (size_t local = 0; local < part.size(); ++local) {
      IMGRN_RETURN_IF_ERROR(ValidateGeneMatrix(
          part.matrix(static_cast<SourceId>(local)),
          "source " + std::to_string(local * num_shards + s)));
    }
  }
  // Build every populated replica's index; the builds are independent, so
  // fan them out when a pool is available.
  std::vector<ShardReplica*> pending;
  for (const std::unique_ptr<ReplicaSet>& set : shards_) {
    for (size_t r = 0; r < set->size(); ++r) {
      if (set->replica(r).engine.database().empty()) continue;
      pending.push_back(&set->replica(r));
    }
  }
  std::vector<Status> statuses(pending.size(), Status::Ok());
  std::vector<std::future<void>> futures;
  for (size_t i = 0; i < pending.size(); ++i) {
    auto build = [&engine = pending[i]->engine, &status = statuses[i]] {
      status = engine.BuildIndex();
    };
    if (pool_ != nullptr) {
      futures.push_back(pool_->Submit(build));
    } else {
      build();
    }
  }
  for (std::future<void>& future : futures) {
    pool_->WaitReady(future);
    future.get();
  }
  for (const Status& status : statuses) {
    IMGRN_RETURN_IF_ERROR(status);
  }
  built_ = true;
  return Status::Ok();
}

Result<std::vector<QueryMatch>> ShardedEngine::Query(
    const GeneMatrix& query_matrix, const QueryParams& params,
    QueryStats* stats, const QueryControl* control) const {
  if (!built_) {
    return Status::FailedPrecondition("BuildIndex() has not run");
  }
  IMGRN_RETURN_IF_ERROR(ValidateQueryParams(params, &query_matrix));
  if (control != nullptr) {
    IMGRN_RETURN_IF_ERROR(control->Check());
  }
  // Infer the query GRN exactly once, through InferQueryGraph as
  // ImGrnEngine::Query does, so the fanned-out sub-queries all match
  // against the identical graph.
  Stopwatch inference_timer;
  const ProbGraph query_graph =
      InferQueryGraph(query_matrix, params, &permutation_table_);
  const double inference_seconds = inference_timer.ElapsedSeconds();

  Result<std::vector<QueryMatch>> result =
      QueryWithGraph(query_graph, params, stats, control);
  if (stats != nullptr) {
    stats->inference_seconds = inference_seconds;
    stats->total_seconds += inference_seconds;
  }
  return result;
}

Result<std::vector<QueryMatch>> ShardedEngine::QueryWithGraph(
    const ProbGraph& query_graph, const QueryParams& params,
    QueryStats* stats, const QueryControl* control) const {
  if (!built_) {
    return Status::FailedPrecondition("BuildIndex() has not run");
  }
  IMGRN_RETURN_IF_ERROR(ValidateQueryParams(params));
  IMGRN_RETURN_IF_ERROR(ValidateQueryGraph(query_graph));
  if (control != nullptr) {
    IMGRN_RETURN_IF_ERROR(control->Check());
  }

  Stopwatch total_timer;
  const size_t num_shards = shards_.size();
  std::vector<Result<std::vector<QueryMatch>>> results(
      num_shards, Result<std::vector<QueryMatch>>(std::vector<QueryMatch>{}));
  std::vector<QueryStats> shard_stats(num_shards);

  if (pool_ != nullptr && num_shards > 1) {
    // Fan out one sub-query per shard. Every future is gathered before this
    // function returns (even on error/cancellation), so no task outlives
    // the stack it captures; gathering helps run queued tasks, so sharing
    // the pool with the calling QueryService cannot deadlock.
    std::vector<std::future<Result<std::vector<QueryMatch>>>> futures;
    futures.reserve(num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      const size_t replica = shards_[s]->PickReplica();
      futures.push_back(pool_->Submit(
          [this, s, replica, &query_graph, &params,
           local_stats = &shard_stats[s], control] {
            return RunShard(s, replica, query_graph, params, local_stats,
                            control);
          }));
    }
    for (size_t s = 0; s < num_shards; ++s) {
      pool_->WaitReady(futures[s]);
      results[s] = futures[s].get();
    }
  } else {
    for (size_t s = 0; s < num_shards; ++s) {
      results[s] = RunShard(s, shards_[s]->PickReplica(), query_graph, params,
                            &shard_stats[s], control);
    }
  }

  // Fail whole: the lowest-numbered failing shard's error is the query's.
  for (const Result<std::vector<QueryMatch>>& result : results) {
    if (!result.ok()) return result.status();
  }

  // Merge: a plain sort restores the single-engine source order, then the
  // top_k policy is applied ONCE over the merged set (sub-queries ran with
  // top_k disabled, so nothing was truncated per shard).
  std::vector<QueryMatch> merged;
  for (Result<std::vector<QueryMatch>>& result : results) {
    for (QueryMatch& match : *result) {
      merged.push_back(std::move(match));
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const QueryMatch& a, const QueryMatch& b) {
              return a.source < b.source;
            });
  FinalizeMatches(params.top_k, &merged);

  if (stats == nullptr) return merged;
  QueryStats aggregated;
  aggregated.query_vertices = query_graph.num_vertices();
  aggregated.query_edges = query_graph.num_edges();
  for (const QueryStats& shard : shard_stats) {
    // Seconds are summed CPU across shards (sub-queries overlap in wall
    // time); the I/O and pruning counters add up exactly.
    aggregated.traversal_seconds += shard.traversal_seconds;
    aggregated.refinement_seconds += shard.refinement_seconds;
    aggregated.page_accesses += shard.page_accesses;
    aggregated.page_fetches += shard.page_fetches;
    aggregated.node_pairs_examined += shard.node_pairs_examined;
    aggregated.node_pairs_pruned_signature +=
        shard.node_pairs_pruned_signature;
    aggregated.node_pairs_pruned_index += shard.node_pairs_pruned_index;
    aggregated.leaf_pairs_examined += shard.leaf_pairs_examined;
    aggregated.leaf_pairs_pruned_pivot += shard.leaf_pairs_pruned_pivot;
    aggregated.leaf_pairs_pruned_edge += shard.leaf_pairs_pruned_edge;
    aggregated.candidate_pairs += shard.candidate_pairs;
    aggregated.candidate_matrices += shard.candidate_matrices;
    aggregated.matrices_pruned_graph += shard.matrices_pruned_graph;
  }
  aggregated.answers = merged.size();
  aggregated.total_seconds = total_timer.ElapsedSeconds();
  *stats = std::move(aggregated);
  return merged;
}

Result<std::vector<QueryMatch>> ShardedEngine::QueryShard(
    size_t shard, const ProbGraph& query_graph, const QueryParams& params,
    QueryStats* stats, const QueryControl* control) const {
  if (shard >= shards_.size()) {
    return Status::InvalidArgument("shard index out of range");
  }
  if (!built_) {
    return Status::FailedPrecondition("BuildIndex() has not run");
  }
  IMGRN_RETURN_IF_ERROR(ValidateQueryParams(params));
  IMGRN_RETURN_IF_ERROR(ValidateQueryGraph(query_graph));
  return RunShard(shard, /*replica_index=*/0, query_graph, params, stats,
                  control);
}

Result<std::vector<QueryMatch>> ShardedEngine::RunShard(
    size_t shard_index, size_t replica_index, const ProbGraph& query_graph,
    const QueryParams& params, QueryStats* stats,
    const QueryControl* control) const {
  const ShardReplica& replica = shards_[shard_index]->replica(replica_index);
  replica.sub_queries_started.fetch_add(1, std::memory_order_relaxed);
  Result<std::vector<QueryMatch>> result = [&]() ->
      Result<std::vector<QueryMatch>> {
        std::shared_lock<std::shared_mutex> lock(replica.mutex);
        if (!replica.engine.has_index()) {
          return std::vector<QueryMatch>{};  // Empty shard: no matches.
        }
        // The top_k policy is applied once, to the merged set.
        QueryParams shard_params = params;
        shard_params.top_k = 0;
        // No per-source breakdown: its ids would be shard-local, and this
        // engine leaves QueryStats::source_costs empty.
        shard_params.collect_source_costs = false;
        QueryStats local_stats;
        Result<std::vector<QueryMatch>> local = replica.engine.QueryWithGraph(
            query_graph, shard_params, &local_stats, control);
        if (!local.ok()) return local.status();
        replica.busy_seconds.fetch_add(local_stats.total_seconds,
                                       std::memory_order_relaxed);
        // Remap shard-local ids to global source ids: local l on shard s
        // is source l * K + s. The engine returns ascending local ids, so
        // the global ids stay ascending.
        for (QueryMatch& match : *local) {
          match.source = static_cast<SourceId>(match.source * num_shards() +
                                               shard_index);
        }
        if (stats != nullptr) *stats = std::move(local_stats);
        return local;
      }();
  if (!result.ok()) {
    replica.sub_query_errors.fetch_add(1, std::memory_order_relaxed);
  }
  replica.sub_queries_finished.fetch_add(1, std::memory_order_relaxed);
  return result;
}

Status ShardedEngine::AppendToReplicaLocked(ShardReplica& replica,
                                            GeneMatrix matrix, double cost) {
  std::unique_lock<std::shared_mutex> lock(replica.mutex);
  // Source g lives at local id g div K, which every query remaps back to g.
  // The engine's next id agrees because RemoveMatrix only deactivates
  // (never shrinks) — the CHECK pins that assumption down so a future
  // engine that compacts on removal fails loudly here instead of silently
  // remapping matches to wrong globals after a RemoveSource -> AddSource
  // sequence on the same shard.
  const SourceId local =
      static_cast<SourceId>(matrix.source_id() / num_shards());
  matrix.set_source_id(local);
  if (!replica.engine.has_index()) {
    IMGRN_CHECK_EQ(local, 0u);
    // First source of a previously empty replica: bootstrap its engine.
    GeneDatabase database;
    database.Add(std::move(matrix));
    replica.engine.LoadDatabase(std::move(database));
    IMGRN_RETURN_IF_ERROR(replica.engine.BuildIndex());
  } else {
    IMGRN_CHECK_EQ(static_cast<size_t>(local),
                   replica.engine.database().size());
    IMGRN_RETURN_IF_ERROR(replica.engine.AddMatrix(std::move(matrix)));
  }
  replica.active_sources.fetch_add(1, std::memory_order_relaxed);
  replica.cost.store(replica.cost.load(std::memory_order_relaxed) + cost,
                     std::memory_order_relaxed);
  return Status::Ok();
}

Status ShardedEngine::AddSource(GeneMatrix matrix) {
  std::lock_guard<std::mutex> routing(update_mutex_);
  if (!built_) {
    return Status::FailedPrecondition("BuildIndex() has not run");
  }
  if (matrix.source_id() != num_sources_) {
    return Status::InvalidArgument(
        "new matrix's source id must equal num_sources()");
  }
  const SourceId global = matrix.source_id();
  // The replicas' engines check too, but would name a shard-local id.
  IMGRN_RETURN_IF_ERROR(
      ValidateGeneMatrix(matrix, "source " + std::to_string(global)));
  const double cost = EstimateSourceCost(matrix);
  ReplicaSet& set = *shards_[ShardOf(global)];
  // Only the primary's append may fail; then nothing changed. A mirror
  // repeats the identical append on an identical engine, which the
  // primary's success shows cannot fail, so a set never exposes the source
  // on some replicas but not others.
  IMGRN_RETURN_IF_ERROR(AppendToReplicaLocked(set.primary(), matrix, cost));
  for (size_t r = 1; r < set.size(); ++r) {
    IMGRN_CHECK_OK(AppendToReplicaLocked(set.replica(r), matrix, cost));
  }
  ++num_sources_;
  return Status::Ok();
}

Status ShardedEngine::RemoveSource(SourceId source) {
  std::lock_guard<std::mutex> routing(update_mutex_);
  if (!built_) {
    return Status::FailedPrecondition("BuildIndex() has not run");
  }
  if (source >= num_sources_) {
    return Status::InvalidArgument("unknown source id");
  }
  ReplicaSet& set = *shards_[ShardOf(source)];
  // Existence check against the primary (replicas mirror the active set,
  // at the same local ids). No replica lock needed for the reads: replicas
  // are only written by holders of update_mutex_, which we are.
  const ShardReplica& primary = set.primary();
  const SourceId local = static_cast<SourceId>(source / num_shards());
  if (!primary.engine.index().IsActive(local)) {
    return Status::FailedPrecondition("matrix already removed");
  }
  const double cost =
      EstimateSourceCost(primary.engine.database().matrix(local));
  for (size_t r = 0; r < set.size(); ++r) {
    ShardReplica& replica = set.replica(r);
    std::unique_lock<std::shared_mutex> lock(replica.mutex);
    IMGRN_RETURN_IF_ERROR(replica.engine.RemoveMatrix(local));
    replica.active_sources.fetch_sub(1, std::memory_order_relaxed);
    replica.cost.store(replica.cost.load(std::memory_order_relaxed) - cost,
                       std::memory_order_relaxed);
  }
  return Status::Ok();
}

size_t ShardedEngine::num_sources() const {
  std::lock_guard<std::mutex> routing(update_mutex_);
  return num_sources_;
}

ShardedEngineStatsSnapshot ShardedEngine::StatsSnapshot() const {
  ShardedEngineStatsSnapshot snapshot;
  snapshot.shards.reserve(shards_.size());
  snapshot.replicas = options_.num_replicas;
  std::vector<double> costs;
  std::vector<double> measured;
  costs.reserve(shards_.size());
  measured.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    const ReplicaSet& set = *shards_[s];
    ShardStats stats;
    stats.shard = s;
    // Gauges read the primary (all replicas mirror the same active set);
    // traffic counters sum over the replicas, which split the load.
    stats.sources = set.primary().active_sources.load(
        std::memory_order_relaxed);
    stats.cost = set.primary().cost.load(std::memory_order_relaxed);
    stats.replicas.reserve(set.size());
    for (size_t r = 0; r < set.size(); ++r) {
      const ShardReplica& replica = set.replica(r);
      ReplicaStats replica_stats;
      replica_stats.replica = r;
      const uint64_t started =
          replica.sub_queries_started.load(std::memory_order_relaxed);
      replica_stats.sub_queries =
          replica.sub_queries_finished.load(std::memory_order_relaxed);
      replica_stats.sub_query_errors =
          replica.sub_query_errors.load(std::memory_order_relaxed);
      replica_stats.in_flight = started - replica_stats.sub_queries;
      stats.sub_queries += replica_stats.sub_queries;
      stats.sub_query_errors += replica_stats.sub_query_errors;
      stats.in_flight += replica_stats.in_flight;
      stats.measured_seconds +=
          replica.busy_seconds.load(std::memory_order_relaxed);
      stats.replicas.push_back(replica_stats);
    }
    costs.push_back(stats.cost);
    measured.push_back(stats.measured_seconds);
    snapshot.shards.push_back(std::move(stats));
  }
  snapshot.imbalance = MaxMeanImbalance(costs);
  snapshot.measured_imbalance = MaxMeanImbalance(measured);
  return snapshot;
}

std::shared_mutex& ShardedEngine::shard_mutex_for_testing(
    size_t shard) const {
  IMGRN_CHECK_LT(shard, shards_.size());
  return shards_[shard]->primary().mutex;
}

}  // namespace imgrn
