#include "service/sharded_engine.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <future>
#include <optional>
#include <thread>
#include <utility>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "inference/grn_inference.h"

namespace imgrn {

namespace {

Status ValidateParams(const QueryParams& params) {
  if (params.gamma < 0.0 || params.gamma >= 1.0) {
    return Status::InvalidArgument("gamma must be in [0, 1)");
  }
  if (params.alpha < 0.0 || params.alpha >= 1.0) {
    return Status::InvalidArgument("alpha must be in [0, 1)");
  }
  return Status::Ok();
}

/// Index of `global`'s active entry in replica.local_to_global, or -1.
int64_t ActiveLocalOf(const ShardReplica& replica, SourceId global) {
  // Scan from the back: migrated-in entries (the common lookup after a
  // rebalance) sit at the end, and at most one entry per global is active.
  for (size_t i = replica.local_to_global.size(); i > 0; --i) {
    if (replica.local_to_global[i - 1] == global && replica.active[i - 1]) {
      return static_cast<int64_t>(i - 1);
    }
  }
  return -1;
}

/// Deactivates local id `local` of `replica`: engine RemoveMatrix, side
/// tables and gauges. Caller holds the replica's write lock.
Status DeactivateLocked(ShardReplica& replica, size_t local, double cost) {
  IMGRN_RETURN_IF_ERROR(
      replica.engine.RemoveMatrix(static_cast<SourceId>(local)));
  replica.active[local] = false;
  replica.active_sources.fetch_sub(1, std::memory_order_relaxed);
  replica.cost.store(replica.cost.load(std::memory_order_relaxed) - cost,
                     std::memory_order_relaxed);
  return Status::Ok();
}

}  // namespace

std::string ShardedEngineStatsSnapshot::DebugString() const {
  std::string out;
  for (const ShardStats& shard : shards) {
    char load[96];
    std::snprintf(load, sizeof(load), "%.3g measured=%.3gs overhead=%.3gs",
                  shard.cost, shard.measured_seconds,
                  shard.overhead_seconds);
    out += "shard" + std::to_string(shard.shard) +
           ": sources=" + std::to_string(shard.sources) + " load=" + load +
           " sub_queries=" + std::to_string(shard.sub_queries) +
           " errors=" + std::to_string(shard.sub_query_errors) +
           " in_flight=" + std::to_string(shard.in_flight) + "\n";
    for (const ReplicaStats& replica : shard.replicas) {
      out += "  replica" + std::to_string(replica.replica) +
             ": sub_queries=" + std::to_string(replica.sub_queries) +
             " errors=" + std::to_string(replica.sub_query_errors) +
             " in_flight=" + std::to_string(replica.in_flight) +
             " breaker=" + CircuitBreaker::StateName(replica.breaker);
      if (replica.breaker_rejections > 0) {
        out += "(" + std::to_string(replica.breaker_rejections) +
               " rejected)";
      }
      out += "\n";
    }
  }
  char line[96];
  std::snprintf(line, sizeof(line),
                "imbalance=%.3f measured_imbalance=%.3f (max/mean shard "
                "load, estimated / measured)\n",
                imbalance, measured_imbalance);
  out += line;
  if (cache.capacity > 0) {
    char cache_line[160];
    std::snprintf(cache_line, sizeof(cache_line),
                  "cache: size=%zu/%zu hits=%" PRIu64 " misses=%" PRIu64
                  " evictions=%" PRIu64 " hit_rate=%.3f\n",
                  cache.size, cache.capacity, cache.hits, cache.misses,
                  cache.evictions, cache.hit_rate());
    out += cache_line;
  }
  if (maintenance.enabled) {
    char line1[224];
    std::snprintf(line1, sizeof(line1),
                  "maintenance: ticks=%" PRIu64 " scrubbed=%" PRIu64
                  " corrupt=%" PRIu64 " rebuilt=%" PRIu64 " (failures=%" PRIu64
                  ") scrub_errors=%" PRIu64 "\n",
                  maintenance.ticks, maintenance.pages_scrubbed,
                  maintenance.corrupt_pages, maintenance.replicas_rebuilt,
                  maintenance.rebuild_failures, maintenance.scrub_errors);
    out += line1;
    char line2[224];
    std::snprintf(line2, sizeof(line2),
                  "maintenance: reclaimed_pages=%" PRIu64
                  " truncated_slots=%" PRIu64 " rebalance_fires=%" PRIu64
                  " sources_moved=%" PRIu64 "\n",
                  maintenance.pages_reclaimed, maintenance.slots_truncated,
                  maintenance.rebalance_fires, maintenance.sources_moved);
    out += line2;
  }
  return out;
}

ShardedEngine::TopologyPin::TopologyPin(const ShardedEngine& engine) {
  std::lock_guard<std::mutex> lock(engine.topology_mutex_);
  topology_ = engine.topology_;
  topology_->pins.fetch_add(1, std::memory_order_acq_rel);
}

ShardedEngine::TopologyPin::~TopologyPin() {
  topology_->pins.fetch_sub(1, std::memory_order_acq_rel);
}

ShardedEngine::ShardedEngine(ShardedEngineOptions options, ThreadPool* pool)
    : options_(std::move(options)),
      partitioner_(options_.partitioner != nullptr
                       ? options_.partitioner
                       : std::make_shared<ModuloPartitioner>()),
      pool_(pool) {
  IMGRN_CHECK_GE(options_.num_shards, 1u);
  IMGRN_CHECK_GE(options_.num_replicas, 1u);
  measured_.SetDecay(options_.calibration.measured_half_life_seconds);
  shard_overhead_.SetDecay(options_.calibration.measured_half_life_seconds);
  if (options_.cache.capacity > 0) {
    cache_ = std::make_unique<ResultCache>(options_.cache);
  }
  auto topology = std::make_shared<Topology>();
  topology->shards.reserve(options_.num_shards);
  for (size_t i = 0; i < options_.num_shards; ++i) {
    topology->shards.push_back(MakeReplicaSet(options_.num_replicas));
  }
  topology_ = std::move(topology);
  if (options_.maintenance.enabled) {
    maintenance_ =
        std::make_unique<MaintenanceDaemon>(this, options_.maintenance);
    maintenance_->Start();
  }
}

ShardedEngine::~ShardedEngine() {
  // Join the daemon's thread before any member it reaches into goes away,
  // maintenance_ included: a tick reads it (StatsSnapshot), and reset()
  // nulls it before the daemon's destructor gets to join.
  if (maintenance_ != nullptr) maintenance_->Stop();
  maintenance_.reset();
}

std::shared_ptr<ShardReplica> ShardedEngine::MakeReplica() {
  EngineOptions engine_options = options_.engine;
  if (!options_.storage_dir.empty()) {
    engine_options.storage.backend = StorageBackend::kDisk;
    engine_options.storage.path = options_.storage_dir + "/shard-" +
                                  std::to_string(shard_files_created_++) +
                                  ".pages";
    // Spill space, not a durability domain: the file dies with the replica.
    engine_options.storage.unlink_on_close = true;
  }
  return std::make_shared<ShardReplica>(engine_options, options_.breaker);
}

std::shared_ptr<ReplicaSet> ShardedEngine::MakeReplicaSet(
    size_t num_replicas) {
  std::vector<std::shared_ptr<ShardReplica>> replicas;
  replicas.reserve(num_replicas);
  for (size_t r = 0; r < num_replicas; ++r) {
    replicas.push_back(MakeReplica());
  }
  return std::make_shared<ReplicaSet>(std::move(replicas));
}

std::shared_ptr<const ShardedEngine::Topology> ShardedEngine::Current()
    const {
  std::lock_guard<std::mutex> lock(topology_mutex_);
  return topology_;
}

void ShardedEngine::Publish(std::shared_ptr<const Topology> topology) {
  std::lock_guard<std::mutex> lock(topology_mutex_);
  if (topology_ != nullptr) {
    topology_history_.erase(
        std::remove_if(topology_history_.begin(), topology_history_.end(),
                       [](const std::weak_ptr<const Topology>& entry) {
                         return entry.expired();
                       }),
        topology_history_.end());
    topology_history_.push_back(topology_);
  }
  topology_ = std::move(topology);
}

void ShardedEngine::DrainOlder(const Topology& newest) const {
  // A pin count only rises while its topology is the published one; every
  // topology in the history has a successor, so each count can only fall
  // and this terminates as soon as the in-flight queries of the older
  // snapshots finish.
  for (;;) {
    std::shared_ptr<const Topology> pinned;
    {
      std::lock_guard<std::mutex> lock(topology_mutex_);
      for (const std::weak_ptr<const Topology>& entry : topology_history_) {
        std::shared_ptr<const Topology> topology = entry.lock();
        if (topology != nullptr && topology.get() != &newest &&
            topology->pins.load(std::memory_order_acquire) != 0) {
          pinned = std::move(topology);
          break;
        }
      }
    }
    if (pinned == nullptr) return;
    while (pinned->pins.load(std::memory_order_acquire) != 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
}

void ShardedEngine::LoadDatabase(GeneDatabase database) {
  const std::shared_ptr<const Topology> current = Current();
  const size_t num_shards = current->shards.size();
  auto next = std::make_shared<Topology>();
  next->shards.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    next->shards.push_back(MakeReplicaSet(current->shards.front()->size()));
  }

  const size_t total = database.size();
  source_cost_ = EstimateSourceCosts(database);
  retracted_.assign(total, false);
  measured_.Reset();  // A fresh database invalidates every measurement.
  shard_overhead_.Reset();
  PartitionPlan plan = partitioner_->Partition(source_cost_, num_shards);
  IMGRN_CHECK_OK(plan.Validate(total));

  std::vector<GeneDatabase> parts(num_shards);
  std::vector<std::vector<SourceId>> locals(num_shards);
  for (SourceId global = 0; global < total; ++global) {
    const size_t s = plan.shard_of[global];
    GeneMatrix matrix = std::move(database.mutable_matrix(global));
    matrix.set_source_id(static_cast<SourceId>(parts[s].size()));
    parts[s].Add(std::move(matrix));
    locals[s].push_back(global);
  }
  for (size_t s = 0; s < num_shards; ++s) {
    double cost = 0.0;
    for (SourceId global : locals[s]) {
      cost += source_cost_[global];
    }
    ReplicaSet& set = *next->shards[s];
    // Every replica gets the identical slice (same local id layout, same
    // matrices): replicas born here are lock-step mirrors from the first
    // byte, so even their per-sub-query COUNTERS match across replicas.
    for (size_t r = 0; r < set.size(); ++r) {
      ShardReplica& replica = *set.replica(r);
      replica.local_to_global = locals[s];
      replica.active.assign(locals[s].size(), true);
      replica.active_sources.store(locals[s].size(),
                                   std::memory_order_relaxed);
      replica.cost.store(cost, std::memory_order_relaxed);
      if (parts[s].empty()) continue;
      GeneDatabase part = (r + 1 == set.size()) ? std::move(parts[s])
                                                : parts[s];
      replica.engine.LoadDatabase(std::move(part));
    }
  }
  next->shard_of = std::move(plan.shard_of);
  next_source_ = total;
  built_ = false;
  Publish(std::move(next));
  update_generation_.fetch_add(1, std::memory_order_release);
}

Status ShardedEngine::BuildIndex() {
  if (next_source_ == 0) {
    return Status::FailedPrecondition("no database loaded");
  }
  TopologyPin topology(*this);
  // Build every populated replica's index; the builds are independent, so
  // fan them out when a pool is available.
  std::vector<ShardReplica*> pending;
  for (const std::shared_ptr<ReplicaSet>& set : topology->shards) {
    for (const std::shared_ptr<ShardReplica>& replica : set->replicas()) {
      if (replica->local_to_global.empty()) continue;
      pending.push_back(replica.get());
    }
  }
  std::vector<Status> statuses(pending.size(), Status::Ok());
  std::vector<std::future<void>> futures;
  for (size_t i = 0; i < pending.size(); ++i) {
    ShardReplica& replica = *pending[i];
    auto build = [&replica, &status = statuses[i]] {
      status = replica.engine.BuildIndex();
      replica.built = status.ok();
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
  IMGRN_RETURN_IF_ERROR(ValidateParams(params));
  if (control != nullptr) {
    IMGRN_RETURN_IF_ERROR(control->Check());
  }
  // Infer the query GRN exactly once — same options and seed as the
  // single-engine path, so the fanned-out sub-queries all match against
  // the identical graph.
  Stopwatch inference_timer;
  GrnInferenceOptions inference_options;
  inference_options.num_samples = params.query_num_samples;
  inference_options.seed = params.seed;
  const ProbGraph query_graph =
      InferGrn(query_matrix, params.gamma, inference_options);
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
  IMGRN_RETURN_IF_ERROR(ValidateParams(params));
  if (query_graph.num_vertices() == 0) {
    return Status::InvalidArgument("query graph has no vertices");
  }
  if (control != nullptr) {
    IMGRN_RETURN_IF_ERROR(control->Check());
  }

  Stopwatch total_timer;
  // Read the update generation BEFORE consulting the cache or pinning a
  // topology. Every mutation bumps the generation as its LAST step, so a
  // result keyed at `generation` was computed against state no older than
  // the bump that produced `generation` — serving it is linearizable.
  const uint64_t generation =
      update_generation_.load(std::memory_order_acquire);
  std::string cache_key;
  if (cache_ != nullptr) {
    cache_key = ResultCache::EncodeKey(generation, query_graph, params);
    std::optional<CachedResult> hit = cache_->Lookup(cache_key);
    if (hit.has_value()) {
      if (stats != nullptr) {
        // Serve the stored stats verbatim — timings included — so a hit is
        // byte-identical to the fresh evaluation that filled it; cache_hit
        // is the one field that tells them apart.
        *stats = hit->stats;
        stats->cache_hit = true;
      }
      return std::move(hit->matches);
    }
  }

  // Pin one topology for the whole fan-out: a consistent shard list and
  // partition map even while a Rebalance/Resize runs concurrently (its
  // delete phase waits for this pin to drop).
  TopologyPin topology(*this);
  const size_t num_shards = topology->shards.size();
  std::vector<Result<std::vector<QueryMatch>>> results(
      num_shards, Result<std::vector<QueryMatch>>(std::vector<QueryMatch>{}));
  std::vector<QueryStats> shard_stats(num_shards);

  if (pool_ != nullptr) {
    // Fan out one sub-query per shard. Every future is gathered before this
    // function returns (even on error/cancellation), so no task outlives
    // the stack it captures; gathering helps run queued tasks, so sharing
    // the pool with the calling QueryService cannot deadlock.
    std::vector<std::future<Result<std::vector<QueryMatch>>>> futures;
    futures.reserve(num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      futures.push_back(pool_->Submit(
          [this, &topology = *topology, s, &query_graph, &params,
           local_stats = &shard_stats[s], control] {
            return RunShardWithRecovery(topology, s, query_graph, params,
                                        local_stats, control);
          }));
    }
    for (size_t s = 0; s < num_shards; ++s) {
      pool_->WaitReady(futures[s]);
      results[s] = futures[s].get();
    }
  } else {
    for (size_t s = 0; s < num_shards; ++s) {
      results[s] = RunShardWithRecovery(*topology, s, query_graph, params,
                                        &shard_stats[s], control);
    }
  }

  // Failure policy. A non-degradable error (the caller's doing: cancel,
  // deadline, bad request) fails the query outright. Degradable
  // infrastructure errors (kUnavailable after retries, kDataLoss,
  // quarantine) fail the query unless allow_partial is set, in which case
  // the failed shards are dropped from the merge — but if EVERY shard
  // failed there is nothing to degrade to, and the earliest error
  // propagates.
  std::vector<size_t> failed_shards;
  for (size_t s = 0; s < num_shards; ++s) {
    if (results[s].ok()) continue;
    const StatusCode code = results[s].status().code();
    const bool degradable = code == StatusCode::kUnavailable ||
                            code == StatusCode::kDataLoss;
    if (!params.allow_partial || !degradable) {
      return results[s].status();
    }
    failed_shards.push_back(s);
  }
  if (!failed_shards.empty() && failed_shards.size() == num_shards) {
    return results[failed_shards.front()].status();
  }

  // Merge the surviving shards: a plain sort restores the single-engine
  // source order, then the top_k policy is applied ONCE over the merged
  // set (sub-queries ran with top_k disabled, so nothing was truncated per
  // shard). Each surviving shard's matches are bit-exact for the sources
  // it owns, so a degraded answer is the full answer restricted to the
  // surviving shards' sources.
  std::vector<QueryMatch> merged;
  for (Result<std::vector<QueryMatch>>& result : results) {
    if (!result.ok()) continue;
    for (QueryMatch& match : *result) {
      merged.push_back(std::move(match));
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const QueryMatch& a, const QueryMatch& b) {
              return a.source < b.source;
            });
  FinalizeMatches(params.top_k, &merged);

  // Aggregate even when the caller passed no stats: a cache insert stores
  // the full stats so a later hit can serve them.
  QueryStats aggregated;
  aggregated.query_vertices = query_graph.num_vertices();
  aggregated.query_edges = query_graph.num_edges();
  for (const QueryStats& shard : shard_stats) {
    // Seconds are summed CPU across shards (sub-queries overlap in wall
    // time); the I/O and pruning counters add up exactly.
    aggregated.traversal_seconds += shard.traversal_seconds;
    aggregated.refinement_seconds += shard.refinement_seconds;
    aggregated.permutation_fill_seconds += shard.permutation_fill_seconds;
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
    aggregated.shard_retries += shard.shard_retries;
    aggregated.replica_failovers += shard.replica_failovers;
  }
  aggregated.degraded = !failed_shards.empty();
  aggregated.failed_shards = failed_shards;
  if (params.collect_source_costs) {
    // Each shard's samples already carry global ids (RunShard remaps and
    // filters them); shards own disjoint source sets, so a plain merge +
    // sort restores the single-engine ascending order.
    for (QueryStats& shard : shard_stats) {
      for (SourceCostSample& sample : shard.source_costs) {
        aggregated.source_costs.push_back(sample);
      }
    }
    std::sort(aggregated.source_costs.begin(),
              aggregated.source_costs.end(),
              [](const SourceCostSample& a, const SourceCostSample& b) {
                return a.source < b.source;
              });
  }
  aggregated.answers = merged.size();
  aggregated.total_seconds = total_timer.ElapsedSeconds();

  if (cache_ != nullptr && failed_shards.empty() &&
      update_generation_.load(std::memory_order_acquire) == generation) {
    // Insert only what a future hit may legitimately stand in for: a FULL
    // answer (degraded results silently drop shards; a later hit could
    // then serve the gap forever) computed against state no mutation
    // raced. If a mutation was mid-flight during the fan-out, its final
    // generation bump makes the == fail and the result is simply not
    // cached — the conservative side of the race.
    cache_->Insert(cache_key, merged, aggregated);
  }
  if (stats != nullptr) {
    *stats = std::move(aggregated);
  }
  return merged;
}

Result<std::vector<QueryMatch>> ShardedEngine::QueryShard(
    size_t shard, const ProbGraph& query_graph, const QueryParams& params,
    QueryStats* stats, const QueryControl* control) const {
  TopologyPin topology(*this);
  if (shard >= topology->shards.size()) {
    return Status::InvalidArgument("shard index out of range");
  }
  if (!built_) {
    return Status::FailedPrecondition("BuildIndex() has not run");
  }
  IMGRN_RETURN_IF_ERROR(ValidateParams(params));
  return RunShard(*topology, shard, /*replica_index=*/0, query_graph, params,
                  stats, control);
}

Result<std::vector<QueryMatch>> ShardedEngine::RunShard(
    const Topology& topology, size_t shard_index, size_t replica_index,
    const ProbGraph& query_graph, const QueryParams& params,
    QueryStats* stats, const QueryControl* control) const {
  const ShardReplica& replica =
      *topology.shards[shard_index]->replica(replica_index);
  replica.sub_queries_started.fetch_add(1, std::memory_order_relaxed);
  Result<std::vector<QueryMatch>> result = [&]() ->
      Result<std::vector<QueryMatch>> {
        std::shared_lock<std::shared_mutex> lock(replica.mutex);
        // The sub-query fault points, evaluated under the reader lock so an
        // injected outage behaves exactly like a failure of the replica's
        // own query path. "shard.subquery" (detail = shard) fires on
        // whichever replica serves — the whole shard is down;
        // "shard.replica" (detail = shard * stride + replica) targets ONE
        // replica, so failover to its peers is observable.
        IMGRN_RETURN_IF_ERROR(CheckFault(fault_sites::kShardSubQuery,
                                         static_cast<int64_t>(shard_index)));
        IMGRN_RETURN_IF_ERROR(CheckFault(
            fault_sites::kReplicaSubQuery,
            static_cast<int64_t>(shard_index) *
                    fault_sites::kReplicaDetailStride +
                static_cast<int64_t>(replica_index)));
        if (!replica.built) {
          return std::vector<QueryMatch>{};  // Empty shard: no matches.
        }
        // The top_k policy is applied once, over the merged set: a
        // sub-query must never truncate, because while a source is
        // migrating it is materialized on two shards and the copy this
        // snapshot does NOT own could push a real answer off a per-shard
        // top-k before the filter below removes it.
        QueryParams shard_params = params;
        shard_params.top_k = 0;
        // Every sub-query attributes its wall-clock to the sources it
        // touched — that breakdown is what feeds the measured cost model,
        // whether or not the caller asked for it.
        shard_params.collect_source_costs = true;
        QueryStats local_stats;
        Result<std::vector<QueryMatch>> local = replica.engine.QueryWithGraph(
            query_graph, shard_params, &local_stats, control);
        if (!local.ok()) return local.status();
        // Feed the measured cost registry: one sample per source this
        // query's partition map assigns to this shard, EXPLICITLY zero for
        // sources the traversal never surfaced — the EWMA must converge to
        // the expected per-query seconds under the live mix, and a source
        // the workload ignores is genuinely cheap. The shared lock both
        // pins local_to_global and excludes RemoveSource's Retire() (which
        // runs after deactivating under every replica's write lock), so no
        // sample lands after a source is retired. Replicas mirror the same
        // active set, so WHICH replica records does not change which
        // globals get samples.
        std::vector<SourceCostSample> sample_of(
            replica.local_to_global.size());
        for (const SourceCostSample& sample : local_stats.source_costs) {
          IMGRN_CHECK_LT(sample.source, sample_of.size());
          sample_of[sample.source] = sample;
        }
        for (size_t i = 0; i < replica.local_to_global.size(); ++i) {
          if (!replica.active[i]) continue;
          const SourceId global = replica.local_to_global[i];
          if (!topology.Owns(shard_index, global)) {
            continue;  // A migrating duplicate; its owner records it.
          }
          SourceCostSample& sample = sample_of[i];
          sample.source = global;
          measured_.Record(global, source_meter_ != nullptr
                                       ? source_meter_(sample)
                                       : sample.seconds);
        }
        // The sub-query's permutation-cache fill time is shared overhead:
        // real shard load, but attributable to no single source (which
        // source pays it is pure layout luck — whoever refines a length
        // first). It is subtracted from the per-source samples above (see
        // imgrn_processor.cc) and recorded here against the SHARD, so the
        // per-source EWMAs stay layout-independent while the shard's
        // measured total still includes it.
        shard_overhead_.Record(static_cast<SourceId>(shard_index),
                               overhead_meter_ != nullptr
                                   ? overhead_meter_(local_stats)
                                   : local_stats.permutation_fill_seconds);
        // Remap shard-local ids to global source ids while the reader lock
        // still pins local_to_global, and keep only the sources this
        // query's partition map assigns to this shard — a migrating source
        // is counted exactly once, at its owner under the pinned map.
        // Sources appended after the map was published pass through: an
        // appended source lives on exactly one shard for as long as any
        // older topology stays pinned (AddSource publishes, and a
        // rebalance starts by draining every pre-publish pin).
        std::vector<QueryMatch> kept;
        kept.reserve(local->size());
        for (QueryMatch& match : *local) {
          IMGRN_CHECK_LT(match.source, replica.local_to_global.size());
          const SourceId global = replica.local_to_global[match.source];
          if (!topology.Owns(shard_index, global)) continue;
          match.source = global;
          kept.push_back(std::move(match));
        }
        // Migration appends globals out of order; restore the ascending
        // source order sub-results are documented to have.
        std::sort(kept.begin(), kept.end(),
                  [](const QueryMatch& a, const QueryMatch& b) {
                    return a.source < b.source;
                  });
        if (stats != nullptr) {
          // Re-expose the cost breakdown with global ids (owned sources
          // only), unless the caller never asked for it.
          std::vector<SourceCostSample> remapped;
          if (params.collect_source_costs) {
            remapped.reserve(local_stats.source_costs.size());
            for (SourceCostSample sample : local_stats.source_costs) {
              const SourceId global =
                  replica.local_to_global[sample.source];
              if (!topology.Owns(shard_index, global)) continue;
              sample.source = global;
              remapped.push_back(sample);
            }
            std::sort(remapped.begin(), remapped.end(),
                      [](const SourceCostSample& a,
                         const SourceCostSample& b) {
                        return a.source < b.source;
                      });
          }
          local_stats.source_costs = std::move(remapped);
          *stats = std::move(local_stats);
        }
        return kept;
      }();
  if (!result.ok()) {
    replica.sub_query_errors.fetch_add(1, std::memory_order_relaxed);
  }
  replica.sub_queries_finished.fetch_add(1, std::memory_order_relaxed);
  return result;
}

Result<std::vector<QueryMatch>> ShardedEngine::RunShardWithRecovery(
    const Topology& topology, size_t shard_index,
    const ProbGraph& query_graph, const QueryParams& params,
    QueryStats* stats, const QueryControl* control) const {
  const ReplicaSet& set = *topology.shards[shard_index];
  const ShardRetryOptions& retry = options_.retry;
  uint64_t retries = 0;
  uint64_t failovers = 0;
  int64_t backoff_micros = retry.initial_backoff_micros;
  auto finish = [&](Result<std::vector<QueryMatch>> result) {
    if (stats != nullptr) {
      stats->shard_retries = retries;
      stats->replica_failovers = failovers;
    }
    return result;
  };
  for (size_t attempt = 1;; ++attempt) {
    // Route this attempt: the round-robin pick skips quarantined replicas
    // (counted as failovers) and claims the half-open probe slot of a
    // recovering one, so the chosen replica must receive exactly one
    // health verdict below. A breaker that opened because of THIS
    // sub-query's earlier failures is skipped by the remaining retries
    // too.
    const int64_t picked = set.PickReplica(&failovers);
    if (picked < 0) {
      return finish(Status::Unavailable(
          "shard " + std::to_string(shard_index) + " is quarantined (all " +
          std::to_string(set.size()) + " replica circuit breakers open)"));
    }
    ShardReplica& replica = *set.replica(static_cast<size_t>(picked));
    // PickReplica admitted this attempt (and may have claimed the
    // replica's half-open probe slot), so exactly one verdict is owed.
    // The guard makes that structural: every exit from this iteration —
    // including an exception out of RunShard or a future early return —
    // delivers one, so a dropped probe can never wedge the breaker
    // half-open (probe_in_flight_ stuck true, all future probes
    // rejected, the replica unrecoverable).
    CircuitBreaker::ProbeGuard probe(&replica.breaker);
    Result<std::vector<QueryMatch>> result =
        RunShard(topology, shard_index, static_cast<size_t>(picked),
                 query_graph, params, stats, control);
    if (result.ok()) {
      probe.Success();
      return finish(std::move(result));
    }
    const StatusCode code = result.status().code();
    if (code == StatusCode::kCancelled ||
        code == StatusCode::kDeadlineExceeded ||
        code == StatusCode::kInvalidArgument ||
        code == StatusCode::kFailedPrecondition) {
      // The caller's doing (cancel, deadline, bad request), not the
      // replica's: no health verdict, no retry.
      probe.Neutral();
      return finish(std::move(result));
    }
    probe.Failure();
    if (code != StatusCode::kUnavailable || attempt >= retry.max_attempts) {
      // kDataLoss/kInternal persist — retrying re-reads the same corrupt
      // bytes; and a transient error out of attempts gives up too.
      return finish(std::move(result));
    }
    ++retries;
    if (control != nullptr) {
      // Don't sleep through a deadline that already expired.
      Status cancelled = control->Check();
      if (!cancelled.ok()) return finish(std::move(cancelled));
    }
    if (set.size() > 1) {
      // The retry fails over: the round-robin cursor has moved past the
      // replica that just failed, so the next attempt lands on a peer.
      // Backoff buys a sick replica time to recover — a healthy peer
      // needs none, so failover retries go out immediately.
      ++failovers;
      continue;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(backoff_micros));
    backoff_micros =
        static_cast<int64_t>(backoff_micros * retry.backoff_multiplier);
  }
}

Status ShardedEngine::AppendToReplicaLocked(ShardReplica& replica,
                                            GeneMatrix matrix,
                                            SourceId global, double cost) {
  std::unique_lock<std::shared_mutex> lock(replica.mutex);
  // The new local id is defined by the side tables, NOT the engine: every
  // query remaps through local_to_global, so IT is the authority on what
  // local ids mean. The engine's database happens to agree because
  // RemoveMatrix only deactivates (never shrinks) — the CHECK pins that
  // assumption down so a future engine that compacts on removal fails
  // loudly here instead of silently remapping matches to wrong globals
  // after a RemoveSource -> AddSource sequence on the same shard.
  const SourceId local =
      static_cast<SourceId>(replica.local_to_global.size());
  if (!replica.built) {
    IMGRN_CHECK_EQ(replica.local_to_global.size(), 0u);
    // First source of a previously empty replica: bootstrap its engine.
    matrix.set_source_id(0);
    GeneDatabase database;
    database.Add(std::move(matrix));
    replica.engine.LoadDatabase(std::move(database));
    IMGRN_RETURN_IF_ERROR(replica.engine.BuildIndex());
    replica.built = true;
  } else {
    IMGRN_CHECK_EQ(static_cast<size_t>(local),
                   replica.engine.database().size());
    matrix.set_source_id(local);
    IMGRN_RETURN_IF_ERROR(replica.engine.AddMatrix(std::move(matrix)));
  }
  replica.local_to_global.push_back(global);
  replica.active.push_back(true);
  replica.active_sources.fetch_add(1, std::memory_order_relaxed);
  replica.cost.store(replica.cost.load(std::memory_order_relaxed) + cost,
                     std::memory_order_relaxed);
  return Status::Ok();
}

Status ShardedEngine::AppendToAllReplicasLocked(ReplicaSpan replicas,
                                                const GeneMatrix& matrix,
                                                SourceId global,
                                                double cost) {
  for (const std::shared_ptr<ShardReplica>& replica : replicas) {
    Status append = AppendToReplicaLocked(*replica, matrix, global, cost);
    if (!append.ok()) {
      // Roll the earlier replicas back so the set never exposes the source
      // on some replicas but not others (a query routed to replica 0 must
      // see exactly what one routed to replica 1 sees).
      IMGRN_CHECK_OK(RemoveFromReplicasLocked(replicas, global, cost,
                                              /*must_exist=*/false));
      return append;
    }
  }
  return Status::Ok();
}

Status ShardedEngine::RemoveFromReplicasLocked(ReplicaSpan replicas,
                                               SourceId global, double cost,
                                               bool must_exist) {
  for (const std::shared_ptr<ShardReplica>& replica : replicas) {
    std::unique_lock<std::shared_mutex> lock(replica->mutex);
    const int64_t local = ActiveLocalOf(*replica, global);
    if (local < 0) {
      // Replicas mirror the same active set, so a missing entry is only
      // legitimate when unwinding a PARTIAL append (must_exist false).
      IMGRN_CHECK(!must_exist);
      continue;
    }
    IMGRN_RETURN_IF_ERROR(
        DeactivateLocked(*replica, static_cast<size_t>(local), cost));
  }
  return Status::Ok();
}

Status ShardedEngine::AddSource(GeneMatrix matrix) {
  std::lock_guard<std::mutex> routing(update_mutex_);
  if (!built_) {
    return Status::FailedPrecondition("BuildIndex() has not run");
  }
  if (matrix.source_id() != next_source_) {
    return Status::InvalidArgument(
        "new matrix's source id must equal num_sources()");
  }
  const SourceId global = matrix.source_id();
  const double cost = EstimateSourceCost(matrix);
  const std::shared_ptr<const Topology> current = Current();
  std::vector<double> shard_costs;
  shard_costs.reserve(current->shards.size());
  for (const std::shared_ptr<ReplicaSet>& set : current->shards) {
    shard_costs.push_back(set->primary().cost.load(std::memory_order_relaxed));
  }
  const size_t s = partitioner_->PlaceSource(global, cost, shard_costs);
  IMGRN_CHECK_LT(s, current->shards.size());
  Status append = AppendToAllReplicasLocked(current->shards[s]->replicas(),
                                            matrix, global, cost);
  if (!append.ok()) {
    // The rolled-back append may have been briefly visible on the earlier
    // replicas (the new source passes the map filter while unpublished);
    // bump the generation so any result cached during that window can
    // never be served.
    update_generation_.fetch_add(1, std::memory_order_release);
    return append;
  }
  source_cost_.push_back(cost);
  retracted_.push_back(false);
  ++next_source_;
  // Publish the extended map AFTER the data is in place, so every query
  // that can see the map entry finds the source on its shard.
  std::vector<uint32_t> shard_of = current->shard_of;
  shard_of.push_back(static_cast<uint32_t>(s));
  Publish(std::make_shared<Topology>(current->shards, std::move(shard_of)));
  // The generation bump is the LAST step: from here every cache key minted
  // before this AddSource is unservable, and any result computed while the
  // append was in flight fails the insert-time generation check.
  update_generation_.fetch_add(1, std::memory_order_release);
  return Status::Ok();
}

Status ShardedEngine::RemoveSource(SourceId source) {
  std::lock_guard<std::mutex> routing(update_mutex_);
  if (!built_) {
    return Status::FailedPrecondition("BuildIndex() has not run");
  }
  if (source >= next_source_) {
    return Status::InvalidArgument("unknown source id");
  }
  const std::shared_ptr<const Topology> current = Current();
  ReplicaSet& set = *current->shards[current->shard_of[source]];
  // Existence check against the primary (replicas mirror the active set).
  // No replica lock needed for the read: the side tables are only written
  // by holders of update_mutex_, which we are.
  if (ActiveLocalOf(set.primary(), source) < 0) {
    return Status::FailedPrecondition("matrix already removed");
  }
  IMGRN_RETURN_IF_ERROR(RemoveFromReplicasLocked(
      set.replicas(), source, source_cost_[source], /*must_exist=*/true));
  retracted_[source] = true;
  // Forget the measured cost after every replica was deactivated under its
  // write lock: a sub-query records under a replica's shared lock, so any
  // recording that could re-add a sample happened-before that replica's
  // write lock above — and any sub-query starting now sees the source
  // inactive on every replica.
  measured_.Retire(source);
  update_generation_.fetch_add(1, std::memory_order_release);
  return Status::Ok();
}

Status ShardedEngine::Rebalance(const PartitionPlan& plan) {
  std::lock_guard<std::mutex> routing(update_mutex_);
  if (!built_) {
    return Status::FailedPrecondition("BuildIndex() has not run");
  }
  const std::shared_ptr<const Topology> current = Current();
  if (plan.num_shards != current->shards.size()) {
    return Status::InvalidArgument(
        "plan has " + std::to_string(plan.num_shards) + " shards, engine " +
        std::to_string(current->shards.size()));
  }
  IMGRN_RETURN_IF_ERROR(plan.Validate(next_source_));
  Status migrated = MigrateLocked(current->shards, plan.shard_of);
  // Bump regardless of outcome: a migration that faulted after its commit
  // point has already changed ownership (rolled forward), and a pure
  // ownership change cannot alter answers anyway — invalidating is just
  // the conservative side.
  update_generation_.fetch_add(1, std::memory_order_release);
  return migrated;
}

std::vector<double> ShardedEngine::CalibratedCostsLocked() const {
  // Retracted sources carry no load (and their registry entries were
  // retired), so the plan packs only live cost.
  std::vector<double> costs = source_cost_;
  for (size_t i = 0; i < costs.size(); ++i) {
    if (retracted_[i]) costs[i] = 0.0;
  }
  return CalibrateSourceCosts(costs, measured_, options_.calibration);
}

std::vector<double> ShardedEngine::CalibratedSourceCosts() const {
  std::lock_guard<std::mutex> routing(update_mutex_);
  return CalibratedCostsLocked();
}

Status ShardedEngine::Rebalance(double target_imbalance,
                                size_t* moved_sources) {
  std::lock_guard<std::mutex> routing(update_mutex_);
  if (moved_sources != nullptr) *moved_sources = 0;
  if (!built_) {
    return Status::FailedPrecondition("BuildIndex() has not run");
  }
  const std::shared_ptr<const Topology> current = Current();
  // Under update_mutex_ the published map always covers every source
  // (AddSource extends it before releasing the lock).
  PartitionPlan now;
  now.num_shards = current->shards.size();
  now.shard_of = current->shard_of;
  size_t moved = 0;
  PartitionPlan plan = PlanMinimalRebalance(
      CalibratedCostsLocked(), now, target_imbalance, &moved);
  if (moved_sources != nullptr) *moved_sources = moved;
  if (moved == 0) return Status::Ok();
  Status migrated = MigrateLocked(current->shards, std::move(plan.shard_of));
  update_generation_.fetch_add(1, std::memory_order_release);
  return migrated;
}

Status ShardedEngine::Resize(size_t new_num_shards) {
  std::lock_guard<std::mutex> routing(update_mutex_);
  if (new_num_shards == 0) {
    return Status::InvalidArgument("shard count must be >= 1");
  }
  if (!built_) {
    return Status::FailedPrecondition("BuildIndex() has not run");
  }
  const std::shared_ptr<const Topology> current = Current();
  // Shards keep their identity below min(K, K'): the partitioner decides
  // placement, the migration moves only what it reassigns. New shards get
  // the published replica count.
  const size_t kept = std::min(current->shards.size(), new_num_shards);
  std::vector<std::shared_ptr<ReplicaSet>> target_shards(
      current->shards.begin(),
      current->shards.begin() + static_cast<ptrdiff_t>(kept));
  while (target_shards.size() < new_num_shards) {
    target_shards.push_back(MakeReplicaSet(current->shards.front()->size()));
  }
  // Retracted sources carry no load; zero them out so the plan packs only
  // live cost (their map entries are still assigned, arbitrarily). A
  // measured-cost policy plans over the calibrated blend instead.
  std::vector<double> costs;
  if (partitioner_->wants_measured_costs()) {
    costs = CalibratedCostsLocked();
  } else {
    costs = source_cost_;
    for (size_t i = 0; i < costs.size(); ++i) {
      if (retracted_[i]) costs[i] = 0.0;
    }
  }
  PartitionPlan plan = partitioner_->Partition(costs, new_num_shards);
  IMGRN_RETURN_IF_ERROR(plan.Validate(next_source_));
  Status migrated =
      MigrateLocked(std::move(target_shards), std::move(plan.shard_of));
  update_generation_.fetch_add(1, std::memory_order_release);
  // Dropped shard indices may be reborn by a future grow; their overhead
  // EWMAs must not leak into the new shard's measurement. Key on the
  // published count, not the Status: a fault after the commit point fails
  // the call but leaves the smaller topology published.
  for (size_t s = num_shards(); s < current->shards.size(); ++s) {
    shard_overhead_.Retire(static_cast<SourceId>(s));
  }
  return migrated;
}

Status ShardedEngine::SetReplicas(size_t num_replicas) {
  std::lock_guard<std::mutex> routing(update_mutex_);
  if (num_replicas == 0) {
    return Status::InvalidArgument("replica count must be >= 1");
  }
  if (!built_) {
    return Status::FailedPrecondition("BuildIndex() has not run");
  }
  const std::shared_ptr<const Topology> current = Current();
  const size_t have = current->shards.front()->size();
  if (num_replicas == have) return Status::Ok();
  // Every set keeps its first min(have, num_replicas) replicas. Growing
  // clones each primary into the fresh tail and does not drain: the new
  // sets are supersets of the old, so every older pin stays servable.
  // Shrinking copies nothing and drains the queries that could still route
  // to a dropped replica, which then dies with its last shared_ptr (its
  // spill file unlinks with it). No generation bump: replica membership
  // cannot change answers, so the result cache stays warm.
  auto next = std::make_shared<Topology>();
  next->shard_of = current->shard_of;
  std::vector<SourceCopy> copies;
  for (const std::shared_ptr<ReplicaSet>& set : current->shards) {
    std::vector<std::shared_ptr<ShardReplica>> replicas(
        set->replicas().begin(),
        set->replicas().begin() +
            static_cast<ptrdiff_t>(std::min(have, num_replicas)));
    while (replicas.size() < num_replicas) replicas.push_back(MakeReplica());
    next->shards.push_back(std::make_shared<ReplicaSet>(std::move(replicas)));
    if (num_replicas > have) {
      ListActiveSources(
          set->primary(),
          ReplicaSpan(next->shards.back()->replicas()).subspan(have),
          &copies);
    }
  }
  return ApplyTopologyChange(copies, std::move(next),
                             /*drain=*/num_replicas < have);
}

Status ShardedEngine::ApplyTopologyChange(
    const std::vector<SourceCopy>& copies,
    std::shared_ptr<const Topology> next, bool drain) {
  // Copy. Until the publish, each destination is either unreachable (a
  // fresh replica) or holds the copy as a non-owner that the current map
  // filters out, so no query sees it. The fault site is evaluated once per
  // source, not per replica: the unit of a copy is the source.
  Status status = Status::Ok();
  size_t copied = 0;
  for (; copied < copies.size(); ++copied) {
    const SourceCopy& copy = copies[copied];
    status = CheckFault(fault_sites::kMigrateCopy,
                        static_cast<int64_t>(copy.global));
    if (!status.ok()) break;
    // Read the donor now, not when the list was built: an earlier append
    // into a replica that is also a donor can reallocate its database. No
    // donor lock is needed: only holders of update_mutex_ write replicas.
    status = AppendToAllReplicasLocked(
        copy.to, copy.donor->engine.database().matrix(copy.local),
        copy.global, source_cost_[copy.global]);
    if (!status.ok()) break;
  }
  if (status.ok()) {
    status = CheckFault(fault_sites::kMigratePublish,
                        static_cast<int64_t>(next->shards.size()));
  }
  if (!status.ok()) {
    // Before the commit point: undo this call's copies (one that failed
    // halfway has already unwound itself) and publish nothing.
    for (size_t i = 0; i < copied; ++i) {
      IMGRN_CHECK_OK(RemoveFromReplicasLocked(
          copies[i].to, copies[i].global, source_cost_[copies[i].global],
          /*must_exist=*/true));
    }
    return status;
  }
  Publish(next);
  if (!drain) return Status::Ok();
  // After the commit point a fault rolls forward: `next` stays published,
  // and what the drain guards (a migration's deletes, a dropped replica's
  // release) is left to the next migration's sweep or the last pin.
  IMGRN_RETURN_IF_ERROR(CheckFault(fault_sites::kMigrateDrain,
                                   static_cast<int64_t>(next->shards.size())));
  DrainOlder(*next);
  return Status::Ok();
}

void ShardedEngine::ListActiveSources(const ShardReplica& donor,
                                      ReplicaSpan to,
                                      std::vector<SourceCopy>* copies) {
  // Skipping inactive entries compacts the clone's local ids; matches are
  // unaffected because local ids never leave a sub-query.
  for (size_t i = 0; i < donor.local_to_global.size(); ++i) {
    if (!donor.active[i]) continue;
    copies->push_back({&donor, static_cast<SourceId>(i),
                       donor.local_to_global[i], to});
  }
}

Status ShardedEngine::MigrateLocked(
    std::vector<std::shared_ptr<ReplicaSet>> target_shards,
    std::vector<uint32_t> target_map) {
  const std::shared_ptr<const Topology> current = Current();
  // The moving set, in ascending id order: active sources whose owner
  // changes, each copied from its owner's primary into every replica of
  // its destination. Shard indices shared between the lists refer to the
  // same ReplicaSet object, so an unchanged assignment never moves, even
  // across a Resize.
  std::vector<SourceCopy> moving;
  for (SourceId global = 0; global < next_source_; ++global) {
    const uint32_t from = current->shard_of[global];
    if (retracted_[global] || target_map[global] == from) continue;
    const ShardReplica& donor = current->shards[from]->primary();
    const int64_t local = ActiveLocalOf(donor, global);
    IMGRN_CHECK_GE(local, 0);
    moving.push_back({&donor, static_cast<SourceId>(local), global,
                      target_shards[target_map[global]]->replicas()});
  }
  if (moving.empty() && target_shards == current->shards) {
    if (target_map != current->shard_of) {
      // Only retracted sources were reassigned: publish the new map so
      // ShardOf/Rebalance see it, but nothing migrates.
      Publish(std::make_shared<Topology>(std::move(target_shards),
                                         std::move(target_map)));
    }
    return Status::Ok();
  }

  // Step 1 — cut over new pins to a fresh topology object with UNCHANGED
  // ownership and drain every older one. From here on, all in-flight
  // queries hold a map that covers every current source (so none relies
  // on the pass-through rule for a source this migration is about to
  // duplicate). A fault here aborts before anything changed.
  IMGRN_RETURN_IF_ERROR(ApplyTopologyChange(
      {}, std::make_shared<Topology>(current->shards, current->shard_of),
      /*drain=*/true));

  // Recovery sweep: a migration that faulted after publishing its new map
  // (drain/delete step) leaves its superseded copies behind — active
  // entries whose global the current map assigns elsewhere. They are
  // invisible to every query (the map filter skips non-owners, and the
  // drain above retired every pin that could have seen an older map), so
  // deactivating them here is safe and makes migrations self-healing: each
  // one starts by garbage-collecting whatever a predecessor's fault left.
  // It also guarantees no destination below already holds an active copy.
  for (size_t s = 0; s < current->shards.size(); ++s) {
    for (const std::shared_ptr<ShardReplica>& replica :
         current->shards[s]->replicas()) {
      std::unique_lock<std::shared_mutex> lock(replica->mutex);
      for (size_t i = 0; i < replica->local_to_global.size(); ++i) {
        const SourceId global = replica->local_to_global[i];
        if (!replica->active[i] || current->Owns(s, global)) continue;
        IMGRN_RETURN_IF_ERROR(
            DeactivateLocked(*replica, i, source_cost_[global]));
      }
    }
  }

  // Step 2 — copy the moving sources (by destination shard, then ascending
  // id), publish the new ownership and drain the queries still pinned to
  // the old map. New queries find every moved source on its new shard;
  // drained ones found it on the old, whose copy stays authoritative until
  // the publish. A fault before the publish rolls the copies back; one
  // after it rolls FORWARD: the new map stands, the not-yet-deleted old
  // copies are invisible non-owners, and the next migration's sweep
  // collects them.
  std::vector<SourceCopy> copies = moving;
  std::stable_sort(copies.begin(), copies.end(),
                   [&](const SourceCopy& a, const SourceCopy& b) {
                     return target_map[a.global] < target_map[b.global];
                   });
  const std::shared_ptr<const Topology> next = std::make_shared<Topology>(
      std::move(target_shards), std::move(target_map));
  IMGRN_RETURN_IF_ERROR(ApplyTopologyChange(copies, next, /*drain=*/true));

  // Step 3 — delete the moved sources from their old shards (every
  // replica). Shards that are not part of the new topology are skipped: no
  // new query can reach them, and the object is retired when its last pin
  // unwinds. A fault mid-loop is safe at every prefix: the new map is
  // already authoritative, each undeleted old copy is an invisible
  // non-owner, and the next migration's sweep finishes the job.
  for (const SourceCopy& moved : moving) {
    const size_t from = current->shard_of[moved.global];
    if (from >= next->shards.size() ||
        next->shards[from] != current->shards[from]) {
      continue;
    }
    IMGRN_RETURN_IF_ERROR(CheckFault(fault_sites::kMigrateDelete,
                                     static_cast<int64_t>(moved.global)));
    IMGRN_RETURN_IF_ERROR(RemoveFromReplicasLocked(
        current->shards[from]->replicas(), moved.global,
        source_cost_[moved.global], /*must_exist=*/true));
  }
  return Status::Ok();
}

Status ShardedEngine::ScrubStep(ScrubCursor* cursor, size_t max_pages,
                                bool reclaim, ScrubReport* report) const {
  *report = ScrubReport{};
  if (!built_.load(std::memory_order_acquire)) return Status::Ok();
  TopologyPin topology(*this);
  const size_t num_shards = topology->shards.size();
  size_t total_replicas = 0;
  for (const std::shared_ptr<ReplicaSet>& set : topology->shards) {
    total_replicas += set->size();
  }
  if (total_replicas == 0) return Status::Ok();
  // The cursor may point past a shrunken topology (Resize/SetReplicas ran
  // since the last step); clamp rather than guess a mapping.
  if (cursor->shard >= num_shards) *cursor = ScrubCursor{};
  if (cursor->replica >= topology->shards[cursor->shard]->size()) {
    cursor->replica = 0;
    cursor->page = 0;
  }
  // Odometer advance: next replica, wrapping to the next shard and back to
  // the first — the scrubber eventually revisits everything forever.
  auto advance = [&] {
    cursor->page = 0;
    if (++cursor->replica >= topology->shards[cursor->shard]->size()) {
      cursor->replica = 0;
      if (++cursor->shard >= num_shards) cursor->shard = 0;
    }
  };
  size_t budget = max_pages;
  size_t completed = 0;
  // `completed` bounds the walk to one full lap: with every store empty
  // the budget never shrinks, and this loop must still terminate.
  while (budget > 0 && completed <= total_replicas) {
    ShardReplica& replica =
        *topology->shards[cursor->shard]->replica(cursor->replica);
    size_t scrubbed = 0;
    bool store_done = false;
    Status status;
    {
      // Shared lock: the scrub read path mutates nothing queries share, so
      // concurrent sub-queries on this replica proceed undisturbed.
      std::shared_lock<std::shared_mutex> lock(replica.mutex);
      status = replica.engine.ScrubPages(&cursor->page, budget, &scrubbed);
      if (status.ok()) {
        const StorageManager* store = replica.engine.storage();
        store_done =
            store == nullptr || cursor->page >= store->num_pages();
      }
    }
    report->pages_scrubbed += scrubbed;
    budget -= scrubbed;
    if (!status.ok()) {
      if (status.code() == StatusCode::kDataLoss) {
        // Rot (or its injected stand-in). Report it for quarantine +
        // rebuild and move the cursor off the doomed replica — its store
        // is about to be replaced wholesale.
        report->corrupt = true;
        report->corrupt_shard = cursor->shard;
        report->corrupt_replica = cursor->replica;
        advance();
        return Status::Ok();
      }
      // A non-data-loss read error (I/O): surface it, stepping past the
      // failing page so the next tick does not wedge on it forever.
      ++cursor->page;
      return status;
    }
    if (store_done) {
      if (reclaim) {
        // The store just verified clean end-to-end — the safe moment to
        // drop pages stranded by index rebuilds. Mutates the store, so
        // exclusive lock (queries briefly wait, exactly like an update).
        size_t reclaimed = 0;
        size_t truncated = 0;
        Status reclaim_status;
        {
          std::unique_lock<std::shared_mutex> lock(replica.mutex);
          reclaim_status =
              replica.engine.ReclaimStorage(&reclaimed, &truncated);
        }
        report->pages_reclaimed += reclaimed;
        report->slots_truncated += truncated;
        if (!reclaim_status.ok()) {
          advance();
          return reclaim_status;
        }
      }
      advance();
      ++completed;
    }
  }
  return Status::Ok();
}

void ShardedEngine::QuarantineReplica(size_t shard, size_t replica) {
  TopologyPin topology(*this);
  IMGRN_CHECK_LT(shard, topology->shards.size());
  IMGRN_CHECK_LT(replica, topology->shards[shard]->size());
  topology->shards[shard]->replica(replica)->breaker.Trip();
}

Status ShardedEngine::RebuildReplica(size_t shard, size_t replica) {
  std::lock_guard<std::mutex> routing(update_mutex_);
  if (!built_) {
    return Status::FailedPrecondition("BuildIndex() has not run");
  }
  const std::shared_ptr<const Topology> current = Current();
  if (shard >= current->shards.size()) {
    return Status::InvalidArgument("shard index out of range");
  }
  const ReplicaSet& set = *current->shards[shard];
  if (replica >= set.size()) {
    return Status::InvalidArgument("replica index out of range");
  }
  // Donor: the lowest-numbered peer that is not quarantined. With no such
  // peer, the sick replica donates to its own replacement — its resident
  // side tables and database are intact even when its backing STORE is
  // not (the store holds tree pages; the matrices live in memory).
  const ShardReplica* donor = set.replica(replica).get();
  for (size_t r = 0; r < set.size(); ++r) {
    if (r != replica &&
        set.replica(r)->breaker.state() != CircuitBreaker::State::kOpen) {
      donor = set.replica(r).get();
      break;
    }
  }
  // Clone the donor into a fresh replica (fresh engine, fresh backing
  // file, closed breaker) in the sick one's place, publish, and drain:
  // queries pinned to the old topology finish against the old replica,
  // and the last pin to unwind retires it — spill file unlinked with it.
  // No generation bump: replica membership cannot change answers, so the
  // result cache deliberately stays warm through a rebuild.
  std::vector<std::shared_ptr<ShardReplica>> replicas = set.replicas();
  replicas[replica] = MakeReplica();
  auto next = std::make_shared<Topology>(current->shards, current->shard_of);
  next->shards[shard] = std::make_shared<ReplicaSet>(std::move(replicas));
  std::vector<SourceCopy> copies;
  ListActiveSources(
      *donor, ReplicaSpan(next->shards[shard]->replicas()).subspan(replica, 1),
      &copies);
  return ApplyTopologyChange(copies, std::move(next), /*drain=*/true);
}

size_t ShardedEngine::num_shards() const { return Current()->shards.size(); }

size_t ShardedEngine::num_replicas() const {
  return Current()->shards.front()->size();
}

size_t ShardedEngine::num_sources() const {
  std::lock_guard<std::mutex> routing(update_mutex_);
  return next_source_;
}

size_t ShardedEngine::ShardOf(SourceId source) const {
  const std::shared_ptr<const Topology> current = Current();
  IMGRN_CHECK_LT(source, current->shard_of.size());
  return current->shard_of[source];
}

ResultCacheStats ShardedEngine::CacheStats() const {
  return cache_ != nullptr ? cache_->Stats() : ResultCacheStats{};
}

void ShardedEngine::SetCostMeterForTesting(
    double (*source_seconds)(const SourceCostSample&),
    double (*overhead_seconds)(const QueryStats&)) {
  source_meter_ = source_seconds;
  overhead_meter_ = overhead_seconds;
}

ShardedEngineStatsSnapshot ShardedEngine::StatsSnapshot() const {
  TopologyPin topology(*this);
  ShardedEngineStatsSnapshot snapshot;
  snapshot.shards.reserve(topology->shards.size());
  snapshot.replicas = topology->shards.front()->size();
  // Measured load per shard: sum of the per-source EWMAs under the pinned
  // map (retired sources read 0; a source added after this topology was
  // published is missed until the next publish — a gauge, not a ledger).
  std::vector<double> measured(topology->shards.size(), 0.0);
  for (SourceId global = 0; global < topology->shard_of.size(); ++global) {
    measured[topology->shard_of[global]] += measured_.Ewma(global);
  }
  std::vector<double> costs;
  costs.reserve(topology->shards.size());
  for (size_t s = 0; s < topology->shards.size(); ++s) {
    const ReplicaSet& set = *topology->shards[s];
    ShardStats stats;
    stats.shard = s;
    // Gauges read the primary (all replicas mirror the same active set);
    // traffic counters sum over the replicas, which split the load.
    stats.sources = set.primary().active_sources.load(
        std::memory_order_relaxed);
    stats.cost = set.primary().cost.load(std::memory_order_relaxed);
    // Fold the shard's shared-overhead EWMA (permutation-cache fills) back
    // into its measured load: the shard really pays it per query, it just
    // belongs to no single source.
    stats.overhead_seconds =
        shard_overhead_.Ewma(static_cast<SourceId>(s));
    measured[s] += stats.overhead_seconds;
    stats.measured_seconds = measured[s];
    stats.replicas.reserve(set.size());
    for (size_t r = 0; r < set.size(); ++r) {
      const ShardReplica& replica = *set.replica(r);
      ReplicaStats replica_stats;
      replica_stats.replica = r;
      const uint64_t started =
          replica.sub_queries_started.load(std::memory_order_relaxed);
      replica_stats.sub_queries =
          replica.sub_queries_finished.load(std::memory_order_relaxed);
      replica_stats.sub_query_errors =
          replica.sub_query_errors.load(std::memory_order_relaxed);
      replica_stats.in_flight = started - replica_stats.sub_queries;
      replica_stats.breaker = replica.breaker.state();
      replica_stats.breaker_rejections = replica.breaker.rejections();
      stats.sub_queries += replica_stats.sub_queries;
      stats.sub_query_errors += replica_stats.sub_query_errors;
      stats.in_flight += replica_stats.in_flight;
      stats.replicas.push_back(replica_stats);
    }
    costs.push_back(stats.cost);
    snapshot.shards.push_back(std::move(stats));
  }
  snapshot.imbalance = MaxMeanImbalance(costs);
  // A cold registry (no queries yet) measures every shard at zero, which
  // plain max/mean reads as "perfectly balanced" — exactly wrong for the
  // auto-rebalance loop, which would then never fire on a skewed cold
  // cluster. Fall back to the static estimate until real measurements
  // arrive.
  snapshot.measured_imbalance = MaxMeanImbalanceWithFallback(measured, costs);
  snapshot.cache = CacheStats();
  if (maintenance_ != nullptr) {
    snapshot.maintenance = maintenance_->Stats();
  }
  return snapshot;
}

std::shared_mutex& ShardedEngine::shard_mutex_for_testing(
    size_t shard, size_t replica) const {
  const std::shared_ptr<const Topology> current = Current();
  IMGRN_CHECK_LT(shard, current->shards.size());
  IMGRN_CHECK_LT(replica, current->shards[shard]->size());
  return current->shards[shard]->replica(replica)->mutex;
}

}  // namespace imgrn
