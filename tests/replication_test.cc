// The replication contract of service/sharded_engine.h, locked down
// differentially: for every (shard count K, replica count R) in a grid,
// the replicated engine's matches are byte-identical to a single
// unsharded ImGrnEngine, and its QueryStats counters are identical to the
// same engine at R=1 — the ONLY stats field serving topology may change
// is replica_failovers (plus wall-clock). On top of the grid: round-robin
// routing spreads sub-queries evenly, a quarantined replica sheds its
// load onto peers with NO degradation, and SetReplicas scales a live
// engine without perturbing answers.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "core/engine.h"
#include "service/replica_set.h"
#include "service/sharded_engine.h"
#include "tests/test_util.h"

namespace imgrn {
namespace {

using testing_util::ClusterDatabaseConfig;
using testing_util::DefaultClusterParams;
using testing_util::ExpectIdenticalMatches;
using testing_util::MakeClusterDatabase;
using testing_util::MakeClusterMatrix;
using testing_util::MakeClusterQueryMatrix;
using testing_util::MakeLoadedShardedEngine;
using testing_util::MakePlantedMatrix;
using testing_util::MakeShardedOptions;

// This suite's planted-cluster database (see tests/test_util.h).
constexpr ClusterDatabaseConfig kConfig = {.seed_base = 3100};

// The replication contract on QueryStats: every counter is bit-identical
// across serving topologies. replica_failovers is asserted separately by
// each test (the one field topology MAY change), the four *_seconds
// fields and source_costs hold wall-clock, and page_accesses (physical
// buffer-pool misses) additionally depends on which replica's pool served
// the PREVIOUS queries — so the first query of a fresh engine compares it
// (every pool cold, cursor at replica 0) and later queries mask it.
void ExpectSameCounters(const QueryStats& actual, const QueryStats& baseline,
                        bool include_page_accesses,
                        const std::string& context) {
  if (include_page_accesses) {
    EXPECT_EQ(actual.page_accesses, baseline.page_accesses) << context;
  }
  EXPECT_EQ(actual.page_fetches, baseline.page_fetches) << context;
  EXPECT_EQ(actual.query_vertices, baseline.query_vertices) << context;
  EXPECT_EQ(actual.query_edges, baseline.query_edges) << context;
  EXPECT_EQ(actual.node_pairs_examined, baseline.node_pairs_examined)
      << context;
  EXPECT_EQ(actual.node_pairs_pruned_signature,
            baseline.node_pairs_pruned_signature)
      << context;
  EXPECT_EQ(actual.node_pairs_pruned_index, baseline.node_pairs_pruned_index)
      << context;
  EXPECT_EQ(actual.leaf_pairs_examined, baseline.leaf_pairs_examined)
      << context;
  EXPECT_EQ(actual.leaf_pairs_pruned_pivot, baseline.leaf_pairs_pruned_pivot)
      << context;
  EXPECT_EQ(actual.leaf_pairs_pruned_edge, baseline.leaf_pairs_pruned_edge)
      << context;
  EXPECT_EQ(actual.candidate_pairs, baseline.candidate_pairs) << context;
  EXPECT_EQ(actual.candidate_matrices, baseline.candidate_matrices) << context;
  EXPECT_EQ(actual.matrices_pruned_graph, baseline.matrices_pruned_graph)
      << context;
  EXPECT_EQ(actual.answers, baseline.answers) << context;
  EXPECT_EQ(actual.degraded, baseline.degraded) << context;
  EXPECT_EQ(actual.failed_shards, baseline.failed_shards) << context;
  EXPECT_EQ(actual.shard_retries, baseline.shard_retries) << context;
}

class ReplicationTest : public testing_util::ReferenceEngineFixture {
 protected:
  static constexpr size_t kSources = 7;

  void SetUp() override {
    BuildReference(MakeClusterDatabase(kConfig, kSources));
  }

  // Reference replaying the grid test's mid-stream updates: add source
  // kSources, remove source 2.
  std::vector<QueryMatch> UpdatedReferenceQuery(const GeneMatrix& query) {
    if (!updated_built_) {
      updated_.LoadDatabase(MakeClusterDatabase(kConfig, kSources));
      EXPECT_TRUE(updated_.BuildIndex().ok());
      EXPECT_TRUE(
          updated_.AddMatrix(MakeClusterMatrix(kConfig, kSources)).ok());
      EXPECT_TRUE(updated_.RemoveMatrix(2).ok());
      updated_built_ = true;
    }
    Result<std::vector<QueryMatch>> result = updated_.Query(query, params_);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return *result;
  }

  const QueryParams params_ = DefaultClusterParams();
  ImGrnEngine updated_;
  bool updated_built_ = false;
};

// The tentpole differential: K x R grid, matches byte-identical to the
// unsharded reference, counters identical to the per-K R=1 baseline,
// before AND after mid-stream updates applied while replicated.
TEST_F(ReplicationTest, GridDifferentialBitExactAcrossShardsAndReplicas) {
  const GeneMatrix initial_query = MakeClusterQueryMatrix(8000);
  const GeneMatrix updated_query = MakeClusterQueryMatrix(8001);
  const std::vector<QueryMatch> expected_initial =
      ReferenceQuery(initial_query, params_);
  const std::vector<QueryMatch> expected_updated =
      UpdatedReferenceQuery(updated_query);
  ASSERT_FALSE(expected_initial.empty());
  ASSERT_FALSE(expected_updated.empty());

  ThreadPool pool(3);
  for (size_t num_shards : {1, 2, 4}) {
    QueryStats initial_baseline;
    QueryStats updated_baseline;
    bool have_baseline = false;
    for (size_t num_replicas : {1, 2, 3}) {
      const std::string context = "K=" + std::to_string(num_shards) +
                                  " R=" + std::to_string(num_replicas);
      SCOPED_TRACE(context);
      std::unique_ptr<ShardedEngine> sharded = MakeLoadedShardedEngine(
          kConfig, kSources, MakeShardedOptions(num_shards, num_replicas),
          &pool);
      EXPECT_EQ(sharded->num_shards(), num_shards);
      EXPECT_EQ(sharded->num_replicas(), num_replicas);

      QueryStats initial_stats;
      Result<std::vector<QueryMatch>> initial_result =
          sharded->Query(initial_query, params_, &initial_stats);
      ASSERT_TRUE(initial_result.ok()) << initial_result.status().ToString();
      ExpectIdenticalMatches(*initial_result, expected_initial, "initial");
      EXPECT_EQ(initial_stats.replica_failovers, 0u);

      // Mid-stream updates while replicated: every mutation applies to all
      // replicas in lock step, so the differential must keep holding.
      ASSERT_TRUE(sharded->AddSource(MakeClusterMatrix(kConfig, kSources)).ok());
      ASSERT_TRUE(sharded->RemoveSource(2).ok());
      QueryStats updated_stats;
      Result<std::vector<QueryMatch>> updated_result =
          sharded->Query(updated_query, params_, &updated_stats);
      ASSERT_TRUE(updated_result.ok()) << updated_result.status().ToString();
      ExpectIdenticalMatches(*updated_result, expected_updated, "updated");

      if (!have_baseline) {
        initial_baseline = initial_stats;
        updated_baseline = updated_stats;
        have_baseline = true;
      } else {
        // First query of a fresh engine: every replica pool is cold and
        // the cursor starts at replica 0, so even page_accesses match.
        ExpectSameCounters(initial_stats, initial_baseline,
                           /*include_page_accesses=*/true, "initial stats");
        // The second query is served by a different (cold) replica when
        // R > 1, so only the physical-miss counter may drift.
        ExpectSameCounters(updated_stats, updated_baseline,
                           /*include_page_accesses=*/false, "updated stats");
      }

      const ShardedEngineStatsSnapshot snapshot = sharded->StatsSnapshot();
      EXPECT_EQ(snapshot.replicas, num_replicas);
      for (const ShardStats& shard : snapshot.shards) {
        ASSERT_EQ(shard.replicas.size(), num_replicas);
        EXPECT_EQ(shard.in_flight, 0u);
        EXPECT_EQ(shard.sub_query_errors, 0u);
      }
    }
  }
}

// Sequential fan-out (null pool): the routing cursor advances exactly once
// per shard per query, so 6 queries over R=3 land exactly 2 sub-queries on
// every replica — and every answer is still byte-identical.
TEST_F(ReplicationTest, RoundRobinSpreadsSubQueriesEvenly) {
  constexpr size_t kShards = 2;
  constexpr size_t kReplicas = 3;
  constexpr size_t kQueries = 6;
  std::unique_ptr<ShardedEngine> sharded = MakeLoadedShardedEngine(
      kConfig, kSources, MakeShardedOptions(kShards, kReplicas));
  for (size_t q = 0; q < kQueries; ++q) {
    const GeneMatrix query = MakeClusterQueryMatrix(8100 + q);
    const std::vector<QueryMatch> expected = ReferenceQuery(query, params_);
    Result<std::vector<QueryMatch>> result = sharded->Query(query, params_);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectIdenticalMatches(*result, expected, "query " + std::to_string(q));
  }
  const ShardedEngineStatsSnapshot snapshot = sharded->StatsSnapshot();
  EXPECT_EQ(snapshot.replicas, kReplicas);
  for (const ShardStats& shard : snapshot.shards) {
    EXPECT_EQ(shard.sub_queries, kQueries);
    ASSERT_EQ(shard.replicas.size(), kReplicas);
    for (const ReplicaStats& replica : shard.replicas) {
      EXPECT_EQ(replica.sub_queries, kQueries / kReplicas)
          << "shard " << shard.shard << " replica " << replica.replica;
      EXPECT_EQ(replica.sub_query_errors, 0u);
      EXPECT_EQ(replica.in_flight, 0u);
      EXPECT_EQ(replica.breaker, CircuitBreaker::State::kClosed);
    }
  }
}

// Replica 0 of every shard fails persistently: its breaker trips after
// `failure_threshold` failures and the round-robin router sheds its share
// onto the healthy peer. Queries complete bit-exact WITHOUT allow_partial
// — no degraded flag, no failed shards — and the snapshot shows exactly
// which replica is quarantined.
TEST_F(ReplicationTest, QuarantinedReplicaShedsLoadToPeersWithoutDegrading) {
  constexpr size_t kShards = 2;
  constexpr size_t kReplicas = 2;
  ShardedEngineOptions options = MakeShardedOptions(kShards, kReplicas);
  options.breaker.failure_threshold = 2;
  options.breaker.open_duration_micros = 60'000'000;  // Stays open.
  options.retry.initial_backoff_micros = 1;
  std::unique_ptr<ShardedEngine> sharded =
      MakeLoadedShardedEngine(kConfig, kSources, std::move(options));

  std::vector<FaultRule> rules;
  for (size_t shard = 0; shard < kShards; ++shard) {
    rules.push_back(
        {.site = fault_sites::kReplicaSubQuery,
         .detail = static_cast<int64_t>(shard) *
                   fault_sites::kReplicaDetailStride,
         .every_nth = 1});
  }
  ScopedFaultInjection faults(rules);

  uint64_t total_failovers = 0;
  for (size_t q = 0; q < 6; ++q) {
    const GeneMatrix query = MakeClusterQueryMatrix(8300 + q);
    QueryStats stats;
    Result<std::vector<QueryMatch>> result =
        sharded->Query(query, params_, &stats);  // allow_partial NOT set.
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_FALSE(stats.degraded);
    EXPECT_TRUE(stats.failed_shards.empty());
    ExpectIdenticalMatches(*result, ReferenceQuery(query, params_),
                           "query " + std::to_string(q));
    total_failovers += stats.replica_failovers;
  }
  EXPECT_GT(total_failovers, 0u);

  const ShardedEngineStatsSnapshot snapshot = sharded->StatsSnapshot();
  for (const ShardStats& shard : snapshot.shards) {
    ASSERT_EQ(shard.replicas.size(), kReplicas);
    // Sequential routing: replica 0 served (and failed) exactly
    // failure_threshold sub-queries before its breaker quarantined it;
    // replica 1 absorbed everything, including the failovers.
    EXPECT_EQ(shard.replicas[0].breaker, CircuitBreaker::State::kOpen);
    EXPECT_EQ(shard.replicas[0].sub_queries, 2u);
    EXPECT_EQ(shard.replicas[0].sub_query_errors, 2u);
    EXPECT_GT(shard.replicas[0].breaker_rejections, 0u);
    EXPECT_EQ(shard.replicas[1].breaker, CircuitBreaker::State::kClosed);
    EXPECT_EQ(shard.replicas[1].sub_queries, 6u);
    EXPECT_EQ(shard.replicas[1].sub_query_errors, 0u);
  }
}

// Only when EVERY replica of a shard is quarantined does the shard fail —
// fatally without allow_partial, as a bit-exact degraded answer with it.
TEST_F(ReplicationTest, AllReplicasQuarantinedDegradesLikeShardFailure) {
  constexpr size_t kShards = 2;
  constexpr size_t kReplicas = 2;
  constexpr size_t kSickShard = 1;
  ShardedEngineOptions options = MakeShardedOptions(kShards, kReplicas);
  options.breaker.failure_threshold = 1;
  options.breaker.open_duration_micros = 60'000'000;
  options.retry.initial_backoff_micros = 1;
  std::unique_ptr<ShardedEngine> sharded =
      MakeLoadedShardedEngine(kConfig, kSources, std::move(options));

  std::vector<FaultRule> rules;
  for (size_t replica = 0; replica < kReplicas; ++replica) {
    rules.push_back(
        {.site = fault_sites::kReplicaSubQuery,
         .detail = static_cast<int64_t>(kSickShard) *
                       fault_sites::kReplicaDetailStride +
                   static_cast<int64_t>(replica),
         .every_nth = 1});
  }
  ScopedFaultInjection faults(rules);

  // Strict query: the whole-shard failure surfaces.
  const GeneMatrix query = MakeClusterQueryMatrix(8350);
  EXPECT_EQ(sharded->Query(query, params_).status().code(),
            StatusCode::kUnavailable);

  // Partial queries keep answering bit-exact for the surviving shard.
  QueryParams partial = params_;
  partial.allow_partial = true;
  for (size_t q = 0; q < 2; ++q) {
    const GeneMatrix partial_query = MakeClusterQueryMatrix(8351 + q);
    std::vector<QueryMatch> expected_surviving;
    for (const QueryMatch& match : ReferenceQuery(partial_query, params_)) {
      if (sharded->ShardOf(match.source) != kSickShard) {
        expected_surviving.push_back(match);
      }
    }
    QueryStats stats;
    Result<std::vector<QueryMatch>> result =
        sharded->Query(partial_query, partial, &stats);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(stats.degraded);
    EXPECT_EQ(stats.failed_shards, std::vector<size_t>{kSickShard});
    ExpectIdenticalMatches(*result, expected_surviving,
                           "degraded " + std::to_string(q));
  }

  const ShardedEngineStatsSnapshot snapshot = sharded->StatsSnapshot();
  for (const ReplicaStats& replica :
       snapshot.shards[kSickShard].replicas) {
    EXPECT_EQ(replica.breaker, CircuitBreaker::State::kOpen);
  }
  for (const ReplicaStats& replica : snapshot.shards[0].replicas) {
    EXPECT_EQ(replica.breaker, CircuitBreaker::State::kClosed);
    EXPECT_EQ(replica.sub_query_errors, 0u);
  }
}

// SetReplicas scales a LIVE engine: grown clones answer bit-exact (they
// hold the same sources in compacted local-id order), shrinking keeps
// answering, and a source update after the scaling is seen by every
// replica.
TEST_F(ReplicationTest, SetReplicasScalesLiveWithBitExactAnswers) {
  ThreadPool pool(2);
  std::unique_ptr<ShardedEngine> sharded = MakeLoadedShardedEngine(
      kConfig, kSources, MakeShardedOptions(3, 1), &pool);
  const GeneMatrix query = MakeClusterQueryMatrix(8400);
  const std::vector<QueryMatch> expected = ReferenceQuery(query, params_);

  Result<std::vector<QueryMatch>> result = sharded->Query(query, params_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectIdenticalMatches(*result, expected, "R=1");

  ASSERT_TRUE(sharded->SetReplicas(3).ok());
  EXPECT_EQ(sharded->num_replicas(), 3u);
  result = sharded->Query(query, params_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectIdenticalMatches(*result, expected, "after grow");

  // The grown sets' cursors have advanced past replica 0, so the next
  // query's sub-queries are all served by clones.
  Rng fresh_rng(8401);
  const GeneMatrix fresh =
      MakePlantedMatrix(0, 32, {{2, 3}}, {}, 0.97, &fresh_rng);
  result = sharded->Query(fresh, params_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectIdenticalMatches(*result, ReferenceQuery(fresh, params_),
                         "clone-served");
  for (const ShardStats& shard : sharded->StatsSnapshot().shards) {
    EXPECT_EQ(shard.replicas[1].sub_queries, 1u) << "shard " << shard.shard;
  }

  ASSERT_TRUE(sharded->SetReplicas(2).ok());
  EXPECT_EQ(sharded->num_replicas(), 2u);
  result = sharded->Query(query, params_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectIdenticalMatches(*result, expected, "after shrink");

  ASSERT_TRUE(sharded->AddSource(MakeClusterMatrix(kConfig, kSources)).ok());
  ASSERT_TRUE(reference_.AddMatrix(MakeClusterMatrix(kConfig, kSources)).ok());
  result = sharded->Query(query, params_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectIdenticalMatches(*result, ReferenceQuery(query, params_),
                         "post-update");

  const ShardedEngineStatsSnapshot snapshot = sharded->StatsSnapshot();
  EXPECT_EQ(snapshot.replicas, 2u);
  size_t total_sources = 0;
  for (const ShardStats& shard : snapshot.shards) {
    ASSERT_EQ(shard.replicas.size(), 2u);
    EXPECT_EQ(shard.in_flight, 0u);
    total_sources += shard.sources;
  }
  EXPECT_EQ(total_sources, kSources + 1);
}

TEST(ReplicationErrorsTest, SetReplicasValidation) {
  ShardedEngine unbuilt(MakeShardedOptions(2), nullptr);
  EXPECT_EQ(unbuilt.SetReplicas(2).code(), StatusCode::kFailedPrecondition);

  std::unique_ptr<ShardedEngine> sharded =
      MakeLoadedShardedEngine(kConfig, 4, MakeShardedOptions(2));
  EXPECT_EQ(sharded->SetReplicas(0).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(sharded->SetReplicas(1).ok());  // Same count: a no-op.
  EXPECT_EQ(sharded->num_replicas(), 1u);
}

// The routing primitive itself: strict round robin while healthy, skip
// (and count) quarantined replicas, -1 when the whole ring is quarantined.
TEST(ReplicaSetTest, PickReplicaRoundRobinSkipsQuarantined) {
  CircuitBreakerOptions breaker_options;
  breaker_options.failure_threshold = 1;
  breaker_options.open_duration_micros = 60'000'000;  // Stays open.
  std::vector<std::shared_ptr<ShardReplica>> replicas;
  for (int i = 0; i < 3; ++i) {
    replicas.push_back(
        std::make_shared<ShardReplica>(EngineOptions{}, breaker_options));
  }
  ReplicaSet set(std::move(replicas));
  ASSERT_EQ(set.size(), 3u);

  // Healthy ring: strict round robin, nothing skipped. `skipped` is an
  // ACCUMULATOR (the caller passes its replica_failovers counter), so it
  // must be left untouched on a first-try pick.
  uint64_t accumulated = 0;
  for (int64_t want : {0, 1, 2, 0, 1, 2}) {
    EXPECT_EQ(set.PickReplica(&accumulated), want);
    EXPECT_EQ(accumulated, 0u);
  }

  // Trip replica 1: it is skipped (and the skip reported), its share
  // landing on the next healthy peer; the cursor keeps advancing once per
  // pick, so the post-trip pattern is periodic.
  ASSERT_TRUE(set.replica(1)->breaker.AllowRequest());
  set.replica(1)->breaker.RecordFailure();
  ASSERT_EQ(set.replica(1)->breaker.state(), CircuitBreaker::State::kOpen);
  const struct {
    int64_t want;
    uint64_t skips;
  } kSteps[] = {{0, 0}, {2, 1}, {2, 0}, {0, 0}, {2, 1}, {2, 0}};
  uint64_t expected_total = 0;
  for (const auto& step : kSteps) {
    EXPECT_EQ(set.PickReplica(&accumulated), step.want);
    expected_total += step.skips;
    EXPECT_EQ(accumulated, expected_total);
  }
  EXPECT_GT(set.replica(1)->breaker.rejections(), 0u);

  // Quarantine the whole ring: no pick, every replica counted skipped.
  for (size_t i : {0u, 2u}) {
    ASSERT_TRUE(set.replica(i)->breaker.AllowRequest());
    set.replica(i)->breaker.RecordFailure();
  }
  uint64_t skipped = 0;
  EXPECT_EQ(set.PickReplica(&skipped), -1);
  EXPECT_EQ(skipped, 3u);
}

}  // namespace
}  // namespace imgrn
