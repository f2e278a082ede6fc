// The replication contract of service/sharded_engine.h, locked down
// differentially: for every (shard count K, replica count R) in a grid,
// the replicated engine's matches are byte-identical to a single
// unsharded ImGrnEngine, and its QueryStats counters are identical to the
// same engine at R=1 (wall-clock aside). On top of the grid: round-robin
// routing spreads sub-queries evenly.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

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
using testing_util::MakeShardedOptions;

// This suite's planted-cluster database (see tests/test_util.h).
constexpr ClusterDatabaseConfig kConfig = {.seed_base = 3100};

// The replication contract on QueryStats: every counter is bit-identical
// across serving topologies. The four *_seconds fields and source_costs
// hold wall-clock, and page_accesses (physical buffer-pool misses)
// additionally depends on which replica's pool served the PREVIOUS
// queries — so the first query of a fresh engine compares it (every pool
// cold, cursor at replica 0) and later queries mask it.
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
    }
  }
}

// The routing primitive itself: strict round robin.
TEST(ReplicaSetTest, PickReplicaIsRoundRobin) {
  ReplicaSet set(3);
  ASSERT_EQ(set.size(), 3u);
  for (size_t want : {0, 1, 2, 0, 1, 2}) {
    EXPECT_EQ(set.PickReplica(), want);
  }
}

}  // namespace
}  // namespace imgrn
