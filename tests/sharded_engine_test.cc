// The ShardedEngine fan-out/merge path: for every shard count the merged
// results are byte-identical to a single ImGrnEngine over the unpartitioned
// database (the differential contract of service/sharded_engine.h),
// including empty shards, K > num_sources, top_k truncation, updates, and
// the error statuses of the single-engine path; and the load gauges:
// per-shard cost sums that track removals exactly, and the max/mean
// imbalance that placement by id reaches on a skewed database.

#include "service/sharded_engine.h"

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <vector>

#include "common/random.h"
#include "core/engine.h"
#include "inference/grn_inference.h"
#include "tests/test_util.h"

namespace imgrn {
namespace {

using testing_util::ClusterDatabaseConfig;
using testing_util::ExpectIdenticalMatches;
using testing_util::MakeClusterDatabase;
using testing_util::MakeClusterMatrix;
using testing_util::MakeClusterQueryMatrix;
using testing_util::MakePlantedMatrix;
using testing_util::MakeShardedOptions;

// This suite's planted-cluster database (see tests/test_util.h): every
// matrix contains the cluster {1, 2, 3} plus per-source filler genes;
// sample counts vary per source so the permutation cache serves several
// lengths (the order-invariance the differential equality depends on).
constexpr ClusterDatabaseConfig kConfig = {.seed_base = 500};

GeneMatrix ClusterMatrix(SourceId source) {
  return MakeClusterMatrix(kConfig, source);
}

GeneDatabase MakeDatabase(size_t num_sources) {
  return MakeClusterDatabase(kConfig, num_sources);
}

GeneMatrix ClusterQueryMatrix(uint64_t seed) {
  return MakeClusterQueryMatrix(seed);
}

// A skewed database: sources with id % 4 == 0 are "giants" (40 genes),
// everything else is small (8 genes), all at 30 samples. Under K = 4
// every giant lands on shard 0:
//   giant cost 40^2*30 = 48000, small cost 8^2*30 = 1920,
//   shard 0 carries 4*48000 = 192000 of a 215040 total,
//   imbalance = 192000 / (215040/4) ~ 3.57.
GeneMatrix SkewMatrix(SourceId source) {
  Rng rng(1700 + source);
  const bool giant = source % 4 == 0;
  const size_t num_filler = (giant ? 40u : 8u) - 3u;
  std::vector<GeneId> filler;
  for (size_t g = 0; g < num_filler; ++g) {
    filler.push_back(static_cast<GeneId>(100 + 100 * source + g));
  }
  return MakePlantedMatrix(source, 30, {{1, 2, 3}}, filler, 0.97, &rng);
}

GeneDatabase MakeSkewedDatabase(size_t num_sources) {
  GeneDatabase database;
  for (SourceId i = 0; i < num_sources; ++i) {
    database.Add(SkewMatrix(i));
  }
  return database;
}

void ExpectIdentical(const std::vector<QueryMatch>& actual,
                     const std::vector<QueryMatch>& expected,
                     const std::string& context) {
  ExpectIdenticalMatches(actual, expected, context);
}

QueryParams DefaultParams() { return testing_util::DefaultClusterParams(); }

ShardedEngineOptions Opts(size_t num_shards) {
  return MakeShardedOptions(num_shards);
}

class ShardedEngineTest : public testing_util::ReferenceEngineFixture {
 protected:
  // The single-engine ground truth over `num_sources` cluster matrices.
  void BuildReference(size_t num_sources) {
    testing_util::ReferenceEngineFixture::BuildReference(
        MakeDatabase(num_sources));
  }
};

TEST_F(ShardedEngineTest, DifferentialEqualityAcrossShardCounts) {
  const size_t kSources = 9;
  BuildReference(kSources);
  const QueryParams params = DefaultParams();

  std::vector<GeneMatrix> queries;
  for (uint64_t i = 0; i < 4; ++i) {
    queries.push_back(ClusterQueryMatrix(7000 + i));
  }
  std::vector<std::vector<QueryMatch>> expected;
  for (const GeneMatrix& query : queries) {
    expected.push_back(ReferenceQuery(query, params));
    ASSERT_FALSE(expected.back().empty());
  }

  ThreadPool pool(4);
  for (size_t shards : {1u, 2u, 4u, 7u}) {
    ShardedEngine sharded(Opts(shards), &pool);
    sharded.LoadDatabase(MakeDatabase(kSources));
    ASSERT_TRUE(sharded.BuildIndex().ok());
    EXPECT_EQ(sharded.num_shards(), shards);
    EXPECT_EQ(sharded.num_sources(), kSources);
    for (size_t q = 0; q < queries.size(); ++q) {
      Result<std::vector<QueryMatch>> result =
          sharded.Query(queries[q], params);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ExpectIdentical(*result, expected[q],
                      "shards=" + std::to_string(shards) + " query " +
                          std::to_string(q));
    }
  }
}

TEST_F(ShardedEngineTest, SequentialFanOutMatchesPooled) {
  // pool == nullptr runs sub-queries on the calling thread; results must
  // not depend on the execution mode.
  const size_t kSources = 6;
  BuildReference(kSources);
  const QueryParams params = DefaultParams();
  const GeneMatrix query = ClusterQueryMatrix(7100);
  const std::vector<QueryMatch> expected = ReferenceQuery(query, params);

  ShardedEngine sequential(Opts(4), nullptr);
  sequential.LoadDatabase(MakeDatabase(kSources));
  ASSERT_TRUE(sequential.BuildIndex().ok());
  Result<std::vector<QueryMatch>> result = sequential.Query(query, params);
  ASSERT_TRUE(result.ok());
  ExpectIdentical(*result, expected, "sequential fan-out");
}

TEST_F(ShardedEngineTest, MoreShardsThanSourcesLeavesEmptyShards) {
  // K = 7 over 3 sources: shards 3..6 never receive a source and must
  // contribute empty sub-results without disturbing the merge.
  const size_t kSources = 3;
  BuildReference(kSources);
  const QueryParams params = DefaultParams();
  const GeneMatrix query = ClusterQueryMatrix(7200);
  const std::vector<QueryMatch> expected = ReferenceQuery(query, params);
  ASSERT_EQ(expected.size(), kSources);

  ThreadPool pool(2);
  ShardedEngine sharded(Opts(7), &pool);
  sharded.LoadDatabase(MakeDatabase(kSources));
  ASSERT_TRUE(sharded.BuildIndex().ok());
  Result<std::vector<QueryMatch>> result = sharded.Query(query, params);
  ASSERT_TRUE(result.ok());
  ExpectIdentical(*result, expected, "7 shards over 3 sources");

  // The empty shards report zero sources but still count their (empty)
  // sub-queries.
  const ShardedEngineStatsSnapshot snapshot = sharded.StatsSnapshot();
  ASSERT_EQ(snapshot.shards.size(), 7u);
  for (size_t s = 0; s < 7; ++s) {
    EXPECT_EQ(snapshot.shards[s].sources, s < kSources ? 1u : 0u);
    EXPECT_EQ(snapshot.shards[s].sub_queries, 1u);
    EXPECT_EQ(snapshot.shards[s].in_flight, 0u);
  }
}

TEST_F(ShardedEngineTest, TopKAppliedToMergedSetMatchesSingleEngine) {
  const size_t kSources = 8;
  BuildReference(kSources);
  QueryParams params = DefaultParams();
  params.top_k = 3;
  const GeneMatrix query = ClusterQueryMatrix(7300);
  const std::vector<QueryMatch> expected = ReferenceQuery(query, params);
  ASSERT_EQ(expected.size(), 3u);

  ThreadPool pool(4);
  ShardedEngine sharded(Opts(4), &pool);
  sharded.LoadDatabase(MakeDatabase(kSources));
  ASSERT_TRUE(sharded.BuildIndex().ok());
  Result<std::vector<QueryMatch>> result = sharded.Query(query, params);
  ASSERT_TRUE(result.ok());
  // Per-shard top-3 truncation must keep each shard's contribution to the
  // global top-3, so the merged + re-finalized set is the single-engine one.
  ExpectIdentical(*result, expected, "top_k=3 over 4 shards");
}

TEST_F(ShardedEngineTest, UpdatesMatchSingleEngineAndRouteToOneShard) {
  const size_t kSources = 5;
  BuildReference(kSources);
  const QueryParams params = DefaultParams();

  ThreadPool pool(2);
  ShardedEngine sharded(Opts(4), &pool);
  sharded.LoadDatabase(MakeDatabase(kSources));
  ASSERT_TRUE(sharded.BuildIndex().ok());

  // Same update sequence on both engines; differential equality must be
  // re-established after each step. Source 5 -> shard 1, source 6 ->
  // shard 2; removals hit shards 3 (source 3) and 1 (source 5).
  auto check = [&](const std::string& context) {
    const GeneMatrix query = ClusterQueryMatrix(7400);
    ExpectIdentical(*sharded.Query(query, params),
                    ReferenceQuery(query, params), context);
  };

  check("initial");
  ASSERT_TRUE(reference_.AddMatrix(ClusterMatrix(5)).ok());
  ASSERT_TRUE(sharded.AddSource(ClusterMatrix(5)).ok());
  EXPECT_EQ(sharded.num_sources(), 6u);
  check("after add 5");
  ASSERT_TRUE(reference_.RemoveMatrix(3).ok());
  ASSERT_TRUE(sharded.RemoveSource(3).ok());
  check("after remove 3");
  ASSERT_TRUE(reference_.AddMatrix(ClusterMatrix(6)).ok());
  ASSERT_TRUE(sharded.AddSource(ClusterMatrix(6)).ok());
  check("after add 6");
  ASSERT_TRUE(reference_.RemoveMatrix(5).ok());
  ASSERT_TRUE(sharded.RemoveSource(5).ok());
  check("after remove 5");

  // Error-status parity with the single engine.
  EXPECT_EQ(sharded.AddSource(ClusterMatrix(99)).code(),
            StatusCode::kInvalidArgument);  // Id != num_sources().
  EXPECT_EQ(sharded.RemoveSource(77).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(sharded.RemoveSource(5).code(),
            StatusCode::kFailedPrecondition);  // Double remove.
}

TEST_F(ShardedEngineTest, RemoveThenAddKeepsLocalIdAccountingConsistent) {
  // Regression guard for the local-id bookkeeping in AppendToReplicaLocked:
  // after RemoveSource the shard's engine database keeps the retracted
  // slot (the engine never shrinks), so the next local id, id div K, is
  // the engine's database size — not any count of live sources. If the
  // two ever diverge, the appended matrix lands on the wrong local id and
  // the global-id translation silently corrupts every later result on
  // that shard.
  // Exercised at K=1 (every remove/add hits the same shard — the
  // worst case for slot reuse) and K=2.
  const size_t kSources = 4;
  BuildReference(kSources);
  const QueryParams params = DefaultParams();

  for (size_t shards : {1u, 2u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ImGrnEngine single;
    single.LoadDatabase(MakeDatabase(kSources));
    ASSERT_TRUE(single.BuildIndex().ok());

    ShardedEngine sharded(Opts(shards), nullptr);
    sharded.LoadDatabase(MakeDatabase(kSources));
    ASSERT_TRUE(sharded.BuildIndex().ok());

    auto check = [&](const std::string& context) {
      const GeneMatrix query = ClusterQueryMatrix(7700);
      Result<std::vector<QueryMatch>> expected = single.Query(query, params);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      Result<std::vector<QueryMatch>> actual = sharded.Query(query, params);
      ASSERT_TRUE(actual.ok()) << actual.status().ToString();
      ExpectIdentical(*actual, *expected, context);
    };

    // Remove, then append on top of the hole — twice, so the second add
    // runs against a database whose size and live count differ by 2.
    ASSERT_TRUE(single.RemoveMatrix(1).ok());
    ASSERT_TRUE(sharded.RemoveSource(1).ok());
    ASSERT_TRUE(single.AddMatrix(ClusterMatrix(4)).ok());
    ASSERT_TRUE(sharded.AddSource(ClusterMatrix(4)).ok());
    check("after remove 1, add 4");

    ASSERT_TRUE(single.RemoveMatrix(2).ok());
    ASSERT_TRUE(sharded.RemoveSource(2).ok());
    ASSERT_TRUE(single.AddMatrix(ClusterMatrix(5)).ok());
    ASSERT_TRUE(sharded.AddSource(ClusterMatrix(5)).ok());
    check("after remove 2, add 5");
    EXPECT_EQ(sharded.num_sources(), 6u);  // Id space never shrinks.

    // The appended sources must actually answer queries (a wrong local id
    // typically makes them invisible or mislabeled rather than crashing).
    const GeneMatrix query = ClusterQueryMatrix(7700);
    Result<std::vector<QueryMatch>> matches = sharded.Query(query, params);
    ASSERT_TRUE(matches.ok());
    std::set<SourceId> answering;
    for (const QueryMatch& match : *matches) answering.insert(match.source);
    EXPECT_TRUE(answering.count(4) == 1 && answering.count(5) == 1)
        << "appended sources missing from the merged answer set";
    EXPECT_EQ(answering.count(1), 0u);
    EXPECT_EQ(answering.count(2), 0u);
  }
}

TEST_F(ShardedEngineTest, AddSourceBootstrapsAnEmptyShard) {
  // Start with 2 sources over 4 shards: shards 2 and 3 are empty. Adding
  // sources 2 and 3 must bring their engines up from nothing.
  const size_t kSources = 2;
  BuildReference(kSources);
  const QueryParams params = DefaultParams();

  ShardedEngine sharded(Opts(4), nullptr);
  sharded.LoadDatabase(MakeDatabase(kSources));
  ASSERT_TRUE(sharded.BuildIndex().ok());

  ASSERT_TRUE(reference_.AddMatrix(ClusterMatrix(2)).ok());
  ASSERT_TRUE(sharded.AddSource(ClusterMatrix(2)).ok());
  ASSERT_TRUE(reference_.AddMatrix(ClusterMatrix(3)).ok());
  ASSERT_TRUE(sharded.AddSource(ClusterMatrix(3)).ok());

  const GeneMatrix query = ClusterQueryMatrix(7500);
  ExpectIdentical(*sharded.Query(query, params),
                  ReferenceQuery(query, params), "bootstrapped shards");
}

TEST_F(ShardedEngineTest, QueryShardReturnsGlobalIdsOfThatShardOnly) {
  const size_t kSources = 8;
  const size_t kShards = 3;
  BuildReference(kSources);
  const QueryParams params = DefaultParams();

  ShardedEngine sharded(Opts(kShards), nullptr);
  sharded.LoadDatabase(MakeDatabase(kSources));
  ASSERT_TRUE(sharded.BuildIndex().ok());

  const GeneMatrix query = ClusterQueryMatrix(7600);
  const std::vector<QueryMatch> expected = ReferenceQuery(query, params);
  ASSERT_EQ(expected.size(), kSources);

  GrnInferenceOptions inference_options;
  inference_options.num_samples = params.query_num_samples;
  inference_options.seed = params.seed;
  const ProbGraph graph = InferGrn(query, params.gamma, inference_options);

  size_t total = 0;
  for (size_t s = 0; s < kShards; ++s) {
    Result<std::vector<QueryMatch>> result =
        sharded.QueryShard(s, graph, params);
    ASSERT_TRUE(result.ok());
    for (const QueryMatch& match : *result) {
      EXPECT_EQ(sharded.ShardOf(match.source), s);
    }
    total += result->size();
  }
  EXPECT_EQ(total, expected.size());
  EXPECT_EQ(sharded.QueryShard(kShards, graph, params).status().code(),
            StatusCode::kInvalidArgument);  // Out of range.
}

TEST_F(ShardedEngineTest, StatsAggregateAcrossShards) {
  const size_t kSources = 6;
  BuildReference(kSources);
  const QueryParams params = DefaultParams();
  const GeneMatrix query = ClusterQueryMatrix(7700);

  ThreadPool pool(3);
  ShardedEngine sharded(Opts(3), &pool);
  sharded.LoadDatabase(MakeDatabase(kSources));
  ASSERT_TRUE(sharded.BuildIndex().ok());

  QueryStats stats;
  Result<std::vector<QueryMatch>> result =
      sharded.Query(query, params, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(stats.answers, result->size());
  EXPECT_GT(stats.query_vertices, 0u);
  EXPECT_GT(stats.candidate_matrices, 0u);
  EXPECT_GT(stats.inference_seconds, 0.0);
  EXPECT_GT(stats.total_seconds, 0.0);

  const ShardedEngineStatsSnapshot snapshot = sharded.StatsSnapshot();
  uint64_t sub_queries = 0;
  for (const ShardStats& shard : snapshot.shards) {
    sub_queries += shard.sub_queries;
    EXPECT_EQ(shard.sub_query_errors, 0u);
  }
  EXPECT_EQ(sub_queries, 3u);  // One sub-query per shard.
  EXPECT_NE(snapshot.DebugString().find("shard0"), std::string::npos);
}

// ShardStats::measured_seconds is each shard's summed sub-query busy time
// (QueryStats::total_seconds per sub-query), and measured_imbalance is
// max/mean over those sums.
TEST_F(ShardedEngineTest, MeasuredSecondsSumSubQueryBusyTime) {
  // Four shards over three sources, modulo: shard 3 stays empty.
  ShardedEngine sharded(Opts(4), nullptr);
  sharded.LoadDatabase(MakeDatabase(3));
  ASSERT_TRUE(sharded.BuildIndex().ok());
  auto measured = [&sharded] {
    std::vector<double> seconds;
    for (const ShardStats& shard : sharded.StatsSnapshot().shards) {
      seconds.push_back(shard.measured_seconds);
    }
    return seconds;
  };
  EXPECT_EQ(measured(), std::vector<double>(4, 0.0));
  EXPECT_EQ(sharded.StatsSnapshot().measured_imbalance, 1.0);

  ASSERT_TRUE(sharded.Query(ClusterQueryMatrix(7750), DefaultParams()).ok());
  const ShardedEngineStatsSnapshot snapshot = sharded.StatsSnapshot();
  std::vector<double> after_query;
  for (const ShardStats& shard : snapshot.shards) {
    if (shard.sources > 0) {
      EXPECT_GT(shard.measured_seconds, 0.0) << "shard " << shard.shard;
    } else {
      EXPECT_EQ(shard.measured_seconds, 0.0) << "shard " << shard.shard;
    }
    after_query.push_back(shard.measured_seconds);
  }
  EXPECT_EQ(snapshot.measured_imbalance, MaxMeanImbalance(after_query));

  // A fresh database starts a fresh measurement.
  sharded.LoadDatabase(MakeDatabase(3));
  EXPECT_EQ(measured(), std::vector<double>(4, 0.0));
  EXPECT_EQ(sharded.StatsSnapshot().measured_imbalance, 1.0);
}

TEST_F(ShardedEngineTest, ModuloPlacementIsImbalancedOnSkewedDatabase) {
  // On the residue-aligned skewed database, placement by id is badly
  // imbalanced (>= 2.0) and still returns the single engine's results.
  const size_t kSources = 16;
  testing_util::ReferenceEngineFixture::BuildReference(
      MakeSkewedDatabase(kSources));
  const QueryParams params = DefaultParams();
  const GeneMatrix query = ClusterQueryMatrix(9700);
  const std::vector<QueryMatch> expected = ReferenceQuery(query, params);
  ASSERT_EQ(expected.size(), kSources);

  ThreadPool pool(4);
  ShardedEngine sharded(Opts(4), &pool);
  sharded.LoadDatabase(MakeSkewedDatabase(kSources));
  ASSERT_TRUE(sharded.BuildIndex().ok());

  Result<std::vector<QueryMatch>> result = sharded.Query(query, params);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectIdentical(*result, expected, "modulo");
  EXPECT_GE(sharded.StatsSnapshot().imbalance, 2.0);
}

TEST_F(ShardedEngineTest, CostGaugesTrackLiveSourcesExactlyAfterRemovals) {
  // The per-shard cost gauge must equal the EstimateSourceCost sum over
  // the shard's LIVE sources exactly — removals subtract the precise
  // amount they added, no drift, no residue from retracted sources.
  const size_t kSources = 10;
  GeneDatabase database = MakeDatabase(kSources);
  std::vector<double> static_costs;
  for (const GeneMatrix& matrix : database.matrices()) {
    static_costs.push_back(EstimateSourceCost(matrix));
  }

  ShardedEngineOptions options;
  options.num_shards = 3;
  ShardedEngine sharded(options, nullptr);
  sharded.LoadDatabase(std::move(database));
  ASSERT_TRUE(sharded.BuildIndex().ok());

  auto check_gauges = [&](const std::vector<bool>& live,
                          const std::string& context) {
    const ShardedEngineStatsSnapshot snapshot = sharded.StatsSnapshot();
    ASSERT_EQ(snapshot.shards.size(), 3u) << context;
    for (size_t s = 0; s < 3; ++s) {
      double want_cost = 0.0;
      size_t want_sources = 0;
      for (SourceId i = 0; i < live.size(); ++i) {
        if (live[i] && sharded.ShardOf(i) == s) {
          want_cost += static_costs[i];
          ++want_sources;
        }
      }
      EXPECT_EQ(snapshot.shards[s].sources, want_sources)
          << context << " shard " << s;
      // Exact equality on purpose: the gauge is maintained by +=/-= of the
      // same EstimateSourceCost values, so removal must cancel bit-exactly.
      EXPECT_DOUBLE_EQ(snapshot.shards[s].cost, want_cost)
          << context << " shard " << s;
    }
  };

  std::vector<bool> live(kSources, true);
  check_gauges(live, "initial");

  for (SourceId victim : {1u, 4u, 7u, 2u}) {
    ASSERT_TRUE(sharded.RemoveSource(victim).ok());
    live[victim] = false;
    check_gauges(live, "after removing " + std::to_string(victim));
  }

  // An append after the removals lands on the gauge too.
  ASSERT_TRUE(sharded.AddSource(ClusterMatrix(10)).ok());
  live.push_back(true);
  static_costs.push_back(EstimateSourceCost(ClusterMatrix(10)));
  check_gauges(live, "after re-add");
}

TEST_F(ShardedEngineTest, ImbalanceGauge) {
  EXPECT_DOUBLE_EQ(MaxMeanImbalance({}), 1.0);
  EXPECT_DOUBLE_EQ(MaxMeanImbalance({0.0, 0.0}), 1.0);
  EXPECT_DOUBLE_EQ(MaxMeanImbalance({2.0, 2.0, 2.0}), 1.0);
  EXPECT_DOUBLE_EQ(MaxMeanImbalance({4.0, 0.0, 0.0, 0.0}), 4.0);
  EXPECT_DOUBLE_EQ(MaxMeanImbalance({3.0, 1.0}), 1.5);
}

TEST_F(ShardedEngineTest, ErrorStatusesMatchSingleEnginePreconditions) {
  ShardedEngine sharded(Opts(2), nullptr);
  const GeneMatrix query = ClusterQueryMatrix(7800);
  QueryParams params = DefaultParams();

  // No database / no index yet.
  EXPECT_EQ(sharded.BuildIndex().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(sharded.Query(query, params).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(sharded.AddSource(ClusterMatrix(0)).code(),
            StatusCode::kFailedPrecondition);

  sharded.LoadDatabase(MakeDatabase(4));
  ASSERT_TRUE(sharded.BuildIndex().ok());

  params.gamma = 1.5;  // Out of range.
  EXPECT_EQ(sharded.Query(query, params).status().code(),
            StatusCode::kInvalidArgument);
  params = DefaultParams();

  ProbGraph empty_graph;
  EXPECT_EQ(sharded.QueryWithGraph(empty_graph, params).status().code(),
            StatusCode::kInvalidArgument);

  // NaN parameters, sample counts of zero or past kMaxPermutationSamples
  // and non-finite query values: the single engine and the sharded one
  // both return kInvalidArgument.
  BuildReference(4);
  const ProbGraph graph = testing_util::MakePathQuery({1, 2, 3});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int variant = 0; variant < 10; ++variant) {
    QueryParams bad = DefaultParams();
    GeneMatrix bad_query = query;
    if (variant == 0) bad.gamma = nan;
    if (variant == 1) bad.alpha = nan;
    if (variant == 2) bad.query_num_samples = 0;
    if (variant == 3) bad.refine_num_samples = 0;
    if (variant == 4) bad.query_num_samples = size_t{1} << 40;
    if (variant == 5) {
      bad.refine_num_samples = std::numeric_limits<size_t>::max();
    }
    if (variant == 6) bad.refine_num_samples = kMaxPermutationSamples + 1;
    if (variant == 7) bad_query.At(0, 0) = nan;
    if (variant == 8) {
      bad_query.At(7, 2) = std::numeric_limits<double>::infinity();
    }
    if (variant == 9) {
      bad_query.At(1, 1) = -std::numeric_limits<double>::infinity();
    }
    const std::string context = "variant " + std::to_string(variant);
    EXPECT_EQ(reference_.Query(bad_query, bad).status().code(),
              StatusCode::kInvalidArgument)
        << context;
    EXPECT_EQ(sharded.Query(bad_query, bad).status().code(),
              StatusCode::kInvalidArgument)
        << context;
    if (variant < 7) {
      EXPECT_EQ(reference_.QueryWithGraph(graph, bad).status().code(),
                StatusCode::kInvalidArgument)
          << context;
      EXPECT_EQ(sharded.QueryWithGraph(graph, bad).status().code(),
                StatusCode::kInvalidArgument)
          << context;
    }
  }
}

TEST_F(ShardedEngineTest, RepeatedLabelQueryGraphRejected) {
  // The sharded engine refuses a query graph that repeats a gene label
  // before fanning out, as the single engine does.
  ShardedEngine sharded(Opts(3), nullptr);
  sharded.LoadDatabase(MakeDatabase(6));
  ASSERT_TRUE(sharded.BuildIndex().ok());
  ProbGraph query;
  query.AddVertex(1);
  query.AddVertex(2);
  query.AddVertex(3);
  query.AddVertex(2);
  query.AddEdge(0, 1, 1.0);
  query.AddEdge(1, 2, 1.0);
  query.AddEdge(2, 3, 1.0);
  QueryStats stats;
  stats.answers = 99;
  EXPECT_EQ(sharded.QueryWithGraph(query, DefaultParams(), &stats)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(stats.answers, 99u);  // Refused before any work.
  // The same genes, each once, are served.
  const Result<std::vector<QueryMatch>> served = sharded.QueryWithGraph(
      testing_util::MakePathQuery({1, 2, 3}), DefaultParams());
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_FALSE(served->empty());

  // QueryShard refuses it on every shard, the empty ones included: with
  // K = 4 over 2 sources, shards 2 and 3 hold no source.
  ShardedEngine sparse(Opts(4), nullptr);
  sparse.LoadDatabase(MakeDatabase(2));
  ASSERT_TRUE(sparse.BuildIndex().ok());
  for (size_t shard = 0; shard < sparse.num_shards(); ++shard) {
    EXPECT_EQ(sparse.QueryShard(shard, query, DefaultParams()).status().code(),
              StatusCode::kInvalidArgument)
        << "shard " << shard;
  }
}

// BuildIndex rejects a matrix it cannot index under the source's GLOBAL
// id, although its shard holds it at another local id.
TEST_F(ShardedEngineTest, BuildIndexRejectionNamesTheGlobalSource) {
  GeneDatabase database = MakeDatabase(5);
  database.mutable_matrix(3).At(2, 0) =
      std::numeric_limits<double>::quiet_NaN();
  ShardedEngine sharded(MakeShardedOptions(2, 2), nullptr);
  sharded.LoadDatabase(std::move(database));
  ASSERT_EQ(sharded.ShardOf(3), 1u);  // Local id 1 on shard 1.
  const Status status = sharded.BuildIndex();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("source 3"), std::string::npos)
      << status.message();
  EXPECT_FALSE(sharded.has_index());
}

// A removal frees the source's data on every replica, so a later
// BuildIndex cannot re-index it: kFailedPrecondition, and the built
// indices keep answering like the single engine after the same removal.
TEST_F(ShardedEngineTest, BuildIndexAfterRemoveSourceIsRefused) {
  const size_t kSources = 5;
  BuildReference(kSources);
  ShardedEngine sharded(MakeShardedOptions(2, 2), nullptr);
  sharded.LoadDatabase(MakeDatabase(kSources));
  ASSERT_TRUE(sharded.BuildIndex().ok());
  ASSERT_TRUE(reference_.RemoveMatrix(3).ok());
  ASSERT_TRUE(sharded.RemoveSource(3).ok());
  const Status status = sharded.BuildIndex();
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
      << status.ToString();
  EXPECT_TRUE(sharded.has_index());
  const QueryParams params = DefaultParams();
  const GeneMatrix query = ClusterQueryMatrix(7950);
  Result<std::vector<QueryMatch>> result = sharded.Query(query, params);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectIdentical(*result, ReferenceQuery(query, params),
                  "after a refused rebuild");
}

// A matrix holding a NaN or ±Inf value, or no gene at all, is rejected
// with kInvalidArgument before anything changes: the source count and
// every answer stay as they were, and the id stays free for a valid
// matrix.
TEST_F(ShardedEngineTest, RejectedAddSourceChangesNothing) {
  const size_t kSources = 5;
  BuildReference(kSources);
  ShardedEngine sharded(MakeShardedOptions(2, 2), nullptr);
  sharded.LoadDatabase(MakeDatabase(kSources));
  ASSERT_TRUE(sharded.BuildIndex().ok());
  const QueryParams params = DefaultParams();
  const GeneMatrix query = ClusterQueryMatrix(7900);
  const std::vector<QueryMatch> before = ReferenceQuery(query, params);

  std::vector<GeneMatrix> bad(3, ClusterMatrix(kSources));
  bad[0].At(0, 0) = std::numeric_limits<double>::quiet_NaN();
  bad[1].At(5, 1) = std::numeric_limits<double>::infinity();
  bad[2] = GeneMatrix(kSources, 30, {});
  for (GeneMatrix& matrix : bad) {
    const Status status = sharded.AddSource(std::move(matrix));
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("source 5"), std::string::npos)
        << status.message();
    EXPECT_EQ(sharded.num_sources(), kSources);
    Result<std::vector<QueryMatch>> result = sharded.Query(query, params);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectIdentical(*result, before, "after a rejected AddSource");
  }

  ASSERT_TRUE(sharded.AddSource(ClusterMatrix(kSources)).ok());
  ASSERT_TRUE(reference_.AddMatrix(ClusterMatrix(kSources)).ok());
  EXPECT_EQ(sharded.num_sources(), kSources + 1);
  Result<std::vector<QueryMatch>> result = sharded.Query(query, params);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectIdentical(*result, ReferenceQuery(query, params), "after a valid add");
}

}  // namespace
}  // namespace imgrn
