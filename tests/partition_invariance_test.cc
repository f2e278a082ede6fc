// Property-based differential suite for the pluggable partitioner: ANY
// partition map fixed at LoadDatabase — random or degenerate (empty
// shards, singleton shards, all-in-one) — must yield query results
// byte-identical to a single unsharded ImGrnEngine, across the plain-query,
// top-k, update, and stats paths. Partitioning chooses how much work each
// shard shoulders, never what the answer is.
//
// The suite also pins down the load-balancing claim itself: on a database
// whose heavy sources happen to share a modulo residue class, the modulo
// placement's max/mean shard cost is >= 2.0 while the LPT balanced
// partitioner stays <= 1.25.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/engine.h"
#include "service/partitioner.h"
#include "service/sharded_engine.h"
#include "tests/test_util.h"

namespace imgrn {
namespace {

using testing_util::MakePlantedMatrix;

// This suite's planted-cluster database is the shared-scaffolding default
// (see tests/test_util.h): cluster {1, 2, 3} in every source plus
// per-source filler genes, varying sample counts exercising several
// permutation-cache lengths.
constexpr testing_util::ClusterDatabaseConfig kConfig = {};

GeneMatrix ClusterMatrix(SourceId source) {
  return testing_util::MakeClusterMatrix(kConfig, source);
}

GeneDatabase MakeDatabase(size_t num_sources) {
  return testing_util::MakeClusterDatabase(kConfig, num_sources);
}

// A skewed database: sources with id % 4 == 0 are "giants" (40 genes),
// everything else is small (8 genes), all at 30 samples. Under K = 4
// modulo placement every giant lands on shard 0:
//   giant cost 40^2*30 = 48000, small cost 8^2*30 = 1920,
//   shard 0 carries 4*48000 = 192000 of a 215040 total,
//   imbalance = 192000 / (215040/4) ~ 3.57.
// LPT spreads one giant per shard, then three smalls each: imbalance 1.0.
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

GeneMatrix ClusterQueryMatrix(uint64_t seed) {
  return testing_util::MakeClusterQueryMatrix(seed);
}

QueryParams DefaultParams() { return testing_util::DefaultClusterParams(); }

void ExpectIdentical(const std::vector<QueryMatch>& actual,
                     const std::vector<QueryMatch>& expected,
                     const std::string& context) {
  testing_util::ExpectIdenticalMatches(actual, expected, context);
}

// A uniformly random plan; with K near num_sources some shards come out
// empty by chance, and the trials below force the degenerate shapes too.
PartitionPlan RandomPlan(size_t num_sources, size_t num_shards, Rng* rng) {
  PartitionPlan plan;
  plan.num_shards = num_shards;
  plan.shard_of.resize(num_sources);
  for (size_t i = 0; i < num_sources; ++i) {
    plan.shard_of[i] = static_cast<uint32_t>(rng->UniformUint64(num_shards));
  }
  return plan;
}

using PartitionInvarianceTest = testing_util::ReferenceEngineFixture;

TEST_F(PartitionInvarianceTest, RandomMapsMatchSingleEngine) {
  const size_t kSources = 10;
  BuildReference(MakeDatabase(kSources));
  const QueryParams params = DefaultParams();
  const GeneMatrix query = ClusterQueryMatrix(9100);
  const std::vector<QueryMatch> expected = ReferenceQuery(query, params);
  ASSERT_EQ(expected.size(), kSources);

  ThreadPool pool(4);
  Rng rng(42);
  for (size_t trial = 0; trial < 8; ++trial) {
    const size_t num_shards = 1 + rng.UniformUint64(6);
    PartitionPlan plan = RandomPlan(kSources, num_shards, &rng);
    ASSERT_TRUE(plan.Validate(kSources).ok());

    ShardedEngineOptions options;
    options.num_shards = num_shards;
    options.partitioner = std::make_shared<ExplicitPartitioner>(plan);
    ShardedEngine sharded(options, &pool);
    sharded.LoadDatabase(MakeDatabase(kSources));
    ASSERT_TRUE(sharded.BuildIndex().ok());

    // The engine's live map must BE the plan.
    for (SourceId i = 0; i < kSources; ++i) {
      EXPECT_EQ(sharded.ShardOf(i), plan.shard_of[i]);
    }
    Result<std::vector<QueryMatch>> result = sharded.Query(query, params);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectIdentical(*result, expected,
                    "trial " + std::to_string(trial) + " shards=" +
                        std::to_string(num_shards));
  }
}

TEST_F(PartitionInvarianceTest, DegenerateMapsMatchSingleEngine) {
  const size_t kSources = 7;
  BuildReference(MakeDatabase(kSources));
  QueryParams params = DefaultParams();
  const GeneMatrix query = ClusterQueryMatrix(9200);
  const std::vector<QueryMatch> expected = ReferenceQuery(query, params);

  params.top_k = 3;
  const std::vector<QueryMatch> expected_topk = ReferenceQuery(query, params);
  ASSERT_EQ(expected_topk.size(), 3u);
  params.top_k = 0;

  struct Case {
    const char* name;
    PartitionPlan plan;
  };
  std::vector<Case> cases;
  {
    // All sources on one middle shard; every other shard empty.
    PartitionPlan all_in_one;
    all_in_one.num_shards = 5;
    all_in_one.shard_of.assign(kSources, 2);
    cases.push_back({"all-in-one", all_in_one});

    // One source per shard (singleton shards), in reverse order.
    PartitionPlan singleton;
    singleton.num_shards = kSources;
    for (size_t i = 0; i < kSources; ++i) {
      singleton.shard_of.push_back(
          static_cast<uint32_t>(kSources - 1 - i));
    }
    cases.push_back({"singleton-reversed", singleton});

    // More shards than sources, population clumped at both ends.
    PartitionPlan sparse;
    sparse.num_shards = 11;
    for (size_t i = 0; i < kSources; ++i) {
      sparse.shard_of.push_back(i < kSources / 2 ? 0u : 10u);
    }
    cases.push_back({"sparse-ends", sparse});
  }

  ThreadPool pool(4);
  for (const Case& c : cases) {
    ShardedEngineOptions options;
    options.num_shards = c.plan.num_shards;
    options.partitioner = std::make_shared<ExplicitPartitioner>(c.plan);
    ShardedEngine sharded(options, &pool);
    sharded.LoadDatabase(MakeDatabase(kSources));
    ASSERT_TRUE(sharded.BuildIndex().ok());

    QueryStats stats;
    Result<std::vector<QueryMatch>> result =
        sharded.Query(query, params, &stats);
    ASSERT_TRUE(result.ok()) << c.name;
    ExpectIdentical(*result, expected, c.name);
    EXPECT_EQ(stats.answers, expected.size()) << c.name;

    // top_k is applied to the merged set, so truncation cannot depend on
    // which shard holds which source.
    QueryParams topk = params;
    topk.top_k = 3;
    Result<std::vector<QueryMatch>> truncated = sharded.Query(query, topk);
    ASSERT_TRUE(truncated.ok()) << c.name;
    ExpectIdentical(*truncated, expected_topk, std::string(c.name) +
                                                   " top_k=3");

    // Stats path: per-shard source counts mirror the plan exactly.
    const ShardedEngineStatsSnapshot snapshot = sharded.StatsSnapshot();
    ASSERT_EQ(snapshot.shards.size(), c.plan.num_shards) << c.name;
    for (size_t s = 0; s < c.plan.num_shards; ++s) {
      size_t want = 0;
      for (uint32_t owner : c.plan.shard_of) want += owner == s ? 1 : 0;
      EXPECT_EQ(snapshot.shards[s].sources, want)
          << c.name << " shard " << s;
    }
  }
}

TEST_F(PartitionInvarianceTest, UpdatesUnderExplicitMapMatchSingleEngine) {
  const size_t kSources = 6;
  BuildReference(MakeDatabase(kSources));
  const QueryParams params = DefaultParams();

  // Adversarial map over 3 shards: shard 1 left empty so the first
  // least-loaded AddSource must bootstrap it from nothing.
  PartitionPlan plan;
  plan.num_shards = 3;
  plan.shard_of = {2, 0, 2, 0, 2, 0};
  ShardedEngineOptions options;
  options.num_shards = plan.num_shards;
  options.partitioner = std::make_shared<ExplicitPartitioner>(plan);
  ShardedEngine sharded(options, nullptr);
  sharded.LoadDatabase(MakeDatabase(kSources));
  ASSERT_TRUE(sharded.BuildIndex().ok());

  auto check = [&](const std::string& context) {
    const GeneMatrix query = ClusterQueryMatrix(9300);
    ExpectIdentical(*sharded.Query(query, params),
                    ReferenceQuery(query, params), context);
  };

  check("initial");
  ASSERT_TRUE(reference_.AddMatrix(ClusterMatrix(6)).ok());
  ASSERT_TRUE(sharded.AddSource(ClusterMatrix(6)).ok());
  EXPECT_EQ(sharded.ShardOf(6), 1u);  // Least-loaded = the empty shard.
  check("after add 6");
  ASSERT_TRUE(reference_.RemoveMatrix(2).ok());
  ASSERT_TRUE(sharded.RemoveSource(2).ok());
  check("after remove 2");
  ASSERT_TRUE(reference_.AddMatrix(ClusterMatrix(7)).ok());
  ASSERT_TRUE(sharded.AddSource(ClusterMatrix(7)).ok());
  check("after add 7");
}

TEST_F(PartitionInvarianceTest, BalancedPartitionerRelievesSkewedDatabase) {
  // The load-balancing acceptance bar: on the residue-aligned skewed
  // database, modulo placement is badly imbalanced (>= 2.0) while LPT is
  // near-perfect (<= 1.25) — and both return identical results.
  const size_t kSources = 16;
  BuildReference(MakeSkewedDatabase(kSources));
  const QueryParams params = DefaultParams();
  const GeneMatrix query = ClusterQueryMatrix(9700);
  const std::vector<QueryMatch> expected = ReferenceQuery(query, params);
  ASSERT_EQ(expected.size(), kSources);

  ThreadPool pool(4);
  double imbalance_modulo = 0.0;
  double imbalance_balanced = 0.0;
  for (const char* strategy : {"modulo", "balanced"}) {
    ShardedEngineOptions options;
    options.num_shards = 4;
    options.partitioner = MakePartitioner(strategy);
    ASSERT_NE(options.partitioner, nullptr) << strategy;
    ShardedEngine sharded(options, &pool);
    sharded.LoadDatabase(MakeSkewedDatabase(kSources));
    ASSERT_TRUE(sharded.BuildIndex().ok());

    Result<std::vector<QueryMatch>> result = sharded.Query(query, params);
    ASSERT_TRUE(result.ok()) << strategy;
    ExpectIdentical(*result, expected, strategy);

    const double imbalance = sharded.StatsSnapshot().imbalance;
    if (std::string(strategy) == "modulo") {
      imbalance_modulo = imbalance;
    } else {
      imbalance_balanced = imbalance;
    }
  }
  EXPECT_GE(imbalance_modulo, 2.0);
  EXPECT_LE(imbalance_balanced, 1.25);
}

TEST_F(PartitionInvarianceTest, CostGaugesTrackLiveSourcesExactlyAfterRemovals) {
  // The per-shard cost gauge must equal the EstimateSourceCost sum over
  // the shard's LIVE sources exactly — removals subtract the precise
  // amount they added, no drift, no residue from retracted sources.
  const size_t kSources = 10;
  GeneDatabase database = MakeDatabase(kSources);
  std::vector<double> static_costs = EstimateSourceCosts(database);

  ShardedEngineOptions options;
  options.num_shards = 3;
  options.partitioner = std::make_shared<BalancedPartitioner>();
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

TEST(PartitionerTest, PlanValidationCatchesMalformedPlans) {
  PartitionPlan plan;
  EXPECT_EQ(plan.Validate(0).code(), StatusCode::kInvalidArgument);
  plan.num_shards = 2;
  plan.shard_of = {0, 1, 0};
  EXPECT_TRUE(plan.Validate(3).ok());
  EXPECT_EQ(plan.Validate(4).code(), StatusCode::kInvalidArgument);
  plan.shard_of[1] = 2;
  EXPECT_EQ(plan.Validate(3).code(), StatusCode::kInvalidArgument);
}

TEST(PartitionerTest, ImbalanceGauge) {
  EXPECT_DOUBLE_EQ(MaxMeanImbalance({}), 1.0);
  EXPECT_DOUBLE_EQ(MaxMeanImbalance({0.0, 0.0}), 1.0);
  EXPECT_DOUBLE_EQ(MaxMeanImbalance({2.0, 2.0, 2.0}), 1.0);
  EXPECT_DOUBLE_EQ(MaxMeanImbalance({4.0, 0.0, 0.0, 0.0}), 4.0);
  EXPECT_DOUBLE_EQ(MaxMeanImbalance({3.0, 1.0}), 1.5);
}

TEST(PartitionerTest, BalancedPlanIsDeterministicAndNearOptimal) {
  // Costs with ties: determinism requires the tie-break by id.
  const std::vector<double> costs = {8, 1, 1, 1, 7, 1, 1, 1, 6, 5};
  BalancedPartitioner lpt;
  const PartitionPlan a = lpt.Partition(costs, 3);
  const PartitionPlan b = lpt.Partition(costs, 3);
  EXPECT_EQ(a.shard_of, b.shard_of);

  std::vector<double> load(3, 0.0);
  for (size_t i = 0; i < costs.size(); ++i) load[a.shard_of[i]] += costs[i];
  // Total 32 over 3 shards: LPT packs 8+1+1+1=11, 7+1+1+1+... — the LPT
  // bound (4/3 - 1/9) * ceil-optimal comfortably holds.
  EXPECT_LE(MaxMeanImbalance(load), 4.0 / 3.0);
}

TEST(PartitionerTest, FactoryAndPlacement) {
  EXPECT_STREQ(MakePartitioner("modulo")->name(), "modulo");
  EXPECT_STREQ(MakePartitioner("balanced")->name(), "balanced");
  EXPECT_EQ(MakePartitioner("hash-ring"), nullptr);
  EXPECT_EQ(MakePartitioner("calibrated"), nullptr);
  const Result<std::shared_ptr<const Partitioner>> calibrated =
      ParsePartitioner("calibrated");
  EXPECT_EQ(calibrated.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(calibrated.status().message().find("modulo, balanced"),
            std::string::npos)
      << calibrated.status().message();

  // Modulo places by id; the cost-aware default places least-loaded.
  const std::vector<double> loads = {5.0, 1.0, 3.0};
  EXPECT_EQ(MakePartitioner("modulo")->PlaceSource(7, 2.0, loads), 1u);
  EXPECT_EQ(MakePartitioner("balanced")->PlaceSource(7, 2.0, loads), 1u);
  EXPECT_EQ(MakePartitioner("modulo")->PlaceSource(6, 2.0, loads), 0u);
}

}  // namespace
}  // namespace imgrn
