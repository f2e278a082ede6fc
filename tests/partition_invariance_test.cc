// Property-based differential suite for the pluggable partitioner and the
// online rebalancer: ANY partition map — random, degenerate (empty shards,
// singleton shards, all-in-one), or produced live by Rebalance/Resize —
// must yield query results byte-identical to a single unsharded ImGrnEngine,
// across the plain-query, top-k, update, and stats paths. Partitioning
// chooses how much work each shard shoulders, never what the answer is.
//
// The suite also pins down the load-balancing claim itself: on a database
// whose heavy sources happen to share a modulo residue class, the modulo
// placement's max/mean shard cost is >= 2.0 while the LPT balanced
// partitioner stays <= 1.25.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/fault_injection.h"
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

TEST_F(PartitionInvarianceTest, RebalanceKeepsBitExactness) {
  const size_t kSources = 9;
  BuildReference(MakeDatabase(kSources));
  const QueryParams params = DefaultParams();
  const GeneMatrix query = ClusterQueryMatrix(9400);
  const std::vector<QueryMatch> expected = ReferenceQuery(query, params);
  ASSERT_EQ(expected.size(), kSources);

  ThreadPool pool(4);
  ShardedEngineOptions options;
  options.num_shards = 4;
  ShardedEngine sharded(options, &pool);  // Default modulo placement.
  sharded.LoadDatabase(MakeDatabase(kSources));
  ASSERT_TRUE(sharded.BuildIndex().ok());

  Rng rng(77);
  for (size_t round = 0; round < 5; ++round) {
    PartitionPlan plan = RandomPlan(kSources, 4, &rng);
    ASSERT_TRUE(sharded.Rebalance(plan).ok()) << "round " << round;
    for (SourceId i = 0; i < kSources; ++i) {
      EXPECT_EQ(sharded.ShardOf(i), plan.shard_of[i]) << "round " << round;
    }
    Result<std::vector<QueryMatch>> result = sharded.Query(query, params);
    ASSERT_TRUE(result.ok());
    ExpectIdentical(*result, expected, "rebalance round " +
                                           std::to_string(round));

    // Migration bookkeeping: active source counts per shard must match the
    // plan exactly (no duplicated, no lost sources).
    const ShardedEngineStatsSnapshot snapshot = sharded.StatsSnapshot();
    for (size_t s = 0; s < 4; ++s) {
      size_t want = 0;
      for (uint32_t owner : plan.shard_of) want += owner == s ? 1 : 0;
      EXPECT_EQ(snapshot.shards[s].sources, want) << "round " << round
                                                  << " shard " << s;
    }
  }

  // A no-op rebalance (re-submitting the current map) is accepted.
  PartitionPlan same;
  same.num_shards = 4;
  for (SourceId i = 0; i < kSources; ++i) {
    same.shard_of.push_back(static_cast<uint32_t>(sharded.ShardOf(i)));
  }
  ASSERT_TRUE(sharded.Rebalance(same).ok());
  ExpectIdentical(*sharded.Query(query, params), expected, "no-op rebalance");
}

TEST_F(PartitionInvarianceTest, ResizeKeepsBitExactness) {
  const size_t kSources = 8;
  BuildReference(MakeDatabase(kSources));
  const QueryParams params = DefaultParams();
  const GeneMatrix query = ClusterQueryMatrix(9500);
  const std::vector<QueryMatch> expected = ReferenceQuery(query, params);

  ThreadPool pool(4);
  ShardedEngineOptions options;
  options.num_shards = 4;
  options.partitioner = std::make_shared<BalancedPartitioner>();
  ShardedEngine sharded(options, &pool);
  sharded.LoadDatabase(MakeDatabase(kSources));
  ASSERT_TRUE(sharded.BuildIndex().ok());

  // Grow, shrink below, down to one, and back up — queries must never see
  // a difference.
  for (size_t new_shards : {7u, 2u, 1u, 5u}) {
    ASSERT_TRUE(sharded.Resize(new_shards).ok()) << new_shards;
    EXPECT_EQ(sharded.num_shards(), new_shards);
    EXPECT_EQ(sharded.num_sources(), kSources);
    Result<std::vector<QueryMatch>> result = sharded.Query(query, params);
    ASSERT_TRUE(result.ok());
    ExpectIdentical(*result, expected,
                    "resize to " + std::to_string(new_shards));
  }

  // Updates still work after resizing (routing state stayed coherent).
  ASSERT_TRUE(reference_.RemoveMatrix(1).ok());
  ASSERT_TRUE(sharded.RemoveSource(1).ok());
  ASSERT_TRUE(reference_.AddMatrix(ClusterMatrix(8)).ok());
  ASSERT_TRUE(sharded.AddSource(ClusterMatrix(8)).ok());
  ExpectIdentical(*sharded.Query(query, params),
                  ReferenceQuery(query, params), "updates after resize");
}

TEST_F(PartitionInvarianceTest, FaultedShrinkStillRetiresDroppedOverhead) {
  // A shrink that faults after its commit point (the second migrate.drain
  // evaluation) fails, yet leaves the smaller topology published. The
  // dropped shards' overhead EWMAs must be retired all the same, or a later
  // grow that reuses their indices starts from stale measurements.
  ShardedEngineOptions options;
  options.num_shards = 4;
  ShardedEngine sharded(options, nullptr);
  sharded.SetCostMeterForTesting(nullptr,
                                 [](const QueryStats&) { return 1e-3; });
  sharded.LoadDatabase(MakeDatabase(8));
  ASSERT_TRUE(sharded.BuildIndex().ok());
  ASSERT_TRUE(sharded.Query(ClusterQueryMatrix(9550), DefaultParams()).ok());
  for (const ShardStats& shard : sharded.StatsSnapshot().shards) {
    ASSERT_GT(shard.overhead_seconds, 0.0) << "shard " << shard.shard;
  }
  {
    ScopedFaultInjection scoped({{.site = fault_sites::kMigrateDrain,
                                  .every_nth = 2,
                                  .max_fires = 1}});
    ASSERT_FALSE(sharded.Resize(2).ok());
  }
  ASSERT_EQ(sharded.num_shards(), 2u);  // Rolled forward.
  ASSERT_TRUE(sharded.Resize(4).ok());
  const ShardedEngineStatsSnapshot snapshot = sharded.StatsSnapshot();
  for (size_t s = 2; s < 4; ++s) {
    EXPECT_EQ(snapshot.shards[s].overhead_seconds, 0.0) << "shard " << s;
  }
}

TEST_F(PartitionInvarianceTest, RebalanceAfterRemovalSkipsRetractedSources) {
  const size_t kSources = 6;
  BuildReference(MakeDatabase(kSources));
  const QueryParams params = DefaultParams();
  const GeneMatrix query = ClusterQueryMatrix(9600);

  ShardedEngine sharded({}, nullptr);  // 4 shards, modulo.
  sharded.LoadDatabase(MakeDatabase(kSources));
  ASSERT_TRUE(sharded.BuildIndex().ok());

  ASSERT_TRUE(reference_.RemoveMatrix(0).ok());
  ASSERT_TRUE(sharded.RemoveSource(0).ok());

  // The plan still covers the retracted id (dense map), but nothing moves
  // for it and it stays invisible afterwards.
  PartitionPlan plan;
  plan.num_shards = 4;
  plan.shard_of = {3, 3, 3, 0, 0, 1};
  ASSERT_TRUE(sharded.Rebalance(plan).ok());
  ExpectIdentical(*sharded.Query(query, params),
                  ReferenceQuery(query, params), "rebalance after removal");

  // Double-remove parity survives the migration.
  EXPECT_EQ(sharded.RemoveSource(0).code(), StatusCode::kFailedPrecondition);
}

TEST_F(PartitionInvarianceTest, RebalanceAndResizeValidateArguments) {
  ShardedEngine unbuilt({}, nullptr);
  PartitionPlan plan;
  plan.num_shards = 4;
  EXPECT_EQ(unbuilt.Rebalance(plan).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(unbuilt.Resize(2).code(), StatusCode::kFailedPrecondition);

  ShardedEngine sharded({}, nullptr);  // 4 shards.
  sharded.LoadDatabase(MakeDatabase(5));
  ASSERT_TRUE(sharded.BuildIndex().ok());

  PartitionPlan wrong_shards;
  wrong_shards.num_shards = 3;
  wrong_shards.shard_of = {0, 1, 2, 0, 1};
  EXPECT_EQ(sharded.Rebalance(wrong_shards).code(),
            StatusCode::kInvalidArgument);

  PartitionPlan wrong_size;
  wrong_size.num_shards = 4;
  wrong_size.shard_of = {0, 1, 2};  // Covers 3 of 5 sources.
  EXPECT_EQ(sharded.Rebalance(wrong_size).code(),
            StatusCode::kInvalidArgument);

  PartitionPlan out_of_range;
  out_of_range.num_shards = 4;
  out_of_range.shard_of = {0, 1, 2, 3, 4};  // Shard 4 of 4.
  EXPECT_EQ(sharded.Rebalance(out_of_range).code(),
            StatusCode::kInvalidArgument);

  EXPECT_EQ(sharded.Resize(0).code(), StatusCode::kInvalidArgument);
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

  // Rebalancing the modulo layout with an LPT plan reaches the same
  // balance online, again without perturbing results.
  ShardedEngineOptions options;
  options.num_shards = 4;
  ShardedEngine sharded(options, &pool);
  sharded.LoadDatabase(MakeSkewedDatabase(kSources));
  ASSERT_TRUE(sharded.BuildIndex().ok());
  ASSERT_GE(sharded.StatsSnapshot().imbalance, 2.0);

  const GeneDatabase skew = MakeSkewedDatabase(kSources);
  const PartitionPlan lpt =
      BalancedPartitioner().Partition(EstimateSourceCosts(skew), 4);
  ASSERT_TRUE(sharded.Rebalance(lpt).ok());
  EXPECT_LE(sharded.StatsSnapshot().imbalance, 1.25);
  ExpectIdentical(*sharded.Query(query, params), expected,
                  "post-rebalance skew");
}

TEST_F(PartitionInvarianceTest, AutoRebalanceMovesFewSourcesToMeasuredTarget) {
  // The PR's acceptance bar: starting from a layout that is badly
  // imbalanced by MEASURED load, the no-plan Rebalance(target) — greedy
  // minimal movement over the calibrated cost model — must (a) bring the
  // measured imbalance under 1.25, (b) relocate strictly fewer sources
  // than a full LPT re-plan would, and (c) leave every answer
  // bit-identical across the migration.
  const size_t kSources = 20;
  BuildReference(MakeSkewedDatabase(kSources));
  const QueryParams params = DefaultParams();
  const GeneMatrix query = ClusterQueryMatrix(9800);
  const std::vector<QueryMatch> expected = ReferenceQuery(query, params);
  ASSERT_EQ(expected.size(), kSources);

  // 14 sources piled on shard 0 (including 4 of the 5 giants), the rest in
  // pairs: heavily imbalanced both by estimate and by measurement.
  PartitionPlan initial;
  initial.num_shards = 4;
  for (size_t i = 0; i < kSources; ++i) {
    initial.shard_of.push_back(
        i < 14 ? 0u : static_cast<uint32_t>(1 + (i - 14) / 2));
  }
  ShardedEngineOptions options;
  options.num_shards = 4;
  options.partitioner = std::make_shared<ExplicitPartitioner>(initial);
  // Trust the EWMA from the first sample: the warmup below feeds every
  // source well past any reasonable min_samples anyway.
  options.calibration.min_samples = 1;
  ShardedEngine sharded(options, nullptr);
  testing_util::UseCandidatePairCostMeter(&sharded);
  sharded.LoadDatabase(MakeSkewedDatabase(kSources));
  ASSERT_TRUE(sharded.BuildIndex().ok());

  // Warm the measured cost model: every query records one sample per
  // active source (zero for untouched ones), so 8 rounds x 4 queries gives
  // every source a 32-sample EWMA of its expected per-query cost.
  for (int round = 0; round < 8; ++round) {
    for (uint64_t q = 0; q < 4; ++q) {
      ASSERT_TRUE(sharded.Query(ClusterQueryMatrix(9800 + q), params).ok());
    }
  }
  const ShardedEngineStatsSnapshot before = sharded.StatsSnapshot();
  EXPECT_GE(before.measured_imbalance, 2.0);  // 14-of-20 on one shard.
  ExpectIdentical(*sharded.Query(query, params), expected, "pre-rebalance");

  // What a full re-plan on the same calibrated costs would churn.
  const PartitionPlan full_replan =
      BalancedPartitioner().Partition(sharded.CalibratedSourceCosts(), 4);
  size_t full_moved = 0;
  for (size_t i = 0; i < kSources; ++i) {
    if (full_replan.shard_of[i] != initial.shard_of[i]) ++full_moved;
  }

  // Target 1.15 on the calibrated gauge: the calibrated costs retain a
  // small static residual (weight 1/(n+1)), so planning a notch below the
  // 1.25 acceptance bar guarantees the MEASURED ratio clears it.
  size_t moved = 0;
  ASSERT_TRUE(sharded.Rebalance(/*target_imbalance=*/1.15, &moved).ok());
  EXPECT_GE(moved, 5u);          // A real repair, not a no-op...
  EXPECT_LT(moved, full_moved);  // ...but far less churn than a re-plan.

  const ShardedEngineStatsSnapshot after = sharded.StatsSnapshot();
  EXPECT_LE(after.measured_imbalance, 1.25);
  ExpectIdentical(*sharded.Query(query, params), expected, "post-rebalance");

  // Moved-source accounting matches the live map.
  size_t live_moved = 0;
  for (SourceId i = 0; i < kSources; ++i) {
    if (sharded.ShardOf(i) != initial.shard_of[i]) ++live_moved;
  }
  EXPECT_EQ(moved, live_moved);

  // A second auto pass is (near-)idempotent: already under target.
  size_t moved_again = 99;
  ASSERT_TRUE(sharded.Rebalance(1.25, &moved_again).ok());
  EXPECT_EQ(moved_again, 0u);
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

TEST_F(PartitionInvarianceTest, MeasuredImbalanceSeesSkewTheEstimateCannot) {
  // Satellite convergence claim: on a database whose sources all have the
  // same static cost (~uniform genes x samples) but where the query mix
  // only ever touches a clump of "hot" sources pinned to one shard, the
  // estimated imbalance reads ~1.0 while the measured imbalance exposes
  // the real skew — and iterating measure -> auto-rebalance (the loop an
  // operator cron would run) spreads the hot sources until the measured
  // ratio converges under target.
  const size_t kSources = 32;
  const size_t kHot = 8;  // Sources 0..7 carry the queried cluster.
  auto hot_cold_matrix = [](SourceId source) {
    Rng rng(2500 + source);
    const bool hot = source < kHot;
    std::vector<GeneId> filler;
    for (size_t g = 0; g < 7; ++g) {
      filler.push_back(static_cast<GeneId>(1000 + 100 * source + g));
    }
    // Same gene count and near-same sample counts either way -> near-
    // uniform static cost; only hot sources contain the cluster the
    // queries ask about. Sample counts VARY across sources so the
    // permutation-cache fill is paid per source, not absorbed by whichever
    // source a shard happens to refine first (which would pin a per-shard
    // overhead onto one source's measured cost).
    const std::vector<std::vector<GeneId>> cluster = {
        hot ? std::vector<GeneId>{1, 2, 3} : std::vector<GeneId>{201, 202, 203}};
    const size_t num_samples = 28 + 2 * (source % 5);
    return MakePlantedMatrix(source, num_samples, cluster, filler, 0.97, &rng);
  };
  auto make_database = [&] {
    GeneDatabase database;
    for (SourceId i = 0; i < kSources; ++i) database.Add(hot_cold_matrix(i));
    return database;
  };

  BuildReference(make_database());
  const QueryParams params = DefaultParams();
  const GeneMatrix query = ClusterQueryMatrix(9900);
  const std::vector<QueryMatch> expected = ReferenceQuery(query, params);
  ASSERT_EQ(expected.size(), kHot);  // Cold sources are pruned entirely.

  // All eight hot sources pinned to shard 0; 8 cold sources on each other
  // shard. By source count and static cost this looks perfectly balanced.
  PartitionPlan clumped;
  clumped.num_shards = 4;
  for (size_t i = 0; i < kSources; ++i) {
    clumped.shard_of.push_back(
        i < kHot ? 0u : static_cast<uint32_t>(1 + (i - kHot) / 8));
  }
  ShardedEngineOptions options;
  options.num_shards = 4;
  options.partitioner = std::make_shared<ExplicitPartitioner>(clumped);
  options.calibration.min_samples = 1;
  ShardedEngine sharded(options, nullptr);
  testing_util::UseCandidatePairCostMeter(&sharded);
  sharded.LoadDatabase(make_database());
  ASSERT_TRUE(sharded.BuildIndex().ok());

  auto run_queries = [&] {
    for (int round = 0; round < 8; ++round) {
      ASSERT_TRUE(
          sharded.Query(ClusterQueryMatrix(9900 + round % 3), params).ok());
    }
  };
  run_queries();

  const ShardedEngineStatsSnapshot before = sharded.StatsSnapshot();
  EXPECT_NEAR(before.imbalance, 1.0, 0.05);   // The estimate is blind...
  EXPECT_GE(before.measured_imbalance, 3.0);  // ...to the real skew.

  size_t moved = 0;
  ASSERT_TRUE(sharded.Rebalance(1.25, &moved).ok());
  EXPECT_GE(moved, 3u);  // The hot clump had to be broken up.

  // Keep iterating measure -> rebalance (the loop an operator cron runs):
  // each pass plans on EWMAs recorded under the PREVIOUS layout (per-shard
  // effects like cache locality follow the layout, not the source, and the
  // EWMA needs fresh samples to shed them), so convergence takes a few
  // touch-up rounds. It must land under target within a small, bounded
  // number of iterations — divergence or oscillation here would mean the
  // measured costs don't actually describe the load being balanced.
  run_queries();
  run_queries();
  double converged = sharded.StatsSnapshot().measured_imbalance;
  for (int pass = 0; pass < 6 && converged > 1.25; ++pass) {
    ASSERT_TRUE(sharded.Rebalance(1.25).ok());
    run_queries();
    run_queries();
    converged = sharded.StatsSnapshot().measured_imbalance;
  }
  EXPECT_LE(converged, 1.25);
  // The hot sources now span several shards.
  std::set<size_t> hot_shards;
  for (SourceId i = 0; i < kHot; ++i) hot_shards.insert(sharded.ShardOf(i));
  EXPECT_GE(hot_shards.size(), 3u);

  ExpectIdentical(*sharded.Query(query, params), expected,
                  "hot/cold post-rebalance");
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

// --- Shard-fault differential: degradation restricted to survivors ------
//
// The allow_partial contract stated differentially: for ANY partition map
// and ANY single down shard, the degraded answer must equal the unsharded
// reference answer restricted to the sources the surviving shards own —
// same sources, bit-identical probabilities and mappings.

TEST_F(PartitionInvarianceTest, DegradedAnswerEqualsReferenceOfSurvivors) {
  const size_t kSources = 10;
  BuildReference(MakeDatabase(kSources));
  QueryParams params = DefaultParams();
  const GeneMatrix query = ClusterQueryMatrix(9300);
  const std::vector<QueryMatch> expected = ReferenceQuery(query, params);
  ASSERT_EQ(expected.size(), kSources);
  params.allow_partial = true;

  ThreadPool pool(4);
  Rng rng(777);
  for (size_t trial = 0; trial < 5; ++trial) {
    const size_t num_shards = 2 + rng.UniformUint64(4);
    PartitionPlan plan = RandomPlan(kSources, num_shards, &rng);
    const size_t down = rng.UniformUint64(num_shards);

    ShardedEngineOptions options;
    options.num_shards = num_shards;
    options.partitioner = std::make_shared<ExplicitPartitioner>(plan);
    options.retry.initial_backoff_micros = 1;  // Don't sleep for real.
    ShardedEngine sharded(options, &pool);
    sharded.LoadDatabase(MakeDatabase(kSources));
    ASSERT_TRUE(sharded.BuildIndex().ok());

    ScopedFaultInjection scoped({{.site = fault_sites::kShardSubQuery,
                                  .detail = static_cast<int64_t>(down),
                                  .every_nth = 1}});
    QueryStats stats;
    Result<std::vector<QueryMatch>> result =
        sharded.Query(query, params, &stats);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(stats.degraded);
    EXPECT_EQ(stats.failed_shards, std::vector<size_t>{down});

    std::vector<QueryMatch> survivors;
    for (const QueryMatch& match : expected) {
      if (plan.shard_of[match.source] != down) survivors.push_back(match);
    }
    ExpectIdentical(*result, survivors,
                    "trial " + std::to_string(trial) + " down=" +
                        std::to_string(down));
  }
}

TEST_F(PartitionInvarianceTest, DegradedTopKRanksOverSurvivorsOnly) {
  // top_k composes with degradation as "the top k of what was answerable":
  // the merged survivor set is ranked and truncated exactly like
  // FinalizeMatches over the restricted reference answer. A shard-local
  // truncation (or ranking against ghosts of the down shard) would break
  // this.
  const size_t kSources = 10;
  BuildReference(MakeDatabase(kSources));
  QueryParams params = DefaultParams();
  const GeneMatrix query = ClusterQueryMatrix(9400);
  const std::vector<QueryMatch> full = ReferenceQuery(query, params);
  ASSERT_EQ(full.size(), kSources);

  const size_t kShards = 3;
  const size_t kDown = 1;
  ThreadPool pool(4);
  ShardedEngineOptions options;
  options.num_shards = kShards;
  options.retry.initial_backoff_micros = 1;
  ShardedEngine sharded(options, &pool);
  sharded.LoadDatabase(MakeDatabase(kSources));
  ASSERT_TRUE(sharded.BuildIndex().ok());

  ScopedFaultInjection scoped({{.site = fault_sites::kShardSubQuery,
                                .detail = static_cast<int64_t>(kDown),
                                .every_nth = 1}});
  params.allow_partial = true;
  params.top_k = 4;
  QueryStats stats;
  Result<std::vector<QueryMatch>> result =
      sharded.Query(query, params, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(stats.degraded);

  std::vector<QueryMatch> survivors;
  for (const QueryMatch& match : full) {
    if (sharded.ShardOf(match.source) != kDown) survivors.push_back(match);
  }
  FinalizeMatches(params.top_k, &survivors);
  ExpectIdentical(*result, survivors, "degraded top-k");
}

TEST(PartitionerTest, FactoryAndPlacement) {
  EXPECT_STREQ(MakePartitioner("modulo")->name(), "modulo");
  EXPECT_STREQ(MakePartitioner("balanced")->name(), "balanced");
  EXPECT_EQ(MakePartitioner("hash-ring"), nullptr);

  // Modulo places by id; the cost-aware default places least-loaded.
  const std::vector<double> loads = {5.0, 1.0, 3.0};
  EXPECT_EQ(MakePartitioner("modulo")->PlaceSource(7, 2.0, loads), 1u);
  EXPECT_EQ(MakePartitioner("balanced")->PlaceSource(7, 2.0, loads), 1u);
  EXPECT_EQ(MakePartitioner("modulo")->PlaceSource(6, 2.0, loads), 0u);
}

}  // namespace
}  // namespace imgrn
