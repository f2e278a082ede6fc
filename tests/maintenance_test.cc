// The self-healing maintenance plane (service/maintenance.h): the
// checksum scrubber detects an injected corrupt page BEFORE any query
// fails, quarantines the replica, and re-synthesizes it from a healthy
// peer with every query bit-identical to an unsharded reference
// throughout; storage reclaim frees pages stranded by shadow-paging
// rebuilds; the auto-rebalance loop fires with hysteresis and an
// injectable-clock cooldown, and un-sticks the two-shard exchange-only
// stall via the swap move; the daemon's lifecycle races live queries,
// Rebalance, Resize, and SetReplicas cleanly. This binary is the
// "maintenance" ctest label: tools/ci_sanitize.sh runs it under both
// TSan and ASan.

#include "service/maintenance.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "core/engine.h"
#include "service/partitioner.h"
#include "service/sharded_engine.h"
#include "tests/test_util.h"

namespace imgrn {
namespace {

using testing_util::ClusterDatabaseConfig;
using testing_util::DefaultClusterParams;
using testing_util::ExpectIdenticalMatches;
using testing_util::MakeClusterDatabase;
using testing_util::MakeClusterQueryMatrix;
using testing_util::MakeLoadedShardedEngine;
using testing_util::MakePlantedMatrix;
using testing_util::MakeShardedOptions;

// This suite's planted-cluster database (see tests/test_util.h): its own
// seeds so a regression here cannot be masked by a stale golden from
// another binary.
constexpr ClusterDatabaseConfig kConfig = {.seed_base = 9100};

// A scratch directory for the disk-backed suites. Every shard file inside
// it is unlink_on_close, so removing the directory afterwards suffices.
class TempStorageDir {
 public:
  explicit TempStorageDir(const std::string& name)
      : path_(::testing::TempDir() + "imgrn_maint_" + name) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempStorageDir() { std::filesystem::remove_all(path_); }

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

PartitionPlan MakePlan(size_t num_shards, std::vector<uint32_t> shard_of) {
  PartitionPlan plan;
  plan.num_shards = num_shards;
  plan.shard_of = std::move(shard_of);
  return plan;
}

// Injectable daemon clock (MaintenanceOptions::clock_micros is a plain
// function pointer, so the fake steps a file-scope atomic).
std::atomic<int64_t> g_fake_now_micros{0};
int64_t FakeClockMicros() { return g_fake_now_micros.load(); }

class MaintenanceTest : public testing_util::ReferenceEngineFixture {
 protected:
  static constexpr size_t kSources = 6;

  void SetUp() override {
    BuildReference(MakeClusterDatabase(kConfig, kSources));
  }

  const QueryParams params_ = DefaultClusterParams();
};

// --- The acceptance scenario --------------------------------------------

// One replica's store rots (injected disk.read kDataLoss). Driven on the
// deterministic clock (tick_interval_micros = 0, TickForTesting), the
// scrubber must detect the corruption before any query ever sees it,
// quarantine the replica, and rebuild it from its healthy peer — with the
// K x R engine's answers bit-identical to the unsharded reference at
// every step.
TEST_F(MaintenanceTest, ScrubberDetectsCorruptionAndRebuildsFromPeer) {
  TempStorageDir dir("scrub_rebuild");
  ShardedEngineOptions options =
      MakeShardedOptions(/*num_shards=*/2, /*num_replicas=*/2,
                         /*cache_capacity=*/0, dir.path());
  options.maintenance.enabled = true;
  options.maintenance.tick_interval_micros = 0;  // Deterministic: no thread.
  options.maintenance.scrub_pages_per_tick = 64;
  auto engine = MakeLoadedShardedEngine(kConfig, kSources, std::move(options));
  ASSERT_NE(engine->maintenance(), nullptr);

  const GeneMatrix query = MakeClusterQueryMatrix(9200);
  const std::vector<QueryMatch> expected = ReferenceQuery(query, params_);

  // Baseline before the corruption: bit-identical to the reference.
  {
    Result<std::vector<QueryMatch>> got = engine->Query(query, params_);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectIdenticalMatches(*got, expected, "baseline");
  }

  // Rot exactly one page: the next disk read — which is the scrubber's,
  // because no query runs before the tick — fails its CRC seal.
  ScopedFaultInjection fault({{.site = fault_sites::kDiskRead,
                               .every_nth = 1,
                               .max_fires = 1,
                               .code = StatusCode::kDataLoss}});

  engine->maintenance()->TickForTesting();
  MaintenanceStats stats = engine->maintenance()->Stats();
  EXPECT_EQ(stats.ticks, 1u);
  EXPECT_EQ(stats.corrupt_pages, 1u)
      << "the scrubber's first page read must hit the injected rot";
  EXPECT_EQ(stats.replicas_rebuilt, 1u);
  EXPECT_EQ(stats.rebuild_failures, 0u);
  EXPECT_EQ(stats.scrub_errors, 0u);

  // Scrub a few full laps past the rebuild; every query in between stays
  // bit-identical — the corruption was repaired before any query could
  // observe it.
  for (int tick = 0; tick < 12; ++tick) {
    engine->maintenance()->TickForTesting();
    Result<std::vector<QueryMatch>> got = engine->Query(query, params_);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectIdenticalMatches(*got, expected,
                           "tick " + std::to_string(tick));
  }
  stats = engine->maintenance()->Stats();
  EXPECT_EQ(stats.corrupt_pages, 1u) << "the rebuilt store must scrub clean";
  EXPECT_EQ(stats.replicas_rebuilt, 1u);
  EXPECT_GT(stats.pages_scrubbed, 0u);
  EXPECT_EQ(stats.scrub_errors, 0u);

  // The same counters surface through the engine's StatsSnapshot.
  const ShardedEngineStatsSnapshot snapshot = engine->StatsSnapshot();
  EXPECT_TRUE(snapshot.maintenance.enabled);
  EXPECT_EQ(snapshot.maintenance.replicas_rebuilt, 1u);
  EXPECT_FALSE(snapshot.DebugString().empty());
}

// Direct quarantine + rebuild (no daemon): answers stay bit-identical
// while the sick replica is breaker-open and after it is replaced, for
// every replica of every shard in turn.
TEST_F(MaintenanceTest, RebuildReplicaKeepsAnswersBitIdentical) {
  TempStorageDir dir("rebuild_direct");
  auto engine = MakeLoadedShardedEngine(
      kConfig, kSources,
      MakeShardedOptions(/*num_shards=*/2, /*num_replicas=*/2,
                         /*cache_capacity=*/0, dir.path()));
  const GeneMatrix query = MakeClusterQueryMatrix(9201);
  const std::vector<QueryMatch> expected = ReferenceQuery(query, params_);

  for (size_t shard = 0; shard < 2; ++shard) {
    for (size_t replica = 0; replica < 2; ++replica) {
      engine->QuarantineReplica(shard, replica);
      {
        Result<std::vector<QueryMatch>> got = engine->Query(query, params_);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ExpectIdenticalMatches(*got, expected, "quarantined");
      }
      ASSERT_TRUE(engine->RebuildReplica(shard, replica).ok());
      {
        Result<std::vector<QueryMatch>> got = engine->Query(query, params_);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ExpectIdenticalMatches(*got, expected, "rebuilt");
      }
    }
  }
  EXPECT_FALSE(engine->RebuildReplica(9, 0).ok());
  EXPECT_FALSE(engine->RebuildReplica(0, 9).ok());
}

// --- Scrub cursor robustness --------------------------------------------

// A cursor that outlived a topology change (fewer shards / replicas /
// pages than it remembers) must clamp, not crash or error, and a driven
// scrub must still cover the stores.
TEST_F(MaintenanceTest, ScrubStepClampsStaleCursors) {
  TempStorageDir dir("cursor_clamp");
  auto engine = MakeLoadedShardedEngine(
      kConfig, kSources,
      MakeShardedOptions(/*num_shards=*/3, /*num_replicas=*/2,
                         /*cache_capacity=*/0, dir.path()));

  ScrubCursor cursor;
  cursor.shard = 99;  // Past the end: reset to the first replica.
  cursor.replica = 99;
  cursor.page = 12345;
  ScrubReport report;
  ASSERT_TRUE(engine->ScrubStep(&cursor, 32, /*reclaim=*/true, &report).ok());
  EXPECT_FALSE(report.corrupt);

  // Shrink the topology under the cursor and keep scrubbing.
  ASSERT_TRUE(engine->SetReplicas(1).ok());
  ASSERT_TRUE(engine->Resize(2).ok());
  size_t total_scrubbed = 0;
  for (int step = 0; step < 64; ++step) {
    report = ScrubReport();
    ASSERT_TRUE(
        engine->ScrubStep(&cursor, 64, /*reclaim=*/true, &report).ok());
    EXPECT_FALSE(report.corrupt);
    total_scrubbed += report.pages_scrubbed;
  }
  EXPECT_GT(total_scrubbed, 0u);
  EXPECT_LT(cursor.shard, 2u);
}

// --- Storage reclaim ----------------------------------------------------

// Shadow-paging index rebuilds strand the old tree's pages in the store.
// ReclaimStorage (the scrubber's end-of-store step) must free them and
// shrink the file, while the snapshot saved against the CURRENT tree
// still cold-starts.
TEST(MaintenanceReclaimTest, ReclaimFreesStrandedRebuildPages) {
  const std::string path =
      ::testing::TempDir() + "imgrn_maint_reclaim.pages";
  std::remove(path.c_str());

  EngineOptions options;
  options.storage.backend = StorageBackend::kDisk;
  options.storage.path = path;
  ImGrnEngine engine(options);
  engine.LoadDatabase(MakeClusterDatabase(kConfig, 5));
  ASSERT_TRUE(engine.BuildIndex().ok());
  ASSERT_TRUE(engine.SaveSnapshot().ok());

  // Rebuild: the new tree shadow-pages fresh slots; the old tree's pages
  // are now garbage no snapshot references once we re-save.
  ASSERT_TRUE(engine.BuildIndex().ok());
  ASSERT_TRUE(engine.SaveSnapshot().ok());

  size_t reclaimed = 0;
  size_t truncated = 0;
  ASSERT_TRUE(engine.ReclaimStorage(&reclaimed, &truncated).ok());
  EXPECT_GT(reclaimed, 0u) << "the first tree's pages were stranded";

  // The store is still fully queryable and the snapshot still loads.
  const GeneMatrix query = MakeClusterQueryMatrix(9300);
  const QueryParams params = DefaultClusterParams();
  Result<std::vector<QueryMatch>> before = engine.Query(query, params);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_TRUE(engine.LoadSnapshot().ok());
  Result<std::vector<QueryMatch>> after = engine.Query(query, params);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ExpectIdenticalMatches(*after, *before, "post-reclaim cold start");

  // A second reclaim finds nothing new.
  reclaimed = 0;
  ASSERT_TRUE(engine.ReclaimStorage(&reclaimed, &truncated).ok());
  EXPECT_EQ(reclaimed, 0u);
  std::remove(path.c_str());
}

// --- Auto-rebalance loop ------------------------------------------------

// Cold-registry fallback + hysteresis, on the deterministic tick: a
// stalled all-on-one-shard layout reads measured_imbalance 2.0 through
// the static fallback (satellite 3 — a cold registry used to read 1.0
// and the loop never fired), the first tick fires exactly one rebalance,
// and the loop re-arms only after imbalance drops below rebalance_low.
TEST_F(MaintenanceTest, RebalanceLoopFiresOnceAndRearmsBelowLow) {
  ShardedEngineOptions options = MakeShardedOptions(/*num_shards=*/2);
  options.maintenance.enabled = true;
  options.maintenance.tick_interval_micros = 0;
  options.maintenance.rebalance_high = 1.5;
  options.maintenance.rebalance_low = 1.25;
  options.maintenance.rebalance_target = 1.25;
  auto engine = MakeLoadedShardedEngine(kConfig, kSources, std::move(options));

  const PartitionPlan stalled =
      MakePlan(2, std::vector<uint32_t>(kSources, 0));
  ASSERT_TRUE(engine->Rebalance(stalled).ok());
  ASSERT_NEAR(engine->StatsSnapshot().measured_imbalance, 2.0, 1e-9)
      << "cold registry must fall back to the static estimate";

  engine->maintenance()->TickForTesting();
  EXPECT_EQ(engine->maintenance()->Stats().rebalance_fires, 1u);
  EXPECT_GT(engine->maintenance()->Stats().sources_moved, 0u);
  EXPECT_LE(engine->StatsSnapshot().measured_imbalance, 1.25 + 1e-9);

  // Balanced now: further ticks re-arm but have nothing to fire at.
  engine->maintenance()->TickForTesting();
  engine->maintenance()->TickForTesting();
  EXPECT_EQ(engine->maintenance()->Stats().rebalance_fires, 1u);

  // Stall again: the loop re-armed while balanced, so it fires again.
  ASSERT_TRUE(engine->Rebalance(stalled).ok());
  engine->maintenance()->TickForTesting();
  EXPECT_EQ(engine->maintenance()->Stats().rebalance_fires, 2u);
}

TEST_F(MaintenanceTest, RebalanceLoopStaysDisarmedAboveLow) {
  ShardedEngineOptions options = MakeShardedOptions(/*num_shards=*/2);
  options.maintenance.enabled = true;
  options.maintenance.tick_interval_micros = 0;
  options.maintenance.rebalance_high = 1.5;
  // rebalance_low below any reachable imbalance (the gauge never reads
  // under 1.0): after the first fire the loop can never re-arm.
  options.maintenance.rebalance_low = 0.5;
  options.maintenance.rebalance_target = 1.25;
  auto engine = MakeLoadedShardedEngine(kConfig, kSources, std::move(options));

  const PartitionPlan stalled =
      MakePlan(2, std::vector<uint32_t>(kSources, 0));
  ASSERT_TRUE(engine->Rebalance(stalled).ok());
  engine->maintenance()->TickForTesting();
  ASSERT_EQ(engine->maintenance()->Stats().rebalance_fires, 1u);

  ASSERT_TRUE(engine->Rebalance(stalled).ok());
  for (int tick = 0; tick < 4; ++tick) {
    engine->maintenance()->TickForTesting();
  }
  EXPECT_EQ(engine->maintenance()->Stats().rebalance_fires, 1u)
      << "hysteresis: never re-armed, so never re-fired";
}

TEST_F(MaintenanceTest, RebalanceCooldownHonorsInjectedClock) {
  g_fake_now_micros = 0;
  ShardedEngineOptions options = MakeShardedOptions(/*num_shards=*/2);
  options.maintenance.enabled = true;
  options.maintenance.tick_interval_micros = 0;
  options.maintenance.rebalance_high = 1.5;
  // Always armed (the gauge is always <= 10), so only the cooldown gates
  // consecutive fires.
  options.maintenance.rebalance_low = 10.0;
  options.maintenance.rebalance_target = 1.25;
  options.maintenance.rebalance_cooldown_micros = 1'000'000;
  options.maintenance.clock_micros = &FakeClockMicros;
  auto engine = MakeLoadedShardedEngine(kConfig, kSources, std::move(options));

  const PartitionPlan stalled =
      MakePlan(2, std::vector<uint32_t>(kSources, 0));
  ASSERT_TRUE(engine->Rebalance(stalled).ok());
  engine->maintenance()->TickForTesting();
  ASSERT_EQ(engine->maintenance()->Stats().rebalance_fires, 1u);

  // Within the cooldown: armed, above high, but rate-limited.
  ASSERT_TRUE(engine->Rebalance(stalled).ok());
  engine->maintenance()->TickForTesting();
  EXPECT_EQ(engine->maintenance()->Stats().rebalance_fires, 1u);

  g_fake_now_micros = 2'000'000;
  engine->maintenance()->TickForTesting();
  EXPECT_EQ(engine->maintenance()->Stats().rebalance_fires, 2u);
}

// --- The swap-stall regression, end to end ------------------------------

// Four sources with static costs {600, 600, 350, 350} (5 genes each; 24-
// vs 14-sample lengths) stalled as {0,1}|{2,3}: imbalance 1200/950 ~
// 1.263. No single move improves (gap 500, both hot sources cost 600),
// so the pre-swap planner left Rebalance(1.25) stuck above target
// forever. The swap move must reach 950/950 = 1.0 by exchanging a hot
// source for a cool one — and answers must not move a bit.
TEST_F(MaintenanceTest, SwapRebalanceUnsticksTwoShardStall) {
  GeneDatabase database;
  for (SourceId s = 0; s < 4; ++s) {
    Rng rng(9400 + s);
    const size_t samples = s < 2 ? 24 : 14;
    database.Add(MakePlantedMatrix(
        s, samples, {{1, 2, 3}},
        {static_cast<GeneId>(70 + 10 * s), static_cast<GeneId>(71 + 10 * s)},
        0.97, &rng));
  }
  ShardedEngine engine(MakeShardedOptions(/*num_shards=*/2));
  testing_util::UseCandidatePairCostMeter(&engine);
  engine.LoadDatabase(std::move(database));
  ASSERT_TRUE(engine.BuildIndex().ok());

  ASSERT_TRUE(engine.Rebalance(MakePlan(2, {0, 0, 1, 1})).ok());
  const ShardedEngineStatsSnapshot before = engine.StatsSnapshot();
  EXPECT_NEAR(before.imbalance, 1200.0 / 950.0, 1e-9);
  EXPECT_NEAR(before.measured_imbalance, 1200.0 / 950.0, 1e-9)
      << "cold registry: the static fallback carries the ratio";

  const GeneMatrix query = MakeClusterQueryMatrix(9401);
  Result<std::vector<QueryMatch>> stalled_answers = engine.Query(query, params_);
  ASSERT_TRUE(stalled_answers.ok());

  size_t moved = 0;
  ASSERT_TRUE(engine.Rebalance(1.25, &moved).ok());
  EXPECT_EQ(moved, 2u) << "the swap relocates exactly two sources";
  const ShardedEngineStatsSnapshot after = engine.StatsSnapshot();
  EXPECT_LE(after.imbalance, 1.25 + 1e-9);
  EXPECT_LE(after.measured_imbalance, 1.25 + 1e-9);
  EXPECT_NEAR(after.imbalance, 1.0, 1e-9);

  Result<std::vector<QueryMatch>> swapped_answers = engine.Query(query, params_);
  ASSERT_TRUE(swapped_answers.ok());
  ExpectIdenticalMatches(*swapped_answers, *stalled_answers, "post-swap");
}

// --- Satellite 1: layout-independent measured costs ---------------------

// Two statistically identical twin sources sharing one sample length.
// Co-located, the permutation-cache fill used to be booked entirely to
// whichever twin refined first, so its EWMA read ~2x its peer's — and
// separating them changed both readings (layout-dependent cost model).
// With fills routed to the per-shard overhead bucket, the twins' EWMAs
// must agree in BOTH layouts, and the overhead bucket must carry the
// fill.
TEST(MaintenanceEwmaTest, PermutationFillDoesNotSkewPerSourceCosts) {
  constexpr size_t kTwinSamples = 48;
  ClusterDatabaseConfig twin_config = {.seed_base = 9500,
                                       .samples_base = kTwinSamples,
                                       .samples_step = 0,
                                       .samples_mod = 0,
                                       .filler_base = 80,
                                       .num_fillers = 1};
  QueryParams params = DefaultClusterParams();
  // Fill work scales with refine_num_samples x length: make it the
  // dominant per-query term so the old misattribution would be glaring.
  params.refine_num_samples = 4096;
  const GeneMatrix query = MakeClusterQueryMatrix(9501);

  auto run_layout = [&](std::vector<uint32_t> shard_of) {
    auto engine = MakeLoadedShardedEngine(twin_config, /*num_sources=*/2,
                                          MakeShardedOptions(2));
    ShardedEngine* raw = engine.get();
    EXPECT_TRUE(raw->Rebalance(MakePlan(2, std::move(shard_of))).ok());
    for (int i = 0; i < 12; ++i) {
      Result<std::vector<QueryMatch>> got = raw->Query(query, params);
      EXPECT_TRUE(got.ok()) << got.status().ToString();
    }
    return engine;
  };

  auto together = run_layout({0, 0});  // Twins share shard 0's cache.
  auto apart = run_layout({0, 1});     // Each twin fills its own cache.

  const double together0 = together->measured_costs().Ewma(0);
  const double together1 = together->measured_costs().Ewma(1);
  const double apart0 = apart->measured_costs().Ewma(0);
  const double apart1 = apart->measured_costs().Ewma(1);
  ASSERT_GT(together0, 0.0);
  ASSERT_GT(together1, 0.0);
  ASSERT_GT(apart0, 0.0);
  ASSERT_GT(apart1, 0.0);

  // Twin symmetry within each layout. Pre-fix, the first-refined twin of
  // the shared shard carried the whole fill and read far above its peer;
  // wall-clock noise keeps this bound generous.
  const double together_skew = std::max(together0, together1) /
                               std::min(together0, together1);
  const double apart_skew = std::max(apart0, apart1) /
                            std::min(apart0, apart1);
  // Empirically the per-twin cost is ~0.2ms and the per-shard fill ~1ms
  // per query, so the pre-fix misattribution read as a ~6x skew; honest
  // scheduling noise stays under ~1.5x. 2.5 splits the two with margin
  // on both sides.
  EXPECT_LT(together_skew, 2.5)
      << "ewma(0)=" << together0 << " ewma(1)=" << together1;
  EXPECT_LT(apart_skew, 2.5) << "ewma(0)=" << apart0 << " ewma(1)=" << apart1;

  // The fill went somewhere: the co-located shard's overhead bucket.
  const ShardedEngineStatsSnapshot snapshot = together->StatsSnapshot();
  EXPECT_GT(snapshot.shards[0].overhead_seconds, 0.0);
  QueryStats stats;
  Result<std::vector<QueryMatch>> got = together->Query(query, params, &stats);
  ASSERT_TRUE(got.ok());
  EXPECT_GT(stats.permutation_fill_seconds, 0.0);
}

// --- Daemon lifecycle under live traffic --------------------------------

TEST_F(MaintenanceTest, DaemonStartStopIsIdempotent) {
  ShardedEngineOptions options = MakeShardedOptions(/*num_shards=*/2);
  options.maintenance.enabled = true;
  options.maintenance.tick_interval_micros = 500;
  auto engine = MakeLoadedShardedEngine(kConfig, kSources, std::move(options));
  MaintenanceDaemon* daemon = engine->maintenance();
  ASSERT_NE(daemon, nullptr);

  daemon->Stop();
  daemon->Stop();
  daemon->Start();
  daemon->Start();
  daemon->Stop();
  // Manual ticks keep working after the thread is gone.
  const uint64_t before = daemon->Stats().ticks;
  daemon->TickForTesting();
  EXPECT_EQ(daemon->Stats().ticks, before + 1);
  daemon->Start();  // Destroyed running: the engine dtor joins it.
}

// The full plane racing live traffic: a fast-ticking daemon (scrubbing a
// disk-backed store, reclaiming, and watching the rebalance gauge) under
// concurrent queries, explicit rebalances, replica-count changes, resizes
// and stats snapshots. Every query must stay bit-identical to the
// unsharded reference; TSan owns the rest of the assertions.
TEST_F(MaintenanceTest, DaemonRacesQueriesAndTopologyChanges) {
  TempStorageDir dir("daemon_races");
  ShardedEngineOptions options =
      MakeShardedOptions(/*num_shards=*/2, /*num_replicas=*/2,
                         /*cache_capacity=*/0, dir.path());
  options.maintenance.enabled = true;
  options.maintenance.tick_interval_micros = 200;
  options.maintenance.scrub_pages_per_tick = 128;
  auto engine = MakeLoadedShardedEngine(kConfig, kSources, std::move(options));

  const GeneMatrix query = MakeClusterQueryMatrix(9600);
  const std::vector<QueryMatch> expected = ReferenceQuery(query, params_);

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      while (!stop.load()) {
        Result<std::vector<QueryMatch>> got = engine->Query(query, params_);
        if (!got.ok()) {
          ++failures;
          continue;
        }
        ExpectIdenticalMatches(*got, expected, "racing query");
      }
    });
  }
  threads.emplace_back([&] {
    while (!stop.load()) {
      const ShardedEngineStatsSnapshot snapshot = engine->StatsSnapshot();
      if (!snapshot.DebugString().empty() && snapshot.shards.empty()) {
        ++failures;  // Unreachable; keeps the snapshot from optimizing out.
      }
    }
  });

  // Deterministic mutation script on the main thread (the plan below is
  // only valid at K=2, so resizes bracket it).
  const PartitionPlan stalled =
      MakePlan(2, std::vector<uint32_t>(kSources, 0));
  for (int round = 0; round < 4; ++round) {
    EXPECT_TRUE(engine->Rebalance(stalled).ok());
    EXPECT_TRUE(engine->Rebalance(1.25, nullptr).ok());
    EXPECT_TRUE(engine->SetReplicas(1).ok());
    EXPECT_TRUE(engine->SetReplicas(2).ok());
    EXPECT_TRUE(engine->Resize(3).ok());
    EXPECT_TRUE(engine->Resize(2).ok());
    engine->QuarantineReplica(0, 1);
    EXPECT_TRUE(engine->RebuildReplica(0, 1).ok());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop = true;
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(engine->maintenance()->Stats().ticks, 0u);
  // Destroying the engine while the daemon thread is live must join it
  // cleanly (no explicit Stop here, on purpose).
}

}  // namespace
}  // namespace imgrn
