// The self-healing maintenance plane (service/maintenance.h): the
// checksum scrubber detects an injected corrupt page BEFORE any query
// fails, quarantines the replica, and re-synthesizes it from a healthy
// peer with every query bit-identical to an unsharded reference
// throughout; storage reclaim frees pages stranded by shadow-paging
// rebuilds; the daemon's lifecycle races live queries, Rebalance, Resize,
// and SetReplicas cleanly. This binary is the "maintenance" ctest label:
// tools/ci_sanitize.sh runs it under both TSan and ASan.

#include "service/maintenance.h"

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
      MakeShardedOptions(/*num_shards=*/2, /*num_replicas=*/2, dir.path());
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
      MakeShardedOptions(/*num_shards=*/2, /*num_replicas=*/2, dir.path()));
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
      MakeShardedOptions(/*num_shards=*/3, /*num_replicas=*/2, dir.path()));

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
// disk-backed store and reclaiming) under concurrent queries, explicit
// rebalances, replica-count changes, resizes and stats snapshots. Every query must stay bit-identical to the
// unsharded reference; TSan owns the rest of the assertions.
TEST_F(MaintenanceTest, DaemonRacesQueriesAndTopologyChanges) {
  TempStorageDir dir("daemon_races");
  ShardedEngineOptions options =
      MakeShardedOptions(/*num_shards=*/2, /*num_replicas=*/2, dir.path());
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

  // Deterministic mutation script on the main thread (the plans below are
  // only valid at K=2, so resizes bracket them).
  const PartitionPlan stalled =
      MakePlan(2, std::vector<uint32_t>(kSources, 0));
  const PartitionPlan spread = MakePlan(2, {0, 1, 0, 1, 0, 1});
  for (int round = 0; round < 4; ++round) {
    EXPECT_TRUE(engine->Rebalance(stalled).ok());
    EXPECT_TRUE(engine->Rebalance(spread).ok());
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
