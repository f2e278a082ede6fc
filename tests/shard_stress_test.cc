// ShardedEngine under concurrency (run under TSan via tools/ci_sanitize.sh,
// ctest label "concurrency"): queries racing updates lose no update and
// tear no snapshot, and a write-locked shard never blocks sub-queries —
// or updates' routing — on the other shards.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "inference/grn_inference.h"
#include "service/sharded_engine.h"
#include "tests/test_util.h"

namespace imgrn {
namespace {

// This suite's planted-cluster database (see tests/test_util.h): a FIXED
// sample count — the stress tests compare results under racing updates,
// and a uniform length keeps per-query work flat so the storms interleave
// densely.
constexpr testing_util::ClusterDatabaseConfig kStressConfig = {
    .samples_base = 32, .samples_mod = 0};

GeneMatrix ClusterMatrix(SourceId source) {
  return testing_util::MakeClusterMatrix(kStressConfig, source);
}

GeneDatabase MakeDatabase(size_t num_sources) {
  return testing_util::MakeClusterDatabase(kStressConfig, num_sources);
}

GeneMatrix ClusterQueryMatrix(uint64_t seed) {
  return testing_util::MakeClusterQueryMatrix(seed);
}

QueryParams DefaultParams() { return testing_util::DefaultClusterParams(); }

std::set<SourceId> Sources(const std::vector<QueryMatch>& matches) {
  std::set<SourceId> sources;
  for (const QueryMatch& match : matches) sources.insert(match.source);
  return sources;
}

ShardedEngineOptions Opts(size_t num_shards) {
  return testing_util::MakeShardedOptions(num_shards);
}

TEST(ShardStressTest, QueriesRaceUpdatesWithoutLostUpdatesOrTornShards) {
  // Every matrix matches the cluster query, so a query's result set is
  // exactly the set of active sources its sub-queries observed. Sub-queries
  // hit the shards at slightly different times, so the set need not be one
  // global snapshot — but its intersection with any one shard must be a
  // prefix-of-updates state of that shard (per-shard snapshot isolation),
  // and after the storm the engine must hold exactly the surviving sources.
  const size_t kInitial = 8;
  const size_t kShards = 4;
  ThreadPool pool(4);
  ShardedEngine sharded(Opts(kShards), &pool);
  sharded.LoadDatabase(MakeDatabase(kInitial));
  ASSERT_TRUE(sharded.BuildIndex().ok());

  std::atomic<bool> stop{false};
  std::atomic<size_t> queries_ok{0};
  const QueryParams params = DefaultParams();

  // Shard s only ever steps through: initial sources, +added, -removed, in
  // that order. Track the evolving global active set and record every
  // per-shard state the update storm creates; queries validate against the
  // per-shard projections of the recorded states.
  std::mutex states_mutex;
  std::set<SourceId> active;
  for (SourceId i = 0; i < kInitial; ++i) active.insert(i);
  std::vector<std::vector<std::set<SourceId>>> valid(kShards);
  auto snapshot_states = [&] {
    std::lock_guard<std::mutex> lock(states_mutex);
    for (size_t s = 0; s < kShards; ++s) {
      std::set<SourceId> projection;
      for (SourceId id : active) {
        if (id % kShards == s) projection.insert(id);
      }
      if (valid[s].empty() || valid[s].back() != projection) {
        valid[s].push_back(projection);
      }
    }
  };
  snapshot_states();

  std::vector<std::thread> query_threads;
  std::vector<std::set<SourceId>> observed;
  std::mutex observed_mutex;
  for (size_t t = 0; t < 3; ++t) {
    query_threads.emplace_back([&, t] {
      const GeneMatrix query = ClusterQueryMatrix(6000 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        Result<std::vector<QueryMatch>> result = sharded.Query(query, params);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        queries_ok.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(observed_mutex);
        observed.push_back(Sources(*result));
      }
    });
  }

  // The update storm: adds 8..15 interleaved with removes, while queries
  // stream. Each step records the new valid per-shard states.
  const std::vector<SourceId> removes = {2, 9, 5, 12};
  size_t next_remove = 0;
  for (SourceId id = kInitial; id < kInitial + 8; ++id) {
    ASSERT_TRUE(sharded.AddSource(ClusterMatrix(id)).ok());
    active.insert(id);
    snapshot_states();
    if (next_remove < removes.size() && removes[next_remove] < id) {
      ASSERT_TRUE(sharded.RemoveSource(removes[next_remove]).ok());
      active.erase(removes[next_remove]);
      ++next_remove;
      snapshot_states();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  while (next_remove < removes.size()) {
    ASSERT_TRUE(sharded.RemoveSource(removes[next_remove]).ok());
    active.erase(removes[next_remove]);
    ++next_remove;
    snapshot_states();
  }

  stop.store(true);
  for (std::thread& thread : query_threads) thread.join();
  EXPECT_GT(queries_ok.load(), 0u);

  // No lost update: the final state holds exactly the surviving sources...
  EXPECT_EQ(sharded.num_sources(), kInitial + 8);
  const GeneMatrix final_query = ClusterQueryMatrix(6100);
  Result<std::vector<QueryMatch>> final_result =
      sharded.Query(final_query, params);
  ASSERT_TRUE(final_result.ok());
  EXPECT_EQ(Sources(*final_result), active);

  // ...and differentially equals a single engine with the same history.
  ImGrnEngine reference;
  reference.LoadDatabase(MakeDatabase(kInitial));
  ASSERT_TRUE(reference.BuildIndex().ok());
  next_remove = 0;
  for (SourceId id = kInitial; id < kInitial + 8; ++id) {
    ASSERT_TRUE(reference.AddMatrix(ClusterMatrix(id)).ok());
    if (next_remove < removes.size() && removes[next_remove] < id) {
      ASSERT_TRUE(reference.RemoveMatrix(removes[next_remove]).ok());
      ++next_remove;
    }
  }
  while (next_remove < removes.size()) {
    ASSERT_TRUE(reference.RemoveMatrix(removes[next_remove]).ok());
    ++next_remove;
  }
  Result<std::vector<QueryMatch>> expected =
      reference.Query(final_query, params);
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(final_result->size(), expected->size());
  for (size_t i = 0; i < expected->size(); ++i) {
    EXPECT_EQ((*final_result)[i].source, (*expected)[i].source);
    EXPECT_EQ((*final_result)[i].probability, (*expected)[i].probability);
  }

  // Per-shard snapshot isolation: every observed result set projects onto
  // each shard as one of that shard's recorded states — a torn (mid-update)
  // shard view would produce a projection no recorded state matches.
  for (const std::set<SourceId>& sources : observed) {
    for (size_t s = 0; s < kShards; ++s) {
      std::set<SourceId> projection;
      for (SourceId id : sources) {
        if (id % kShards == s) projection.insert(id);
      }
      bool matched = false;
      for (const std::set<SourceId>& state : valid[s]) {
        if (state == projection) {
          matched = true;
          break;
        }
      }
      EXPECT_TRUE(matched) << "shard " << s << " observed a torn state of "
                           << projection.size() << " sources";
    }
  }

  const ShardedEngineStatsSnapshot snapshot = sharded.StatsSnapshot();
  for (const ShardStats& shard : snapshot.shards) {
    EXPECT_EQ(shard.in_flight, 0u);
    EXPECT_EQ(shard.sub_query_errors, 0u);
  }
}

TEST(ShardStressTest, WriteLockedShardDoesNotBlockOtherShards) {
  // Pin shard 0 in the "update in progress" state (exclusive lock) and
  // prove the other shards keep serving sub-queries. A global engine lock —
  // what one shard (num_shards = 1) amounts to — would fail this test.
  const size_t kShards = 4;
  ShardedEngine sharded(Opts(kShards), nullptr);
  sharded.LoadDatabase(MakeDatabase(8));
  ASSERT_TRUE(sharded.BuildIndex().ok());

  const QueryParams params = DefaultParams();
  const GeneMatrix query = ClusterQueryMatrix(6200);
  GrnInferenceOptions inference_options;
  inference_options.num_samples = params.query_num_samples;
  inference_options.seed = params.seed;
  const ProbGraph graph = InferGrn(query, params.gamma, inference_options);

  std::unique_lock<std::shared_mutex> update_in_progress(
      sharded.shard_mutex_for_testing(0));

  for (size_t s = 1; s < kShards; ++s) {
    std::future<Result<std::vector<QueryMatch>>> sub =
        std::async(std::launch::async, [&, s] {
          return sharded.QueryShard(s, graph, params);
        });
    // Generous bound: the sub-query must finish while shard 0 stays locked.
    ASSERT_EQ(sub.wait_for(std::chrono::seconds(30)),
              std::future_status::ready)
        << "sub-query on shard " << s << " blocked by shard 0's write lock";
    Result<std::vector<QueryMatch>> result = sub.get();
    ASSERT_TRUE(result.ok());
    for (const QueryMatch& match : *result) {
      EXPECT_EQ(sharded.ShardOf(match.source), s);
    }
  }

  // StatsSnapshot is lock-free and must also work mid-update.
  const ShardedEngineStatsSnapshot snapshot = sharded.StatsSnapshot();
  EXPECT_EQ(snapshot.shards.size(), kShards);
  EXPECT_EQ(snapshot.shards[0].sources, 2u);  // Sources 0 and 4.

  // A full fan-out query stalls on shard 0 — but the moment the "update"
  // finishes it completes with every shard's answers.
  std::future<Result<std::vector<QueryMatch>>> full =
      std::async(std::launch::async,
                 [&] { return sharded.Query(query, params); });
  EXPECT_EQ(full.wait_for(std::chrono::milliseconds(200)),
            std::future_status::timeout);  // Held back by the locked shard.
  update_in_progress.unlock();
  Result<std::vector<QueryMatch>> result = full.get();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Sources(*result),
            (std::set<SourceId>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(ShardStressTest, ConcurrentRemovalsSerializeWithoutLoss) {
  // Many threads race to remove overlapping source sets; exactly one thread
  // wins each source (RemoveSource is atomic per source), every loser gets
  // FailedPrecondition, and the survivors are exactly the never-removed ids.
  const size_t kSources = 16;
  ThreadPool pool(4);
  ShardedEngine sharded(Opts(4), &pool);
  sharded.LoadDatabase(MakeDatabase(kSources));
  ASSERT_TRUE(sharded.BuildIndex().ok());

  const std::vector<SourceId> targets = {1, 3, 6, 8, 11, 14};
  std::atomic<size_t> wins{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (SourceId target : targets) {
        const Status status = sharded.RemoveSource(target);
        if (status.ok()) {
          wins.fetch_add(1, std::memory_order_relaxed);
        } else {
          EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(wins.load(), targets.size());

  Result<std::vector<QueryMatch>> result =
      sharded.Query(ClusterQueryMatrix(6300), DefaultParams());
  ASSERT_TRUE(result.ok());
  std::set<SourceId> expected;
  for (SourceId i = 0; i < kSources; ++i) expected.insert(i);
  for (SourceId target : targets) expected.erase(target);
  EXPECT_EQ(Sources(*result), expected);
}

}  // namespace
}  // namespace imgrn
