// The QueryService serving layer over a ShardedEngine: concurrent queries
// agree byte-for-byte with a serial ImGrnEngine, queries interleave safely
// with AddMatrix/RemoveMatrix (consistent snapshots, no crashes),
// deadlines and cancellation unwind cleanly, and admission control bounds
// the queue.

#include "service/query_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <set>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/engine.h"
#include "service/sharded_engine.h"
#include "tests/test_util.h"

namespace imgrn {
namespace {

using testing_util::MakePlantedMatrix;

// Database matrices all contain the planted cluster {1, 2, 3} (plus
// per-source filler genes), so cluster queries match every active source —
// which makes "which snapshot did this query see" directly observable.
GeneMatrix ClusterMatrix(SourceId source, uint64_t seed, GeneId filler_base) {
  Rng rng(seed);
  return MakePlantedMatrix(source, 32, {{1, 2, 3}},
                           {filler_base, filler_base + 1}, 0.97, &rng);
}

// The four-source database every fixture engine loads.
GeneDatabase ClusterDatabase() {
  GeneDatabase database;
  for (SourceId i = 0; i < 4; ++i) {
    database.Add(ClusterMatrix(i, 100 + i, 50 + 10 * i));
  }
  return database;
}

// The unsharded engine: one shard, one replica.
ShardedEngineOptions OneShard() {
  ShardedEngineOptions options;
  options.num_shards = 1;
  return options;
}

// A query matrix whose inferred GRN is the {1, 2, 3} clique/path cluster.
GeneMatrix ClusterQueryMatrix(uint64_t seed) {
  Rng rng(seed);
  return MakePlantedMatrix(0, 32, {{1, 2, 3}}, {}, 0.97, &rng);
}

bool MatchesIdentical(const std::vector<QueryMatch>& a,
                      const std::vector<QueryMatch>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].source != b[i].source) return false;
    // Byte-identical probabilities: the pipeline is deterministic in the
    // params seed, so concurrent execution must not change a single bit.
    if (a[i].probability != b[i].probability) return false;
    if (a[i].mapping != b[i].mapping) return false;
  }
  return true;
}

class QueryServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_.LoadDatabase(ClusterDatabase());
    ASSERT_TRUE(engine_.BuildIndex().ok());
    served_.LoadDatabase(ClusterDatabase());
    ASSERT_TRUE(served_.BuildIndex().ok());
    params_.gamma = 0.5;
    params_.alpha = 0.3;
  }

  std::set<SourceId> Sources(const std::vector<QueryMatch>& matches) {
    std::set<SourceId> sources;
    for (const QueryMatch& match : matches) sources.insert(match.source);
    return sources;
  }

  // The serial reference, queried directly and never through a service.
  ImGrnEngine engine_;
  // What the service serves: the unsharded engine, whose one sub-query
  // runs on the pool worker that runs the request.
  ShardedEngine served_{OneShard()};
  QueryParams params_;
};

TEST_F(QueryServiceTest, ConcurrentQueriesMatchSerialByteForByte) {
  // Eight distinct query matrices, serial ground truth first.
  std::vector<GeneMatrix> queries;
  std::vector<std::vector<QueryMatch>> serial;
  for (uint64_t i = 0; i < 8; ++i) {
    queries.push_back(ClusterQueryMatrix(7000 + i));
    Result<std::vector<QueryMatch>> result =
        engine_.Query(queries.back(), params_);
    ASSERT_TRUE(result.ok());
    serial.push_back(*result);
    EXPECT_EQ(Sources(serial.back()), (std::set<SourceId>{0, 1, 2, 3}));
  }

  ThreadPool pool(4);
  QueryService service(&served_, &pool);
  std::vector<QueryService::QueryResult> concurrent =
      service.QueryBatch(queries, params_);
  ASSERT_EQ(concurrent.size(), serial.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_TRUE(concurrent[i].ok()) << concurrent[i].status().ToString();
    EXPECT_TRUE(MatchesIdentical(*concurrent[i], serial[i])) << "query " << i;
  }
  EXPECT_EQ(service.MetricsSnapshot().served, 8u);
}

TEST_F(QueryServiceTest, ConcurrentAgreementAcrossAddAndRemove) {
  // Byte-identical agreement with serial execution, re-established after an
  // AddMatrix and after a RemoveMatrix go through the service (and, for
  // the serial reference, straight to the reference engine).
  std::vector<GeneMatrix> queries;
  for (uint64_t i = 0; i < 4; ++i) {
    queries.push_back(ClusterQueryMatrix(8000 + i));
  }
  ThreadPool pool(4);
  QueryService service(&served_, &pool);

  auto check_agreement = [&](const std::set<SourceId>& expected_sources) {
    std::vector<QueryService::QueryResult> concurrent =
        service.QueryBatch(queries, params_);
    for (size_t i = 0; i < queries.size(); ++i) {
      Result<std::vector<QueryMatch>> expected =
          engine_.Query(queries[i], params_);
      ASSERT_TRUE(expected.ok());
      ASSERT_TRUE(concurrent[i].ok()) << concurrent[i].status().ToString();
      EXPECT_TRUE(MatchesIdentical(*concurrent[i], *expected));
      EXPECT_EQ(Sources(*concurrent[i]), expected_sources);
    }
  };

  check_agreement({0, 1, 2, 3});
  ASSERT_TRUE(service.AddMatrix(ClusterMatrix(4, 204, 90)).ok());
  ASSERT_TRUE(engine_.AddMatrix(ClusterMatrix(4, 204, 90)).ok());
  check_agreement({0, 1, 2, 3, 4});
  ASSERT_TRUE(service.RemoveMatrix(1).ok());
  ASSERT_TRUE(engine_.RemoveMatrix(1).ok());
  check_agreement({0, 2, 3, 4});
}

TEST_F(QueryServiceTest, QueriesInterleavedWithUpdatesSeeConsistentSnapshots) {
  // Stream queries while the main thread applies adds and removes. Every
  // matrix matches the cluster query, so a query's matched source set must
  // equal one of the database states the updates step through — anything
  // else would mean it observed a half-applied update.
  const std::vector<std::set<SourceId>> valid_states = {
      {0, 1, 2, 3},        // Initial.
      {0, 1, 2, 3, 4},     // After AddMatrix(4).
      {0, 2, 3, 4},        // After RemoveMatrix(1).
      {0, 2, 3, 4, 5},     // After AddMatrix(5).
      {0, 2, 4, 5},        // After RemoveMatrix(3).
  };

  ThreadPool pool(4);
  QueryService service(&served_, &pool, {.max_queue_depth = 1024});
  const GeneMatrix query = ClusterQueryMatrix(9001);

  std::vector<QueryService::PendingQuery> pending;
  auto submit_wave = [&](size_t count) {
    for (size_t i = 0; i < count; ++i) {
      pending.push_back(service.SubmitQuery(query, params_));
    }
  };

  submit_wave(8);
  ASSERT_TRUE(service.AddMatrix(ClusterMatrix(4, 204, 90)).ok());
  submit_wave(8);
  ASSERT_TRUE(service.RemoveMatrix(1).ok());
  submit_wave(8);
  ASSERT_TRUE(service.AddMatrix(ClusterMatrix(5, 205, 110)).ok());
  submit_wave(8);
  ASSERT_TRUE(service.RemoveMatrix(3).ok());
  submit_wave(8);

  for (QueryService::PendingQuery& request : pending) {
    QueryService::QueryResult result = request.result.get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const std::set<SourceId> sources = Sources(*result);
    bool consistent = false;
    for (const auto& state : valid_states) {
      if (sources == state) {
        consistent = true;
        break;
      }
    }
    EXPECT_TRUE(consistent) << "query observed a torn snapshot of "
                            << sources.size() << " sources";
  }
  EXPECT_EQ(service.MetricsSnapshot().served, 40u);

  // The served engine ends where a serial engine given the same four
  // updates ends, bit for bit.
  ASSERT_TRUE(engine_.AddMatrix(ClusterMatrix(4, 204, 90)).ok());
  ASSERT_TRUE(engine_.RemoveMatrix(1).ok());
  ASSERT_TRUE(engine_.AddMatrix(ClusterMatrix(5, 205, 110)).ok());
  ASSERT_TRUE(engine_.RemoveMatrix(3).ok());
  Result<std::vector<QueryMatch>> expected = engine_.Query(query, params_);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  QueryService::QueryResult final_state =
      service.SubmitQuery(query, params_).result.get();
  ASSERT_TRUE(final_state.ok()) << final_state.status().ToString();
  EXPECT_TRUE(MatchesIdentical(*final_state, *expected));
  EXPECT_EQ(Sources(*final_state), valid_states.back());
}

TEST_F(QueryServiceTest, ZeroDeadlineReturnsDeadlineExceeded) {
  ThreadPool pool(2);
  QueryService service(&served_, &pool);
  QueryService::PendingQuery pending = service.SubmitQuery(
      ClusterQueryMatrix(42), params_, std::chrono::nanoseconds(0));
  QueryService::QueryResult result = pending.result.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(service.MetricsSnapshot().deadline_expired, 1u);
  EXPECT_EQ(service.MetricsSnapshot().served, 0u);
}

// A deadline past the clock's range never expires: the query gets the
// answer it gets without a deadline.
TEST_F(QueryServiceTest, MaxDeadlineAnswersLikeNoDeadline) {
  ThreadPool pool(2);
  QueryService service(&served_, &pool);
  Result<std::vector<QueryMatch>> expected =
      service.SubmitQuery(ClusterQueryMatrix(42), params_).result.get();
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ASSERT_FALSE(expected->empty());
  QueryService::QueryResult result =
      service
          .SubmitQuery(ClusterQueryMatrix(42), params_,
                       std::chrono::nanoseconds::max())
          .result.get();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(MatchesIdentical(*result, *expected));
  EXPECT_EQ(service.MetricsSnapshot().deadline_expired, 0u);
}

TEST_F(QueryServiceTest, FullQueueReturnsResourceExhausted) {
  // One worker, occupied by a plug task; queue depth 1. The first query
  // takes the only slot, the second must be turned away immediately.
  ThreadPool pool(1);
  QueryService service(&served_, &pool, {.max_queue_depth = 1});

  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::future<void> plug = pool.Submit([released] { released.wait(); });

  QueryService::PendingQuery first =
      service.SubmitQuery(ClusterQueryMatrix(44), params_);
  ASSERT_NE(first.control, nullptr);
  EXPECT_EQ(service.queue_depth(), 1u);

  QueryService::PendingQuery second =
      service.SubmitQuery(ClusterQueryMatrix(45), params_);
  EXPECT_EQ(second.control, nullptr);  // Rejected at admission.
  QueryService::QueryResult rejected = second.result.get();  // Already ready.
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);

  release.set_value();
  plug.get();
  QueryService::QueryResult result = first.result.get();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Sources(*result), (std::set<SourceId>{0, 1, 2, 3}));

  const ServiceMetricsSnapshot snapshot = service.MetricsSnapshot();
  EXPECT_EQ(snapshot.submitted, 2u);
  EXPECT_EQ(snapshot.served, 1u);
  EXPECT_EQ(snapshot.rejected, 1u);
  EXPECT_EQ(snapshot.queue_depth, 0u);
}

TEST_F(QueryServiceTest, CancelBeforeStartReturnsCancelled) {
  ThreadPool pool(1);
  QueryService service(&served_, &pool, {.max_queue_depth = 4});

  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::future<void> plug = pool.Submit([released] { released.wait(); });

  QueryService::PendingQuery pending =
      service.SubmitQuery(ClusterQueryMatrix(46), params_);
  ASSERT_NE(pending.control, nullptr);
  pending.control->RequestCancel();  // While still queued behind the plug.
  release.set_value();
  plug.get();

  QueryService::QueryResult result = pending.result.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(service.MetricsSnapshot().cancelled, 1u);
}

TEST_F(QueryServiceTest, UpdateErrorsPropagateThroughService) {
  ThreadPool pool(2);
  QueryService service(&served_, &pool);
  // Wrong source id (must equal num_sources()).
  EXPECT_FALSE(service.AddMatrix(ClusterMatrix(9, 300, 120)).ok());
  EXPECT_FALSE(service.RemoveMatrix(77).ok());
  ASSERT_TRUE(service.RemoveMatrix(2).ok());
  EXPECT_FALSE(service.RemoveMatrix(2).ok());  // Double remove.
}

TEST_F(QueryServiceTest, MetricsLatencyAndDebugString) {
  ThreadPool pool(2);
  QueryService service(&served_, &pool);
  std::vector<GeneMatrix> queries;
  for (uint64_t i = 0; i < 6; ++i) {
    queries.push_back(ClusterQueryMatrix(9100 + i));
  }
  for (const QueryService::QueryResult& result :
       service.QueryBatch(queries, params_)) {
    ASSERT_TRUE(result.ok());
  }
  const ServiceMetricsSnapshot snapshot = service.MetricsSnapshot();
  EXPECT_EQ(snapshot.served, 6u);
  EXPECT_GT(snapshot.latency_p50_ms, 0.0);
  EXPECT_GE(snapshot.latency_p99_ms, snapshot.latency_p50_ms);
  EXPECT_GT(snapshot.latency_mean_ms, 0.0);
  const std::string debug = snapshot.DebugString();
  EXPECT_NE(debug.find("served=6"), std::string::npos);
  EXPECT_NE(debug.find("p95="), std::string::npos);
}

// QueryService over a ShardedEngine: the service schedules whole requests,
// the engine fans each one out per shard on the same pool.
class ShardedQueryServiceTest : public QueryServiceTest {
 protected:
  // Builds the sharded twin of the fixture's 4-source database.
  void BuildSharded(size_t num_shards, ThreadPool* pool) {
    ShardedEngineOptions options;
    options.num_shards = num_shards;
    sharded_ = std::make_unique<ShardedEngine>(options, pool);
    sharded_->LoadDatabase(ClusterDatabase());
    ASSERT_TRUE(sharded_->BuildIndex().ok());
  }

  std::unique_ptr<ShardedEngine> sharded_;
};

TEST_F(ShardedQueryServiceTest, ShardedServiceMatchesSingleEngineService) {
  ThreadPool pool(4);
  BuildSharded(4, &pool);
  QueryService service(sharded_.get(), &pool);

  std::vector<GeneMatrix> queries;
  std::vector<std::vector<QueryMatch>> serial;
  for (uint64_t i = 0; i < 6; ++i) {
    queries.push_back(ClusterQueryMatrix(9300 + i));
    Result<std::vector<QueryMatch>> expected =
        engine_.Query(queries.back(), params_);
    ASSERT_TRUE(expected.ok());
    serial.push_back(*expected);
  }
  std::vector<QueryService::QueryResult> concurrent =
      service.QueryBatch(queries, params_);
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(concurrent[i].ok()) << concurrent[i].status().ToString();
    EXPECT_TRUE(MatchesIdentical(*concurrent[i], serial[i])) << "query " << i;
  }
  EXPECT_EQ(service.MetricsSnapshot().served, 6u);
}

TEST_F(ShardedQueryServiceTest, CancelMidFanOutReturnsCancelledAndDrains) {
  // Deterministic mid-fan-out cancellation: hold shard 0's write lock so
  // its sub-query parks at the lock while shards 1..3 finish, cancel, then
  // release. The stalled sub-query observes the stop flag at its first
  // checkpoint, the request completes Cancelled (shard 0 is the earliest
  // failing shard), and every sub-task was gathered — no orphaned pool
  // work.
  ThreadPool pool(2);
  BuildSharded(4, &pool);
  QueryService service(sharded_.get(), &pool);

  std::unique_lock<std::shared_mutex> update_in_progress(
      sharded_->shard_mutex_for_testing(0));

  QueryService::PendingQuery pending =
      service.SubmitQuery(ClusterQueryMatrix(9400), params_);
  ASSERT_NE(pending.control, nullptr);

  // Wait until all four sub-queries started and the three unlocked shards
  // finished — the request is now provably mid-fan-out.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (true) {
    const ShardedEngineStatsSnapshot snapshot = sharded_->StatsSnapshot();
    uint64_t finished = 0;
    uint64_t in_flight = 0;
    for (const ShardStats& shard : snapshot.shards) {
      finished += shard.sub_queries;
      in_flight += shard.in_flight;
    }
    if (finished == 3 && in_flight == 1) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "fan-out never reached the mid-flight state";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  pending.control->RequestCancel();
  update_in_progress.unlock();

  QueryService::QueryResult result = pending.result.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(service.MetricsSnapshot().cancelled, 1u);

  // All sub-tasks were gathered: nothing in flight, and exactly the shard
  // that observed the stop flag reports an error.
  const ShardedEngineStatsSnapshot snapshot = sharded_->StatsSnapshot();
  uint64_t finished = 0;
  uint64_t errors = 0;
  for (const ShardStats& shard : snapshot.shards) {
    EXPECT_EQ(shard.in_flight, 0u);
    finished += shard.sub_queries;
    errors += shard.sub_query_errors;
  }
  EXPECT_EQ(finished, 4u);
  EXPECT_EQ(errors, 1u);
  EXPECT_EQ(snapshot.shards[0].sub_query_errors, 1u);

  // The service (and pool) still serve fresh queries afterwards.
  QueryService::QueryResult after =
      service.SubmitQuery(ClusterQueryMatrix(9401), params_).result.get();
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(Sources(*after), (std::set<SourceId>{0, 1, 2, 3}));
}

TEST_F(ShardedQueryServiceTest, ZeroDeadlineOverShardedEngine) {
  ThreadPool pool(2);
  BuildSharded(4, &pool);
  QueryService service(sharded_.get(), &pool);
  QueryService::QueryResult result =
      service
          .SubmitQuery(ClusterQueryMatrix(9500), params_,
                       std::chrono::nanoseconds(0))
          .result.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(service.MetricsSnapshot().deadline_expired, 1u);
}

TEST_F(QueryServiceTest, DestructorDrainsInFlightQueries) {
  ThreadPool pool(2);
  std::vector<QueryService::PendingQuery> pending;
  {
    QueryService service(&served_, &pool);
    for (uint64_t i = 0; i < 8; ++i) {
      pending.push_back(
          service.SubmitQuery(ClusterQueryMatrix(9200 + i), params_));
    }
    // Service destroyed with queries possibly still queued/running.
  }
  for (QueryService::PendingQuery& request : pending) {
    QueryService::QueryResult result = request.result.get();
    ASSERT_TRUE(result.ok());
  }
}

}  // namespace
}  // namespace imgrn
