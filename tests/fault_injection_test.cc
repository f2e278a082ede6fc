// The fault-injection registry (common/fault_injection.h), the per-shard
// circuit breaker (service/circuit_breaker.h), and the serving-layer
// degradation contract they enable: transient shard faults are retried to
// success, persistent faults either fail the query or degrade it per
// QueryParams::allow_partial (survivors bit-exact), quarantined shards are
// skipped instantly, a migration killed at any protocol step leaves
// every source visible exactly once, and a killed replica change rolls
// back or forward without changing an answer. This binary is the
// "robustness" ctest label: tools/ci_sanitize.sh runs it under both TSan
// and ASan.

#include "common/fault_injection.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/random.h"
#include "core/engine.h"
#include "service/circuit_breaker.h"
#include "service/sharded_engine.h"
#include "storage/buffer_pool.h"
#include "storage/memory_storage.h"
#include "tests/test_util.h"

namespace imgrn {
namespace {

using testing_util::MakePlantedMatrix;

// --- ParseFaultSpec ------------------------------------------------------

TEST(ParseFaultSpecTest, ProbabilityRule) {
  Result<std::vector<FaultRule>> rules =
      ParseFaultSpec("buffer_pool.fetch=p0.25");
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  ASSERT_EQ(rules->size(), 1u);
  EXPECT_EQ((*rules)[0].site, "buffer_pool.fetch");
  EXPECT_EQ((*rules)[0].detail, FaultRule::kAnyDetail);
  EXPECT_DOUBLE_EQ((*rules)[0].probability, 0.25);
  EXPECT_EQ((*rules)[0].every_nth, 0u);
  EXPECT_EQ((*rules)[0].code, StatusCode::kUnavailable);
}

TEST(ParseFaultSpecTest, EveryNthWithDetailAndOptions) {
  Result<std::vector<FaultRule>> rules =
      ParseFaultSpec("shard.subquery#2=n3:x5:code=dataloss");
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  ASSERT_EQ(rules->size(), 1u);
  EXPECT_EQ((*rules)[0].site, "shard.subquery");
  EXPECT_EQ((*rules)[0].detail, 2);
  EXPECT_EQ((*rules)[0].every_nth, 3u);
  EXPECT_EQ((*rules)[0].max_fires, 5u);
  EXPECT_EQ((*rules)[0].code, StatusCode::kDataLoss);
}

TEST(ParseFaultSpecTest, MultipleRules) {
  Result<std::vector<FaultRule>> rules =
      ParseFaultSpec("migrate.copy=n1:x1,migrate.delete=n2");
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  ASSERT_EQ(rules->size(), 2u);
  EXPECT_EQ((*rules)[0].site, "migrate.copy");
  EXPECT_EQ((*rules)[1].site, "migrate.delete");
  EXPECT_EQ((*rules)[1].every_nth, 2u);
}

TEST(ParseFaultSpecTest, EmptySpecMeansNoRules) {
  Result<std::vector<FaultRule>> rules = ParseFaultSpec("");
  ASSERT_TRUE(rules.ok());
  EXPECT_TRUE(rules->empty());
}

TEST(ParseFaultSpecTest, MalformedSpecsRejected) {
  EXPECT_FALSE(ParseFaultSpec("no-equals").ok());
  EXPECT_FALSE(ParseFaultSpec("=n1").ok());            // Empty site.
  EXPECT_FALSE(ParseFaultSpec("s=q1").ok());           // Unknown trigger.
  EXPECT_FALSE(ParseFaultSpec("s=p").ok());            // Missing number.
  EXPECT_FALSE(ParseFaultSpec("s=n0").ok());           // Zero period.
  EXPECT_FALSE(ParseFaultSpec("s#abc=n1").ok());       // Bad detail.
  EXPECT_FALSE(ParseFaultSpec("s=n1:code=bogus").ok());
  EXPECT_FALSE(ParseFaultSpec("s=n1:y7").ok());        // Unknown option.
}

// --- FaultInjector -------------------------------------------------------

TEST(FaultInjectorTest, DisabledByDefaultCostsNothing) {
  EXPECT_FALSE(FaultInjector::Global().enabled());
  EXPECT_TRUE(CheckFault(fault_sites::kPagedFileRead, 7).ok());
}

TEST(FaultInjectorTest, EveryNthFiresDeterministically) {
  ScopedFaultInjection scoped(
      {{.site = "test.site", .every_nth = 3}});
  int fires = 0;
  for (int i = 0; i < 9; ++i) {
    if (!CheckFault("test.site").ok()) ++fires;
  }
  EXPECT_EQ(fires, 3);
  const FaultSiteStats stats = FaultInjector::Global().SiteStats("test.site");
  EXPECT_EQ(stats.evaluations, 9u);
  EXPECT_EQ(stats.fires, 3u);
}

TEST(FaultInjectorTest, DetailRestrictsTheRule) {
  ScopedFaultInjection scoped(
      {{.site = "test.site", .detail = 4, .every_nth = 1}});
  EXPECT_TRUE(CheckFault("test.site", 3).ok());
  EXPECT_FALSE(CheckFault("test.site", 4).ok());
  EXPECT_TRUE(CheckFault("test.site", FaultRule::kAnyDetail).ok());
}

TEST(FaultInjectorTest, PrefixWildcardMatchesSiteFamily) {
  ScopedFaultInjection scoped({{.site = "migrate.*", .every_nth = 1}});
  EXPECT_FALSE(CheckFault(fault_sites::kMigrateCopy, 0).ok());
  EXPECT_FALSE(CheckFault(fault_sites::kMigrateDelete, 0).ok());
  EXPECT_TRUE(CheckFault(fault_sites::kShardSubQuery, 0).ok());
}

TEST(FaultInjectorTest, MaxFiresModelsATransientOutage) {
  ScopedFaultInjection scoped(
      {{.site = "test.site", .every_nth = 1, .max_fires = 2}});
  EXPECT_FALSE(CheckFault("test.site").ok());
  EXPECT_FALSE(CheckFault("test.site").ok());
  EXPECT_TRUE(CheckFault("test.site").ok());  // The outage has passed.
  EXPECT_TRUE(CheckFault("test.site").ok());
}

TEST(FaultInjectorTest, InjectedCodeIsConfigurable) {
  ScopedFaultInjection scoped({{.site = "test.site",
                                .every_nth = 1,
                                .code = StatusCode::kDataLoss}});
  Status status = CheckFault("test.site", 11);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("test.site"), std::string::npos);
}

TEST(FaultInjectorTest, ProbabilityStreamIsSeededAndReproducible) {
  auto run = [](uint64_t seed) {
    std::vector<bool> fired;
    FaultInjector::Global().Seed(seed);
    FaultInjector::Global().Enable(
        {.site = "test.site", .probability = 0.5});
    for (int i = 0; i < 64; ++i) {
      fired.push_back(!CheckFault("test.site").ok());
    }
    FaultInjector::Global().Clear();
    return fired;
  };
  const std::vector<bool> a = run(123);
  const std::vector<bool> b = run(123);
  const std::vector<bool> c = run(987);
  EXPECT_EQ(a, b);   // Same seed, same fault sequence.
  EXPECT_NE(a, c);   // Different seed, different sequence.
  int fires = 0;
  for (bool f : a) fires += f;
  EXPECT_GT(fires, 16);  // p=0.5 over 64 draws: nowhere near 0 or 64.
  EXPECT_LT(fires, 48);
}

TEST(FaultInjectorTest, ScopedInjectionClearsOnDestruction) {
  {
    ScopedFaultInjection scoped({{.site = "test.site", .every_nth = 1}});
    EXPECT_TRUE(FaultInjector::Global().enabled());
  }
  EXPECT_FALSE(FaultInjector::Global().enabled());
  EXPECT_TRUE(CheckFault("test.site").ok());
}

// --- Storage fault points ------------------------------------------------

TEST(StorageFaultTest, PagedFileReadFaultSurfaces) {
  PagedFile file(64);
  PageId id = file.Allocate();
  ScopedFaultInjection scoped({{.site = fault_sites::kPagedFileRead,
                                .every_nth = 1,
                                .max_fires = 1}});
  Result<Page*> read = file.Read(id);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(file.Read(id).ok());  // Transient: next read succeeds.
}

TEST(StorageFaultTest, PagedFileWriteFaultFailsCommit) {
  PagedFile file(64);
  PageId id = file.Allocate();
  ScopedFaultInjection scoped(
      {{.site = fault_sites::kPagedFileWrite, .every_nth = 1}});
  EXPECT_FALSE(file.Commit(id).ok());
  EXPECT_FALSE(file.GetPage(id)->sealed());  // Failed write seals nothing.
}

TEST(StorageFaultTest, BufferPoolFetchFaultIsNotCached) {
  PagedFile file(64);
  PageId id = file.Allocate();
  BufferPool pool(&file, 2);
  {
    ScopedFaultInjection scoped({{.site = fault_sites::kBufferPoolFetch,
                                  .detail = static_cast<int64_t>(id),
                                  .every_nth = 1}});
    Result<Page*> fetched = pool.Fetch(id);
    ASSERT_FALSE(fetched.ok());
    EXPECT_EQ(fetched.status().code(), StatusCode::kUnavailable);
    EXPECT_FALSE(pool.IsResident(id));
  }
  EXPECT_TRUE(pool.Fetch(id).ok());  // Injection gone: page loads.
  EXPECT_TRUE(pool.IsResident(id));
}

// --- CircuitBreaker ------------------------------------------------------

// A breaker on a hand-cranked clock, threshold 2, 1ms cooldown.
struct BreakerFixture {
  std::atomic<int64_t> now_micros{0};
  CircuitBreaker breaker;

  BreakerFixture()
      : breaker([this] {
          CircuitBreakerOptions options;
          options.failure_threshold = 2;
          options.open_duration_micros = 1000;
          options.clock_micros = [this] { return now_micros.load(); };
          return options;
        }()) {}
};

TEST(CircuitBreakerTest, StaysClosedBelowThresholdAndSuccessResets) {
  BreakerFixture f;
  ASSERT_TRUE(f.breaker.AllowRequest());
  f.breaker.RecordFailure();
  ASSERT_TRUE(f.breaker.AllowRequest());
  f.breaker.RecordSuccess();  // Streak broken.
  ASSERT_TRUE(f.breaker.AllowRequest());
  f.breaker.RecordFailure();
  EXPECT_EQ(f.breaker.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, TripsOpenAtThresholdAndRejects) {
  BreakerFixture f;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(f.breaker.AllowRequest());
    f.breaker.RecordFailure();
  }
  EXPECT_EQ(f.breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(f.breaker.AllowRequest());
  EXPECT_FALSE(f.breaker.AllowRequest());
  EXPECT_EQ(f.breaker.rejections(), 2u);
}

TEST(CircuitBreakerTest, CooldownAdmitsOneProbeThenCloses) {
  BreakerFixture f;
  ASSERT_TRUE(f.breaker.AllowRequest());
  f.breaker.RecordFailure();
  ASSERT_TRUE(f.breaker.AllowRequest());
  f.breaker.RecordFailure();  // Open at t=0, until t=1000.
  f.now_micros = 999;
  EXPECT_FALSE(f.breaker.AllowRequest());
  f.now_micros = 1000;
  EXPECT_TRUE(f.breaker.AllowRequest());  // The probe.
  EXPECT_EQ(f.breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(f.breaker.AllowRequest());  // Only one probe at a time.
  f.breaker.RecordSuccess();
  EXPECT_EQ(f.breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(f.breaker.AllowRequest());
}

TEST(CircuitBreakerTest, FailedProbeReopensWithFreshCooldown) {
  BreakerFixture f;
  ASSERT_TRUE(f.breaker.AllowRequest());
  f.breaker.RecordFailure();
  ASSERT_TRUE(f.breaker.AllowRequest());
  f.breaker.RecordFailure();
  f.now_micros = 1500;
  ASSERT_TRUE(f.breaker.AllowRequest());  // Probe...
  f.breaker.RecordFailure();              // ...still sick.
  EXPECT_EQ(f.breaker.state(), CircuitBreaker::State::kOpen);
  f.now_micros = 2499;  // New cooldown runs from t=1500.
  EXPECT_FALSE(f.breaker.AllowRequest());
  f.now_micros = 2500;
  EXPECT_TRUE(f.breaker.AllowRequest());
}

TEST(CircuitBreakerTest, NeutralReleasesProbeWithoutVerdict) {
  BreakerFixture f;
  ASSERT_TRUE(f.breaker.AllowRequest());
  f.breaker.RecordFailure();
  ASSERT_TRUE(f.breaker.AllowRequest());
  f.breaker.RecordFailure();
  f.now_micros = 1000;
  ASSERT_TRUE(f.breaker.AllowRequest());  // Probe out.
  f.breaker.RecordNeutral();              // Caller cancelled: no verdict.
  EXPECT_EQ(f.breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(f.breaker.AllowRequest());  // Probe slot is free again.
}

// The probe-leak regression: an admitted half-open probe abandoned at ANY
// unwind point (early return, exception, teardown) used to leave
// probe_in_flight_ wedged true, after which every future probe was
// rejected and the shard could never close again. ProbeGuard's destructor
// now delivers the abandonment verdict. Each sub-case below drops the
// guard at a different point of the verdict protocol.
TEST(CircuitBreakerTest, AbandonedProbeGuardReleasesTheProbeSlot) {
  BreakerFixture f;
  ASSERT_TRUE(f.breaker.AllowRequest());
  f.breaker.RecordFailure();
  ASSERT_TRUE(f.breaker.AllowRequest());
  f.breaker.RecordFailure();  // Open at t=0.
  f.now_micros = 1000;

  // Drop point 1: guard destroyed with no verdict at all (the caller
  // unwound before the sub-query finished).
  ASSERT_TRUE(f.breaker.AllowRequest());
  { CircuitBreaker::ProbeGuard guard(&f.breaker); }
  EXPECT_EQ(f.breaker.state(), CircuitBreaker::State::kHalfOpen);
  ASSERT_TRUE(f.breaker.AllowRequest()) << "probe slot leaked at drop 1";

  // Drop point 2: guard destroyed after an explicit Neutral (double
  // delivery must not occur — the destructor sees delivered() and stays
  // out).
  {
    CircuitBreaker::ProbeGuard guard(&f.breaker);
    guard.Neutral();
    EXPECT_TRUE(guard.delivered());
  }
  ASSERT_TRUE(f.breaker.AllowRequest()) << "probe slot leaked at drop 2";

  // Drop point 3: guard destroyed by an exception unwinding through the
  // attempt.
  try {
    CircuitBreaker::ProbeGuard guard(&f.breaker);
    throw std::runtime_error("sub-query blew up");
  } catch (const std::runtime_error&) {
  }
  ASSERT_TRUE(f.breaker.AllowRequest()) << "probe slot leaked at drop 3";

  // Drop point 4: verdict delivered through the guard — Success closes
  // the breaker exactly as a bare RecordSuccess would, and the destructor
  // adds nothing on top.
  {
    CircuitBreaker::ProbeGuard guard(&f.breaker);
    guard.Success();
  }
  EXPECT_EQ(f.breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(f.breaker.AllowRequest());
}

TEST(CircuitBreakerTest, ProbeGuardFailureReopensLikeRecordFailure) {
  BreakerFixture f;
  ASSERT_TRUE(f.breaker.AllowRequest());
  f.breaker.RecordFailure();
  ASSERT_TRUE(f.breaker.AllowRequest());
  f.breaker.RecordFailure();
  f.now_micros = 1000;
  ASSERT_TRUE(f.breaker.AllowRequest());
  {
    CircuitBreaker::ProbeGuard guard(&f.breaker);
    guard.Failure();
  }
  EXPECT_EQ(f.breaker.state(), CircuitBreaker::State::kOpen);
  f.now_micros = 1999;  // Fresh cooldown from the failed probe.
  EXPECT_FALSE(f.breaker.AllowRequest());
  f.now_micros = 2000;
  EXPECT_TRUE(f.breaker.AllowRequest());
}

// Trip() is the quarantine entry point for out-of-band verdicts (the
// maintenance scrubber proving a replica's store corrupt): it must force
// open from EVERY state, start a fresh cooldown, and release a half-open
// probe slot so the post-cooldown probe is not blocked by a pre-trip
// attempt.
TEST(CircuitBreakerTest, TripForcesOpenFromEveryState) {
  // From closed.
  {
    BreakerFixture f;
    f.breaker.Trip();
    EXPECT_EQ(f.breaker.state(), CircuitBreaker::State::kOpen);
    EXPECT_FALSE(f.breaker.AllowRequest());
    f.now_micros = 1000;  // Cooldown from the trip.
    EXPECT_TRUE(f.breaker.AllowRequest());
  }
  // From open: the cooldown restarts from the trip time.
  {
    BreakerFixture f;
    ASSERT_TRUE(f.breaker.AllowRequest());
    f.breaker.RecordFailure();
    ASSERT_TRUE(f.breaker.AllowRequest());
    f.breaker.RecordFailure();  // Open at t=0, until t=1000.
    f.now_micros = 900;
    f.breaker.Trip();  // Until t=1900 now.
    f.now_micros = 1899;
    EXPECT_FALSE(f.breaker.AllowRequest());
    f.now_micros = 1900;
    EXPECT_TRUE(f.breaker.AllowRequest());
  }
  // From half-open with a probe in flight: the stale probe's slot is
  // released, so the post-cooldown probe is admitted.
  {
    BreakerFixture f;
    ASSERT_TRUE(f.breaker.AllowRequest());
    f.breaker.RecordFailure();
    ASSERT_TRUE(f.breaker.AllowRequest());
    f.breaker.RecordFailure();
    f.now_micros = 1000;
    ASSERT_TRUE(f.breaker.AllowRequest());  // Probe out, never resolved.
    f.breaker.Trip();
    EXPECT_EQ(f.breaker.state(), CircuitBreaker::State::kOpen);
    f.now_micros = 2000;
    EXPECT_TRUE(f.breaker.AllowRequest())
        << "trip must release the pre-trip probe slot";
    f.breaker.RecordSuccess();
    EXPECT_EQ(f.breaker.state(), CircuitBreaker::State::kClosed);
  }
}

// --- Serving-layer degradation ------------------------------------------

// This suite's planted-cluster database (see tests/test_util.h): shorter
// sample counts and different filler genes than the sharding suites, so a
// regression here cannot be masked by a stale golden from another binary.
constexpr testing_util::ClusterDatabaseConfig kFaultConfig = {
    .samples_base = 26, .samples_mod = 4, .filler_base = 40};

GeneMatrix FaultClusterMatrix(SourceId source) {
  return testing_util::MakeClusterMatrix(kFaultConfig, source);
}

GeneDatabase FaultDatabase(size_t num_sources) {
  return testing_util::MakeClusterDatabase(kFaultConfig, num_sources);
}

GeneMatrix FaultQueryMatrix() {
  return testing_util::MakeClusterQueryMatrix(8800, /*num_samples=*/30);
}

QueryParams FaultParams() { return testing_util::DefaultClusterParams(); }

void ExpectSameMatches(const std::vector<QueryMatch>& actual,
                       const std::vector<QueryMatch>& expected,
                       const std::string& context) {
  testing_util::ExpectIdenticalMatches(actual, expected, context);
}

class ServingFaultTest : public ::testing::Test {
 protected:
  static constexpr size_t kSources = 6;
  static constexpr size_t kShards = 3;

  void Build(ShardedEngineOptions options = {}) {
    options.num_shards = kShards;
    sharded_ = std::make_unique<ShardedEngine>(options);
    sharded_->LoadDatabase(FaultDatabase(kSources));
    ASSERT_TRUE(sharded_->BuildIndex().ok());

    reference_.LoadDatabase(FaultDatabase(kSources));
    ASSERT_TRUE(reference_.BuildIndex().ok());
    Result<std::vector<QueryMatch>> expected =
        reference_.Query(FaultQueryMatrix(), FaultParams());
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    expected_ = *expected;
    ASSERT_FALSE(expected_.empty());
  }

  std::unique_ptr<ShardedEngine> sharded_;
  ImGrnEngine reference_;
  std::vector<QueryMatch> expected_;
};

TEST_F(ServingFaultTest, TransientShardFaultIsRetriedToTheExactAnswer) {
  Build();
  // Shard 1 fails its first two sub-query attempts, then heals — inside
  // the default 3-attempt budget.
  ScopedFaultInjection scoped({{.site = fault_sites::kShardSubQuery,
                                .detail = 1,
                                .every_nth = 1,
                                .max_fires = 2}});
  QueryStats stats;
  Result<std::vector<QueryMatch>> result =
      sharded_->Query(FaultQueryMatrix(), FaultParams(), &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSameMatches(*result, expected_, "retried");
  EXPECT_EQ(stats.shard_retries, 2u);
  EXPECT_FALSE(stats.degraded);
}

TEST_F(ServingFaultTest, PersistentFaultFailsTheQueryWithoutAllowPartial) {
  Build();
  ScopedFaultInjection scoped({{.site = fault_sites::kShardSubQuery,
                                .detail = 1,
                                .every_nth = 1}});
  Result<std::vector<QueryMatch>> result =
      sharded_->Query(FaultQueryMatrix(), FaultParams());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

TEST_F(ServingFaultTest, AllowPartialDegradesToSurvivingShardsBitExact) {
  Build();
  const size_t kDownShard = 1;
  ScopedFaultInjection scoped({{.site = fault_sites::kShardSubQuery,
                                .detail = static_cast<int64_t>(kDownShard),
                                .every_nth = 1}});
  QueryParams params = FaultParams();
  params.allow_partial = true;
  QueryStats stats;
  Result<std::vector<QueryMatch>> result =
      sharded_->Query(FaultQueryMatrix(), params, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(stats.degraded);
  EXPECT_EQ(stats.failed_shards, std::vector<size_t>{kDownShard});
  // The degraded answer is the unsharded answer restricted to the sources
  // owned by surviving shards.
  std::vector<QueryMatch> surviving;
  for (const QueryMatch& match : expected_) {
    if (sharded_->ShardOf(match.source) != kDownShard) {
      surviving.push_back(match);
    }
  }
  ASSERT_LT(surviving.size(), expected_.size());  // The shard owned answers.
  ExpectSameMatches(*result, surviving, "degraded");
}

TEST_F(ServingFaultTest, EveryShardDownFailsEvenWithAllowPartial) {
  Build();
  ScopedFaultInjection scoped(
      {{.site = fault_sites::kShardSubQuery, .every_nth = 1}});
  QueryParams params = FaultParams();
  params.allow_partial = true;
  Result<std::vector<QueryMatch>> result =
      sharded_->Query(FaultQueryMatrix(), params);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

TEST_F(ServingFaultTest, DataLossDegradesButIsNeverRetried) {
  Build();
  ScopedFaultInjection scoped({{.site = fault_sites::kShardSubQuery,
                                .detail = 2,
                                .every_nth = 1,
                                .code = StatusCode::kDataLoss}});
  QueryParams params = FaultParams();
  params.allow_partial = true;
  QueryStats stats;
  Result<std::vector<QueryMatch>> result =
      sharded_->Query(FaultQueryMatrix(), params, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(stats.degraded);
  EXPECT_EQ(stats.shard_retries, 0u);  // Corruption is not transient.
}

TEST_F(ServingFaultTest, BreakerQuarantinesThenRecovers) {
  std::atomic<int64_t> now_micros{0};
  ShardedEngineOptions options;
  options.retry.max_attempts = 1;  // Isolate the breaker's behavior.
  options.breaker.failure_threshold = 2;
  options.breaker.open_duration_micros = 1000;
  options.breaker.clock_micros = [&now_micros] { return now_micros.load(); };
  Build(options);

  QueryParams params = FaultParams();
  params.allow_partial = true;
  {
    ScopedFaultInjection scoped({{.site = fault_sites::kShardSubQuery,
                                  .detail = 0,
                                  .every_nth = 1}});
    // Two failing queries trip shard 0's breaker...
    for (int i = 0; i < 2; ++i) {
      QueryStats stats;
      ASSERT_TRUE(sharded_->Query(FaultQueryMatrix(), params, &stats).ok());
      EXPECT_TRUE(stats.degraded);
    }
    ShardedEngineStatsSnapshot snapshot = sharded_->StatsSnapshot();
    EXPECT_EQ(snapshot.shards[0].replicas[0].breaker,
              CircuitBreaker::State::kOpen);
    // ...so the next query is turned away instantly (no attempt reaches
    // the fault site) yet still degrades cleanly.
    QueryStats stats;
    ASSERT_TRUE(sharded_->Query(FaultQueryMatrix(), params, &stats).ok());
    EXPECT_TRUE(stats.degraded);
    EXPECT_EQ(stats.failed_shards, std::vector<size_t>{0});
    EXPECT_GT(
        sharded_->StatsSnapshot().shards[0].replicas[0].breaker_rejections,
        0u);
  }
  // The shard heals and the cooldown expires: the probe query closes the
  // breaker and the full bit-exact answer returns.
  now_micros = 1000;
  QueryStats stats;
  Result<std::vector<QueryMatch>> result =
      sharded_->Query(FaultQueryMatrix(), params, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(stats.degraded);
  ExpectSameMatches(*result, expected_, "recovered");
  EXPECT_EQ(sharded_->StatsSnapshot().shards[0].replicas[0].breaker,
            CircuitBreaker::State::kClosed);
}

// --- Crash-safe migration ------------------------------------------------

// A plan that moves every source one shard to the right.
PartitionPlan RotatePlan(const ShardedEngine& engine) {
  PartitionPlan plan;
  plan.num_shards = engine.num_shards();
  for (SourceId i = 0; i < engine.num_sources(); ++i) {
    plan.shard_of.push_back(static_cast<uint32_t>(
        (engine.ShardOf(i) + 1) % engine.num_shards()));
  }
  return plan;
}

class MigrationFaultTest : public ServingFaultTest {
 protected:
  // Kills a rotate-everything Rebalance at `site`, then asserts the engine
  // still answers bit-exactly (every source visible on exactly one shard)
  // and that a subsequent clean Rebalance succeeds.
  void RunKilledMigration(const char* site, bool expect_failure = true) {
    Build();
    {
      ScopedFaultInjection scoped(
          {{.site = site, .every_nth = 1, .max_fires = 1}});
      Status status = sharded_->Rebalance(RotatePlan(*sharded_));
      if (expect_failure) {
        ASSERT_FALSE(status.ok()) << "fault at " << site << " not surfaced";
        EXPECT_EQ(status.code(), StatusCode::kUnavailable);
      }
    }
    Result<std::vector<QueryMatch>> after =
        sharded_->Query(FaultQueryMatrix(), FaultParams());
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    ExpectSameMatches(*after, expected_, std::string("after fault at ") + site);

    // The next migration (which runs the recovery sweep) must succeed and
    // stay bit-exact too.
    ASSERT_TRUE(sharded_->Rebalance(RotatePlan(*sharded_)).ok());
    Result<std::vector<QueryMatch>> recovered =
        sharded_->Query(FaultQueryMatrix(), FaultParams());
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    ExpectSameMatches(*recovered, expected_,
                      std::string("after recovery from ") + site);
  }
};

TEST_F(MigrationFaultTest, KilledAtCopyRollsBack) {
  RunKilledMigration(fault_sites::kMigrateCopy);
}

TEST_F(MigrationFaultTest, KilledAtPublishRollsBack) {
  RunKilledMigration(fault_sites::kMigratePublish);
}

TEST_F(MigrationFaultTest, KilledAtDrainRollsForward) {
  RunKilledMigration(fault_sites::kMigrateDrain);
}

TEST_F(MigrationFaultTest, KilledAtDeleteRollsForward) {
  RunKilledMigration(fault_sites::kMigrateDelete);
}

TEST_F(MigrationFaultTest, KilledAtCommitPublishRollsBackTheCopies) {
  // The publish site is evaluated twice per migration: before the
  // unchanged-ownership cutover (step 1) and before the commit point
  // (step 3). every_nth=2 skips the first and kills the second — after
  // every copy landed but before the new map became visible, the sharpest
  // rollback case.
  Build();
  const std::vector<uint32_t> before = [&] {
    std::vector<uint32_t> owners;
    for (SourceId i = 0; i < sharded_->num_sources(); ++i) {
      owners.push_back(static_cast<uint32_t>(sharded_->ShardOf(i)));
    }
    return owners;
  }();
  {
    ScopedFaultInjection scoped({{.site = fault_sites::kMigratePublish,
                                  .every_nth = 2,
                                  .max_fires = 1}});
    ASSERT_FALSE(sharded_->Rebalance(RotatePlan(*sharded_)).ok());
  }
  for (SourceId i = 0; i < sharded_->num_sources(); ++i) {
    EXPECT_EQ(sharded_->ShardOf(i), before[i]);  // Ownership untouched.
  }
  Result<std::vector<QueryMatch>> after =
      sharded_->Query(FaultQueryMatrix(), FaultParams());
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ExpectSameMatches(*after, expected_, "after commit-publish fault");
}

TEST_F(MigrationFaultTest, KilledAfterCommitRollsForwardToTheNewMap) {
  // The drain site's second evaluation sits right after Publish(next):
  // the commit point has passed, so the fault must roll FORWARD — the new
  // ownership stands and the stale old copies stay invisible.
  Build();
  const PartitionPlan plan = RotatePlan(*sharded_);
  {
    ScopedFaultInjection scoped({{.site = fault_sites::kMigrateDrain,
                                  .every_nth = 2,
                                  .max_fires = 1}});
    ASSERT_FALSE(sharded_->Rebalance(plan).ok());
  }
  for (SourceId i = 0; i < sharded_->num_sources(); ++i) {
    EXPECT_EQ(sharded_->ShardOf(i), plan.shard_of[i]);  // New map stands.
  }
  Result<std::vector<QueryMatch>> after =
      sharded_->Query(FaultQueryMatrix(), FaultParams());
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ExpectSameMatches(*after, expected_, "after post-commit fault");
  // The next migration sweeps the strays and stays bit-exact.
  ASSERT_TRUE(sharded_->Rebalance(RotatePlan(*sharded_)).ok());
  Result<std::vector<QueryMatch>> swept =
      sharded_->Query(FaultQueryMatrix(), FaultParams());
  ASSERT_TRUE(swept.ok());
  ExpectSameMatches(*swept, expected_, "after sweep");
}

TEST_F(MigrationFaultTest, MidCopyFaultRollsBackLaterSources) {
  // Fail the copy of the THIRD moving source: the first two copies must be
  // rolled back, not left as duplicate owners.
  Build();
  {
    ScopedFaultInjection scoped({{.site = fault_sites::kMigrateCopy,
                                  .every_nth = 3,
                                  .max_fires = 1}});
    ASSERT_FALSE(sharded_->Rebalance(RotatePlan(*sharded_)).ok());
  }
  Result<std::vector<QueryMatch>> after =
      sharded_->Query(FaultQueryMatrix(), FaultParams());
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ExpectSameMatches(*after, expected_, "after mid-copy fault");
}

// --- Replica changes and the shared topology-change step ----------------

// The four migrate.* sites in protocol order.
const std::vector<const char*> kMigrateSites = {
    fault_sites::kMigrateCopy, fault_sites::kMigratePublish,
    fault_sites::kMigrateDrain, fault_sites::kMigrateDelete};

// Runs `change` under rules that never fire and returns how often it
// evaluated each migrate.* site, in kMigrateSites order.
std::vector<uint64_t> MigrateEvaluations(
    const std::function<Status()>& change) {
  std::vector<FaultRule> rules;
  for (const char* site : kMigrateSites) {
    rules.push_back({.site = site, .every_nth = 1'000'000});
  }
  ScopedFaultInjection scoped(rules);
  const Status status = change();
  EXPECT_TRUE(status.ok()) << status.ToString();
  std::vector<uint64_t> counts;
  for (const char* site : kMigrateSites) {
    counts.push_back(FaultInjector::Global().SiteStats(site).evaluations);
  }
  return counts;
}

TEST(TopologyChangeFaultSitesTest, EvaluationCountsArePinned) {
  // MigrationFaultTest and the stress suite pick evaluations by every_nth,
  // so each change's count per site is part of its contract:
  // copy, publish, drain, delete.
  const size_t kSources = 12;
  ShardedEngineOptions options;
  options.num_shards = 3;
  ShardedEngine sharded(options);
  sharded.LoadDatabase(FaultDatabase(kSources));
  ASSERT_TRUE(sharded.BuildIndex().ok());

  // A rotation moves every source: a cutover publish and drain, a copy per
  // source, the commit publish and drain, a delete per source.
  EXPECT_EQ(MigrateEvaluations(
                [&] { return sharded.Rebalance(RotatePlan(sharded)); }),
            (std::vector<uint64_t>{kSources, 2, 2, kSources}));
  // Growing copies every shard's active sources and does not drain.
  EXPECT_EQ(MigrateEvaluations([&] { return sharded.SetReplicas(2); }),
            (std::vector<uint64_t>{kSources, 1, 0, 0}));
  // A rebuild copies the donor's active sources and drains.
  const uint64_t donor_sources = sharded.StatsSnapshot().shards[1].sources;
  EXPECT_EQ(MigrateEvaluations([&] { return sharded.RebuildReplica(1, 0); }),
            (std::vector<uint64_t>{donor_sources, 1, 1, 0}));
  // Shrinking copies nothing and drains.
  EXPECT_EQ(MigrateEvaluations([&] { return sharded.SetReplicas(1); }),
            (std::vector<uint64_t>{0, 1, 1, 0}));
}

// Replica changes killed by injected faults: before the publish they roll
// back (the published replicas stay the very same objects), after it they
// roll forward. Either way every replica keeps answering bit-exactly.
class ReplicaChangeFaultTest : public ServingFaultTest {
 protected:
  // The published replica objects, by shard (each named by its mutex).
  std::vector<std::vector<const void*>> PublishedReplicas() const {
    std::vector<std::vector<const void*>> replicas(sharded_->num_shards());
    for (size_t s = 0; s < replicas.size(); ++s) {
      for (size_t r = 0; r < sharded_->num_replicas(); ++r) {
        replicas[s].push_back(&sharded_->shard_mutex_for_testing(s, r));
      }
    }
    return replicas;
  }

  // One query per replica, so round-robin routing reaches each of them.
  void ExpectExactAnswers(const std::string& context) {
    for (size_t q = 0; q < sharded_->num_replicas(); ++q) {
      Result<std::vector<QueryMatch>> result =
          sharded_->Query(FaultQueryMatrix(), FaultParams());
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ExpectSameMatches(*result, expected_, context);
    }
  }
};

TEST_F(ReplicaChangeFaultTest, GrowKilledAtCopyRollsBack) {
  Build();
  const std::vector<std::vector<const void*>> before = PublishedReplicas();
  {
    ScopedFaultInjection scoped({{.site = fault_sites::kMigrateCopy,
                                  .every_nth = 3,
                                  .max_fires = 1}});
    EXPECT_EQ(sharded_->SetReplicas(2).code(), StatusCode::kUnavailable);
  }
  EXPECT_EQ(sharded_->num_replicas(), 1u);
  EXPECT_EQ(PublishedReplicas(), before);
  ExpectExactAnswers("after a killed grow");

  ASSERT_TRUE(sharded_->SetReplicas(2).ok());
  EXPECT_EQ(sharded_->num_replicas(), 2u);
  ExpectExactAnswers("after the retried grow");
}

TEST_F(ReplicaChangeFaultTest, RebuildKilledAtCopyRollsBack) {
  ShardedEngineOptions options;
  options.num_replicas = 2;
  Build(options);
  const std::vector<std::vector<const void*>> before = PublishedReplicas();
  {
    // Shard 1 holds two sources: the second copy fails after the first
    // landed, so the rollback has a copy to undo.
    ScopedFaultInjection scoped({{.site = fault_sites::kMigrateCopy,
                                  .every_nth = 2,
                                  .max_fires = 1}});
    EXPECT_EQ(sharded_->RebuildReplica(1, 0).code(),
              StatusCode::kUnavailable);
  }
  EXPECT_EQ(sharded_->num_replicas(), 2u);
  EXPECT_EQ(PublishedReplicas(), before);
  ExpectExactAnswers("after a killed rebuild");

  ASSERT_TRUE(sharded_->RebuildReplica(1, 0).ok());
  EXPECT_NE(PublishedReplicas()[1][0], before[1][0]);  // Replaced.
  EXPECT_EQ(PublishedReplicas()[1][1], before[1][1]);
  ExpectExactAnswers("after the retried rebuild");
}

TEST_F(ReplicaChangeFaultTest, ShrinkKilledAtDrainRollsForward) {
  ShardedEngineOptions options;
  options.num_replicas = 2;
  Build(options);
  {
    ScopedFaultInjection scoped({{.site = fault_sites::kMigrateDrain,
                                  .every_nth = 1,
                                  .max_fires = 1}});
    EXPECT_EQ(sharded_->SetReplicas(1).code(), StatusCode::kUnavailable);
  }
  // The publish had committed: the engine reads 1 replica everywhere, and
  // a grow after it gives its new shard that count, not the pre-fault 2.
  EXPECT_EQ(sharded_->num_replicas(), 1u);
  ASSERT_TRUE(sharded_->Resize(kShards + 1).ok());
  const ShardedEngineStatsSnapshot snapshot = sharded_->StatsSnapshot();
  ASSERT_EQ(snapshot.shards.size(), kShards + 1);
  for (const ShardStats& shard : snapshot.shards) {
    EXPECT_EQ(shard.replicas.size(), 1u) << "shard " << shard.shard;
  }
  ExpectExactAnswers("after a rolled-forward shrink");
}

}  // namespace
}  // namespace imgrn
