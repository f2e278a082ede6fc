// The fault-injection registry (common/fault_injection.h) and its spec
// parser, and the serving-layer contracts it checks: a failed sub-query
// fails the whole sharded query and leaves the engine answering exactly,
// a migration killed at any protocol step leaves every source visible
// exactly once, and a killed replica change rolls back or forward without
// changing an answer. This binary is the "robustness" ctest label:
// tools/ci_sanitize.sh runs it under both TSan and ASan+UBSan.

#include "common/fault_injection.h"

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "core/engine.h"
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
      ParseFaultSpec("disk.read#2=n3:x5:code=dataloss");
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  ASSERT_EQ(rules->size(), 1u);
  EXPECT_EQ((*rules)[0].site, "disk.read");
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
  const char* const kMalformed[] = {
      "no-equals",
      "=n1",                        // Empty site.
      "disk.read=q1",               // Unknown trigger.
      "disk.read=p",                // Missing number.
      "disk.read=n0",               // Zero period.
      "disk.read#abc=n1",           // Bad detail.
      "disk.read=n1:code=bogus",
      "disk.read=n1:y7",            // Unknown option.
      "buffer_pool.fetc=n1",        // A site no code evaluates.
      "nosuch.*=n1",                // A prefix matching no site.
      "shard.subquery#1=n1",        // A site that is no longer wired.
      "buffer_pool.fetch=pnan",     // NaN passes p <= 0 and p > 1.
      "buffer_pool.fetch=n99999999999999999999",   // strtoll clamps these
      "buffer_pool.fetch#99999999999999999999=n1", // to LLONG_MAX.
  };
  for (const char* spec : kMalformed) {
    const Result<std::vector<FaultRule>> rules = ParseFaultSpec(spec);
    EXPECT_EQ(rules.status().code(), StatusCode::kInvalidArgument) << spec;
  }
  // The message names the rule, and for an unwired site the site too.
  const Status unwired = ParseFaultSpec("shard.subquery#1=n1").status();
  EXPECT_NE(unwired.message().find("'shard.subquery'"), std::string::npos)
      << unwired.message();
}

// True when `site` is wired, or a trailing-'*' prefix of a wired site.
bool NamesWiredSite(const std::string& site) {
  const bool wildcard = !site.empty() && site.back() == '*';
  const std::string_view pattern(site.data(),
                                 site.size() - (wildcard ? 1 : 0));
  for (std::string_view wired : fault_sites::kWired) {
    if (wildcard ? wired.starts_with(pattern) : wired == pattern) return true;
  }
  return false;
}

// Seeded mutation fuzzing of the spec parser: every mutant of a few valid
// specs (characters inserted, deleted and replaced from the grammar's
// alphabet) either parses into rules the injector can honour or is
// kInvalidArgument — never another code, a crash or UB (the robustness
// label runs this under ASan+UBSan).
TEST(ParseFaultSpecTest, SeededMutationsParseOrReject) {
  const std::vector<std::string> kSeeds = {
      "buffer_pool.fetch=p0.25",
      "disk.read#2=n3:x5:code=dataloss",
      "migrate.copy=n1:x1,migrate.delete=n2",
      "paged_file.*=p1:code=internal",
      "disk.sync#4=n1:x2:code=unavailable"};
  for (const std::string& seed : kSeeds) {
    ASSERT_TRUE(ParseFaultSpec(seed).ok()) << seed;
  }
  const std::string kAlphabet =
      "abcdefghijklmnopqrstuvwxyz_.*#=:,0123456789-+E ";
  constexpr int kMutants = 12000;
  Rng rng(20261018);
  int accepted = 0;
  for (int i = 0; i < kMutants; ++i) {
    std::string spec = kSeeds[rng.UniformUint64(kSeeds.size())];
    const int edits = 1 + static_cast<int>(rng.UniformUint64(2));
    for (int e = 0; e < edits; ++e) {
      const char c = kAlphabet[rng.UniformUint64(kAlphabet.size())];
      const size_t op = rng.UniformUint64(3);
      if (op == 0 || spec.empty()) {
        spec.insert(spec.begin() +
                        static_cast<ptrdiff_t>(
                            rng.UniformUint64(spec.size() + 1)),
                    c);
      } else if (op == 1) {
        spec.erase(rng.UniformUint64(spec.size()), 1);
      } else {
        spec[rng.UniformUint64(spec.size())] = c;
      }
    }
    const Result<std::vector<FaultRule>> rules = ParseFaultSpec(spec);
    if (!rules.ok()) {
      ASSERT_EQ(rules.status().code(), StatusCode::kInvalidArgument) << spec;
      continue;
    }
    ++accepted;
    for (const FaultRule& rule : *rules) {
      EXPECT_TRUE(NamesWiredSite(rule.site)) << spec;
      EXPECT_TRUE(rule.every_nth >= 1 ||
                  (rule.probability > 0.0 && rule.probability <= 1.0))
          << spec;
      EXPECT_TRUE(rule.detail == FaultRule::kAnyDetail || rule.detail >= 0)
          << spec;
    }
  }
  // Both outcomes occur often enough to matter: about 2% of these mutants
  // parse, most edits landing in a site name.
  EXPECT_GT(accepted, kMutants / 100);
  EXPECT_LT(accepted, kMutants - kMutants / 100);
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
  EXPECT_TRUE(CheckFault(fault_sites::kBufferPoolFetch, 0).ok());
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

// --- Serving-layer failures -----------------------------------------------

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

  void Build(ShardedEngineOptions options = {}, ThreadPool* pool = nullptr) {
    options.num_shards = kShards;
    sharded_ = std::make_unique<ShardedEngine>(options, pool);
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

// A sharded query fails whole, like one engine: a single failed fetch in
// one sub-query makes the query kUnavailable. The sub-query is not retried
// on its shard's other replica and no partial answer comes back; every
// sub-query is gathered first, and the next query answers exactly.
TEST_F(ServingFaultTest, OneFailedSubQueryFailsTheWholeQuery) {
  ThreadPool pool(2);
  ShardedEngineOptions options;
  options.num_replicas = 2;
  Build(options, &pool);
  {
    ScopedFaultInjection scoped({{.site = fault_sites::kBufferPoolFetch,
                                  .every_nth = 1,
                                  .max_fires = 1}});
    Result<std::vector<QueryMatch>> result =
        sharded_->Query(FaultQueryMatrix(), FaultParams());
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  }
  uint64_t errors = 0;
  for (const ShardStats& shard : sharded_->StatsSnapshot().shards) {
    for (const ReplicaStats& replica : shard.replicas) {
      EXPECT_EQ(replica.in_flight, 0u)
          << "shard " << shard.shard << " replica " << replica.replica;
      errors += replica.sub_query_errors;
    }
  }
  EXPECT_EQ(errors, 1u);

  Result<std::vector<QueryMatch>> next =
      sharded_->Query(FaultQueryMatrix(), FaultParams());
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  ExpectSameMatches(*next, expected_, "after the failed query");
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
