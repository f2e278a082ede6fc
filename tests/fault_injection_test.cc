// The fault-injection registry (common/fault_injection.h) and its spec
// parser, the storage fault points, and the serving-layer contract it
// checks: a failed sub-query fails the whole sharded query and leaves the
// engine answering exactly. This binary is the "robustness" ctest label:
// tools/ci_sanitize.sh runs it under both TSan and ASan+UBSan.

#include "common/fault_injection.h"

#include <gtest/gtest.h>

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
      ParseFaultSpec("disk.write=n1:x1,disk.sync=n2");
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  ASSERT_EQ(rules->size(), 2u);
  EXPECT_EQ((*rules)[0].site, "disk.write");
  EXPECT_EQ((*rules)[1].site, "disk.sync");
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
      "shard.subquery#1=n1",        // Sites that are no longer wired.
      "migrate.copy=n1",
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
      "disk.write=n1:x1,disk.sync=n2",
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
  ScopedFaultInjection scoped({{.site = "disk.*", .every_nth = 1}});
  EXPECT_FALSE(CheckFault(fault_sites::kDiskRead, 0).ok());
  EXPECT_FALSE(CheckFault(fault_sites::kDiskSync, 0).ok());
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

}  // namespace
}  // namespace imgrn
