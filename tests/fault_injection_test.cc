// The fault-injection registry (common/fault_injection.h), the storage
// fault points, and the serving-layer contract it checks: a failed
// sub-query fails the whole sharded query and leaves the engine answering
// exactly. This binary is the "robustness" ctest label:
// tools/ci_sanitize.sh runs it under both TSan and ASan+UBSan.

#include "common/fault_injection.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "service/sharded_engine.h"
#include "storage/buffer_pool.h"
#include "storage/memory_storage.h"
#include "tests/test_util.h"

namespace imgrn {
namespace {

// --- FaultInjector -------------------------------------------------------

TEST(FaultInjectorTest, DisabledByDefaultCostsNothing) {
  EXPECT_FALSE(FaultInjector::Global().enabled());
  EXPECT_TRUE(CheckFault(fault_sites::kPagedFileRead, 7).ok());
}

TEST(FaultInjectorTest, EveryNthFiresDeterministically) {
  ScopedFaultInjection scoped(
      {{.site = fault_sites::kDiskRead, .every_nth = 3}});
  std::vector<int> fired;
  for (int i = 1; i <= 9; ++i) {
    if (!CheckFault(fault_sites::kDiskRead).ok()) fired.push_back(i);
  }
  EXPECT_EQ(fired, (std::vector<int>{3, 6, 9}));
}

TEST(FaultInjectorTest, DetailRestrictsTheRule) {
  ScopedFaultInjection scoped(
      {{.site = fault_sites::kDiskRead, .detail = 4, .every_nth = 1}});
  EXPECT_TRUE(CheckFault(fault_sites::kDiskRead, 3).ok());
  EXPECT_FALSE(CheckFault(fault_sites::kDiskRead, 4).ok());
  EXPECT_TRUE(CheckFault(fault_sites::kDiskRead, FaultRule::kAnyDetail).ok());
  EXPECT_TRUE(CheckFault(fault_sites::kDiskWrite, 4).ok());  // Other site.
}

TEST(FaultInjectorTest, MaxFiresModelsATransientOutage) {
  ScopedFaultInjection scoped(
      {{.site = fault_sites::kDiskRead, .every_nth = 1, .max_fires = 2}});
  EXPECT_FALSE(CheckFault(fault_sites::kDiskRead).ok());
  EXPECT_FALSE(CheckFault(fault_sites::kDiskRead).ok());
  // The outage has passed.
  EXPECT_TRUE(CheckFault(fault_sites::kDiskRead).ok());
  EXPECT_TRUE(CheckFault(fault_sites::kDiskRead).ok());
}

TEST(FaultInjectorTest, InjectedCodeIsConfigurable) {
  // A fired rule injects kUnavailable with a message naming the site and
  // the detail, for each of the six sites.
  const std::pair<fault_sites::Site, const char*> kSites[] = {
      {fault_sites::kPagedFileRead, "paged_file.read"},
      {fault_sites::kPagedFileWrite, "paged_file.write"},
      {fault_sites::kBufferPoolFetch, "buffer_pool.fetch"},
      {fault_sites::kDiskRead, "disk.read"},
      {fault_sites::kDiskWrite, "disk.write"},
      {fault_sites::kDiskSync, "disk.sync"}};
  for (const auto& [site, name] : kSites) {
    ScopedFaultInjection scoped({{.site = site, .every_nth = 1}});
    Status status = CheckFault(site, 11);
    EXPECT_EQ(status.code(), StatusCode::kUnavailable) << name;
    EXPECT_EQ(status.message(), std::string("injected fault at ") + name +
                                    "#11");
  }
}

TEST(FaultInjectorTest, ScopedInjectionClearsOnDestruction) {
  {
    ScopedFaultInjection scoped(
        {{.site = fault_sites::kDiskRead, .every_nth = 1}});
    EXPECT_TRUE(FaultInjector::Global().enabled());
  }
  EXPECT_FALSE(FaultInjector::Global().enabled());
  EXPECT_TRUE(CheckFault(fault_sites::kDiskRead).ok());
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
