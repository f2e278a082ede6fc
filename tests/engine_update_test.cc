// Incremental index maintenance (ImGrnEngine::AddMatrix / RemoveMatrix)
// and the top-k query policy.

#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "common/random.h"
#include "core/engine.h"
#include "tests/test_util.h"

namespace imgrn {
namespace {

using testing_util::MakePathQuery;
using testing_util::MakePlantedMatrix;

GeneMatrix ClusterMatrix(SourceId source, uint64_t seed,
                         GeneId filler_base) {
  Rng rng(seed);
  return MakePlantedMatrix(source, 32, {{1, 2, 3}},
                           {filler_base, filler_base + 1}, 0.97, &rng);
}

class EngineUpdateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GeneDatabase database;
    database.Add(ClusterMatrix(0, 100, 50));
    database.Add(ClusterMatrix(1, 101, 60));
    engine_.LoadDatabase(std::move(database));
    ASSERT_TRUE(engine_.BuildIndex().ok());
    params_.gamma = 0.5;
    params_.alpha = 0.3;
  }

  std::set<SourceId> QuerySources() {
    Result<std::vector<QueryMatch>> matches =
        engine_.QueryWithGraph(MakePathQuery({1, 2, 3}), params_);
    EXPECT_TRUE(matches.ok());
    std::set<SourceId> sources;
    for (const QueryMatch& match : *matches) sources.insert(match.source);
    return sources;
  }

  ImGrnEngine engine_;
  QueryParams params_;
};

TEST_F(EngineUpdateTest, AddMatrixBecomesQueryable) {
  EXPECT_EQ(QuerySources(), (std::set<SourceId>{0, 1}));
  ASSERT_TRUE(engine_.AddMatrix(ClusterMatrix(2, 102, 70)).ok());
  EXPECT_EQ(engine_.database().size(), 3u);
  EXPECT_EQ(QuerySources(), (std::set<SourceId>{0, 1, 2}));
  EXPECT_TRUE(engine_.index().rtree().Validate().ok());
}

TEST_F(EngineUpdateTest, AddMatrixRejectsWrongSourceId) {
  EXPECT_FALSE(engine_.AddMatrix(ClusterMatrix(5, 103, 70)).ok());
  EXPECT_EQ(engine_.database().size(), 2u);
}

// A matrix holding a NaN or ±Inf value, or no gene at all, is rejected with
// kInvalidArgument naming its source before the database changes: the
// answers stay the same and the id stays free for a valid matrix.
TEST_F(EngineUpdateTest, AddMatrixRejectsMatricesItCannotIndex) {
  std::vector<GeneMatrix> bad(3, ClusterMatrix(2, 102, 70));
  bad[0].At(0, 0) = std::numeric_limits<double>::quiet_NaN();
  bad[1].At(31, 4) = std::numeric_limits<double>::infinity();
  bad[2] = GeneMatrix(2, 32, {});
  for (GeneMatrix& matrix : bad) {
    const Status status = engine_.AddMatrix(std::move(matrix));
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("source 2"), std::string::npos)
        << status.message();
    EXPECT_EQ(engine_.database().size(), 2u);
    EXPECT_EQ(QuerySources(), (std::set<SourceId>{0, 1}));
  }
  ASSERT_TRUE(engine_.AddMatrix(ClusterMatrix(2, 102, 70)).ok());
  EXPECT_EQ(QuerySources(), (std::set<SourceId>{0, 1, 2}));
  EXPECT_TRUE(engine_.index().rtree().Validate().ok());
}

TEST_F(EngineUpdateTest, RemoveMatrixDisappearsFromResults) {
  ASSERT_TRUE(engine_.RemoveMatrix(0).ok());
  EXPECT_FALSE(engine_.index().IsActive(0));
  EXPECT_TRUE(engine_.index().IsActive(1));
  EXPECT_EQ(engine_.index().num_active(), 1u);
  EXPECT_EQ(QuerySources(), (std::set<SourceId>{1}));
  EXPECT_TRUE(engine_.index().rtree().Validate().ok());
}

// A removal frees what it retracts. The source's matrix becomes gene-less,
// keeping its id and sample count, and its embedded points and pivot
// vectors are released; its d pivot columns stay. The other sources'
// answers do not change. A rebuild could not re-index the freed source, so
// it is refused and the index keeps serving as it was.
TEST_F(EngineUpdateTest, RemoveMatrixFreesTheSourcesData) {
  ASSERT_TRUE(engine_.AddMatrix(ClusterMatrix(2, 102, 70)).ok());
  const GeneMatrix query_matrix = testing_util::MakeClusterQueryMatrix(106);
  Result<std::vector<QueryMatch>> before =
      engine_.Query(query_matrix, params_);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_EQ(before->size(), 3u);
  const std::vector<size_t> pivot_columns = engine_.index().pivots(1).columns;

  ASSERT_TRUE(engine_.RemoveMatrix(1).ok());
  const GeneMatrix& freed = engine_.database().matrix(1);
  EXPECT_EQ(freed.source_id(), 1u);
  EXPECT_EQ(freed.num_samples(), 32u);
  EXPECT_EQ(freed.num_genes(), 0u);
  EXPECT_TRUE(freed.data().empty());
  EXPECT_EQ(engine_.index().embedded_points(1).capacity(), 0u);
  EXPECT_EQ(engine_.index().pivots(1).vectors.capacity(), 0u);
  EXPECT_EQ(engine_.index().pivots(1).columns, pivot_columns);
  for (SourceId kept : {0u, 2u}) {
    EXPECT_EQ(engine_.database().matrix(kept).num_genes(), 5u);
    EXPECT_EQ(engine_.index().embedded_points(kept).size(), 5u);
    EXPECT_EQ(engine_.index().pivots(kept).vectors.size(),
              engine_.index().num_pivots());
  }

  std::vector<QueryMatch> expected;
  for (const QueryMatch& match : *before) {
    if (match.source != 1) expected.push_back(match);
  }
  Result<std::vector<QueryMatch>> after = engine_.Query(query_matrix, params_);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  testing_util::ExpectIdenticalMatches(*after, expected, "after the removal");

  const Status rebuilt = engine_.BuildIndex();
  EXPECT_EQ(rebuilt.code(), StatusCode::kFailedPrecondition)
      << rebuilt.ToString();
  EXPECT_FALSE(engine_.index().IsActive(1));
  Result<std::vector<QueryMatch>> again = engine_.Query(query_matrix, params_);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  testing_util::ExpectIdenticalMatches(*again, expected,
                                       "after the refused rebuild");
  EXPECT_TRUE(engine_.index().rtree().Validate().ok());
}

TEST_F(EngineUpdateTest, RemoveMatrixAffectsEdgelessQueriesToo) {
  ASSERT_TRUE(engine_.RemoveMatrix(1).ok());
  ProbGraph edgeless;
  edgeless.AddVertex(1);
  Result<std::vector<QueryMatch>> matches =
      engine_.QueryWithGraph(edgeless, params_);
  ASSERT_TRUE(matches.ok());
  ASSERT_EQ(matches->size(), 1u);
  EXPECT_EQ((*matches)[0].source, 0u);
}

TEST_F(EngineUpdateTest, DoubleRemoveRejected) {
  ASSERT_TRUE(engine_.RemoveMatrix(0).ok());
  EXPECT_FALSE(engine_.RemoveMatrix(0).ok());
}

TEST_F(EngineUpdateTest, RemoveUnknownSourceRejected) {
  EXPECT_FALSE(engine_.RemoveMatrix(7).ok());
}

TEST_F(EngineUpdateTest, RemoveThenAddNewSource) {
  ASSERT_TRUE(engine_.RemoveMatrix(0).ok());
  ASSERT_TRUE(engine_.AddMatrix(ClusterMatrix(2, 104, 80)).ok());
  EXPECT_EQ(QuerySources(), (std::set<SourceId>{1, 2}));
}

TEST_F(EngineUpdateTest, RemoveAllThenQueryYieldsNothing) {
  ASSERT_TRUE(engine_.RemoveMatrix(0).ok());
  ASSERT_TRUE(engine_.RemoveMatrix(1).ok());
  EXPECT_TRUE(QuerySources().empty());
  EXPECT_EQ(engine_.index().rtree().size(), 0u);
}

TEST_F(EngineUpdateTest, UpdatesBeforeBuildRejected) {
  ImGrnEngine fresh;
  EXPECT_FALSE(fresh.AddMatrix(ClusterMatrix(0, 105, 50)).ok());
  EXPECT_FALSE(fresh.RemoveMatrix(0).ok());
}

TEST_F(EngineUpdateTest, IncrementalEqualsBulkBuild) {
  // Index built incrementally should answer like a bulk-built one.
  ImGrnEngine bulk;
  {
    GeneDatabase database;
    database.Add(ClusterMatrix(0, 100, 50));
    database.Add(ClusterMatrix(1, 101, 60));
    database.Add(ClusterMatrix(2, 102, 70));
    bulk.LoadDatabase(std::move(database));
    ASSERT_TRUE(bulk.BuildIndex().ok());
  }
  ASSERT_TRUE(engine_.AddMatrix(ClusterMatrix(2, 102, 70)).ok());

  Result<std::vector<QueryMatch>> incremental =
      engine_.QueryWithGraph(MakePathQuery({1, 2, 3}), params_);
  Result<std::vector<QueryMatch>> bulk_matches =
      bulk.QueryWithGraph(MakePathQuery({1, 2, 3}), params_);
  ASSERT_TRUE(incremental.ok());
  ASSERT_TRUE(bulk_matches.ok());
  std::set<SourceId> a, b;
  for (const QueryMatch& match : *incremental) a.insert(match.source);
  for (const QueryMatch& match : *bulk_matches) b.insert(match.source);
  EXPECT_EQ(a, b);
}

TEST_F(EngineUpdateTest, TopKLimitsAndRanks) {
  ASSERT_TRUE(engine_.AddMatrix(ClusterMatrix(2, 102, 70)).ok());
  params_.top_k = 2;
  Result<std::vector<QueryMatch>> matches =
      engine_.QueryWithGraph(MakePathQuery({1, 2, 3}), params_);
  ASSERT_TRUE(matches.ok());
  ASSERT_EQ(matches->size(), 2u);
  EXPECT_GE((*matches)[0].probability, (*matches)[1].probability);

  // top_k larger than the answer count returns everything, ranked.
  params_.top_k = 100;
  matches = engine_.QueryWithGraph(MakePathQuery({1, 2, 3}), params_);
  ASSERT_TRUE(matches.ok());
  EXPECT_EQ(matches->size(), 3u);
  for (size_t i = 1; i < matches->size(); ++i) {
    EXPECT_GE((*matches)[i - 1].probability, (*matches)[i].probability);
  }
}

TEST(FinalizeMatchesTest, ZeroKeepsOrderAndAll) {
  std::vector<QueryMatch> matches(3);
  matches[0].source = 5;
  matches[0].probability = 0.2;
  matches[1].source = 1;
  matches[1].probability = 0.9;
  matches[2].source = 3;
  matches[2].probability = 0.5;
  FinalizeMatches(0, &matches);
  EXPECT_EQ(matches.size(), 3u);
  EXPECT_EQ(matches[0].source, 5u);  // Untouched.
}

TEST(FinalizeMatchesTest, RanksByProbabilityThenSource) {
  std::vector<QueryMatch> matches(3);
  matches[0].source = 5;
  matches[0].probability = 0.5;
  matches[1].source = 1;
  matches[1].probability = 0.9;
  matches[2].source = 3;
  matches[2].probability = 0.5;
  FinalizeMatches(2, &matches);
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0].source, 1u);
  EXPECT_EQ(matches[1].source, 3u);  // Tie broken by source id.
}

}  // namespace
}  // namespace imgrn
