#include "core/engine.h"

#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "common/random.h"
#include "tests/test_util.h"

namespace imgrn {
namespace {

using testing_util::MakePathQuery;
using testing_util::MakePlantedMatrix;

GeneDatabase MakeDatabase(uint64_t seed) {
  Rng rng(seed);
  GeneDatabase database;
  database.Add(MakePlantedMatrix(0, 30, {{1, 2, 3}}, {10}, 0.97, &rng));
  database.Add(MakePlantedMatrix(1, 30, {{1, 2, 3}}, {11, 12}, 0.97, &rng));
  database.Add(MakePlantedMatrix(2, 30, {{20, 21}}, {22}, 0.97, &rng));
  return database;
}

TEST(EngineTest, QueryBeforeBuildFails) {
  ImGrnEngine engine;
  const ProbGraph query = MakePathQuery({1, 2});
  EXPECT_FALSE(engine.QueryWithGraph(query, {}).ok());
}

TEST(EngineTest, BuildWithoutDatabaseFails) {
  ImGrnEngine engine;
  EXPECT_FALSE(engine.BuildIndex().ok());
}

// A matrix holding a NaN or ±Inf value, or no gene at all, fails the build
// with kInvalidArgument naming its source, before anything is built.
TEST(EngineTest, BuildIndexRejectsMatricesItCannotIndex) {
  for (int variant = 0; variant < 4; ++variant) {
    GeneDatabase database = MakeDatabase(1);
    GeneMatrix bad(3, 30, {30, 31});
    if (variant == 0) bad.At(4, 1) = std::numeric_limits<double>::quiet_NaN();
    if (variant == 1) bad.At(0, 0) = std::numeric_limits<double>::infinity();
    if (variant == 2) bad.At(29, 1) = -std::numeric_limits<double>::infinity();
    if (variant == 3) bad = GeneMatrix(3, 30, {});
    database.Add(std::move(bad));
    ImGrnEngine engine;
    engine.LoadDatabase(std::move(database));
    const Status status = engine.BuildIndex();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << "variant " << variant;
    EXPECT_NE(status.message().find("source 3"), std::string::npos)
        << status.message();
    EXPECT_FALSE(engine.has_index());
  }
}

// A node capacity above what one page holds would build, then abort in the
// first snapshot save whose node outgrows its page; the build rejects it.
TEST(EngineTest, BuildIndexRejectsNodeCapacityAboveAPage) {
  EngineOptions options;
  options.index.rtree_max_entries = 4000;
  ImGrnEngine engine(options);
  engine.LoadDatabase(MakeDatabase(7));
  const Status status = engine.BuildIndex();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_FALSE(engine.has_index());
}

// Index options the index cannot be built with — embed_samples outside
// [1, kMaxPermutationSamples], no pivot, signatures under 8 bits or 1
// hash, an empty buffer pool, entries wider than a page — fail the build
// with kInvalidArgument.
TEST(EngineTest, BuildIndexRejectsEmbedSamplesOutsideTheCap) {
  for (int variant = 0; variant < 9; ++variant) {
    SCOPED_TRACE(variant);
    EngineOptions options;
    if (variant == 0) options.index.embed_samples = 0;
    if (variant == 1) {
      options.index.embed_samples = kMaxPermutationSamples + 1;
    }
    if (variant == 2) options.index.num_pivots = 0;
    if (variant == 3) options.index.signature_bits = 7;
    if (variant == 4) options.index.signature_hashes = 0;
    if (variant == 5) options.index.buffer_pool_pages = 0;
    // Entries wider than a page, at sizes whose 2d+1 dimensions or
    // signature bytes would wrap if formed unchecked.
    if (variant == 6) options.index.num_pivots = size_t{1} << 62;
    if (variant == 7) options.index.num_pivots = size_t{1} << 63;
    if (variant == 8) {
      options.index.signature_bits = std::numeric_limits<size_t>::max();
    }
    ImGrnEngine engine(options);
    engine.LoadDatabase(MakeDatabase(7));
    const Status status = engine.BuildIndex();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
    if (variant >= 6) {
      EXPECT_NE(status.message().find("num_pivots="), std::string::npos)
          << status.message();
    }
    EXPECT_FALSE(engine.has_index());
  }
}

TEST(EngineTest, BuildAndQueryEndToEnd) {
  ImGrnEngine engine;
  engine.LoadDatabase(MakeDatabase(1));
  ASSERT_TRUE(engine.BuildIndex().ok());
  EXPECT_TRUE(engine.has_index());

  QueryParams params;
  params.gamma = 0.5;
  params.alpha = 0.3;
  QueryStats stats;
  Result<std::vector<QueryMatch>> matches =
      engine.QueryWithGraph(MakePathQuery({1, 2, 3}), params, &stats);
  ASSERT_TRUE(matches.ok());
  std::set<SourceId> sources;
  for (const QueryMatch& match : *matches) sources.insert(match.source);
  EXPECT_TRUE(sources.contains(0));
  EXPECT_TRUE(sources.contains(1));
  EXPECT_FALSE(sources.contains(2));
}

TEST(EngineTest, RepeatedLabelQueryGraphRejected) {
  // A GRN holds each gene once; a query graph naming gene 1 twice is not
  // one, so it is refused before any work rather than matched.
  ImGrnEngine engine;
  engine.LoadDatabase(MakeDatabase(1));
  ASSERT_TRUE(engine.BuildIndex().ok());
  ProbGraph query;
  query.AddVertex(1);
  query.AddVertex(2);
  query.AddVertex(1);
  query.AddEdge(0, 1, 1.0);
  query.AddEdge(1, 2, 1.0);
  QueryParams params;
  params.gamma = 0.5;
  params.alpha = 0.3;
  EXPECT_EQ(engine.QueryWithGraph(query, params).status().code(),
            StatusCode::kInvalidArgument);
  // Edgeless, the repeat is refused all the same.
  ProbGraph edgeless;
  edgeless.AddVertex(3);
  edgeless.AddVertex(3);
  EXPECT_EQ(engine.QueryWithGraph(edgeless, params).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineTest, QueryFromMatrixEndToEnd) {
  ImGrnEngine engine;
  engine.LoadDatabase(MakeDatabase(2));
  ASSERT_TRUE(engine.BuildIndex().ok());
  // Build a query matrix from matrix 0's cluster columns.
  const GeneMatrix& matrix = engine.database().matrix(0);
  std::vector<size_t> columns;
  for (GeneId gene : {1u, 2u, 3u}) {
    columns.push_back(static_cast<size_t>(matrix.ColumnOfGene(gene)));
  }
  Result<GeneMatrix> query = matrix.ExtractColumns(columns);
  ASSERT_TRUE(query.ok());
  QueryParams params;
  params.gamma = 0.5;
  params.alpha = 0.3;
  Result<std::vector<QueryMatch>> matches = engine.Query(*query, params);
  ASSERT_TRUE(matches.ok());
  EXPECT_FALSE(matches->empty());
}

TEST(EngineTest, LoadDatabaseInvalidatesIndex) {
  ImGrnEngine engine;
  engine.LoadDatabase(MakeDatabase(3));
  ASSERT_TRUE(engine.BuildIndex().ok());
  engine.LoadDatabase(MakeDatabase(4));
  EXPECT_FALSE(engine.has_index());
  EXPECT_FALSE(engine.QueryWithGraph(MakePathQuery({1, 2}), {}).ok());
}

TEST(EngineTest, IndexAccessorExposesStats) {
  ImGrnEngine engine;
  engine.LoadDatabase(MakeDatabase(5));
  ASSERT_TRUE(engine.BuildIndex().ok());
  EXPECT_GT(engine.index().build_seconds(), 0.0);
  EXPECT_EQ(engine.index().rtree().size(),
            engine.database().TotalGeneVectors());
}

TEST(EngineTest, CustomIndexOptionsPropagate) {
  EngineOptions options;
  options.index.num_pivots = 3;
  ImGrnEngine engine(options);
  engine.LoadDatabase(MakeDatabase(6));
  ASSERT_TRUE(engine.BuildIndex().ok());
  EXPECT_EQ(engine.index().dims(), 7u);
}

}  // namespace
}  // namespace imgrn
