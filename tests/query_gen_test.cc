#include "datagen/query_gen.h"

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <vector>

#include "common/random.h"
#include "inference/grn_inference.h"
#include "inference/permutation_cache.h"
#include "tests/test_util.h"

namespace imgrn {
namespace {

using testing_util::MakePlantedMatrix;

GeneDatabase ClusteredDatabase(uint64_t seed) {
  Rng rng(seed);
  GeneDatabase database;
  for (SourceId i = 0; i < 4; ++i) {
    database.Add(MakePlantedMatrix(
        i, 30, {{1, 2, 3, 4, 5, 6}},
        {static_cast<GeneId>(100 + i)}, 0.95, &rng));
  }
  return database;
}

TEST(QueryGenTest, RejectsEmptyDatabase) {
  GeneDatabase empty;
  Rng rng(1);
  EXPECT_FALSE(ExtractQueryMatrix(empty, {}, &rng).ok());
}

TEST(QueryGenTest, ExtractsRequestedGeneCount) {
  GeneDatabase database = ClusteredDatabase(2);
  QueryGenConfig config;
  config.num_genes = 4;
  config.gamma = 0.5;
  Rng rng(3);
  Result<GeneMatrix> query = ExtractQueryMatrix(database, config, &rng);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_EQ(query->num_genes(), 4u);
  EXPECT_EQ(query->num_samples(), 30u);
}

TEST(QueryGenTest, QueryGenesComeFromOneMatrix) {
  GeneDatabase database = ClusteredDatabase(4);
  QueryGenConfig config;
  config.num_genes = 3;
  Rng rng(5);
  Result<GeneMatrix> query = ExtractQueryMatrix(database, config, &rng);
  ASSERT_TRUE(query.ok());
  // All query genes must exist together in at least one database matrix.
  bool found = false;
  for (const GeneMatrix& matrix : database.matrices()) {
    bool all = true;
    for (GeneId gene : query->gene_ids()) {
      if (matrix.ColumnOfGene(gene) < 0) {
        all = false;
        break;
      }
    }
    if (all) {
      found = true;
      break;
    }
  }
  EXPECT_TRUE(found);
}

TEST(QueryGenTest, InferredQueryIsConnected) {
  GeneDatabase database = ClusteredDatabase(6);
  QueryGenConfig config;
  config.num_genes = 4;
  config.gamma = 0.5;
  config.num_samples = 128;
  Rng rng(7);
  Result<GeneMatrix> query = ExtractQueryMatrix(database, config, &rng);
  ASSERT_TRUE(query.ok());
  GrnInferenceOptions options;
  options.num_samples = 256;
  const ProbGraph inferred = InferGrn(*query, config.gamma, options);
  EXPECT_TRUE(inferred.IsConnected()) << inferred.DebugString();
}

TEST(QueryGenTest, FailsWhenNoConnectedSetExists) {
  // Independent genes only: at a very strict gamma no 3-gene connected set
  // should be found.
  Rng data_rng(8);
  GeneDatabase database;
  database.Add(MakePlantedMatrix(0, 40, {}, {1, 2, 3, 4, 5}, 0.0,
                                 &data_rng));
  QueryGenConfig config;
  config.num_genes = 3;
  config.gamma = 0.995;
  config.max_attempts = 8;
  Rng rng(9);
  Result<GeneMatrix> query = ExtractQueryMatrix(database, config, &rng);
  EXPECT_FALSE(query.ok());
  EXPECT_EQ(query.status().code(), StatusCode::kNotFound);
}

// One gene is the smallest query: it always succeeds. Zero genes, a gamma
// outside [0, 1) or NaN, and a sample count outside
// [1, kMaxPermutationSamples] are rejected with kInvalidArgument before
// any draw from the caller's stream.
TEST(QueryGenTest, SingleGeneQueryAlwaysSucceeds) {
  GeneDatabase database = ClusteredDatabase(10);
  QueryGenConfig config;
  config.num_genes = 1;
  Rng rng(11);
  Result<GeneMatrix> query = ExtractQueryMatrix(database, config, &rng);
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->num_genes(), 1u);

  const Rng before = rng;
  std::vector<QueryGenConfig> rejected(7, config);
  rejected[0].num_genes = 0;
  rejected[1].gamma = -0.1;
  rejected[2].gamma = 1.0;
  rejected[3].gamma = 1.5;
  rejected[4].gamma = std::numeric_limits<double>::quiet_NaN();
  rejected[5].num_samples = 0;
  rejected[6].num_samples = kMaxPermutationSamples + 1;
  for (size_t i = 0; i < rejected.size(); ++i) {
    EXPECT_EQ(ExtractQueryMatrix(database, rejected[i], &rng).status().code(),
              StatusCode::kInvalidArgument)
        << "variant " << i;
  }
  Rng expected = before;
  EXPECT_EQ(rng.NextUint64(), expected.NextUint64());
}

TEST(QueryGenTest, DistinctGenesInQuery) {
  GeneDatabase database = ClusteredDatabase(12);
  QueryGenConfig config;
  config.num_genes = 5;
  Rng rng(13);
  Result<GeneMatrix> query = ExtractQueryMatrix(database, config, &rng);
  ASSERT_TRUE(query.ok());
  std::set<GeneId> unique(query->gene_ids().begin(),
                          query->gene_ids().end());
  EXPECT_EQ(unique.size(), 5u);
}

}  // namespace
}  // namespace imgrn
