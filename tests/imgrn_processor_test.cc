#include "query/imgrn_processor.h"

#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "common/random.h"
#include "inference/grn_inference.h"
#include "tests/test_util.h"

namespace imgrn {
namespace {

using testing_util::MakePathQuery;
using testing_util::MakePlantedMatrix;

constexpr double kStrong = 0.97;

/// Database where matrices 0 and 2 contain the strongly-correlated cluster
/// {1,2,3}; matrix 1 contains the same GENES but uncorrelated; matrix 3
/// does not contain the query genes at all.
GeneDatabase MakeScenarioDatabase(uint64_t seed) {
  Rng rng(seed);
  GeneDatabase database;
  database.Add(
      MakePlantedMatrix(0, 40, {{1, 2, 3}}, {50, 51}, kStrong, &rng));
  database.Add(MakePlantedMatrix(1, 40, {}, {1, 2, 3, 52}, 0.0, &rng));
  database.Add(
      MakePlantedMatrix(2, 40, {{1, 2, 3}}, {53, 54, 55}, kStrong, &rng));
  database.Add(
      MakePlantedMatrix(3, 40, {{60, 61}}, {62, 63}, kStrong, &rng));
  return database;
}

ImGrnIndexOptions SmallIndexOptions() {
  ImGrnIndexOptions options;
  options.num_pivots = 2;
  options.embed_samples = 48;
  options.pivot_selection.global_iterations = 2;
  options.pivot_selection.swap_iterations = 6;
  // Small fanout so even this tiny database produces internal nodes and the
  // traversal path is exercised.
  options.rtree_max_entries = 6;
  return options;
}

class ProcessorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    database_ = MakeScenarioDatabase(7);
    index_ = std::make_unique<ImGrnIndex>(SmallIndexOptions());
    ASSERT_TRUE(index_->Build(&database_).ok());
    processor_ = std::make_unique<ImGrnQueryProcessor>(index_.get());
  }

  GeneDatabase database_;
  std::unique_ptr<ImGrnIndex> index_;
  std::unique_ptr<ImGrnQueryProcessor> processor_;
};

std::set<SourceId> Sources(const std::vector<QueryMatch>& matches) {
  std::set<SourceId> sources;
  for (const QueryMatch& match : matches) sources.insert(match.source);
  return sources;
}

TEST_F(ProcessorTest, FindsPlantedClusterMatrices) {
  const ProbGraph query = MakePathQuery({1, 2, 3});
  QueryParams params;
  params.gamma = 0.5;
  params.alpha = 0.3;
  QueryStats stats;
  Result<std::vector<QueryMatch>> matches =
      processor_->QueryWithGraph(query, params, &stats);
  ASSERT_TRUE(matches.ok());
  const std::set<SourceId> sources = Sources(*matches);
  EXPECT_TRUE(sources.contains(0));
  EXPECT_TRUE(sources.contains(2));
  EXPECT_FALSE(sources.contains(3));  // Genes absent.
  EXPECT_EQ(stats.answers, matches->size());
  EXPECT_EQ(stats.query_edges, 2u);
}

TEST_F(ProcessorTest, UncorrelatedMatrixRejected) {
  const ProbGraph query = MakePathQuery({1, 2, 3});
  QueryParams params;
  params.gamma = 0.8;  // Strict: the uncorrelated copy cannot pass.
  params.alpha = 0.5;
  Result<std::vector<QueryMatch>> matches =
      processor_->QueryWithGraph(query, params);
  ASSERT_TRUE(matches.ok());
  EXPECT_FALSE(Sources(*matches).contains(1));
}

TEST_F(ProcessorTest, MatchesReportProbabilityAboveAlpha) {
  const ProbGraph query = MakePathQuery({1, 2, 3});
  QueryParams params;
  params.gamma = 0.5;
  params.alpha = 0.4;
  Result<std::vector<QueryMatch>> matches =
      processor_->QueryWithGraph(query, params);
  ASSERT_TRUE(matches.ok());
  for (const QueryMatch& match : *matches) {
    EXPECT_GT(match.probability, params.alpha);
    EXPECT_LE(match.probability, 1.0);
    EXPECT_EQ(match.mapping.size(), 3u);
  }
}

TEST_F(ProcessorTest, MappingPointsAtCorrectGeneColumns) {
  const ProbGraph query = MakePathQuery({1, 2, 3});
  QueryParams params;
  params.gamma = 0.5;
  params.alpha = 0.3;
  Result<std::vector<QueryMatch>> matches =
      processor_->QueryWithGraph(query, params);
  ASSERT_TRUE(matches.ok());
  for (const QueryMatch& match : *matches) {
    const GeneMatrix& matrix = database_.matrix(match.source);
    for (const auto& [gene, column] : match.mapping) {
      EXPECT_EQ(matrix.gene_id(column), gene);
    }
  }
}

TEST_F(ProcessorTest, StatsReportTraversalAndIo) {
  const ProbGraph query = MakePathQuery({1, 2, 3});
  QueryParams params;
  params.gamma = 0.5;
  params.alpha = 0.3;
  QueryStats stats;
  ASSERT_TRUE(processor_->QueryWithGraph(query, params, &stats).ok());
  EXPECT_GT(stats.node_pairs_examined, 0u);
  EXPECT_GT(stats.page_fetches, 0u);
  EXPECT_GE(stats.page_fetches, stats.page_accesses);
  EXPECT_GT(stats.total_seconds, 0.0);
  EXPECT_GE(stats.candidate_matrices, stats.answers);
}

TEST_F(ProcessorTest, EdgelessQueryMatchesContainment) {
  ProbGraph query;
  query.AddVertex(1);
  query.AddVertex(2);
  QueryParams params;
  params.gamma = 0.5;
  params.alpha = 0.5;
  Result<std::vector<QueryMatch>> matches =
      processor_->QueryWithGraph(query, params);
  ASSERT_TRUE(matches.ok());
  // Matrices 0, 1, 2 contain genes 1 and 2; matrix 3 does not.
  EXPECT_EQ(Sources(*matches),
            (std::set<SourceId>{0, 1, 2}));
  for (const QueryMatch& match : *matches) {
    EXPECT_DOUBLE_EQ(match.probability, 1.0);
  }
}

TEST_F(ProcessorTest, UnknownGeneYieldsNoMatches) {
  const ProbGraph query = MakePathQuery({900, 901});
  QueryParams params;
  Result<std::vector<QueryMatch>> matches =
      processor_->QueryWithGraph(query, params);
  ASSERT_TRUE(matches.ok());
  EXPECT_TRUE(matches->empty());
}

TEST_F(ProcessorTest, InvalidParamsRejected) {
  const ProbGraph query = MakePathQuery({1, 2});
  QueryParams params;
  params.gamma = 1.0;
  EXPECT_FALSE(processor_->QueryWithGraph(query, params).ok());
  params.gamma = 0.5;
  params.alpha = -0.1;
  EXPECT_FALSE(processor_->QueryWithGraph(query, params).ok());
  ProbGraph empty;
  params.alpha = 0.5;
  EXPECT_FALSE(processor_->QueryWithGraph(empty, params).ok());

  // NaN lies outside [0, 1), and a Monte Carlo test needs a sample. Each
  // is rejected by both entry points.
  Rng rng(11);
  const GeneMatrix query_matrix =
      MakePlantedMatrix(0, 40, {{1, 2, 3}}, {}, kStrong, &rng);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int variant = 0; variant < 4; ++variant) {
    QueryParams bad;
    if (variant == 0) bad.gamma = nan;
    if (variant == 1) bad.alpha = nan;
    if (variant == 2) bad.query_num_samples = 0;
    if (variant == 3) bad.refine_num_samples = 0;
    EXPECT_EQ(processor_->QueryWithGraph(query, bad).status().code(),
              StatusCode::kInvalidArgument)
        << "variant " << variant;
    EXPECT_EQ(processor_->Query(query_matrix, bad).status().code(),
              StatusCode::kInvalidArgument)
        << "variant " << variant;
  }

  // So is a query matrix holding a NaN or ±Inf value.
  for (double value : {nan, std::numeric_limits<double>::infinity(),
                       -std::numeric_limits<double>::infinity()}) {
    GeneMatrix bad = query_matrix;
    bad.At(3, 1) = value;
    EXPECT_EQ(processor_->Query(bad, QueryParams{}).status().code(),
              StatusCode::kInvalidArgument)
        << value;
  }
}

TEST_F(ProcessorTest, PruningTogglesPreserveAnswers) {
  // All pruning is sound, so toggling it must not change the answer set
  // (same refinement seed -> same Monte Carlo estimates).
  const ProbGraph query = MakePathQuery({1, 2, 3});
  QueryParams all_on;
  all_on.gamma = 0.5;
  all_on.alpha = 0.3;
  QueryParams all_off = all_on;
  all_off.use_edge_pruning = false;
  all_off.use_pivot_pruning = false;
  all_off.use_index_pruning = false;
  all_off.use_graph_pruning = false;

  Result<std::vector<QueryMatch>> with =
      processor_->QueryWithGraph(query, all_on);
  Result<std::vector<QueryMatch>> without =
      processor_->QueryWithGraph(query, all_off);
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_EQ(Sources(*with), Sources(*without));
}

TEST_F(ProcessorTest, FullPipelineFromQueryMatrix) {
  // Extract the planted cluster columns of matrix 0 as the query matrix.
  const GeneMatrix& source = database_.matrix(0);
  std::vector<size_t> columns;
  for (GeneId gene : {1u, 2u, 3u}) {
    columns.push_back(static_cast<size_t>(source.ColumnOfGene(gene)));
  }
  Result<GeneMatrix> query_matrix = source.ExtractColumns(columns);
  ASSERT_TRUE(query_matrix.ok());

  QueryParams params;
  params.gamma = 0.5;
  params.alpha = 0.3;
  QueryStats stats;
  Result<std::vector<QueryMatch>> matches =
      processor_->Query(*query_matrix, params, &stats);
  ASSERT_TRUE(matches.ok());
  // Self-match: the matrix the query came from must be found.
  EXPECT_TRUE(Sources(*matches).contains(0));
  EXPECT_GT(stats.inference_seconds, 0.0);
}

TEST_F(ProcessorTest, HigherAlphaNeverAddsAnswers) {
  const ProbGraph query = MakePathQuery({1, 2, 3});
  QueryParams loose;
  loose.gamma = 0.5;
  loose.alpha = 0.1;
  QueryParams strict = loose;
  strict.alpha = 0.9;
  Result<std::vector<QueryMatch>> loose_matches =
      processor_->QueryWithGraph(query, loose);
  Result<std::vector<QueryMatch>> strict_matches =
      processor_->QueryWithGraph(query, strict);
  ASSERT_TRUE(loose_matches.ok());
  ASSERT_TRUE(strict_matches.ok());
  const std::set<SourceId> loose_sources = Sources(*loose_matches);
  for (SourceId source : Sources(*strict_matches)) {
    EXPECT_TRUE(loose_sources.contains(source));
  }
}

}  // namespace
}  // namespace imgrn
