#include "inference/grn_inference.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/random.h"
#include "query/imgrn_processor.h"
#include "tests/test_util.h"

namespace imgrn {
namespace {

using testing_util::MakePlantedMatrix;

TEST(GrnInferenceTest, VerticesCarryGeneLabels) {
  Rng rng(1);
  GeneMatrix matrix = MakePlantedMatrix(0, 30, {{10, 20}}, {30}, 0.9, &rng);
  ProbGraph grn = InferGrn(matrix, 0.5);
  ASSERT_EQ(grn.num_vertices(), 3u);
  EXPECT_EQ(grn.label(0), 10u);
  EXPECT_EQ(grn.label(1), 20u);
  EXPECT_EQ(grn.label(2), 30u);
}

TEST(GrnInferenceTest, AllInferredEdgesExceedGamma) {
  Rng rng(2);
  GeneMatrix matrix =
      MakePlantedMatrix(0, 40, {{1, 2, 3}}, {4, 5}, 0.9, &rng);
  const double gamma = 0.6;
  ProbGraph grn = InferGrn(matrix, gamma);
  for (const ProbEdge& edge : grn.edges()) {
    EXPECT_GT(edge.probability, gamma);
  }
}

TEST(GrnInferenceTest, PlantedClusterEdgesFound) {
  Rng rng(3);
  GeneMatrix matrix =
      MakePlantedMatrix(0, 80, {{1, 2}}, {3, 4}, 0.97, &rng);
  GrnInferenceOptions options;
  options.num_samples = 256;
  ProbGraph grn = InferGrn(matrix, 0.8, options);
  // Columns 0 and 1 share a strong factor: edge expected.
  EXPECT_TRUE(grn.HasEdge(0, 1));
}

TEST(GrnInferenceTest, HigherGammaInfersFewerEdges) {
  Rng rng(4);
  GeneMatrix matrix =
      MakePlantedMatrix(0, 50, {{1, 2, 3}, {4, 5}}, {6, 7, 8}, 0.8, &rng);
  GrnInferenceOptions options;
  options.seed = 55;
  GrnInferenceStats low_stats, high_stats;
  ProbGraph low = InferGrn(matrix, 0.2, options, &low_stats);
  ProbGraph high = InferGrn(matrix, 0.9, options, &high_stats);
  EXPECT_GE(low.num_edges(), high.num_edges());
}

TEST(GrnInferenceTest, StatsAddUp) {
  Rng rng(5);
  GeneMatrix matrix =
      MakePlantedMatrix(0, 30, {{1, 2}}, {3, 4, 5}, 0.9, &rng);
  GrnInferenceStats stats;
  InferGrn(matrix, 0.5, {}, &stats);
  EXPECT_EQ(stats.pairs_total, 5u * 4u / 2u);
  EXPECT_EQ(stats.pairs_total, stats.pairs_pruned + stats.pairs_estimated);
  EXPECT_LE(stats.edges_inferred, stats.pairs_estimated);
}

TEST(GrnInferenceTest, PruningNeverAddsEdges) {
  // With the same permutation seed, Lemma-3 pruning may only skip pairs the
  // bound certifies; every edge it keeps must match the unpruned run.
  Rng rng(6);
  GeneMatrix matrix = MakePlantedMatrix(0, 35, {{1, 2}, {3, 4}},
                                        {5, 6, 7}, 0.85, &rng);
  GrnInferenceOptions pruned_options;
  pruned_options.use_edge_pruning = true;
  pruned_options.seed = 99;
  GrnInferenceOptions unpruned_options = pruned_options;
  unpruned_options.use_edge_pruning = false;

  ProbGraph pruned = InferGrn(matrix, 0.5, pruned_options);
  ProbGraph unpruned = InferGrn(matrix, 0.5, unpruned_options);
  // Edges surviving with pruning form a subset of the unpruned edges.
  for (const ProbEdge& edge : pruned.edges()) {
    EXPECT_TRUE(unpruned.HasEdge(edge.u, edge.v));
  }
}

TEST(GrnInferenceTest, PruningSkipsWorkButKeepsStrongEdges) {
  // The Markov closed form sqrt(2l)/dist is >= 1/sqrt(2) for standardized
  // data (dist <= 2 sqrt(l)), so Lemma-3 pruning can only fire for
  // gamma > ~0.707, and only on strongly ANTI-correlated pairs (large
  // distance). Build such a pair explicitly: a column and its negation.
  Rng rng(7);
  const size_t l = 60;
  GeneMatrix matrix(0, l, {1, 2, 3, 4});
  for (size_t j = 0; j < l; ++j) {
    const double base = rng.Gaussian();
    matrix.At(j, 0) = base + 0.05 * rng.Gaussian();
    matrix.At(j, 1) = -base + 0.05 * rng.Gaussian();  // Anti-correlated.
    matrix.At(j, 2) = base + 0.05 * rng.Gaussian();   // Correlated with 0.
    matrix.At(j, 3) = rng.Gaussian();                 // Independent.
  }
  GrnInferenceOptions options;
  options.seed = 7;
  GrnInferenceStats with_pruning;
  ProbGraph grn = InferGrn(matrix, 0.85, options, &with_pruning);
  EXPECT_GT(with_pruning.pairs_pruned, 0u);  // (0,1) prunable at 0.85.
  EXPECT_TRUE(grn.HasEdge(0, 2));  // The strongly correlated pair survives.
}

TEST(GrnInferenceTest, DeterministicGivenSeed) {
  Rng rng(8);
  GeneMatrix matrix = MakePlantedMatrix(0, 30, {{1, 2, 3}}, {4}, 0.8, &rng);
  GrnInferenceOptions options;
  options.seed = 1234;
  ProbGraph a = InferGrn(matrix, 0.5, options);
  ProbGraph b = InferGrn(matrix, 0.5, options);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (size_t e = 0; e < a.edges().size(); ++e) {
    EXPECT_EQ(a.edges()[e].u, b.edges()[e].u);
    EXPECT_EQ(a.edges()[e].v, b.edges()[e].v);
    EXPECT_DOUBLE_EQ(a.edges()[e].probability, b.edges()[e].probability);
  }
}

TEST(GrnInferenceTest, SharedCacheMatchesFreshCache) {
  Rng rng(9);
  GeneMatrix matrix = MakePlantedMatrix(0, 25, {{1, 2}}, {3}, 0.9, &rng);
  GrnInferenceOptions options;
  options.seed = 321;
  ProbGraph direct = InferGrn(matrix, 0.4, options);
  PermutationCache cache(options.num_samples, options.seed);
  ProbGraph cached = InferGrnWithCache(matrix, 0.4, options, &cache);
  EXPECT_EQ(direct.num_edges(), cached.num_edges());
}

TEST(GrnInferenceDeathTest, GammaOutOfRangeAborts) {
  Rng rng(10);
  GeneMatrix matrix = MakePlantedMatrix(0, 20, {{1, 2}}, {}, 0.9, &rng);
  EXPECT_DEATH(InferGrn(matrix, 1.0), "Check failed");
  EXPECT_DEATH(InferGrn(matrix, -0.1), "Check failed");
}

class GammaSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(GammaSweepTest, EdgeProbabilitiesRespectThreshold) {
  Rng rng(11);
  GeneMatrix matrix =
      MakePlantedMatrix(0, 40, {{1, 2, 3}}, {4, 5}, 0.9, &rng);
  ProbGraph grn = InferGrn(matrix, GetParam());
  for (const ProbEdge& edge : grn.edges()) {
    EXPECT_GT(edge.probability, GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(Gammas, GammaSweepTest,
                         ::testing::Values(0.0, 0.2, 0.3, 0.5, 0.8, 0.9,
                                           0.99));

// A matrix of 4-12 genes over 8-40 samples: a planted cluster of random
// strength, anti-correlated partners of some of its genes, singletons, and
// about one constant column in six (standardized to zeros: no edge).
GeneMatrix MakeSweepMatrix(Rng* rng) {
  const size_t n = 4 + rng->UniformUint64(9);
  const size_t l = 8 + rng->UniformUint64(33);
  std::vector<GeneId> genes;
  for (size_t k = 0; k < n; ++k) genes.push_back(static_cast<GeneId>(k + 1));
  GeneMatrix matrix(0, l, genes);
  std::vector<double> factor(l);
  for (double& value : factor) value = rng->Gaussian();
  const double strength = rng->UniformDouble(0.2, 0.99);
  const double noise = std::sqrt(1.0 - strength * strength);
  for (size_t k = 0; k < n; ++k) {
    const uint64_t kind = rng->UniformUint64(6);
    for (size_t j = 0; j < l; ++j) {
      const double value = rng->Gaussian();
      if (kind == 0) {
        matrix.At(j, k) = -1.5;  // Constant column.
      } else if (kind <= 2) {
        matrix.At(j, k) = strength * factor[j] + noise * value;
      } else if (kind == 3) {
        matrix.At(j, k) = -strength * factor[j] + noise * value;
      } else {
        matrix.At(j, k) = value;
      }
    }
  }
  return matrix;
}

// The query graph (InferQueryGraph, decision-only counts) has exactly
// InferGrn's edges at the same gamma, sample count and seed, each with a
// probability > gamma and <= the full estimate; the vertices are the
// same. Swept over random matrices, gamma on the h/S grid (and off it),
// with and without a shared permutation table.
TEST(GrnInferenceTest, QueryGraphEdgeSetMatchesInferGrn) {
  Rng rng(12);
  PermutationTable table;
  size_t edges_seen = 0;
  size_t pairs_without_edge = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const GeneMatrix matrix = MakeSweepMatrix(&rng);
    QueryParams params;
    const size_t kSampleCounts[] = {16, 37, 64, 128};
    params.query_num_samples = kSampleCounts[trial % 4];
    params.seed = 1000 + static_cast<uint64_t>(trial);
    const double s = static_cast<double>(params.query_num_samples);
    const std::vector<double> gammas = {
        0.0, std::floor(s / 2.0) / s, (s - 1.0) / s,
        static_cast<double>(rng.UniformUint64(params.query_num_samples)) / s,
        rng.UniformDouble(0.0, 0.99)};
    for (double gamma : gammas) {
      params.gamma = gamma;
      GrnInferenceOptions options;
      options.num_samples = params.query_num_samples;
      options.seed = params.seed;
      const ProbGraph full = InferGrn(matrix, gamma, options);
      const std::string context =
          "trial " + std::to_string(trial) + " gamma " + std::to_string(gamma);
      for (PermutationTable* shared :
           {&table, static_cast<PermutationTable*>(nullptr)}) {
        const ProbGraph decided = InferQueryGraph(matrix, params, shared);
        ASSERT_EQ(decided.labels(), full.labels()) << context;
        ASSERT_EQ(decided.num_edges(), full.num_edges()) << context;
        for (size_t e = 0; e < full.num_edges(); ++e) {
          const ProbEdge& want = full.edges()[e];
          const ProbEdge& got = decided.edges()[e];
          EXPECT_EQ(got.u, want.u) << context;
          EXPECT_EQ(got.v, want.v) << context;
          EXPECT_GT(got.probability, gamma) << context;
          EXPECT_LE(got.probability, want.probability) << context;
        }
      }
      edges_seen += full.num_edges();
      const size_t n = matrix.num_genes();
      pairs_without_edge += n * (n - 1) / 2 - full.num_edges();
    }
  }
  EXPECT_GT(edges_seen, 0u);
  EXPECT_GT(pairs_without_edge, 0u);
}

// InferGrnEdgeSet against InferGrnWithCache with Lemma-3 pruning on and
// off: the same edges and the same pair counts.
TEST(GrnInferenceTest, EdgeSetMatchesFullInferenceWithAndWithoutPruning) {
  Rng rng(13);
  for (int trial = 0; trial < 20; ++trial) {
    const GeneMatrix matrix = MakeSweepMatrix(&rng);
    GrnInferenceOptions options;
    options.num_samples = 64;
    options.seed = 2000 + static_cast<uint64_t>(trial);
    options.use_edge_pruning = trial % 2 == 0;
    const double gamma = trial % 3 == 0 ? 0.8 : rng.UniformDouble(0.0, 0.99);
    PermutationCache cache(options.num_samples, options.seed);
    GrnInferenceStats full_stats, decided_stats;
    const ProbGraph full =
        InferGrnWithCache(matrix, gamma, options, &cache, &full_stats);
    const ProbGraph decided =
        InferGrnEdgeSet(matrix, gamma, options, &cache, &decided_stats);
    ASSERT_EQ(decided.num_edges(), full.num_edges()) << "trial " << trial;
    for (const ProbEdge& edge : full.edges()) {
      EXPECT_TRUE(decided.HasEdge(edge.u, edge.v)) << "trial " << trial;
      EXPECT_LE(decided.EdgeProbability(edge.u, edge.v), edge.probability);
    }
    EXPECT_EQ(decided_stats.pairs_total, full_stats.pairs_total);
    EXPECT_EQ(decided_stats.pairs_pruned, full_stats.pairs_pruned);
    EXPECT_EQ(decided_stats.pairs_estimated, full_stats.pairs_estimated);
    EXPECT_EQ(decided_stats.edges_inferred, full_stats.edges_inferred);
  }
}

}  // namespace
}  // namespace imgrn
