// Coverage of the QueryStats counters the benches report: every counter
// must be populated consistently by the Fig.-4 traversal, the per-source
// breakdown must list exactly the refined candidates, and the generator's
// planted edges must be statistically recoverable end-to-end.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <ostream>
#include <set>
#include <string>

#include "common/random.h"
#include "core/engine.h"
#include "datagen/synthetic.h"
#include "inference/grn_inference.h"
#include "query/imgrn_processor.h"
#include "service/sharded_engine.h"
#include "tests/test_util.h"

namespace imgrn {
namespace {

using testing_util::MakePathQuery;
using testing_util::MakePlantedMatrix;

class QueryStatsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(31);
    for (SourceId i = 0; i < 10; ++i) {
      std::vector<GeneId> singletons = {static_cast<GeneId>(300 + 2 * i),
                                        static_cast<GeneId>(301 + 2 * i)};
      database_.Add(
          MakePlantedMatrix(i, 30, {{1, 2, 3}}, singletons, 0.95, &rng));
    }
    ImGrnIndexOptions options;
    options.num_pivots = 2;
    options.embed_samples = 32;
    options.rtree_max_entries = 6;  // Deep tree -> internal traversal.
    options.pivot_selection.global_iterations = 1;
    options.pivot_selection.swap_iterations = 4;
    index_ = std::make_unique<ImGrnIndex>(options);
    ASSERT_TRUE(index_->Build(&database_).ok());
    processor_ = std::make_unique<ImGrnQueryProcessor>(index_.get());
  }

  GeneDatabase database_;
  std::unique_ptr<ImGrnIndex> index_;
  std::unique_ptr<ImGrnQueryProcessor> processor_;
};

TEST_F(QueryStatsTest, TraversalCountersConsistent) {
  QueryParams params;
  params.gamma = 0.5;
  params.alpha = 0.3;
  QueryStats stats;
  ASSERT_TRUE(processor_
                  ->QueryWithGraph(MakePathQuery({1, 2, 3}), params, &stats)
                  .ok());
  EXPECT_GT(stats.node_pairs_examined, 0u);
  EXPECT_LE(stats.node_pairs_pruned_signature + stats.node_pairs_pruned_index,
            stats.node_pairs_examined);
  // The gene-range/signature checks must reject most pairs: the anchor
  // gene lives in a narrow slice of the gene-ID dimension.
  EXPECT_GT(stats.node_pairs_pruned_signature, 0u);
  EXPECT_GT(stats.leaf_pairs_examined, 0u);
  EXPECT_GE(stats.leaf_pairs_examined, stats.candidate_pairs);
  EXPECT_GE(stats.candidate_pairs, stats.candidate_matrices > 0 ? 1u : 0u);
  EXPECT_GE(stats.candidate_matrices, stats.answers);
  EXPECT_GT(stats.page_fetches, 0u);
  EXPECT_GE(stats.page_fetches, stats.page_accesses);
  EXPECT_GE(stats.traversal_seconds, 0.0);
  EXPECT_GE(stats.refinement_seconds, 0.0);
  EXPECT_GE(stats.total_seconds,
            stats.traversal_seconds + stats.refinement_seconds - 1e-9);
}

TEST_F(QueryStatsTest, ColdVsWarmCacheIoDiffers) {
  QueryParams params;
  params.gamma = 0.5;
  params.alpha = 0.3;
  const ProbGraph query = MakePathQuery({1, 2, 3});
  index_->mutable_rtree().FlushBufferPool();
  QueryStats cold;
  ASSERT_TRUE(processor_->QueryWithGraph(query, params, &cold).ok());
  QueryStats warm;
  ASSERT_TRUE(processor_->QueryWithGraph(query, params, &warm).ok());
  // The second run touches only resident pages.
  EXPECT_LE(warm.page_accesses, cold.page_accesses);
  EXPECT_EQ(warm.page_fetches, cold.page_fetches);
}

TEST_F(QueryStatsTest, UnknownAnchorPrunesEverythingAtNodeLevel) {
  QueryParams params;
  params.gamma = 0.5;
  params.alpha = 0.3;
  QueryStats stats;
  Result<std::vector<QueryMatch>> matches = processor_->QueryWithGraph(
      MakePathQuery({5000, 5001}), params, &stats);
  ASSERT_TRUE(matches.ok());
  EXPECT_TRUE(matches->empty());
  EXPECT_EQ(stats.candidate_pairs, 0u);
  EXPECT_EQ(stats.leaf_pairs_examined, 0u);
}

// --- Per-source breakdown --------------------------------------------------
//
// perfbench's traced replay reads the candidate sources of a query from
// QueryStats::source_costs, so its contract is pinned here: with
// collect_source_costs set, ImGrnEngine lists every refined candidate
// matrix exactly once, in ascending source order; without it the list is
// empty; and ShardedEngine, which does not attribute, leaves it empty
// either way.

// Even sources carry the queried cluster {1, 2, 3}; odd sources carry an
// unrelated cluster, so the traversal prunes some sources entirely.
GeneDatabase MakeMixedDatabase() {
  GeneDatabase database;
  for (SourceId s = 0; s < 8; ++s) {
    Rng rng(4100 + s);
    const GeneId base = s % 2 == 0 ? 1 : 201;
    database.Add(MakePlantedMatrix(
        s, 28 + 2 * (s % 3), {{base, base + 1, base + 2}},
        {static_cast<GeneId>(400 + 2 * s), static_cast<GeneId>(401 + 2 * s)},
        0.97, &rng));
  }
  return database;
}

TEST(SourceCostsTest, EngineListsEachRefinedCandidateOnceAscending) {
  ImGrnEngine engine;
  engine.LoadDatabase(MakeMixedDatabase());
  ASSERT_TRUE(engine.BuildIndex().ok());
  const GeneMatrix query = testing_util::MakeClusterQueryMatrix(4200);
  QueryParams params = testing_util::DefaultClusterParams();

  QueryStats plain;
  Result<std::vector<QueryMatch>> expected =
      engine.Query(query, params, &plain);
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(plain.source_costs.empty());

  params.collect_source_costs = true;
  QueryStats costed;
  Result<std::vector<QueryMatch>> matches =
      engine.Query(query, params, &costed);
  ASSERT_TRUE(matches.ok());
  testing_util::ExpectIdenticalMatches(*matches, *expected, "costed");
  EXPECT_GT(costed.candidate_matrices, 0u);
  EXPECT_LT(costed.candidate_matrices, engine.database().size());
  ASSERT_EQ(costed.source_costs.size(), costed.candidate_matrices);
  for (size_t i = 0; i < costed.source_costs.size(); ++i) {
    const SourceCostSample& sample = costed.source_costs[i];
    if (i > 0) {
      EXPECT_LT(costed.source_costs[i - 1].source, sample.source);
    }
    EXPECT_GT(sample.candidate_pairs, 0u) << "source " << sample.source;
    EXPECT_GE(sample.seconds, 0.0) << "source " << sample.source;
  }
  // Every answer was refined, so it is listed.
  for (const QueryMatch& match : *matches) {
    EXPECT_TRUE(std::any_of(
        costed.source_costs.begin(), costed.source_costs.end(),
        [&match](const SourceCostSample& sample) {
          return sample.source == match.source;
        }))
        << "answer " << match.source;
  }
}

TEST(SourceCostsTest, ShardedEngineLeavesTheBreakdownEmpty) {
  ShardedEngine sharded(testing_util::MakeShardedOptions(/*num_shards=*/3));
  sharded.LoadDatabase(MakeMixedDatabase());
  ASSERT_TRUE(sharded.BuildIndex().ok());
  const GeneMatrix query = testing_util::MakeClusterQueryMatrix(4200);
  QueryParams params = testing_util::DefaultClusterParams();
  for (const bool collect : {false, true}) {
    params.collect_source_costs = collect;
    QueryStats stats;
    ASSERT_TRUE(sharded.Query(query, params, &stats).ok());
    EXPECT_GT(stats.candidate_matrices, 0u) << "collect=" << collect;
    EXPECT_TRUE(stats.source_costs.empty()) << "collect=" << collect;
  }
}

// --- Traversal counters pinned to exact totals ----------------------------
//
// Every QueryStats counter of the Fig.-4 traversal, the I/O it causes and
// the answers it leads to, summed over a fixed workload and compared with
// constants captured from the nested per-child-pair traversal. A rewrite
// of TraverseIndex must reproduce them exactly: same prune decisions, same
// queue order (so the same page fetches and buffer-pool misses), same
// candidates, same answers.

struct TraversalTotals {
  uint64_t node_pairs_examined = 0;
  uint64_t node_pairs_pruned_signature = 0;
  uint64_t node_pairs_pruned_index = 0;
  uint64_t leaf_pairs_examined = 0;
  uint64_t leaf_pairs_pruned_pivot = 0;
  uint64_t leaf_pairs_pruned_edge = 0;
  uint64_t candidate_pairs = 0;
  uint64_t candidate_matrices = 0;
  uint64_t page_fetches = 0;
  uint64_t page_accesses = 0;
  uint64_t answers = 0;
  // FNV-1a over each answer's source, probability bits and mapping.
  uint64_t answer_digest = 14695981039346656037ull;

  bool operator==(const TraversalTotals&) const = default;
  friend void PrintTo(const TraversalTotals& totals, std::ostream* os) {
    *os << totals.ToString();
  }

  void Add(const QueryStats& stats, const std::vector<QueryMatch>& matches) {
    node_pairs_examined += stats.node_pairs_examined;
    node_pairs_pruned_signature += stats.node_pairs_pruned_signature;
    node_pairs_pruned_index += stats.node_pairs_pruned_index;
    leaf_pairs_examined += stats.leaf_pairs_examined;
    leaf_pairs_pruned_pivot += stats.leaf_pairs_pruned_pivot;
    leaf_pairs_pruned_edge += stats.leaf_pairs_pruned_edge;
    candidate_pairs += stats.candidate_pairs;
    candidate_matrices += stats.candidate_matrices;
    page_fetches += stats.page_fetches;
    page_accesses += stats.page_accesses;
    answers += stats.answers;
    for (const QueryMatch& match : matches) {
      uint64_t bits = 0;
      std::memcpy(&bits, &match.probability, sizeof(bits));
      Mix(match.source);
      Mix(bits);
      for (const auto& [gene, column] : match.mapping) {
        Mix(gene);
        Mix(column);
      }
    }
  }

  void Mix(uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      answer_digest ^= (value >> (8 * byte)) & 0xFF;
      answer_digest *= 1099511628211ull;
    }
  }

  // Formatted as the initializer the expectations below are written in.
  std::string ToString() const {
    char text[512];
    std::snprintf(text, sizeof(text),
                  "{%" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
                  ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
                  ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
                  "ull}",
                  node_pairs_examined, node_pairs_pruned_signature,
                  node_pairs_pruned_index, leaf_pairs_examined,
                  leaf_pairs_pruned_pivot, leaf_pairs_pruned_edge,
                  candidate_pairs, candidate_matrices, page_fetches,
                  page_accesses, answers, answer_digest);
    return text;
  }
};

struct PinnedEngine {
  const char* name;
  EdgeWeightDistribution weights;
  size_t num_matrices;
  size_t genes_min;
  size_t genes_max;
  GeneId gene_universe;
  size_t rtree_max_entries;  // 0 = derived from the page size.
  size_t buffer_pool_pages;
  bool root_is_leaf;
  TraversalTotals expected;
};

// 40 queries over genes of random database matrices, 3-5 genes each,
// alternately a star (anchor = vertex 0) and a path (anchor inside).
std::vector<ProbGraph> MakePinnedQueries(const GeneDatabase& database,
                                         uint64_t seed) {
  Rng rng(seed);
  std::vector<ProbGraph> queries;
  for (size_t q = 0; q < 40; ++q) {
    const GeneMatrix& matrix =
        database.matrix(static_cast<SourceId>(rng.UniformUint64(
            database.size())));
    const size_t num_genes = std::min<size_t>(3 + q % 3, matrix.num_genes());
    std::vector<GeneId> genes;
    while (genes.size() < num_genes) {
      const GeneId gene = matrix.gene_id(
          static_cast<uint32_t>(rng.UniformUint64(matrix.num_genes())));
      if (std::find(genes.begin(), genes.end(), gene) == genes.end()) {
        genes.push_back(gene);
      }
    }
    if (q % 2 == 1) {
      queries.push_back(MakePathQuery(genes));
      continue;
    }
    ProbGraph star;
    for (GeneId gene : genes) star.AddVertex(gene);
    for (VertexId v = 1; v < genes.size(); ++v) star.AddEdge(0, v, 1.0);
    queries.push_back(std::move(star));
  }
  return queries;
}

TraversalTotals RunPinnedWorkload(const PinnedEngine& engine) {
  SyntheticConfig config;
  config.num_matrices = engine.num_matrices;
  config.genes_min = engine.genes_min;
  config.genes_max = engine.genes_max;
  config.samples_min = 30;
  config.samples_max = 40;
  config.gene_universe = engine.gene_universe;
  config.weight_distribution = engine.weights;
  config.seed = 1300 + engine.num_matrices;
  GeneDatabase database = GenerateSyntheticDatabase(config);

  ImGrnIndexOptions options;
  options.num_pivots = 2;
  options.embed_samples = 32;
  options.rtree_max_entries = engine.rtree_max_entries;
  options.buffer_pool_pages = engine.buffer_pool_pages;
  options.pivot_selection.global_iterations = 1;
  options.pivot_selection.swap_iterations = 4;
  ImGrnIndex index(options);
  EXPECT_TRUE(index.Build(&database).ok());
  EXPECT_EQ(index.rtree().height() == 1, engine.root_is_leaf) << engine.name;
  ImGrnQueryProcessor processor(&index);

  const std::vector<ProbGraph> queries =
      MakePinnedQueries(database, 1400 + engine.num_matrices);
  TraversalTotals totals;
  for (const bool pruning : {true, false}) {
    for (const double gamma : {0.05, 0.3, 0.5, 0.9}) {
      QueryParams params;
      params.gamma = gamma;
      params.alpha = 0.1;
      params.refine_num_samples = 64;
      params.use_index_pruning = pruning;
      params.use_pivot_pruning = pruning;
      for (const ProbGraph& query : queries) {
        QueryStats stats;
        Result<std::vector<QueryMatch>> matches =
            processor.QueryWithGraph(query, params, &stats);
        EXPECT_TRUE(matches.ok()) << engine.name;
        if (matches.ok()) totals.Add(stats, *matches);
      }
    }
  }
  return totals;
}

TEST(TraversalPinTest, CountersIoAndAnswersMatchPerPairTraversal) {
  const PinnedEngine engines[] = {
      {"uni default tree", EdgeWeightDistribution::kUniform, 60, 12, 20, 120,
       0, 128, false,
       {141120, 139224, 0, 1624, 11, 90, 1523, 1025, 4112, 22, 60,
        4272643267235378377ull}},
      {"gau deep tree", EdgeWeightDistribution::kGaussian, 60, 12, 20, 120,
       6, 128, false,
       {397136, 357984, 7, 1557, 15, 67, 1475, 957, 78610, 4102, 74,
        17631277134687411685ull}},
      {"uni deep tree, 16-page pool", EdgeWeightDistribution::kUniform, 50,
       10, 16, 100, 6, 16, false,
       {230616, 204296, 12, 1424, 12, 57, 1355, 850, 52936, 17595, 84,
        8546623667009803601ull}},
      {"gau root is leaf", EdgeWeightDistribution::kGaussian, 4, 12, 12, 30,
       0, 128, true,
       {0, 0, 0, 1128, 16, 52, 1060, 540, 320, 1, 96,
        16761922763949778097ull}},
  };
  uint64_t lemma6_prunes = 0;
  for (const PinnedEngine& engine : engines) {
    const TraversalTotals actual = RunPinnedWorkload(engine);
    EXPECT_EQ(actual, engine.expected) << engine.name;
    lemma6_prunes += actual.node_pairs_pruned_index;
  }
  // gamma = 0.9 is above the bounds' 1/sqrt(2) floor: Lemma 6 must fire
  // somewhere, or its ordering inside the traversal goes unchecked.
  EXPECT_GT(lemma6_prunes, 0u);
}

// End-to-end statistical recovery: on Section-6.1 synthetic data, querying
// a planted true edge of a matrix should find that matrix far more often
// than querying a random non-edge pair at the same thresholds.
TEST(SyntheticRecoveryTest, PlantedEdgesBeatNonEdges) {
  SyntheticConfig config;
  config.num_matrices = 15;
  config.genes_min = 12;
  config.genes_max = 12;
  config.samples_min = 50;
  config.samples_max = 50;
  config.gene_universe = 60;
  config.seed = 77;
  std::vector<GoldStandard> truths;
  GeneDatabase database = GenerateSyntheticDatabase(config, &truths);

  ImGrnIndexOptions options;
  options.embed_samples = 32;
  options.pivot_selection.global_iterations = 1;
  options.pivot_selection.swap_iterations = 4;
  ImGrnIndex index(options);
  ASSERT_TRUE(index.Build(&database).ok());
  ImGrnQueryProcessor processor(&index);

  QueryParams params;
  params.gamma = 0.6;
  params.alpha = 0.5;
  Rng rng(78);
  int edge_hits = 0, edge_total = 0;
  int non_edge_hits = 0, non_edge_total = 0;
  for (SourceId i = 0; i < database.size(); ++i) {
    const GeneMatrix& matrix = database.matrix(i);
    // One true edge (if any) as a 2-gene query.
    if (!truths[i].empty()) {
      const auto& [a, b] = truths[i][rng.UniformUint64(truths[i].size())];
      ProbGraph query;
      query.AddVertex(matrix.gene_id(a));
      query.AddVertex(matrix.gene_id(b));
      query.AddEdge(0, 1, 1.0);
      Result<std::vector<QueryMatch>> matches =
          processor.QueryWithGraph(query, params);
      ASSERT_TRUE(matches.ok());
      ++edge_total;
      for (const QueryMatch& match : *matches) {
        if (match.source == i) {
          ++edge_hits;
          break;
        }
      }
    }
    // One random non-edge pair.
    std::set<uint64_t> edge_keys;
    for (const auto& [a, b] : truths[i]) {
      edge_keys.insert((static_cast<uint64_t>(a) << 32) | b);
    }
    for (int attempt = 0; attempt < 50; ++attempt) {
      uint32_t a = static_cast<uint32_t>(rng.UniformUint64(12));
      uint32_t b = static_cast<uint32_t>(rng.UniformUint64(12));
      if (a == b) continue;
      if (a > b) std::swap(a, b);
      if (edge_keys.contains((static_cast<uint64_t>(a) << 32) | b)) continue;
      ProbGraph query;
      query.AddVertex(matrix.gene_id(a));
      query.AddVertex(matrix.gene_id(b));
      query.AddEdge(0, 1, 1.0);
      Result<std::vector<QueryMatch>> matches =
          processor.QueryWithGraph(query, params);
      ASSERT_TRUE(matches.ok());
      ++non_edge_total;
      for (const QueryMatch& match : *matches) {
        if (match.source == i) {
          ++non_edge_hits;
          break;
        }
      }
      break;
    }
  }
  ASSERT_GT(edge_total, 5);
  ASSERT_GT(non_edge_total, 5);
  const double edge_rate =
      static_cast<double>(edge_hits) / static_cast<double>(edge_total);
  const double non_edge_rate = static_cast<double>(non_edge_hits) /
                               static_cast<double>(non_edge_total);
  EXPECT_GT(edge_rate, non_edge_rate)
      << "edge " << edge_hits << "/" << edge_total << " vs non-edge "
      << non_edge_hits << "/" << non_edge_total;
  EXPECT_GT(edge_rate, 0.5);
}

}  // namespace
}  // namespace imgrn
