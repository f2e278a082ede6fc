// Cross-checks the VF2 matcher against a brute-force reference that
// enumerates every injective vertex mapping, over randomized graph pairs.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <ostream>
#include <set>
#include <vector>

#include "common/random.h"
#include "graph/subgraph_iso.h"

namespace imgrn {
namespace {

ProbGraph RandomGraph(size_t n, double edge_probability, int num_labels,
                      Rng* rng) {
  ProbGraph graph;
  for (size_t v = 0; v < n; ++v) {
    graph.AddVertex(static_cast<GeneId>(rng->UniformUint64(
        static_cast<uint64_t>(num_labels))));
  }
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) {
      if (rng->Bernoulli(edge_probability)) {
        graph.AddEdge(u, v, 1.0);
      }
    }
  }
  return graph;
}

/// Enumerates all injective mappings query->data and counts those that are
/// valid (label-preserving when the options say so, and edge-preserving)
/// subgraph embeddings.
size_t BruteForceCount(const ProbGraph& query, const ProbGraph& data,
                       const SubgraphIsoOptions& options) {
  const size_t nq = query.num_vertices();
  const size_t nd = data.num_vertices();
  if (nq > nd) return 0;
  if (nq == 0) return 1;

  // Enumerate ordered selections of nq data vertices via permutations of a
  // sorted index vector, filtered to the first nq positions. To avoid
  // duplicates, iterate over all nq-subsets and their permutations.
  std::vector<VertexId> data_vertices(nd);
  std::iota(data_vertices.begin(), data_vertices.end(), 0u);
  size_t count = 0;

  std::vector<bool> selector(nd, false);
  std::fill(selector.begin(), selector.begin() + static_cast<long>(nq),
            true);
  std::sort(selector.begin(), selector.end());  // Lowest combination first.
  do {
    std::vector<VertexId> subset;
    for (size_t i = 0; i < nd; ++i) {
      if (selector[i]) subset.push_back(static_cast<VertexId>(i));
    }
    std::sort(subset.begin(), subset.end());
    do {
      bool valid = true;
      for (VertexId q = 0; q < nq && valid; ++q) {
        if (options.match_labels &&
            query.label(q) != data.label(subset[q])) {
          valid = false;
        }
      }
      for (VertexId a = 0; a < nq && valid; ++a) {
        for (VertexId b = a + 1; b < nq && valid; ++b) {
          if (query.HasEdge(a, b) && !data.HasEdge(subset[a], subset[b])) {
            valid = false;
          }
        }
      }
      if (valid) ++count;
    } while (std::next_permutation(subset.begin(), subset.end()));
  } while (std::next_permutation(selector.begin(), selector.end()));
  return count;
}

struct FuzzParam {
  size_t query_size;
  size_t data_size;
  double query_density;
  double data_density;
  int num_labels;
};

// Names each instance by its fields. Without it gtest prints the raw bytes,
// tail padding included, so the test names would differ between builds.
void PrintTo(const FuzzParam& param, std::ostream* os) {
  *os << "query=" << param.query_size << " data=" << param.data_size
      << " query_density=" << param.query_density
      << " data_density=" << param.data_density
      << " labels=" << param.num_labels;
}

class Vf2ReferenceTest : public ::testing::TestWithParam<FuzzParam> {};

TEST_P(Vf2ReferenceTest, EmbeddingCountMatchesBruteForce) {
  const FuzzParam param = GetParam();
  Rng rng(param.query_size * 1000 + param.data_size * 10 +
          static_cast<uint64_t>(param.num_labels));
  SubgraphIsoOptions options;
  options.match_labels = true;
  for (int trial = 0; trial < 15; ++trial) {
    const ProbGraph query =
        RandomGraph(param.query_size, param.query_density, param.num_labels,
                    &rng);
    const ProbGraph data = RandomGraph(param.data_size, param.data_density,
                                       param.num_labels, &rng);
    SubgraphIsomorphism iso(query, data, options);
    const size_t expected = BruteForceCount(query, data, options);
    EXPECT_EQ(iso.AllEmbeddings().size(), expected)
        << "trial " << trial << "\nquery " << query.DebugString()
        << "\ndata " << data.DebugString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Vf2ReferenceTest,
    ::testing::Values(FuzzParam{2, 4, 0.8, 0.5, 2},
                      FuzzParam{3, 5, 0.5, 0.5, 2},
                      FuzzParam{3, 6, 0.7, 0.4, 3},
                      FuzzParam{4, 6, 0.5, 0.6, 2},
                      FuzzParam{4, 7, 0.4, 0.5, 4},
                      FuzzParam{2, 7, 0.9, 0.3, 1},
                      FuzzParam{5, 7, 0.4, 0.5, 2}));

TEST(Vf2ReferenceTest, UnlabeledModeAlsoMatches) {
  Rng rng(77);
  SubgraphIsoOptions options;
  options.match_labels = false;
  for (int trial = 0; trial < 15; ++trial) {
    const ProbGraph query = RandomGraph(3, 0.6, 1, &rng);
    const ProbGraph data = RandomGraph(6, 0.5, 1, &rng);
    SubgraphIsomorphism iso(query, data, options);
    EXPECT_EQ(iso.AllEmbeddings().size(),
              BruteForceCount(query, data, options))
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace imgrn
