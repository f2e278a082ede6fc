#include "graph/subgraph_iso.h"

#include <gtest/gtest.h>

#include <set>

namespace imgrn {
namespace {

/// Builds a graph with `n` vertices labeled `labels` and the given edges
/// (probability 1).
ProbGraph MakeGraph(const std::vector<GeneId>& labels,
                    const std::vector<std::pair<VertexId, VertexId>>& edges) {
  ProbGraph g;
  for (GeneId label : labels) g.AddVertex(label);
  for (const auto& [u, v] : edges) g.AddEdge(u, v, 1.0);
  return g;
}

SubgraphIsoOptions Unlabeled() {
  SubgraphIsoOptions options;
  options.match_labels = false;
  return options;
}

TEST(SubgraphIsoTest, TriangleInK4HasTwentyFourUnlabeledEmbeddings) {
  // K4 contains 4 triangles; each triangle has 3! vertex orderings.
  ProbGraph triangle = MakeGraph({0, 0, 0}, {{0, 1}, {1, 2}, {0, 2}});
  ProbGraph k4 = MakeGraph(
      {0, 0, 0, 0}, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}});
  SubgraphIsomorphism iso(triangle, k4, Unlabeled());
  EXPECT_EQ(iso.AllEmbeddings().size(), 24u);
}

TEST(SubgraphIsoTest, PathInTriangle) {
  // A 2-edge path embeds into a triangle 6 ways (3 centers x 2 arm orders).
  ProbGraph path = MakeGraph({0, 0, 0}, {{0, 1}, {1, 2}});
  ProbGraph triangle = MakeGraph({0, 0, 0}, {{0, 1}, {1, 2}, {0, 2}});
  SubgraphIsomorphism iso(path, triangle, Unlabeled());
  EXPECT_EQ(iso.AllEmbeddings().size(), 6u);
}

TEST(SubgraphIsoTest, SquareNotInTriangleDatabase) {
  ProbGraph square = MakeGraph({0, 0, 0, 0},
                               {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  ProbGraph triangle = MakeGraph({0, 0, 0}, {{0, 1}, {1, 2}, {0, 2}});
  SubgraphIsomorphism iso(square, triangle, Unlabeled());
  EXPECT_FALSE(iso.Exists());
}

TEST(SubgraphIsoTest, LabelsConstrainMatching) {
  // Labeled triangle (1,2,3) in a labeled K4 where only one vertex carries
  // each label: exactly one embedding.
  ProbGraph query = MakeGraph({1, 2, 3}, {{0, 1}, {1, 2}, {0, 2}});
  ProbGraph data = MakeGraph(
      {1, 2, 3, 4}, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}});
  SubgraphIsomorphism iso(query, data);
  std::vector<Embedding> embeddings = iso.AllEmbeddings();
  ASSERT_EQ(embeddings.size(), 1u);
  EXPECT_EQ(embeddings[0][0], 0u);
  EXPECT_EQ(embeddings[0][1], 1u);
  EXPECT_EQ(embeddings[0][2], 2u);
}

TEST(SubgraphIsoTest, LabelMismatchMeansNoMatch) {
  ProbGraph query = MakeGraph({1, 9}, {{0, 1}});
  ProbGraph data = MakeGraph({1, 2, 3}, {{0, 1}, {1, 2}, {0, 2}});
  SubgraphIsomorphism iso(query, data);
  EXPECT_FALSE(iso.Exists());
}

TEST(SubgraphIsoTest, MissingRequiredEdgeMeansNoMatch) {
  ProbGraph query = MakeGraph({1, 2}, {{0, 1}});
  ProbGraph data = MakeGraph({1, 2}, {});
  SubgraphIsomorphism iso(query, data);
  EXPECT_FALSE(iso.Exists());
}

TEST(SubgraphIsoTest, QueryLargerThanDataNeverMatches) {
  ProbGraph query = MakeGraph({0, 0, 0}, {});
  ProbGraph data = MakeGraph({0, 0}, {});
  SubgraphIsomorphism iso(query, data, Unlabeled());
  EXPECT_FALSE(iso.Exists());
}

TEST(SubgraphIsoTest, EmptyQueryMatchesOnce) {
  ProbGraph query;
  ProbGraph data = MakeGraph({1, 2}, {{0, 1}});
  SubgraphIsomorphism iso(query, data);
  EXPECT_EQ(iso.AllEmbeddings().size(), 1u);
}

TEST(SubgraphIsoTest, DisconnectedQuerySupported) {
  // Two isolated labeled vertices into a labeled path.
  ProbGraph query = MakeGraph({1, 3}, {});
  ProbGraph data = MakeGraph({1, 2, 3}, {{0, 1}, {1, 2}});
  SubgraphIsomorphism iso(query, data);
  EXPECT_EQ(iso.AllEmbeddings().size(), 1u);
}

TEST(SubgraphIsoTest, EnumerateEarlyStopViaCallback) {
  ProbGraph path = MakeGraph({0, 0}, {{0, 1}});
  ProbGraph k4 = MakeGraph(
      {0, 0, 0, 0}, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}});
  SubgraphIsomorphism iso(path, k4, Unlabeled());
  int seen = 0;
  iso.Enumerate([&seen](const Embedding&) {
    ++seen;
    return seen < 3;
  });
  EXPECT_EQ(seen, 3);
}

TEST(SubgraphIsoTest, EmbeddingsAreInjective) {
  ProbGraph query = MakeGraph({0, 0}, {{0, 1}});
  ProbGraph data = MakeGraph({0, 0, 0}, {{0, 1}, {1, 2}});
  SubgraphIsomorphism iso(query, data, Unlabeled());
  for (const Embedding& embedding : iso.AllEmbeddings()) {
    std::set<VertexId> image(embedding.begin(), embedding.end());
    EXPECT_EQ(image.size(), embedding.size());
  }
}

TEST(SubgraphIsoTest, EmbeddingsPreserveEdges) {
  ProbGraph query = MakeGraph({0, 0, 0}, {{0, 1}, {1, 2}});
  ProbGraph data = MakeGraph({0, 0, 0, 0},
                             {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  SubgraphIsomorphism iso(query, data, Unlabeled());
  size_t count = 0;
  iso.Enumerate([&](const Embedding& embedding) {
    for (const ProbEdge& qe : query.edges()) {
      EXPECT_TRUE(data.HasEdge(embedding[qe.u], embedding[qe.v]));
    }
    ++count;
    return true;
  });
  EXPECT_GT(count, 0u);
}

TEST(SubgraphIsoTest, StarQueryDegreeFiltering) {
  // A 4-star's center needs data degree >= 4; a path has max degree 2.
  ProbGraph star =
      MakeGraph({0, 0, 0, 0, 0}, {{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  ProbGraph path = MakeGraph({0, 0, 0, 0, 0},
                             {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  SubgraphIsomorphism iso(star, path, Unlabeled());
  EXPECT_FALSE(iso.Exists());
}

TEST(SubgraphIsoTest, CycleInLargerCycleOnlyWhenEqual) {
  auto cycle = [](size_t n) {
    std::vector<GeneId> labels(n, 0);
    std::vector<std::pair<VertexId, VertexId>> edges;
    for (VertexId i = 0; i < n; ++i) {
      edges.emplace_back(i, (i + 1) % n);
    }
    return MakeGraph(labels, edges);
  };
  // C4 does not embed in C5 (as subgraph), C5 embeds in C5.
  const ProbGraph c4 = cycle(4);
  const ProbGraph c5 = cycle(5);
  SubgraphIsomorphism c4_in_c5(c4, c5, Unlabeled());
  EXPECT_FALSE(c4_in_c5.Exists());
  SubgraphIsomorphism c5_in_c5(c5, c5, Unlabeled());
  EXPECT_TRUE(c5_in_c5.Exists());
  // C5 has 10 automorphisms (5 rotations x 2 reflections).
  EXPECT_EQ(c5_in_c5.AllEmbeddings().size(), 10u);
}

TEST(SubgraphIsoTest, DuplicateLabelsEnumerateAllConsistentMappings) {
  // Query edge with labels (7, 7); data triangle all labeled 7 -> each
  // ordered pair of adjacent vertices is an embedding: 6.
  ProbGraph query = MakeGraph({7, 7}, {{0, 1}});
  ProbGraph data = MakeGraph({7, 7, 7}, {{0, 1}, {1, 2}, {0, 2}});
  SubgraphIsomorphism iso(query, data);
  EXPECT_EQ(iso.AllEmbeddings().size(), 6u);
}

}  // namespace
}  // namespace imgrn
