#ifndef IMGRN_GRAPH_PROB_GRAPH_H_
#define IMGRN_GRAPH_PROB_GRAPH_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "matrix/gene_matrix.h"

namespace imgrn {

/// Vertex index inside one graph (not the global gene ID).
using VertexId = uint32_t;

/// An undirected edge with an existence probability (Definition 3: edges
/// e_{s,t} carry e_{s,t}.p in [0, 1)).
struct ProbEdge {
  VertexId u = 0;
  VertexId v = 0;
  double probability = 0.0;
};

/// A probabilistic gene regulatory network G_i = (V, E, Phi) (Definition 3):
/// vertices carry gene labels l(v_s); undirected edges carry existence
/// probabilities. Also used (with probability 1 edges or with inferred edge
/// probabilities) for query graphs Q.
class ProbGraph {
 public:
  ProbGraph() = default;

  /// Adds a vertex with the given gene label; returns its VertexId.
  VertexId AddVertex(GeneId label);

  /// Adds undirected edge (u, v) with probability `p` in [0, 1]. Requires
  /// u != v, both valid, and no existing (u, v) edge.
  void AddEdge(VertexId u, VertexId v, double p);

  size_t num_vertices() const { return labels_.size(); }
  size_t num_edges() const { return edges_.size(); }

  GeneId label(VertexId v) const { return labels_[v]; }
  const std::vector<GeneId>& labels() const { return labels_; }

  /// Returns the vertex carrying `label`, if any. Labels are unique within
  /// GRNs inferred from a gene matrix (one column per gene); if the graph
  /// holds duplicate labels this returns the first.
  std::optional<VertexId> VertexWithLabel(GeneId label) const;

  /// True iff no two vertices carry the same label, as in every GRN
  /// inferred from a gene matrix.
  bool LabelsAreDistinct() const;

  bool HasEdge(VertexId u, VertexId v) const;

  /// Probability of edge (u, v); requires the edge to exist.
  double EdgeProbability(VertexId u, VertexId v) const;

  size_t Degree(VertexId v) const { return adjacency_[v].size(); }

  /// Neighbor vertex ids of v.
  const std::vector<VertexId>& Neighbors(VertexId v) const {
    return adjacency_[v];
  }

  const std::vector<ProbEdge>& edges() const { return edges_; }

  /// Vertex of maximum degree (the Fig.-4 anchor heuristic: "start from one
  /// gene with the highest degree"). Requires a non-empty graph.
  VertexId MaxDegreeVertex() const;

  /// True iff the graph is connected (ignoring probabilities). The empty
  /// graph counts as connected.
  bool IsConnected() const;

  /// Compact rendering for diagnostics: "n=3 m=2 [0(g5)-1(g9):0.83, ...]".
  std::string DebugString() const;

 private:
  static uint64_t EdgeKey(VertexId u, VertexId v);

  std::vector<GeneId> labels_;
  std::vector<std::vector<VertexId>> adjacency_;
  std::vector<ProbEdge> edges_;
  std::unordered_map<uint64_t, size_t> edge_index_;  // EdgeKey -> edges_ pos.
};

}  // namespace imgrn

#endif  // IMGRN_GRAPH_PROB_GRAPH_H_
