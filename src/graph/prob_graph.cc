#include "graph/prob_graph.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"

namespace imgrn {

VertexId ProbGraph::AddVertex(GeneId label) {
  labels_.push_back(label);
  adjacency_.emplace_back();
  return static_cast<VertexId>(labels_.size() - 1);
}

uint64_t ProbGraph::EdgeKey(VertexId u, VertexId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<uint64_t>(u) << 32) | v;
}

void ProbGraph::AddEdge(VertexId u, VertexId v, double p) {
  IMGRN_CHECK_NE(u, v);
  IMGRN_CHECK_LT(u, num_vertices());
  IMGRN_CHECK_LT(v, num_vertices());
  IMGRN_CHECK_GE(p, 0.0);
  IMGRN_CHECK_LE(p, 1.0);
  auto [it, inserted] = edge_index_.emplace(EdgeKey(u, v), edges_.size());
  IMGRN_CHECK(inserted) << "duplicate edge (" << u << ", " << v << ")";
  edges_.push_back(ProbEdge{u, v, p});
  adjacency_[u].push_back(v);
  adjacency_[v].push_back(u);
}

std::optional<VertexId> ProbGraph::VertexWithLabel(GeneId label) const {
  for (size_t v = 0; v < labels_.size(); ++v) {
    if (labels_[v] == label) {
      return static_cast<VertexId>(v);
    }
  }
  return std::nullopt;
}

bool ProbGraph::LabelsAreDistinct() const {
  std::vector<GeneId> sorted = labels_;
  std::sort(sorted.begin(), sorted.end());
  return std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end();
}

bool ProbGraph::HasEdge(VertexId u, VertexId v) const {
  return edge_index_.contains(EdgeKey(u, v));
}

double ProbGraph::EdgeProbability(VertexId u, VertexId v) const {
  auto it = edge_index_.find(EdgeKey(u, v));
  IMGRN_CHECK(it != edge_index_.end())
      << "no edge (" << u << ", " << v << ")";
  return edges_[it->second].probability;
}

VertexId ProbGraph::MaxDegreeVertex() const {
  IMGRN_CHECK_GT(num_vertices(), 0u);
  VertexId best = 0;
  for (VertexId v = 1; v < num_vertices(); ++v) {
    if (Degree(v) > Degree(best)) {
      best = v;
    }
  }
  return best;
}

bool ProbGraph::IsConnected() const {
  if (num_vertices() <= 1) return true;
  std::vector<bool> visited(num_vertices(), false);
  std::vector<VertexId> stack = {0};
  visited[0] = true;
  size_t reached = 1;
  while (!stack.empty()) {
    VertexId v = stack.back();
    stack.pop_back();
    for (VertexId w : adjacency_[v]) {
      if (!visited[w]) {
        visited[w] = true;
        ++reached;
        stack.push_back(w);
      }
    }
  }
  return reached == num_vertices();
}

std::string ProbGraph::DebugString() const {
  std::ostringstream out;
  out << "n=" << num_vertices() << " m=" << num_edges() << " [";
  for (size_t i = 0; i < edges_.size(); ++i) {
    const ProbEdge& e = edges_[i];
    if (i > 0) out << ", ";
    out << e.u << "(g" << labels_[e.u] << ")-" << e.v << "(g" << labels_[e.v]
        << "):" << e.probability;
  }
  out << "]";
  return out.str();
}

}  // namespace imgrn
