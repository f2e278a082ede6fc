#include "graph/subgraph_iso.h"

#include <algorithm>

#include "common/logging.h"

namespace imgrn {

namespace {

constexpr VertexId kUnmapped = static_cast<VertexId>(-1);

}  // namespace

SubgraphIsomorphism::SubgraphIsomorphism(const ProbGraph& query,
                                         const ProbGraph& data,
                                         SubgraphIsoOptions options)
    : query_(query), data_(data), options_(options) {
  // Build the matching order: start from the highest-degree query vertex,
  // then repeatedly add the unvisited vertex with the most already-ordered
  // neighbors (ties broken by degree). Connectivity-first ordering lets the
  // edge-consistency check prune early.
  const size_t nq = query_.num_vertices();
  order_.reserve(nq);
  std::vector<bool> in_order(nq, false);
  for (size_t step = 0; step < nq; ++step) {
    int best = -1;
    size_t best_connected = 0;
    size_t best_degree = 0;
    for (VertexId v = 0; v < nq; ++v) {
      if (in_order[v]) continue;
      size_t connected = 0;
      for (VertexId w : query_.Neighbors(v)) {
        if (in_order[w]) ++connected;
      }
      const size_t degree = query_.Degree(v);
      if (best < 0 || connected > best_connected ||
          (connected == best_connected && degree > best_degree)) {
        best = static_cast<int>(v);
        best_connected = connected;
        best_degree = degree;
      }
    }
    order_.push_back(static_cast<VertexId>(best));
    in_order[static_cast<size_t>(best)] = true;
  }
  mapping_.assign(nq, kUnmapped);
  mapped_query_.assign(nq, false);
  used_data_.assign(data_.num_vertices(), false);
}

bool SubgraphIsomorphism::Feasible(VertexId q, VertexId g) const {
  if (options_.match_labels && query_.label(q) != data_.label(g)) {
    return false;
  }
  // A data vertex must have at least the query vertex's degree for a
  // (non-induced) embedding to exist through it.
  if (data_.Degree(g) < query_.Degree(q)) {
    return false;
  }
  // Edge consistency against already-mapped neighbors.
  for (VertexId qn : query_.Neighbors(q)) {
    if (mapped_query_[qn] && !data_.HasEdge(g, mapping_[qn])) {
      return false;
    }
  }
  return true;
}

bool SubgraphIsomorphism::Recurse(
    size_t depth, const std::function<bool(const Embedding&)>& callback,
    size_t* delivered) {
  if (depth == order_.size()) {
    ++*delivered;
    return callback(mapping_);
  }
  const VertexId q = order_[depth];

  // Candidate data vertices: if q has an already-mapped query neighbor,
  // restrict to the data neighbors of its image; otherwise scan all.
  const std::vector<VertexId>* candidates = nullptr;
  std::vector<VertexId> all;
  for (VertexId qn : query_.Neighbors(q)) {
    if (mapped_query_[qn]) {
      candidates = &data_.Neighbors(mapping_[qn]);
      break;
    }
  }
  if (candidates == nullptr) {
    all.resize(data_.num_vertices());
    for (VertexId g = 0; g < data_.num_vertices(); ++g) all[g] = g;
    candidates = &all;
  }

  for (VertexId g : *candidates) {
    if (used_data_[g] || !Feasible(q, g)) continue;
    mapping_[q] = g;
    mapped_query_[q] = true;
    used_data_[g] = true;
    const bool keep_going = Recurse(depth + 1, callback, delivered);
    mapping_[q] = kUnmapped;
    mapped_query_[q] = false;
    used_data_[g] = false;
    if (!keep_going) return false;
  }
  return true;
}

size_t SubgraphIsomorphism::Enumerate(
    const std::function<bool(const Embedding&)>& callback) {
  if (query_.num_vertices() == 0) {
    // The empty query trivially embeds once.
    Embedding empty;
    callback(empty);
    return 1;
  }
  if (query_.num_vertices() > data_.num_vertices()) {
    return 0;
  }
  size_t delivered = 0;
  Recurse(0, callback, &delivered);
  return delivered;
}

bool SubgraphIsomorphism::Exists() {
  bool found = false;
  Enumerate([&found](const Embedding&) {
    found = true;
    return false;  // Stop at the first embedding.
  });
  return found;
}

std::vector<Embedding> SubgraphIsomorphism::AllEmbeddings() {
  std::vector<Embedding> embeddings;
  Enumerate([&embeddings](const Embedding& embedding) {
    embeddings.push_back(embedding);
    return true;
  });
  return embeddings;
}

}  // namespace imgrn
