#ifndef IMGRN_GRAPH_SUBGRAPH_ISO_H_
#define IMGRN_GRAPH_SUBGRAPH_ISO_H_

#include <functional>
#include <vector>

#include "graph/prob_graph.h"

namespace imgrn {

/// Options controlling the subgraph-isomorphism search.
struct SubgraphIsoOptions {
  /// Require label(q) == label(f(q)) for every mapped vertex. IM-GRN
  /// matching is label-constrained (gene names are globally meaningful).
  bool match_labels = true;
};

/// One embedding: mapping[q] = data vertex matched to query vertex q.
using Embedding = std::vector<VertexId>;

/// VF2-style backtracking subgraph-isomorphism matcher between a query
/// graph and a data graph. It finds the paper's non-induced embeddings
/// (Definition 4: edge-preserving injections, so a non-edge of the query
/// may map to an edge). Edge probabilities are ignored here; the caller
/// enforces probability thresholds via appearance.h. The matcher orders
/// query vertices by a connectivity-first / degree-descending heuristic
/// and prunes partial states by degree and label feasibility.
class SubgraphIsomorphism {
 public:
  /// Borrows both graphs; they must outlive the matcher. Temporaries are
  /// rejected at compile time to prevent dangling references.
  SubgraphIsomorphism(const ProbGraph& query, const ProbGraph& data,
                      SubgraphIsoOptions options = {});
  SubgraphIsomorphism(ProbGraph&&, const ProbGraph&,
                      SubgraphIsoOptions = {}) = delete;
  SubgraphIsomorphism(const ProbGraph&, ProbGraph&&,
                      SubgraphIsoOptions = {}) = delete;
  SubgraphIsomorphism(ProbGraph&&, ProbGraph&&, SubgraphIsoOptions = {}) =
      delete;

  /// Enumerates embeddings, invoking `callback` for each. If the callback
  /// returns false the search stops. Returns the number of embeddings
  /// delivered.
  size_t Enumerate(const std::function<bool(const Embedding&)>& callback);

  /// Returns true iff at least one embedding exists.
  bool Exists();

  /// Collects all embeddings.
  std::vector<Embedding> AllEmbeddings();

 private:
  bool Feasible(VertexId q, VertexId g) const;
  bool Recurse(size_t depth,
               const std::function<bool(const Embedding&)>& callback,
               size_t* delivered);

  const ProbGraph& query_;
  const ProbGraph& data_;
  SubgraphIsoOptions options_;

  std::vector<VertexId> order_;        // Query matching order.
  std::vector<VertexId> mapping_;      // query vertex -> data vertex.
  std::vector<bool> mapped_query_;
  std::vector<bool> used_data_;
};

}  // namespace imgrn

#endif  // IMGRN_GRAPH_SUBGRAPH_ISO_H_
