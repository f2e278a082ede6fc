#include "layers.h"

#include <algorithm>
#include <unordered_set>

#include "common/crc32c.h"
#include "embed/pivot_embedding.h"
#include "graph/appearance.h"
#include "graph/subgraph_iso.h"
#include "inference/grn_inference.h"
#include "inference/permutation_cache.h"
#include "matrix/vector_ops.h"
#include "prob/markov_bound.h"
#include "query/refinement.h"

namespace perfbench {

using imgrn::QueryMatch;

double LayerCounts::Sum(const std::string& name) const {
  auto it = sums_.find(name);
  return it == sums_.end() ? 0.0 : it->second;
}

double LayerCounts::PerRequest(const std::string& name,
                               size_t requests) const {
  return requests == 0 ? 0.0 : Sum(name) / static_cast<double>(requests);
}

imgrn::ProbGraph TracedInferGrn(const imgrn::GeneMatrix& query_matrix,
                                const imgrn::QueryParams& params,
                                Tracer* tracer, uint64_t request,
                                uint32_t parent, LayerCounts* counts) {
  imgrn::GrnInferenceOptions options;
  options.num_samples = params.query_num_samples;
  options.seed = params.seed;
  imgrn::GrnInferenceStats stats;
  imgrn::ProbGraph graph;
  {
    ScopedSpan span(tracer, "inference.infer", request, parent);
    graph = imgrn::InferGrn(query_matrix, params.gamma, options, &stats);
  }
  counts->Add("inference.pairs_estimated",
              static_cast<double>(stats.pairs_estimated));
  counts->Add("inference.pairs_pruned",
              static_cast<double>(stats.pairs_pruned));
  return graph;
}

void CountQueryStats(const imgrn::QueryStats& stats, LayerCounts* counts) {
  counts->Add("query.node_pairs_examined", stats.node_pairs_examined);
  counts->Add("query.node_pairs_pruned_signature",
              stats.node_pairs_pruned_signature);
  counts->Add("query.node_pairs_pruned_index", stats.node_pairs_pruned_index);
  counts->Add("query.leaf_pairs_examined", stats.leaf_pairs_examined);
  counts->Add("query.leaf_pairs_pruned_pivot", stats.leaf_pairs_pruned_pivot);
  counts->Add("query.leaf_pairs_pruned_edge", stats.leaf_pairs_pruned_edge);
  counts->Add("query.candidate_matrices", stats.candidate_matrices);
  counts->Add("query.matrices_pruned_graph", stats.matrices_pruned_graph);
  counts->Add("query.answers", stats.answers);
  counts->Add("storage.fetches", static_cast<double>(stats.page_fetches));
  counts->Add("storage.misses", static_cast<double>(stats.page_accesses));
}

namespace {

/// RefineMatrix (query/refinement.cc) with its exact stage unrolled so the
/// permutation fill, the Monte Carlo estimates and the matching can be timed
/// apart. Decision for decision the same computation; the caller checks the
/// outcome against RefineMatrix and QueryWithGraph.
bool UnrolledRefine(const imgrn::ImGrnIndex& index, imgrn::SourceId source,
                    const imgrn::ProbGraph& query,
                    const imgrn::QueryParams& params,
                    imgrn::PermutationCache* cache,
                    std::unordered_set<size_t>* filled_lengths,
                    QueryMatch* match, size_t* pruned_graph, Tracer* tracer,
                    uint64_t request, uint32_t parent) {
  const imgrn::GeneMatrix& matrix = index.database().matrix(source);
  const size_t l = matrix.num_samples();
  std::vector<int> column_of(query.num_vertices());
  for (imgrn::VertexId q = 0; q < query.num_vertices(); ++q) {
    column_of[q] = matrix.ColumnOfGene(query.label(q));
    if (column_of[q] < 0) return false;
  }

  if (params.use_edge_pruning || params.use_graph_pruning) {
    double product_ub = 1.0;
    for (const imgrn::ProbEdge& qe : query.edges()) {
      const size_t ca = static_cast<size_t>(column_of[qe.u]);
      const size_t cb = static_cast<size_t>(column_of[qe.v]);
      const double distance =
          imgrn::EuclideanDistance(matrix.Column(ca), matrix.Column(cb));
      double ub = imgrn::MarkovUpperBoundClosedForm(distance, l);
      if (params.use_pivot_pruning) {
        const imgrn::EmbeddedPoint& pa = index.embedded_point(
            imgrn::RecordRef{source, static_cast<uint32_t>(ca)});
        const imgrn::EmbeddedPoint& pb = index.embedded_point(
            imgrn::RecordRef{source, static_cast<uint32_t>(cb)});
        ub = std::min(ub, imgrn::PivotUpperBound(pa, pb));
        ub = std::min(ub, imgrn::PivotUpperBound(pb, pa));
      }
      if (params.use_edge_pruning && ub <= params.gamma) return false;
      product_ub *= ub;
    }
    if (params.use_graph_pruning &&
        imgrn::GraphExistencePrune(product_ub, params.alpha)) {
      ++*pruned_graph;
      return false;
    }
  }

  if (filled_lengths->insert(l).second) {
    ScopedSpan span(tracer, "inference.fill", request, parent);
    cache->BlocksForLength(l);
  }

  imgrn::ProbGraph candidate;
  for (imgrn::VertexId q = 0; q < query.num_vertices(); ++q) {
    candidate.AddVertex(query.label(q));
  }
  for (const imgrn::ProbEdge& qe : query.edges()) {
    const size_t ca = static_cast<size_t>(column_of[qe.u]);
    const size_t cb = static_cast<size_t>(column_of[qe.v]);
    double p = 0.0;
    {
      ScopedSpan span(tracer, "refine.mc", request, parent);
      p = imgrn::EstimateEdgeProbabilityCached(matrix.Column(ca),
                                               matrix.Column(cb), cache);
    }
    if (p > params.gamma) candidate.AddEdge(qe.u, qe.v, p);
  }

  double best_probability = -1.0;
  imgrn::Embedding best_embedding;
  {
    ScopedSpan span(tracer, "graph.vf2", request, parent);
    imgrn::SubgraphIsoOptions iso_options;
    iso_options.match_labels = true;
    imgrn::SubgraphIsomorphism iso(query, candidate, iso_options);
    iso.Enumerate([&](const imgrn::Embedding& embedding) {
      const double p =
          imgrn::AppearanceProbability(query, candidate, embedding);
      if (p > best_probability) {
        best_probability = p;
        best_embedding = embedding;
      }
      return true;
    });
  }
  if (best_probability <= params.alpha) return false;

  match->source = source;
  match->probability = best_probability;
  match->mapping.clear();
  for (imgrn::VertexId q = 0; q < query.num_vertices(); ++q) {
    match->mapping.emplace_back(
        query.label(q),
        static_cast<uint32_t>(column_of[best_embedding[q]]));
  }
  return true;
}

}  // namespace

bool ReplayRefinement(const imgrn::ImGrnEngine& engine,
                      const imgrn::ProbGraph& query,
                      const imgrn::QueryParams& params,
                      const std::vector<imgrn::SourceId>& candidates,
                      const std::vector<QueryMatch>& expected,
                      size_t expected_pruned_graph, Tracer* tracer,
                      uint64_t request, uint32_t parent) {
  const imgrn::ImGrnIndex& index = engine.index();
  // The processor seeds its refinement cache this way
  // (ImGrnQueryProcessor::QueryWithGraph).
  const uint64_t cache_seed = params.seed ^ 0x5EEDu;

  std::vector<QueryMatch> refined;
  imgrn::QueryStats refine_stats;
  imgrn::PermutationCache refine_cache(params.refine_num_samples, cache_seed);
  for (imgrn::SourceId source : candidates) {
    QueryMatch match;
    bool answer = false;
    {
      ScopedSpan span(tracer, "refine.matrix", request, parent);
      answer = imgrn::RefineMatrix(index, source, query, params, &refine_cache,
                                   &match, &refine_stats);
    }
    if (answer) refined.push_back(std::move(match));
  }
  imgrn::FinalizeMatches(params.top_k, &refined);

  std::vector<QueryMatch> unrolled;
  size_t pruned_graph = 0;
  imgrn::PermutationCache unrolled_cache(params.refine_num_samples,
                                         cache_seed);
  std::unordered_set<size_t> filled_lengths;
  for (imgrn::SourceId source : candidates) {
    QueryMatch match;
    if (UnrolledRefine(index, source, query, params, &unrolled_cache,
                       &filled_lengths, &match, &pruned_graph, tracer,
                       request, parent)) {
      unrolled.push_back(std::move(match));
    }
  }
  imgrn::FinalizeMatches(params.top_k, &unrolled);

  const uint64_t digest = AnswerDigest(expected);
  return AnswerDigest(refined) == digest && AnswerDigest(unrolled) == digest &&
         refine_stats.matrices_pruned_graph == expected_pruned_graph &&
         pruned_graph == expected_pruned_graph;
}

NodeAccessTimes ProbeNodeAccess(imgrn::ImGrnEngine* engine,
                                size_t max_nodes) {
  NodeAccessTimes result;
  imgrn::RTree& tree = engine->mutable_index().mutable_rtree();
  // Breadth-first node ids from the root, through the accounted path.
  std::vector<imgrn::NodeId> ids = {tree.root_id()};
  for (size_t next = 0; next < ids.size() && ids.size() < max_nodes; ++next) {
    imgrn::Result<const imgrn::RTreeNode*> node = tree.node(ids[next]);
    if (!node.ok()) {
      result.ok = false;
      return result;
    }
    if ((*node)->IsLeaf()) continue;
    for (const imgrn::RTreeEntry& entry : (*node)->entries) {
      if (ids.size() >= max_nodes) break;
      ids.push_back(static_cast<imgrn::NodeId>(entry.handle));
    }
  }
  std::vector<double> miss_us;
  std::vector<double> hit_us;
  for (imgrn::NodeId id : ids) {
    tree.FlushBufferPool();
    const int64_t t0 = NowNs();
    const bool miss_ok = tree.node(id).ok();
    const int64_t t1 = NowNs();
    const bool hit_ok = tree.node(id).ok();
    const int64_t t2 = NowNs();
    if (!miss_ok || !hit_ok) result.ok = false;
    miss_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    hit_us.push_back(static_cast<double>(t2 - t1) * 1e-3);
  }
  result.miss_us = Percentile(miss_us, 0.5);
  result.hit_us = Percentile(hit_us, 0.5);
  result.nodes = ids.size();
  return result;
}

double CrcMicrosPerPage(size_t page_size, size_t repetitions) {
  std::vector<uint8_t> page(page_size);
  for (size_t i = 0; i < page_size; ++i) {
    page[i] = static_cast<uint8_t>(i * 131u + 7u);
  }
  std::vector<double> us;
  us.reserve(repetitions);
  uint32_t sink = 0;
  for (size_t r = 0; r < repetitions; ++r) {
    page[r % page_size] ^= static_cast<uint8_t>(sink);
    const int64_t t0 = NowNs();
    sink ^= imgrn::Crc32c(page.data(), page.size());
    us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
  }
  return Percentile(us, 0.5);
}

}  // namespace perfbench
