#include "query/imgrn_processor.h"

#include <algorithm>
#include <queue>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "inference/grn_inference.h"
#include "matrix/vector_ops.h"
#include "prob/markov_bound.h"
#include "query/refinement.h"

namespace imgrn {

namespace {

/// Priority-queue element: a pair of index nodes that may contain the
/// anchor gene (in `a`) and one of its query neighbors (in `b`). Lower key
/// (= node level) pops first, giving the depth-first order of Fig. 4.
struct QueueElement {
  int key = 0;
  NodeId a = kInvalidNodeId;
  NodeId b = kInvalidNodeId;
};

struct QueueCompare {
  bool operator()(const QueueElement& lhs, const QueueElement& rhs) const {
    return lhs.key > rhs.key;  // Min-heap on key.
  }
};

}  // namespace

struct ImGrnQueryProcessor::TraversalContext {
  GeneId anchor_gene = 0;
  std::vector<GeneId> neighbor_genes;  // Sorted, distinct.

  // Query-side signatures (Fig. 4 lines 3-6).
  std::vector<uint8_t> anchor_gene_sig;     // qV_f(s)
  std::vector<uint8_t> neighbor_gene_sig;   // qV_f(t)
  std::vector<uint8_t> source_filter_sig;   // qV_d(s) & qV_d(t)

  // One leaf entry of the anchor gene or of a neighbor gene.
  struct LeafRecord {
    RecordRef ref;
    EmbeddedPoint point;
  };
  // A leaf's anchor-gene and neighbor-gene entries, each in entry order.
  struct LeafRecords {
    std::vector<LeafRecord> anchors;
    std::vector<LeafRecord> neighbors;
  };
  // Filled on a leaf's first visit: the queue pairs a handful of leaves
  // with each other many times, so each leaf is scanned once per query.
  std::unordered_map<NodeId, LeafRecords> leaf_records;

  // Surviving candidate anchor/neighbor pairs, grouped by source.
  struct CandidatePair {
    SourceId source;
    uint32_t anchor_column;
    uint32_t neighbor_column;
  };
  std::vector<CandidatePair> candidates;
  std::unordered_set<SourceId> candidate_sources;
};

ImGrnQueryProcessor::ImGrnQueryProcessor(const ImGrnIndex* index,
                                         PermutationTable* table)
    : index_(index), table_(table) {
  IMGRN_CHECK(index != nullptr);
  IMGRN_CHECK(index->is_built());
}

ProbGraph InferQueryGraph(const GeneMatrix& query_matrix,
                          const QueryParams& params, PermutationTable* table) {
  GrnInferenceOptions options;
  options.num_samples = params.query_num_samples;
  options.seed = params.seed;
  PermutationCache cache(options.num_samples, options.seed, table);
  return InferGrnEdgeSet(query_matrix, params.gamma, options, &cache);
}

Result<std::vector<QueryMatch>> ImGrnQueryProcessor::Query(
    const GeneMatrix& query_matrix, const QueryParams& params,
    QueryStats* stats, const QueryControl* control) const {
  IMGRN_RETURN_IF_ERROR(ValidateQueryParams(params, &query_matrix));
  if (control != nullptr) {
    IMGRN_RETURN_IF_ERROR(control->Check());
  }
  Stopwatch inference_timer;
  const ProbGraph query_graph = InferQueryGraph(query_matrix, params, table_);
  const double inference_seconds = inference_timer.ElapsedSeconds();

  Result<std::vector<QueryMatch>> result =
      QueryWithGraph(query_graph, params, stats, control);
  if (stats != nullptr) {
    stats->inference_seconds = inference_seconds;
    stats->total_seconds += inference_seconds;
  }
  return result;
}

Result<std::vector<QueryMatch>> ImGrnQueryProcessor::QueryWithGraph(
    const ProbGraph& query_graph, const QueryParams& params,
    QueryStats* stats, const QueryControl* control) const {
  IMGRN_RETURN_IF_ERROR(ValidateQueryParams(params));
  IMGRN_RETURN_IF_ERROR(ValidateQueryGraph(query_graph));
  if (control != nullptr) {
    IMGRN_RETURN_IF_ERROR(control->Check());
  }
  QueryStats local_stats;
  local_stats.query_vertices = query_graph.num_vertices();
  local_stats.query_edges = query_graph.num_edges();

  Stopwatch total_timer;
  const IoStats io_before = index_->rtree().io_stats();

  std::vector<QueryMatch> matches;
  if (query_graph.num_edges() == 0) {
    matches = MatchEdgeless(query_graph);
    FinalizeMatches(params.top_k, &matches);
    local_stats.answers = matches.size();
    local_stats.total_seconds = total_timer.ElapsedSeconds();
    if (stats != nullptr) *stats = local_stats;
    return matches;
  }

  // --- Traversal (Fig. 4 lines 2-27) ---
  Stopwatch traversal_timer;
  TraversalContext ctx;
  IMGRN_RETURN_IF_ERROR(
      TraverseIndex(query_graph, params, control, &ctx, &local_stats));
  local_stats.traversal_seconds = traversal_timer.ElapsedSeconds();
  local_stats.candidate_pairs = ctx.candidates.size();
  local_stats.candidate_matrices = ctx.candidate_sources.size();

  // --- Refinement (Fig. 4 lines 28-30) ---
  Stopwatch refinement_timer;
  PermutationCache cache(params.refine_num_samples, params.seed ^ 0x5EEDu,
                         table_);
  std::vector<SourceId> sources(ctx.candidate_sources.begin(),
                                ctx.candidate_sources.end());
  std::sort(sources.begin(), sources.end());
  // Per-source cost attribution: refinement is timed exactly per source;
  // the traversal (interleaved across sources by construction) is prorated
  // by each source's share of the surviving candidate pairs.
  const bool attribute = params.collect_source_costs;
  std::unordered_map<SourceId, uint64_t> pairs_of;
  if (attribute) {
    local_stats.source_costs.reserve(sources.size());
    for (const TraversalContext::CandidatePair& pair : ctx.candidates) {
      ++pairs_of[pair.source];
    }
  }
  for (SourceId source : sources) {
    if (control != nullptr) {
      IMGRN_RETURN_IF_ERROR(control->Check());
    }
    Stopwatch source_timer;
    QueryMatch match;
    if (RefineMatrix(*index_, source, query_graph, params, &cache, &match,
                     &local_stats)) {
      matches.push_back(std::move(match));
    }
    if (attribute) {
      SourceCostSample sample;
      sample.source = source;
      sample.seconds = source_timer.ElapsedSeconds();
      sample.candidate_pairs = pairs_of[source];
      if (!ctx.candidates.empty()) {
        sample.seconds += local_stats.traversal_seconds *
                          static_cast<double>(sample.candidate_pairs) /
                          static_cast<double>(ctx.candidates.size());
      }
      local_stats.source_costs.push_back(sample);
    }
  }
  local_stats.refinement_seconds = refinement_timer.ElapsedSeconds();
  FinalizeMatches(params.top_k, &matches);
  local_stats.answers = matches.size();
  local_stats.total_seconds = total_timer.ElapsedSeconds();

  const IoStats io_after = index_->rtree().io_stats();
  local_stats.page_accesses = io_after.misses - io_before.misses;
  local_stats.page_fetches = io_after.fetches - io_before.fetches;
  if (stats != nullptr) *stats = local_stats;
  return matches;
}

Status ImGrnQueryProcessor::TraverseIndex(const ProbGraph& query,
                                          const QueryParams& params,
                                          const QueryControl* control,
                                          TraversalContext* ctx,
                                          QueryStats* stats) const {
  const RTree& rtree = index_->rtree();
  const ByteSignatureLayout layout = index_->signature_layout();
  const size_t sig_bytes = layout.num_bytes();
  const size_t d = index_->num_pivots();

  // Anchor gene: highest degree in Q (Fig. 4 line 2).
  const VertexId anchor = query.MaxDegreeVertex();
  ctx->anchor_gene = query.label(anchor);
  for (VertexId neighbor : query.Neighbors(anchor)) {
    ctx->neighbor_genes.push_back(query.label(neighbor));
  }
  std::sort(ctx->neighbor_genes.begin(), ctx->neighbor_genes.end());
  ctx->neighbor_genes.erase(
      std::unique(ctx->neighbor_genes.begin(), ctx->neighbor_genes.end()),
      ctx->neighbor_genes.end());

  // Query-side signatures (lines 3-6).
  ctx->anchor_gene_sig.assign(sig_bytes, 0);
  ByteSignatureAdd(layout, ctx->anchor_gene, ctx->anchor_gene_sig);
  ctx->neighbor_gene_sig.assign(sig_bytes, 0);
  std::vector<uint8_t> source_sig_s(
      index_->InvertedFileEntry(ctx->anchor_gene).begin(),
      index_->InvertedFileEntry(ctx->anchor_gene).end());
  std::vector<uint8_t> source_sig_t(sig_bytes, 0);
  for (GeneId gene : ctx->neighbor_genes) {
    ByteSignatureAdd(layout, gene, ctx->neighbor_gene_sig);
    const std::span<const uint8_t> if_entry = index_->InvertedFileEntry(gene);
    ByteSignatureMerge(source_sig_t.data(), if_entry.data(), sig_bytes);
  }
  // Sources must contain the anchor gene AND at least one neighbor gene:
  // qV_d(s) & qV_d(t).
  ctx->source_filter_sig.resize(sig_bytes);
  for (size_t i = 0; i < sig_bytes; ++i) {
    ctx->source_filter_sig[i] = source_sig_s[i] & source_sig_t[i];
  }
  // The anchor's V_f bits as (byte, mask) probes. A subtree may hold the
  // anchor only if EVERY probe's bits are set, as ByteSignatureMayContain
  // requires; one matching bit is not enough.
  std::vector<std::pair<size_t, uint8_t>> anchor_probes;
  for (size_t i = 0; i < sig_bytes; ++i) {
    if (ctx->anchor_gene_sig[i] != 0) {
      anchor_probes.emplace_back(i, ctx->anchor_gene_sig[i]);
    }
  }

  // The gene-ID dimension of the index (position 2d, Section 5.1) groups
  // equal genes, so a node's MBR carries the exact range of gene IDs under
  // it: a subtree can hold the anchor (resp. a neighbor) only if its range
  // covers that ID. This structural check complements the hashed
  // signatures, which saturate near the root where subtrees span many
  // genes.
  const size_t gene_dim = 2 * d;
  const double anchor_value = static_cast<double>(ctx->anchor_gene);

  // Every gene-range and signature test of a child pair (E_a, E_b) reads
  // one side only: E_a must be able to hold the anchor, E_b a neighbor,
  // and both a source with the anchor and a neighbor. A pair passes them
  // iff E_a passes the anchor-side tests and E_b the neighbor-side tests.
  auto anchor_side_passes = [&](const RTreeEntry& entry) {
    if (entry.mbr.lo(gene_dim) > anchor_value ||
        entry.mbr.hi(gene_dim) < anchor_value) {
      return false;
    }
    const std::span<const uint8_t> genes = index_->GeneSignature(entry);
    for (const auto& [byte, mask] : anchor_probes) {
      if ((genes[byte] & mask) != mask) return false;
    }
    return index_->EntryMayIntersectSources(entry, ctx->source_filter_sig);
  };
  auto neighbor_side_passes = [&](const RTreeEntry& entry) {
    // The first neighbor at or above the range's low end must not pass
    // its high end.
    const auto first = std::lower_bound(
        ctx->neighbor_genes.begin(), ctx->neighbor_genes.end(),
        entry.mbr.lo(gene_dim), [](GeneId gene, double value) {
          return static_cast<double>(gene) < value;
        });
    if (first == ctx->neighbor_genes.end() ||
        static_cast<double>(*first) > entry.mbr.hi(gene_dim)) {
      return false;
    }
    return ByteSignaturesIntersect(index_->GeneSignature(entry),
                                   ctx->neighbor_gene_sig) &&
           index_->EntryMayIntersectSources(entry, ctx->source_filter_sig);
  };

  std::priority_queue<QueueElement, std::vector<QueueElement>, QueueCompare>
      queue;
  std::vector<const RTreeEntry*> anchor_side;
  std::vector<const RTreeEntry*> neighbor_side;
  // Expands one node pair (lines 9-13 for the root, 22-26 below it): each
  // side's children are filtered once, and Lemma 6 runs on the cross
  // product of the survivors in the nested order of Fig. 4, so the queue
  // sees the same pushes as a test of every child pair would make. The
  // counters still describe all |A|·|B| child pairs.
  auto expand = [&](const RTreeNode& node_a, const RTreeNode& node_b,
                    int child_key) {
    anchor_side.clear();
    neighbor_side.clear();
    for (const RTreeEntry& entry : node_a.entries) {
      if (anchor_side_passes(entry)) anchor_side.push_back(&entry);
    }
    if (!anchor_side.empty()) {
      for (const RTreeEntry& entry : node_b.entries) {
        if (neighbor_side_passes(entry)) neighbor_side.push_back(&entry);
      }
    }
    const size_t pairs = node_a.entries.size() * node_b.entries.size();
    stats->node_pairs_examined += pairs;
    stats->node_pairs_pruned_signature +=
        pairs - anchor_side.size() * neighbor_side.size();
    for (const RTreeEntry* ca : anchor_side) {
      for (const RTreeEntry* cb : neighbor_side) {
        if (params.use_index_pruning &&
            (ImGrnIndex::IndexPruneNodePair(ca->mbr, cb->mbr, d,
                                            params.gamma) ||
             ImGrnIndex::IndexPruneNodePair(cb->mbr, ca->mbr, d,
                                            params.gamma))) {
          ++stats->node_pairs_pruned_index;
          continue;
        }
        queue.push(QueueElement{child_key, static_cast<NodeId>(ca->handle),
                                static_cast<NodeId>(cb->handle)});
      }
    }
  };

  // A leaf's anchor-gene and neighbor-gene entries, listed on first visit.
  // The gene is read from the point MBR before anything is decoded.
  auto records_of = [&](NodeId id, const RTreeNode& leaf)
      -> const TraversalContext::LeafRecords& {
    auto [it, inserted] = ctx->leaf_records.try_emplace(id);
    if (!inserted) return it->second;
    for (const RTreeEntry& entry : leaf.entries) {
      const GeneId gene = static_cast<GeneId>(entry.mbr.lo(gene_dim));
      const bool is_anchor = gene == ctx->anchor_gene;
      const bool is_neighbor = std::binary_search(
          ctx->neighbor_genes.begin(), ctx->neighbor_genes.end(), gene);
      if (!is_anchor && !is_neighbor) continue;
      TraversalContext::LeafRecord record{DecodeRecordRef(entry.handle),
                                          index_->PointFromLeafEntry(entry)};
      if (is_anchor) it->second.anchors.push_back(record);
      if (is_neighbor) it->second.neighbors.push_back(std::move(record));
    }
    return it->second;
  };

  // Processes a leaf node pair (lines 16-21): every anchor entry of `a`
  // against every neighbor entry of `b` from the same source, in entry
  // order.
  auto process_leaf_pair = [&](NodeId a, const RTreeNode& leaf_a, NodeId b,
                               const RTreeNode& leaf_b) {
    // unordered_map references survive the insertion of `b`'s records.
    const TraversalContext::LeafRecords& records_a = records_of(a, leaf_a);
    const TraversalContext::LeafRecords& records_b = records_of(b, leaf_b);
    for (const TraversalContext::LeafRecord& pa : records_a.anchors) {
      for (const TraversalContext::LeafRecord& pb : records_b.neighbors) {
        if (pa.ref.source != pb.ref.source) continue;
        ++stats->leaf_pairs_examined;

        if (params.use_pivot_pruning &&
            (PivotPruneEdge(pa.point, pb.point, params.gamma) ||
             PivotPruneEdge(pb.point, pa.point, params.gamma))) {
          ++stats->leaf_pairs_pruned_pivot;
          continue;
        }
        if (params.use_edge_pruning) {
          const GeneMatrix& matrix = index_->database().matrix(pa.ref.source);
          const double distance =
              EuclideanDistance(matrix.Column(pa.ref.column),
                                matrix.Column(pb.ref.column));
          if (EdgeInferencePrune(distance, matrix.num_samples(),
                                 params.gamma)) {
            ++stats->leaf_pairs_pruned_edge;
            continue;
          }
        }
        ctx->candidates.push_back(TraversalContext::CandidatePair{
            pa.ref.source, pa.ref.column, pb.ref.column});
        ctx->candidate_sources.insert(pa.ref.source);
      }
    }
  };

  if (rtree.root_id() == kInvalidNodeId) return Status::Ok();
  Result<const RTreeNode*> root_fetch = rtree.node(rtree.root_id());
  if (!root_fetch.ok()) return root_fetch.status();
  const RTreeNode& root = **root_fetch;
  if (root.IsLeaf()) {
    process_leaf_pair(rtree.root_id(), root, rtree.root_id(), root);
    return Status::Ok();
  }
  // Seed with surviving ordered pairs of root entries (lines 9-13).
  expand(root, root, root.level - 1);

  // Main loop (lines 14-27). The control checkpoint sits here — once per
  // popped node pair — so a deadline or cancel stops the traversal within
  // one pair's worth of work.
  while (!queue.empty()) {
    if (control != nullptr) {
      IMGRN_RETURN_IF_ERROR(control->Check());
    }
    const QueueElement element = queue.top();
    queue.pop();
    Result<const RTreeNode*> fetch_a = rtree.node(element.a);
    if (!fetch_a.ok()) return fetch_a.status();
    Result<const RTreeNode*> fetch_b = rtree.node(element.b);
    if (!fetch_b.ok()) return fetch_b.status();
    const RTreeNode& node_a = **fetch_a;
    const RTreeNode& node_b = **fetch_b;
    if (node_a.IsLeaf()) {
      process_leaf_pair(element.a, node_a, element.b, node_b);
      continue;
    }
    expand(node_a, node_b, element.key - 1);
  }
  return Status::Ok();
}

std::vector<QueryMatch> ImGrnQueryProcessor::MatchEdgeless(
    const ProbGraph& query) const {
  std::vector<QueryMatch> matches;
  const GeneDatabase& database = index_->database();
  for (SourceId i = 0; i < database.size(); ++i) {
    if (!index_->IsActive(i)) continue;
    const GeneMatrix& matrix = database.matrix(i);
    QueryMatch match;
    match.source = i;
    match.probability = 1.0;  // Empty product of Eq. 3.
    bool all_present = true;
    for (VertexId q = 0; q < query.num_vertices(); ++q) {
      const int column = matrix.ColumnOfGene(query.label(q));
      if (column < 0) {
        all_present = false;
        break;
      }
      match.mapping.emplace_back(query.label(q),
                                 static_cast<uint32_t>(column));
    }
    if (all_present) {
      matches.push_back(std::move(match));
    }
  }
  return matches;
}

}  // namespace imgrn
