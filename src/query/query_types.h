#ifndef IMGRN_QUERY_QUERY_TYPES_H_
#define IMGRN_QUERY_QUERY_TYPES_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "graph/prob_graph.h"
#include "matrix/gene_matrix.h"

namespace imgrn {

/// Parameters of an IM-GRN query (Definition 4) plus processing knobs.
struct QueryParams {
  /// Ad-hoc inference threshold gamma in [0, 1).
  double gamma = 0.5;

  /// Probabilistic (appearance) threshold alpha in [0, 1).
  double alpha = 0.5;

  /// Monte Carlo permutations for inferring the query GRN from M_Q; in
  /// [1, kMaxPermutationSamples].
  size_t query_num_samples = 128;

  /// Monte Carlo permutations for exact edge probabilities in refinement;
  /// in [1, kMaxPermutationSamples].
  size_t refine_num_samples = 128;

  /// Pruning toggles (all on by default; benches ablate them).
  bool use_edge_pruning = true;   // Lemma 3 (Markov closed form).
  bool use_pivot_pruning = true;  // Section 4.2 (PPR).
  bool use_index_pruning = true;  // Lemma 6 (node pairs).
  bool use_graph_pruning = true;  // Lemma 5 (appearance upper bound).

  /// If > 0, return only the top-k matches ranked by appearance
  /// probability Pr{G} (descending, ties by source id). 0 returns all
  /// matches in source order.
  size_t top_k = 0;

  /// When set, the processor attributes the query's wall-clock to the
  /// individual sources it refined and reports the breakdown in
  /// QueryStats::source_costs. Off by default: the breakdown costs a small
  /// amount of bookkeeping per candidate source. Its consumer is
  /// perfbench's traced replay, which reads the candidate sources from it;
  /// ShardedEngine ignores the flag.
  bool collect_source_costs = false;

  uint64_t seed = 99;
};

/// kInvalidArgument unless gamma and alpha lie in [0, 1) (NaN does not) and
/// both sample counts lie in [1, kMaxPermutationSamples]; given a
/// `query_matrix`, also unless it passes ValidateGeneMatrix. Every query
/// entry point (ImGrnQueryProcessor, ShardedEngine) checks this before any
/// work.
Status ValidateQueryParams(const QueryParams& params,
                           const GeneMatrix* query_matrix = nullptr);

/// kInvalidArgument unless `query_graph` has a vertex and no two vertices
/// share a gene label. A GRN holds each gene once, so a matrix holding
/// every query gene embeds the query only one way (refinement.h); every
/// QueryWithGraph entry point checks this before any work.
Status ValidateQueryGraph(const ProbGraph& query_graph);

/// One IM-GRN answer: matrix M_i matched the query.
struct QueryMatch {
  SourceId source = 0;

  /// Appearance probability Pr{G} (Eq. 3) of the best matching embedding.
  double probability = 0.0;

  /// The matched embedding: (query gene id, column in M_i) per query vertex.
  std::vector<std::pair<GeneId, uint32_t>> mapping;
};

/// Applies the top_k policy: ranks by probability (descending, ties by
/// source) and truncates when `top_k` > 0. Shared by every query method so
/// their outputs stay comparable.
void FinalizeMatches(size_t top_k, std::vector<QueryMatch>* matches);

/// One source's share of a query's work, reported only when
/// QueryParams::collect_source_costs is set. `seconds` is wall-clock the
/// query spent on this source: its refinement time measured exactly
/// (including any permutation-cache fill it triggered), plus the shared
/// index-traversal time prorated by the source's share of the surviving
/// candidate pairs (traversal work is interleaved across sources, so an
/// exact per-source split does not exist; candidate pairs are the closest
/// observable proxy for where the traversal lingered).
struct SourceCostSample {
  SourceId source = 0;
  double seconds = 0.0;
  uint64_t candidate_pairs = 0;
};

/// Metrics of one query execution, mirroring the paper's reported series
/// (CPU time, I/O cost as page accesses, number of candidates) plus
/// per-pruning-stage counters used by the ablation bench.
struct QueryStats {
  double inference_seconds = 0.0;

  /// Time in the index traversal and in refinement. ShardedEngine sums
  /// them over its shards' sub-queries, which overlap in wall time, so
  /// there they are CPU seconds and can exceed total_seconds.
  double traversal_seconds = 0.0;
  double refinement_seconds = 0.0;

  double total_seconds = 0.0;

  /// Physical page accesses (buffer-pool misses) during the query.
  uint64_t page_accesses = 0;
  /// Logical page fetches (including buffer-pool hits).
  uint64_t page_fetches = 0;

  size_t query_vertices = 0;
  size_t query_edges = 0;

  /// Logical child pairs (E_a, E_b) of every node-pair expansion, |A|·|B|
  /// each, not predicate evaluations: the traversal tests each side's
  /// children once, and only the cross product of the survivors meets
  /// Lemma 6. A pair failing the gene-range or signature tests of either
  /// side counts in node_pairs_pruned_signature.
  size_t node_pairs_examined = 0;
  size_t node_pairs_pruned_signature = 0;
  size_t node_pairs_pruned_index = 0;  // Lemma 6.
  size_t leaf_pairs_examined = 0;
  size_t leaf_pairs_pruned_pivot = 0;  // Section 4.2.
  size_t leaf_pairs_pruned_edge = 0;   // Lemma 3.

  /// Candidate gene pairs surviving the index traversal + pruning (the
  /// paper's "number of candidates").
  size_t candidate_pairs = 0;
  /// Distinct candidate matrices entering refinement.
  size_t candidate_matrices = 0;
  size_t matrices_pruned_graph = 0;  // Lemma 5 during refinement.
  size_t answers = 0;

  /// Per-source cost attribution (ascending source id): one entry per
  /// candidate matrix refined, so its size is candidate_matrices. Filled
  /// only when QueryParams::collect_source_costs is set and only by
  /// processors that implement the breakdown (ImGrnQueryProcessor does;
  /// baseline scans and ShardedEngine leave it empty). Sources the
  /// traversal pruned entirely do not appear.
  std::vector<SourceCostSample> source_costs;

  /// Always 0: no engine retries a sub-query or fails over to another
  /// replica; a query fails whole. They remain only because perfbench
  /// reports them as `service.retries` and `service.failovers`.
  uint64_t shard_retries = 0;
  uint64_t replica_failovers = 0;
};

}  // namespace imgrn

#endif  // IMGRN_QUERY_QUERY_TYPES_H_
