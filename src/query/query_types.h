#ifndef IMGRN_QUERY_QUERY_TYPES_H_
#define IMGRN_QUERY_QUERY_TYPES_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "matrix/gene_matrix.h"

namespace imgrn {

/// Parameters of an IM-GRN query (Definition 4) plus processing knobs.
struct QueryParams {
  /// Ad-hoc inference threshold gamma in [0, 1).
  double gamma = 0.5;

  /// Probabilistic (appearance) threshold alpha in [0, 1).
  double alpha = 0.5;

  /// Monte Carlo permutations for inferring the query GRN from M_Q.
  size_t query_num_samples = 128;

  /// Monte Carlo permutations for exact edge probabilities in refinement.
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
  /// individual sources it touched and reports the breakdown in
  /// QueryStats::source_costs. Off by default: the breakdown costs a small
  /// amount of bookkeeping per candidate source, and only load-balancing
  /// callers (ShardedEngine's measured cost model) consume it.
  bool collect_source_costs = false;

  /// Degradation policy for fan-out engines (ShardedEngine). When set, a
  /// query whose sub-queries fail on SOME shards with an infrastructure
  /// error (kUnavailable after retries are exhausted, kDataLoss, or a
  /// quarantined shard) still succeeds, returning the surviving shards'
  /// matches — bit-exact for every source a surviving shard owns — with
  /// QueryStats::degraded set and the failed shards listed. When unset
  /// (default), any shard failure fails the whole query. Caller-attributed
  /// errors (cancellation, deadline, invalid arguments) always fail the
  /// query, and so does every shard failing at once.
  bool allow_partial = false;

  uint64_t seed = 99;
};

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
/// (minus any permutation-cache fill the source happened to trigger —
/// fills are per-query overhead shared across sources and are reported in
/// QueryStats::permutation_fill_seconds instead), plus the shared
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
  double traversal_seconds = 0.0;
  double refinement_seconds = 0.0;
  double total_seconds = 0.0;

  /// Wall-clock spent filling the refinement PermutationCache (generating
  /// the per-length permutation samples and their block re-layouts). This
  /// is per-QUERY overhead — each distinct sample length is filled once no
  /// matter how many sources share it — so it is reported here and
  /// deliberately EXCLUDED from the per-source seconds in source_costs:
  /// booking it to whichever source happened to refine first made the
  /// measured cost model layout-dependent (the same source read as more
  /// expensive whenever it led its shard's refinement order). The sharded
  /// engine books this to a per-shard overhead bucket instead.
  double permutation_fill_seconds = 0.0;

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

  /// Per-source cost attribution (ascending source id), filled only when
  /// QueryParams::collect_source_costs is set and only by processors that
  /// implement the breakdown (ImGrnQueryProcessor does; baseline scans
  /// leave it empty). Sources the traversal pruned entirely do not appear.
  std::vector<SourceCostSample> source_costs;

  /// True when QueryParams::allow_partial let the query succeed without
  /// some shards: the answer is complete for every source owned by a shard
  /// in neither of the lists below, and silent about the rest.
  bool degraded = false;

  /// The shards whose sub-queries failed (ascending), when degraded.
  std::vector<size_t> failed_shards;

  /// Sub-query retry attempts this query spent riding out transient
  /// (kUnavailable) shard failures, across all shards. 0 on the happy
  /// path.
  uint64_t shard_retries = 0;

  /// True when the answer (matches AND the counters above) was served from
  /// the ShardedEngine's result cache instead of a fresh fan-out. By the
  /// engine's determinism a hit is bit-identical to the evaluation it
  /// stands in for, so this flag (plus replica_failovers) is the only
  /// stats field a cache may legitimately change — the differential suite
  /// masks exactly these.
  bool cache_hit = false;

  /// Replicas the round-robin router skipped past (quarantined breaker)
  /// or abandoned after a failure, summed across all shards' sub-queries.
  /// 0 when every shard's first-choice replica answered.
  uint64_t replica_failovers = 0;
};

}  // namespace imgrn

#endif  // IMGRN_QUERY_QUERY_TYPES_H_
