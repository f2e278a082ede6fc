#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/engine.h"
#include "graph/prob_graph.h"
#include "harness.h"
#include "query/query_types.h"

namespace perfbench {

/// Per-layer counters summed over the traced requests of a run.
class LayerCounts {
 public:
  void Add(const std::string& name, double value) { sums_[name] += value; }
  double Sum(const std::string& name) const;
  double PerRequest(const std::string& name, size_t requests) const;

 private:
  std::map<std::string, double> sums_;
};

/// Infers the query GRN exactly as ImGrnEngine::Query does (same options
/// and seed), under an "inference.infer" span, and adds the
/// GrnInferenceStats pair counts to `counts`.
imgrn::ProbGraph TracedInferGrn(const imgrn::GeneMatrix& query_matrix,
                                const imgrn::QueryParams& params,
                                Tracer* tracer, uint64_t request,
                                uint32_t parent, LayerCounts* counts);

/// Adds the QueryStats traversal and refinement counters to `counts`.
void CountQueryStats(const imgrn::QueryStats& stats, LayerCounts* counts);

/// Replays the refinement of one QueryWithGraph call on `engine`, whose
/// `candidates` (ascending) came from QueryStats::source_costs, and checks
/// it against that call's `expected` matches. Two replays run:
///  - RefineMatrix itself per candidate with a fresh PermutationCache,
///    under "refine.matrix" spans (their sum is the refinement share of
///    QueryWithGraph);
///  - the same stages unrolled, so the permutation fill of every distinct
///    candidate length ("inference.fill", PermutationCache::
///    BlocksForLength), the Monte Carlo estimate of every query edge
///    ("refine.mc", EstimateEdgeProbabilityCached) and the matching
///    ("graph.vf2", SubgraphIsomorphism::Enumerate with
///    AppearanceProbability) are timed separately.
/// Returns true only when both replays reproduce `expected` bit-exactly
/// and agree with `expected_pruned_graph` (QueryStats::
/// matrices_pruned_graph).
bool ReplayRefinement(const imgrn::ImGrnEngine& engine,
                      const imgrn::ProbGraph& query,
                      const imgrn::QueryParams& params,
                      const std::vector<imgrn::SourceId>& candidates,
                      const std::vector<imgrn::QueryMatch>& expected,
                      size_t expected_pruned_graph, Tracer* tracer,
                      uint64_t request, uint32_t parent);

/// Buffer-pool probe: the median time of RTree::node on up to `max_nodes`
/// nodes right after FlushBufferPool (a miss) and again straight after
/// (a hit), in microseconds.
struct NodeAccessTimes {
  double miss_us = 0.0;
  double hit_us = 0.0;
  size_t nodes = 0;
  bool ok = true;
};
NodeAccessTimes ProbeNodeAccess(imgrn::ImGrnEngine* engine, size_t max_nodes);

/// Median time of Crc32c over one index page, in microseconds.
double CrcMicrosPerPage(size_t page_size, size_t repetitions);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
