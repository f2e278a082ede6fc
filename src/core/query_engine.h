#ifndef IMGRN_CORE_QUERY_ENGINE_H_
#define IMGRN_CORE_QUERY_ENGINE_H_

#include <shared_mutex>
#include <vector>

#include "common/status.h"
#include "core/engine.h"
#include "graph/prob_graph.h"
#include "matrix/gene_matrix.h"
#include "query/query_control.h"
#include "query/query_types.h"

namespace imgrn {

/// The engine abstraction the serving layer is written against: something
/// that answers IM-GRN queries and absorbs incremental source updates.
///
/// Concurrency contract — stronger than ImGrnEngine's: every method is
/// safe to call from any thread at any time. Implementations synchronize
/// queries against updates internally (ImGrnEngine itself only promises a
/// thread-compatible const query path, so it does NOT implement this
/// interface directly; SingleEngine adds the lock, ShardedEngine holds one
/// lock per shard).
///
/// Source ids are dense and append-only across the engine's lifetime: the
/// i-th added source has id i, and AddSource requires the next id in
/// sequence. RemoveSource retracts a source from query results; its id is
/// never reused.
class QueryEngine {
 public:
  virtual ~QueryEngine() = default;

  /// Runs one IM-GRN query (ad-hoc inference + matching). `stats` may be
  /// null; `control`, when non-null, carries the request's deadline /
  /// cancellation flag.
  ///
  /// Per-query cost attribution: when QueryParams::collect_source_costs
  /// is set, implementations that support it fill `stats->source_costs`
  /// with the wall-clock each refined source accounted for (see
  /// query/query_types.h). SingleEngine passes ImGrnEngine's breakdown
  /// through; engines without one, ShardedEngine included, leave it empty.
  ///
  /// Every query is evaluated against the engine's current source set,
  /// and fails whole: either every match, or an error Status and none.
  virtual Result<std::vector<QueryMatch>> Query(
      const GeneMatrix& query_matrix, const QueryParams& params,
      QueryStats* stats = nullptr,
      const QueryControl* control = nullptr) const = 0;

  /// Variant taking an already-inferred query GRN.
  virtual Result<std::vector<QueryMatch>> QueryWithGraph(
      const ProbGraph& query_graph, const QueryParams& params,
      QueryStats* stats = nullptr,
      const QueryControl* control = nullptr) const = 0;

  /// Appends a new data source; `matrix.source_id()` must be the next
  /// dense id. Serialized against queries internally.
  virtual Status AddSource(GeneMatrix matrix) = 0;

  /// Retracts a data source from query results.
  virtual Status RemoveSource(SourceId source) = 0;

  /// Number of source ids ever assigned (retracted sources included —
  /// ids are never reused, so this is also the next AddSource id).
  virtual size_t num_sources() const = 0;
};

/// QueryEngine over one ImGrnEngine: a reader-writer lock makes the
/// engine's thread-compatible const query path safely concurrent with
/// updates — exactly the PR-1 QueryService locking discipline, extracted
/// so the service can serve a single engine and a ShardedEngine through
/// the same interface.
///
/// The wrapped engine must outlive the adapter, and while the adapter is
/// in use all engine mutations must go through it (a bare
/// engine.AddMatrix() would bypass the write lock).
class SingleEngine : public QueryEngine {
 public:
  explicit SingleEngine(ImGrnEngine* engine);

  SingleEngine(const SingleEngine&) = delete;
  SingleEngine& operator=(const SingleEngine&) = delete;

  Result<std::vector<QueryMatch>> Query(
      const GeneMatrix& query_matrix, const QueryParams& params,
      QueryStats* stats = nullptr,
      const QueryControl* control = nullptr) const override;

  Result<std::vector<QueryMatch>> QueryWithGraph(
      const ProbGraph& query_graph, const QueryParams& params,
      QueryStats* stats = nullptr,
      const QueryControl* control = nullptr) const override;

  Status AddSource(GeneMatrix matrix) override;
  Status RemoveSource(SourceId source) override;
  size_t num_sources() const override;

  ImGrnEngine& engine() { return *engine_; }

 private:
  ImGrnEngine* engine_;

  /// Readers = queries, writers = AddSource/RemoveSource.
  mutable std::shared_mutex mutex_;
};

}  // namespace imgrn

#endif  // IMGRN_CORE_QUERY_ENGINE_H_
