#ifndef IMGRN_CORE_ENGINE_H_
#define IMGRN_CORE_ENGINE_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "graph/prob_graph.h"
#include "index/imgrn_index.h"
#include "inference/permutation_cache.h"
#include "matrix/gene_matrix.h"
#include "query/imgrn_processor.h"
#include "query/query_types.h"
#include "storage/storage_manager.h"

namespace imgrn {

/// Engine configuration; see ImGrnIndexOptions for the index knobs.
struct EngineOptions {
  ImGrnIndexOptions index;

  /// Backing store for the index's pages and snapshots. The default is the
  /// historical in-memory store; `backend = kDisk` puts every tree page in
  /// a single crash-safe file and enables instant cold start via
  /// SaveSnapshot/LoadSnapshot. `storage.page_size` is ignored — the
  /// engine uses `index.page_size` so tree and store always agree.
  StorageOptions storage;
};

/// The top-level facade of the library — what the paper's Section 8
/// envisions as "a real prototype system": hold a gene feature database,
/// build the IM-GRN index over it once, and serve ad-hoc IM-GRN queries
/// (any gamma / alpha per query) without ever materializing the GRNs.
///
/// Typical use (see examples/quickstart.cc):
///
///   ImGrnEngine engine;
///   engine.LoadDatabase(std::move(db));
///   IMGRN_CHECK_OK(engine.BuildIndex());
///   QueryParams params{.gamma = 0.5, .alpha = 0.5};
///   auto matches = engine.Query(query_matrix, params, &stats);
///
/// Concurrency contract (what service/sharded_engine.h builds on): the const
/// methods — Query, QueryWithGraph, database(), index() — are safe to call
/// from many threads at once on a built index; every piece of mutable
/// state they reach is either per-call (the PermutationCache views, stats)
/// or internally synchronized (the PermutationTable, which may be shared
/// with other engines, and the R*-tree buffer pool). The non-const methods
/// (LoadDatabase, BuildIndex, AddMatrix, RemoveMatrix, SaveSnapshot,
/// LoadSnapshot) require exclusive access: no other call may overlap them.
/// ShardedEngine, the engine QueryService serves, enforces exactly this
/// with a reader-writer lock per shard replica.
class ImGrnEngine {
 public:
  /// `table` supplies the query path's Monte Carlo permutations and must
  /// outlive the engine; null gives the engine a table of its own.
  /// ShardedEngine passes one table to all its shard engines.
  explicit ImGrnEngine(EngineOptions options = {},
                       PermutationTable* table = nullptr);

  ImGrnEngine(const ImGrnEngine&) = delete;
  ImGrnEngine& operator=(const ImGrnEngine&) = delete;

  /// Takes ownership of the database. Invalidates any previously built
  /// index.
  void LoadDatabase(GeneDatabase database);

  const GeneDatabase& database() const { return database_; }

  /// Builds the pivot embedding + R*-tree index (Sections 4-5). Must be
  /// called after LoadDatabase and before Query. InvalidArgument, with
  /// nothing built, when a matrix fails ValidateGeneMatrix (no genes, or a
  /// NaN or ±Inf value). FailedPrecondition, keeping the current index,
  /// once a source was removed (RemoveMatrix freed its data); to drop
  /// removed sources for good, load the surviving ones, renumbered, into
  /// a new engine (examples/database_maintenance.cc).
  Status BuildIndex();

  /// Appends a new data source and indexes it incrementally (no rebuild).
  /// `matrix.source_id()` must equal database().size(). Requires a built
  /// index. InvalidArgument, with the database unchanged, when the matrix
  /// fails ValidateGeneMatrix.
  Status AddMatrix(GeneMatrix matrix);

  /// Removes a data source from query results and frees its data: its
  /// index entries are deleted, and database().matrix(source) becomes a
  /// gene-less matrix that keeps its id and sample count (see
  /// ImGrnIndex::RemoveMatrix). The id is never reused. Requires a built
  /// index.
  Status RemoveMatrix(SourceId source);

  /// Persists the database and the built index — tree pages included —
  /// into the engine's backing store and makes them durable (see
  /// index/snapshot.h, the one persistence format of a built index). On a
  /// disk-backed engine the snapshot survives a crash at any point: the
  /// file always reopens to the last successful SaveSnapshot. A save over
  /// an earlier snapshot frees that snapshot's pages, the node pages of a
  /// tree BuildIndex replaced included, so rebuild-and-save cycles reuse
  /// pages instead of growing the store.
  Status SaveSnapshot();

  /// Reopens the state written by SaveSnapshot from the engine's backing
  /// store, replacing any loaded database and index. The restored R*-tree
  /// is read node-for-node from its pages — no re-ingest, no re-build —
  /// and is bit-identical to the one saved, query I/O included.
  Status LoadSnapshot();

  /// The engine's backing store (opened lazily; null until first use).
  const StorageManager* storage() const { return store_.get(); }

  bool has_index() const { return index_ != nullptr && index_->is_built(); }
  const ImGrnIndex& index() const;

  /// Mutable index access (e.g. FlushBufferPool for cold-cache
  /// measurements). Requires exclusive access, like every non-const call.
  ImGrnIndex& mutable_index();

  /// Runs one IM-GRN query (Definition 4): infer Q from `query_matrix`,
  /// retrieve matching matrices. `stats` may be null. `control`, when
  /// non-null, carries the request's deadline/cancellation flag (see
  /// query/query_control.h); a stopped query returns DeadlineExceeded or
  /// Cancelled.
  Result<std::vector<QueryMatch>> Query(
      const GeneMatrix& query_matrix, const QueryParams& params,
      QueryStats* stats = nullptr, const QueryControl* control = nullptr)
      const;

  /// Variant taking an already-inferred query GRN.
  Result<std::vector<QueryMatch>> QueryWithGraph(
      const ProbGraph& query_graph, const QueryParams& params,
      QueryStats* stats = nullptr, const QueryControl* control = nullptr)
      const;

 private:
  /// Opens store_ from options_.storage on first need. Idempotent.
  Status EnsureStorage();

  EngineOptions options_;
  std::unique_ptr<PermutationTable> owned_table_;  // Null when given one.
  PermutationTable* table_;                        // Never null.
  GeneDatabase database_;
  // Declared before index_: the index's tree reads store_ pages until it
  // is destroyed, and members are destroyed in reverse order.
  std::unique_ptr<StorageManager> store_;
  std::unique_ptr<ImGrnIndex> index_;
  std::unique_ptr<ImGrnQueryProcessor> processor_;
};

}  // namespace imgrn

#endif  // IMGRN_CORE_ENGINE_H_
