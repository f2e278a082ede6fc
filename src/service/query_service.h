#ifndef IMGRN_SERVICE_QUERY_SERVICE_H_
#define IMGRN_SERVICE_QUERY_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <vector>

#include "service/metrics.h"
#include "service/sharded_engine.h"
#include "service/thread_pool.h"

namespace imgrn {

/// Knobs of a QueryService.
struct QueryServiceOptions {
  /// Admission control: the maximum number of queries admitted but not yet
  /// finished (queued + running). SubmitQuery beyond this fails fast with
  /// ResourceExhausted instead of building an unbounded backlog.
  size_t max_queue_depth = 256;
};

/// The serving layer of Section 8's "real prototype system": schedules
/// query execution over a ShardedEngine on a work-stealing ThreadPool, with
/// per-request deadlines/cancellation, admission control, and service
/// metrics. The engine keeps queries and updates consistent (see its
/// contract): an update write-locks only its own shard, so every
/// sub-query sees that shard either before or after the update. With one
/// shard (num_shards = 1) every query sees one consistent snapshot.
///
/// Typical use:
///
///   ThreadPool pool(8);
///   ShardedEngineOptions options;
///   options.num_shards = 1;
///   ShardedEngine engine(options, &pool);
///   engine.LoadDatabase(std::move(database));
///   IMGRN_CHECK_OK(engine.BuildIndex());
///   QueryService service(&engine, &pool);
///   auto pending = service.SubmitQuery(mq, params, 50ms);
///   ... // pending.control->RequestCancel() to abort early
///   Result<std::vector<QueryMatch>> r = pending.result.get();
///   LOG(INFO) << service.MetricsSnapshot().DebugString();
///
/// Notes:
///   - The engine and the pool must outlive the service. The pool is the
///     caller's; sharing it with the engine's fan-out is the usual shape.
///   - The latency metrics time a query from the moment a pool worker
///     starts it to its completion; queue wait is not included
///     (queue_depth shows the backlog).
///   - Per-query I/O attribution (QueryStats::page_accesses) is
///     approximate under concurrency: the buffer-pool counters are global
///     per index, so concurrent queries see each other's fetches in their
///     deltas.
///   - Gathering (QueryBatch, future::get) must happen on a non-worker
///     thread; gathering from inside a pool task can deadlock the pool.
///     (The sharded engine's internal fan-out/gather is exempt: it gathers
///     with ThreadPool::WaitReady, which helps run queued tasks.)
class QueryService {
 public:
  using QueryResult = Result<std::vector<QueryMatch>>;

  /// One in-flight request: the future of its result plus the control
  /// handle for cancellation (null when the request was rejected at
  /// admission, in which case the future is already ready).
  struct PendingQuery {
    std::future<QueryResult> result;
    std::shared_ptr<QueryControl> control;
  };

  /// Serves `engine` on `pool`, which may also be the engine's fan-out
  /// pool. Both must outlive the service.
  QueryService(ShardedEngine* engine, ThreadPool* pool,
               QueryServiceOptions options = {});

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Blocks until every admitted query has finished.
  ~QueryService();

  /// Schedules one IM-GRN query (full pipeline: inference + matching)
  /// with no deadline. Returns immediately; the result arrives through the
  /// future. A full service yields a ready future holding
  /// ResourceExhausted.
  PendingQuery SubmitQuery(GeneMatrix query_matrix, const QueryParams& params);

  /// Same with an explicit deadline relative to now. A zero (or negative)
  /// deadline admits the query but expires it at its first checkpoint, so
  /// it completes with DeadlineExceeded — the conventional probe for "is
  /// the service at capacity". A deadline past the clock's range, such as
  /// nanoseconds::max(), never expires.
  PendingQuery SubmitQuery(GeneMatrix query_matrix, const QueryParams& params,
                           std::chrono::nanoseconds deadline);

  /// Fans the query matrices out across the pool and gathers the results
  /// in input order (per-entry statuses; one rejected query does not
  /// disturb its neighbors). No deadline.
  std::vector<QueryResult> QueryBatch(const std::vector<GeneMatrix>& queries,
                                      const QueryParams& params);

  /// Engine updates: ShardedEngine::AddSource and RemoveSource. Each
  /// write-locks only the owning shard, waits for the sub-queries running
  /// there to drain, then applies atomically with respect to queries.
  Status AddMatrix(GeneMatrix matrix);
  Status RemoveMatrix(SourceId source);

  /// Current admission-control occupancy (admitted, not yet finished).
  size_t queue_depth() const {
    return in_flight_.load(std::memory_order_relaxed);
  }

  ServiceMetricsSnapshot MetricsSnapshot() const {
    return metrics_.Snapshot(queue_depth());
  }

 private:
  /// Shared tail of the SubmitQuery overloads: admission, scheduling, the
  /// engine call, metrics. Query-vs-update synchronization lives inside
  /// the engine (the ShardedEngine contract).
  PendingQuery SubmitWithControl(GeneMatrix query_matrix,
                                 const QueryParams& params,
                                 std::shared_ptr<QueryControl> control);

  /// Reserves one admission slot; false when the service is full.
  bool TryAdmit();

  /// Releases the slot taken by TryAdmit and wakes a draining destructor.
  void FinishOne();

  ShardedEngine* engine_;
  ThreadPool* pool_;
  QueryServiceOptions options_;

  std::atomic<size_t> in_flight_{0};
  std::mutex drain_mutex_;
  std::condition_variable drain_cv_;

  ServiceMetrics metrics_;
};

}  // namespace imgrn

#endif  // IMGRN_SERVICE_QUERY_SERVICE_H_
