#include "service/query_service.h"

#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"

namespace imgrn {

QueryService::QueryService(ShardedEngine* engine, ThreadPool* pool,
                           QueryServiceOptions options)
    : engine_(engine), pool_(pool), options_(options) {
  IMGRN_CHECK(engine != nullptr);
  IMGRN_CHECK(pool != nullptr);
  IMGRN_CHECK_GE(options_.max_queue_depth, 1u);
}

QueryService::~QueryService() {
  // Admitted tasks capture `this`; they must all finish before the members
  // go away. The pool outlives us, so the service tracks its own in-flight
  // count.
  std::unique_lock<std::mutex> lock(drain_mutex_);
  drain_cv_.wait(lock, [this] { return in_flight_.load() == 0; });
}

bool QueryService::TryAdmit() {
  size_t current = in_flight_.load(std::memory_order_relaxed);
  do {
    if (current >= options_.max_queue_depth) return false;
  } while (!in_flight_.compare_exchange_weak(current, current + 1,
                                             std::memory_order_relaxed));
  return true;
}

void QueryService::FinishOne() {
  if (in_flight_.fetch_sub(1) == 1) {
    std::lock_guard<std::mutex> lock(drain_mutex_);
    drain_cv_.notify_all();
  }
}

QueryService::PendingQuery QueryService::SubmitWithControl(
    GeneMatrix query_matrix, const QueryParams& params,
    std::shared_ptr<QueryControl> control) {
  metrics_.OnSubmitted();
  if (!TryAdmit()) {
    metrics_.OnRejected();
    std::promise<QueryResult> rejected;
    rejected.set_value(Status::ResourceExhausted(
        "query service at capacity (max_queue_depth)"));
    return PendingQuery{rejected.get_future(), nullptr};
  }
  std::future<QueryResult> future = pool_->Submit(
      [this, matrix = std::move(query_matrix), params,
       control]() -> QueryResult {
        Stopwatch timer;
        QueryResult result =
            engine_->Query(matrix, params, /*stats=*/nullptr, control.get());
        metrics_.OnFinished(result.status(), timer.ElapsedSeconds());
        FinishOne();
        return result;
      });
  return PendingQuery{std::move(future), std::move(control)};
}

QueryService::PendingQuery QueryService::SubmitQuery(
    GeneMatrix query_matrix, const QueryParams& params) {
  return SubmitWithControl(std::move(query_matrix), params,
                           std::make_shared<QueryControl>());  // No deadline.
}

QueryService::PendingQuery QueryService::SubmitQuery(
    GeneMatrix query_matrix, const QueryParams& params,
    std::chrono::nanoseconds deadline) {
  // now + deadline saturates: a sum past the clock's range would wrap to a
  // time already past.
  using Clock = QueryControl::Clock;
  const Clock::time_point now = Clock::now();
  const Clock::time_point expiry = deadline >= Clock::time_point::max() - now
                                       ? Clock::time_point::max()
                                       : now + deadline;
  return SubmitWithControl(std::move(query_matrix), params,
                           std::make_shared<QueryControl>(expiry));
}

std::vector<QueryService::QueryResult> QueryService::QueryBatch(
    const std::vector<GeneMatrix>& queries, const QueryParams& params) {
  IMGRN_CHECK(!pool_->InWorkerThread())
      << "QueryBatch gathers futures; calling it from a pool worker can "
         "deadlock";
  std::vector<PendingQuery> pending;
  pending.reserve(queries.size());
  for (const GeneMatrix& query : queries) {
    pending.push_back(SubmitQuery(query, params));
  }
  std::vector<QueryResult> results;
  results.reserve(pending.size());
  for (PendingQuery& request : pending) {
    results.push_back(request.result.get());
  }
  return results;
}

Status QueryService::AddMatrix(GeneMatrix matrix) {
  return engine_->AddSource(std::move(matrix));
}

Status QueryService::RemoveMatrix(SourceId source) {
  return engine_->RemoveSource(source);
}

}  // namespace imgrn
