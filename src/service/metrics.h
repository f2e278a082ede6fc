#ifndef IMGRN_SERVICE_METRICS_H_
#define IMGRN_SERVICE_METRICS_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/histogram.h"
#include "common/status.h"

namespace imgrn {

/// One consistent-enough view of a service's counters (each field is read
/// atomically; the set is collected while traffic may be running, so cross-
/// field sums can be off by in-flight requests).
struct ServiceMetricsSnapshot {
  uint64_t submitted = 0;          // SubmitQuery calls, admitted or not.
  uint64_t served = 0;             // Completed with an OK result.
  uint64_t rejected = 0;           // Turned away by admission control.
  uint64_t deadline_expired = 0;   // Unwound with DeadlineExceeded.
  uint64_t cancelled = 0;          // Unwound with Cancelled.
  uint64_t failed = 0;             // Any other non-OK completion.
  size_t queue_depth = 0;          // Admitted but unfinished right now.

  // Execution latency of served (OK) queries only: from the moment a pool
  // worker starts the query to its completion. Time spent queued before
  // that is not included; queue_depth shows the backlog.
  double latency_mean_ms = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  double latency_p99_ms = 0.0;

  /// One line, e.g. for periodic logging:
  /// "submitted=... served=... rejected=... deadline=... cancelled=...
  ///  failed=... depth=... latency{mean=...ms p50=...ms p95=...ms
  ///  p99=...ms}".
  std::string DebugString() const;
};

/// Per-service counters + latency histogram. All mutators are single atomic
/// operations, so recording from every worker thread is uncontended; the
/// latency histogram only sees queries that completed OK (error paths have
/// latencies that say nothing about serving capacity).
class ServiceMetrics {
 public:
  ServiceMetrics() = default;

  ServiceMetrics(const ServiceMetrics&) = delete;
  ServiceMetrics& operator=(const ServiceMetrics&) = delete;

  void OnSubmitted() { submitted_.fetch_add(1, std::memory_order_relaxed); }
  void OnRejected() { rejected_.fetch_add(1, std::memory_order_relaxed); }

  /// Classifies one finished query by its status; `seconds` is its
  /// execution latency, from the start of its pool task to completion
  /// (queue wait excluded).
  void OnFinished(const Status& status, double seconds);

  uint64_t submitted() const {
    return submitted_.load(std::memory_order_relaxed);
  }
  uint64_t served() const { return served_.load(std::memory_order_relaxed); }
  uint64_t rejected() const {
    return rejected_.load(std::memory_order_relaxed);
  }
  uint64_t deadline_expired() const {
    return deadline_expired_.load(std::memory_order_relaxed);
  }
  uint64_t cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }
  uint64_t failed() const { return failed_.load(std::memory_order_relaxed); }

  /// `queue_depth` is owned by the QueryService (it is the admission
  /// control variable), so the snapshot takes it as an argument.
  ServiceMetricsSnapshot Snapshot(size_t queue_depth = 0) const;

 private:
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> served_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> deadline_expired_{0};
  std::atomic<uint64_t> cancelled_{0};
  std::atomic<uint64_t> failed_{0};
  LatencyHistogram latency_;
};

}  // namespace imgrn

#endif  // IMGRN_SERVICE_METRICS_H_
