#include "service/metrics.h"

#include <cstdio>

namespace imgrn {

void ServiceMetrics::OnFinished(const Status& status, double seconds) {
  switch (status.code()) {
    case StatusCode::kOk:
      served_.fetch_add(1, std::memory_order_relaxed);
      latency_.Record(seconds);
      break;
    case StatusCode::kDeadlineExceeded:
      deadline_expired_.fetch_add(1, std::memory_order_relaxed);
      break;
    case StatusCode::kCancelled:
      cancelled_.fetch_add(1, std::memory_order_relaxed);
      break;
    default:
      failed_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
}

ServiceMetricsSnapshot ServiceMetrics::Snapshot(size_t queue_depth) const {
  ServiceMetricsSnapshot snapshot;
  snapshot.submitted = submitted();
  snapshot.served = served();
  snapshot.rejected = rejected();
  snapshot.deadline_expired = deadline_expired();
  snapshot.cancelled = cancelled();
  snapshot.failed = failed();
  snapshot.queue_depth = queue_depth;
  snapshot.latency_mean_ms = latency_.MeanSeconds() * 1e3;
  snapshot.latency_p50_ms = latency_.Percentile(0.50) * 1e3;
  snapshot.latency_p95_ms = latency_.Percentile(0.95) * 1e3;
  snapshot.latency_p99_ms = latency_.Percentile(0.99) * 1e3;
  return snapshot;
}

std::string ServiceMetricsSnapshot::DebugString() const {
  char buffer[384];
  std::snprintf(
      buffer, sizeof(buffer),
      "submitted=%llu served=%llu "
      "rejected=%llu deadline=%llu cancelled=%llu failed=%llu depth=%zu "
      "latency{mean=%.3fms p50=%.3fms p95=%.3fms p99=%.3fms}",
      static_cast<unsigned long long>(submitted),
      static_cast<unsigned long long>(served),
      static_cast<unsigned long long>(rejected),
      static_cast<unsigned long long>(deadline_expired),
      static_cast<unsigned long long>(cancelled),
      static_cast<unsigned long long>(failed), queue_depth, latency_mean_ms,
      latency_p50_ms, latency_p95_ms, latency_p99_ms);
  return buffer;
}

}  // namespace imgrn
