#include "service/maintenance.h"

#include <chrono>

#include "service/sharded_engine.h"

namespace imgrn {

MaintenanceDaemon::MaintenanceDaemon(ShardedEngine* engine,
                                     MaintenanceOptions options)
    : engine_(engine), options_(std::move(options)) {}

MaintenanceDaemon::~MaintenanceDaemon() { Stop(); }

void MaintenanceDaemon::Start() {
  if (options_.tick_interval_micros <= 0) return;
  std::lock_guard<std::mutex> lock(stop_mutex_);
  if (thread_.joinable()) return;
  stop_ = false;
  thread_ = std::thread([this] { Loop(); });
}

void MaintenanceDaemon::Stop() {
  std::thread to_join;
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    stop_ = true;
    to_join = std::move(thread_);
  }
  stop_cv_.notify_all();
  if (to_join.joinable()) to_join.join();
}

void MaintenanceDaemon::Loop() {
  std::unique_lock<std::mutex> lock(stop_mutex_);
  while (!stop_) {
    stop_cv_.wait_for(
        lock, std::chrono::microseconds(options_.tick_interval_micros),
        [this] { return stop_; });
    if (stop_) break;
    lock.unlock();
    Tick();
    lock.lock();
  }
}

void MaintenanceDaemon::Tick() {
  std::lock_guard<std::mutex> lock(tick_mutex_);
  ticks_.fetch_add(1, std::memory_order_relaxed);
  // Until the cluster is built there is nothing to scrub; the daemon
  // idles rather than racing the setup phase.
  if (engine_->has_index()) ScrubTick();
  if (options_.on_tick) options_.on_tick(Stats());
}

void MaintenanceDaemon::ScrubTick() {
  ScrubReport report;
  Status status = engine_->ScrubStep(&cursor_, options_.scrub_pages_per_tick,
                                     options_.reclaim_storage, &report);
  pages_scrubbed_.fetch_add(report.pages_scrubbed, std::memory_order_relaxed);
  pages_reclaimed_.fetch_add(report.pages_reclaimed,
                             std::memory_order_relaxed);
  slots_truncated_.fetch_add(report.slots_truncated,
                             std::memory_order_relaxed);
  if (report.corrupt) {
    corrupt_pages_.fetch_add(1, std::memory_order_relaxed);
    // Quarantine first so queries route around the sick replica while the
    // rebuild copies from a healthy peer.
    engine_->QuarantineReplica(report.corrupt_shard, report.corrupt_replica);
    Status rebuilt =
        engine_->RebuildReplica(report.corrupt_shard, report.corrupt_replica);
    if (rebuilt.ok()) {
      replicas_rebuilt_.fetch_add(1, std::memory_order_relaxed);
    } else {
      rebuild_failures_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (!status.ok()) scrub_errors_.fetch_add(1, std::memory_order_relaxed);
}

MaintenanceStats MaintenanceDaemon::Stats() const {
  MaintenanceStats stats;
  stats.enabled = true;
  stats.ticks = ticks_.load(std::memory_order_relaxed);
  stats.pages_scrubbed = pages_scrubbed_.load(std::memory_order_relaxed);
  stats.corrupt_pages = corrupt_pages_.load(std::memory_order_relaxed);
  stats.replicas_rebuilt = replicas_rebuilt_.load(std::memory_order_relaxed);
  stats.rebuild_failures = rebuild_failures_.load(std::memory_order_relaxed);
  stats.pages_reclaimed = pages_reclaimed_.load(std::memory_order_relaxed);
  stats.slots_truncated = slots_truncated_.load(std::memory_order_relaxed);
  stats.scrub_errors = scrub_errors_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace imgrn
