#ifndef IMGRN_SERVICE_MAINTENANCE_H_
#define IMGRN_SERVICE_MAINTENANCE_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>

#include "common/status.h"

namespace imgrn {

class ShardedEngine;

/// The self-healing maintenance plane: a daemon thread owned by a
/// ShardedEngine (opt-in via ShardedEngineOptions::maintenance) that keeps
/// every replica's backing store sound before queries get hurt:
///
///  1. Checksum scrubber — walks the cold pages of every shard/replica
///     backing store at a bounded rate (`scrub_pages_per_tick`), verifying
///     each page's CRC32C seal via the same read path queries use. A page
///     that fails with kDataLoss quarantines its replica (breaker forced
///     open, so queries route around it immediately) and re-synthesizes it
///     from a healthy peer over the copy -> publish -> drain protocol.
///
///  2. Storage reclaim — while a replica's store scrubs clean end-to-end,
///     pages stranded by shadow-paging index rebuilds are reclaimed and
///     the file truncated (`reclaim_storage`).
///
///  3. Counters — every counter below lands in the engine's StatsSnapshot
///     (and `imgrn maintenance status`).
///
/// Determinism for tests: `tick_interval_micros <= 0` starts no thread —
/// drive the daemon with TickForTesting(). `on_tick` observes every tick's
/// cumulative stats from the tick thread itself.
struct MaintenanceOptions {
  /// Master switch. When false, ShardedEngine creates no daemon at all.
  bool enabled = false;

  /// Background tick period. `<= 0` means "no thread": the daemon only
  /// ticks when TickForTesting() is called, which is how the deterministic
  /// tests drive it.
  int64_t tick_interval_micros = 100000;

  /// Scrub-rate bound: at most this many live pages are seal-verified per
  /// tick, across all shards and replicas (the cursor resumes where the
  /// previous tick stopped). This is the knob that keeps the scrubber's
  /// I/O a background hum instead of a query-latency spike.
  size_t scrub_pages_per_tick = 64;

  /// When true, a replica whose store just scrubbed clean end-to-end also
  /// gets its stranded pages reclaimed (ImGrnEngine::ReclaimStorage) under
  /// an exclusive replica lock.
  bool reclaim_storage = true;

  /// Called at the end of every tick, from the ticking thread, with the
  /// cumulative stats. Tests use this to observe the daemon racing real
  /// queries without polling.
  std::function<void(const struct MaintenanceStats&)> on_tick;
};

/// Resumable position of the scrubber: which replica's store it is in and
/// the next page id to verify there. Owned by the daemon; exposed so tests
/// can drive ShardedEngine::ScrubStep directly.
struct ScrubCursor {
  size_t shard = 0;
  size_t replica = 0;
  size_t page = 0;
};

/// What one ScrubStep call did. `corrupt` flags a kDataLoss seal failure;
/// `corrupt_shard`/`corrupt_replica` then name the replica that needs
/// quarantine + rebuild (the cursor has already been advanced past it).
struct ScrubReport {
  size_t pages_scrubbed = 0;
  size_t pages_reclaimed = 0;
  size_t slots_truncated = 0;
  bool corrupt = false;
  size_t corrupt_shard = 0;
  size_t corrupt_replica = 0;
};

/// Cumulative maintenance counters; a section of the engine's
/// StatsSnapshot.
struct MaintenanceStats {
  bool enabled = false;
  uint64_t ticks = 0;
  uint64_t pages_scrubbed = 0;
  uint64_t corrupt_pages = 0;
  uint64_t replicas_rebuilt = 0;
  uint64_t rebuild_failures = 0;
  uint64_t pages_reclaimed = 0;
  uint64_t slots_truncated = 0;
  uint64_t scrub_errors = 0;
};

/// The daemon itself. Thread-safe: Start/Stop/TickForTesting/Stats may be
/// called from any thread; ticks are serialized on an internal mutex, so a
/// TickForTesting never overlaps a background tick. The owning engine
/// destroys the daemon (joining its thread) before tearing anything else
/// down.
class MaintenanceDaemon {
 public:
  MaintenanceDaemon(ShardedEngine* engine, MaintenanceOptions options);
  ~MaintenanceDaemon();

  MaintenanceDaemon(const MaintenanceDaemon&) = delete;
  MaintenanceDaemon& operator=(const MaintenanceDaemon&) = delete;

  /// Starts the background thread (no-op when `tick_interval_micros <= 0`
  /// or already started).
  void Start();

  /// Stops and joins the background thread. Idempotent; safe without
  /// Start.
  void Stop();

  /// Runs exactly one tick synchronously on the calling thread —
  /// scrub step, corruption handling, on_tick hook.
  void TickForTesting() { Tick(); }

  /// Snapshot of the cumulative counters.
  MaintenanceStats Stats() const;

  const MaintenanceOptions& options() const { return options_; }

 private:
  void Loop();
  void Tick();
  void ScrubTick();

  ShardedEngine* const engine_;
  const MaintenanceOptions options_;

  // Serializes ticks (background thread vs TickForTesting) and guards the
  // scrub cursor.
  std::mutex tick_mutex_;
  ScrubCursor cursor_;

  std::atomic<uint64_t> ticks_{0};
  std::atomic<uint64_t> pages_scrubbed_{0};
  std::atomic<uint64_t> corrupt_pages_{0};
  std::atomic<uint64_t> replicas_rebuilt_{0};
  std::atomic<uint64_t> rebuild_failures_{0};
  std::atomic<uint64_t> pages_reclaimed_{0};
  std::atomic<uint64_t> slots_truncated_{0};
  std::atomic<uint64_t> scrub_errors_{0};

  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace imgrn

#endif  // IMGRN_SERVICE_MAINTENANCE_H_
