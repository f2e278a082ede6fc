#ifndef IMGRN_COMMON_FAULT_INJECTION_H_
#define IMGRN_COMMON_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "common/status.h"

namespace imgrn {

/// Injection-point keys. Every fault point in the library evaluates exactly
/// one of these named sites, so a test (or the CLI's --fault= flag) can
/// target a single layer of the stack deterministically.
namespace fault_sites {
/// PagedFile::Read — a page read off the (simulated) disk.
inline constexpr char kPagedFileRead[] = "paged_file.read";
/// PagedFile::Commit — a page write reaching the (simulated) disk.
inline constexpr char kPagedFileWrite[] = "paged_file.write";
/// BufferPool::Fetch — every accounted page access. `detail` = page id.
inline constexpr char kBufferPoolFetch[] = "buffer_pool.fetch";
/// DiskStorageManager::Read — a pread of a page slot off the real disk.
/// `detail` = logical page id.
inline constexpr char kDiskRead[] = "disk.read";
/// DiskStorageManager::Commit — a pwrite of a page slot to the real disk.
/// `detail` = logical page id.
inline constexpr char kDiskWrite[] = "disk.write";
/// DiskStorageManager::Sync — the steps of the atomic commit protocol.
/// `detail` = protocol step (see DiskStorageManager::SyncStep), so a test
/// can simulate a crash at each fsync point individually.
inline constexpr char kDiskSync[] = "disk.sync";
/// One per-shard sub-query of a ShardedEngine fan-out. `detail` = shard.
/// Fires on whichever replica serves the sub-query, so a persistent rule
/// here models the whole shard (every replica) being down.
inline constexpr char kShardSubQuery[] = "shard.subquery";
/// The same sub-query, keyed to the individual replica that serves it:
/// `detail` = shard * kReplicaDetailStride + replica. A persistent rule
/// here models ONE replica being sick; the round-robin router fails over
/// to its peers and the replica's breaker eventually quarantines it.
inline constexpr char kReplicaSubQuery[] = "shard.replica";
inline constexpr int64_t kReplicaDetailStride = 1000;
/// The steps of every ShardedEngine topology change (Rebalance, Resize,
/// SetReplicas, RebuildReplica): copy, publish, drain, and for Rebalance
/// and Resize delete. `detail` is the global source id for copy/delete
/// and, for publish/drain, the shard count of the topology being
/// published.
inline constexpr char kMigrateCopy[] = "migrate.copy";
inline constexpr char kMigratePublish[] = "migrate.publish";
inline constexpr char kMigrateDrain[] = "migrate.drain";
inline constexpr char kMigrateDelete[] = "migrate.delete";
}  // namespace fault_sites

/// One injection rule: where it applies, when it triggers, what it injects.
struct FaultRule {
  /// Matches any `detail` argument at the site.
  static constexpr int64_t kAnyDetail = -1;

  /// Site key (see fault_sites). A trailing '*' matches any site with the
  /// preceding prefix, e.g. "migrate.*".
  std::string site;

  /// Restricts the rule to evaluations carrying this detail value (e.g.
  /// one specific shard index); kAnyDetail matches every evaluation.
  int64_t detail = kAnyDetail;

  /// Bernoulli trigger: fire with this probability per evaluation, drawn
  /// from the rule's own seeded stream. Ignored when every_nth > 0.
  double probability = 0.0;

  /// Deterministic trigger: fire on the Nth, 2Nth, ... matching
  /// evaluation (1 = every evaluation). Takes precedence over
  /// `probability`.
  uint64_t every_nth = 0;

  /// Stop firing after this many faults (0 = unlimited). `n1:x2` models a
  /// transient outage that a bounded retry rides out.
  uint64_t max_fires = 0;

  /// Status injected when the rule fires. kUnavailable models a transient
  /// fault (retried); kDataLoss models corruption (not retried).
  StatusCode code = StatusCode::kUnavailable;
};

/// Per-site counters, for assertions and CLI diagnostics.
struct FaultSiteStats {
  uint64_t evaluations = 0;
  uint64_t fires = 0;
};

/// The process-wide fault-injection registry. Deterministic (each rule
/// draws from its own stream seeded by the global seed and the rule
/// index), site-keyed, and thread-safe; the disabled path — the only path
/// production traffic ever sees — is a single relaxed atomic load.
///
/// Usage (tests prefer the ScopedFaultInjection RAII below):
///
///   FaultInjector::Global().Enable(
///       {.site = fault_sites::kShardSubQuery, .detail = 2, .every_nth = 1});
///   ... // every sub-query on shard 2 now fails with kUnavailable
///   FaultInjector::Global().Clear();
///
/// Thread safety: Enable/Clear/Evaluate/SiteStats may be called from any
/// thread. Rules are evaluated under one mutex — fault evaluation is a
/// test facility, so simplicity beats scalability on the *enabled* path;
/// the `enabled()` fast path keeps the disabled cost at one atomic load.
class FaultInjector {
 public:
  static FaultInjector& Global();

  FaultInjector() = default;
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Installs one rule (injection turns on). Rules are evaluated in
  /// installation order; the first one that fires wins.
  void Enable(FaultRule rule);

  /// Removes every rule and every counter (injection turns off).
  void Clear();

  /// Seeds the probability streams of subsequently installed rules.
  /// Call before Enable for reproducible Bernoulli triggers.
  void Seed(uint64_t seed);

  /// True when at least one rule is installed. The zero-cost gate: a
  /// relaxed atomic load, no branch taken in production.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Evaluates `site` against the installed rules; returns the injected
  /// error when one fires, OK otherwise. Called only behind enabled().
  Status Evaluate(std::string_view site, int64_t detail = FaultRule::kAnyDetail);

  /// Counters for `site` (sums every rule matching the site exactly).
  FaultSiteStats SiteStats(std::string_view site) const;

 private:
  struct ActiveRule {
    FaultRule rule;
    Rng rng{0};
    uint64_t evaluations = 0;
    uint64_t fires = 0;
  };

  static bool Matches(const ActiveRule& active, std::string_view site,
                      int64_t detail);

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  uint64_t seed_ = 0x5EEDFA17u;
  std::vector<ActiveRule> rules_;
};

/// Evaluates a fault point. The disabled path is one relaxed atomic load;
/// call sites propagate the returned Status with IMGRN_RETURN_IF_ERROR.
inline Status CheckFault(const char* site,
                         int64_t detail = FaultRule::kAnyDetail) {
  FaultInjector& global = FaultInjector::Global();
  if (!global.enabled()) return Status::Ok();
  return global.Evaluate(site, detail);
}

/// Parses a --fault= specification into rules. Grammar (',' separates
/// rules):
///
///   rule    := site ['#' detail] '=' trigger (':' option)*
///   trigger := 'p' FLOAT          fire with probability FLOAT
///            | 'n' INT            fire on every INT-th evaluation
///   option  := 'x' INT            stop after INT fires
///            | "code=" NAME       unavailable | dataloss | internal
///
/// Examples:
///   shard.subquery#2=n1            every sub-query on shard 2 fails
///   buffer_pool.fetch=p0.01:code=dataloss
///   migrate.copy=n1:x1,migrate.delete=n2
Result<std::vector<FaultRule>> ParseFaultSpec(const std::string& spec);

/// RAII installer for tests: installs `rules` into the global injector on
/// construction, clears the injector on destruction (so one test's faults
/// can never leak into the next).
class ScopedFaultInjection {
 public:
  explicit ScopedFaultInjection(std::vector<FaultRule> rules,
                                uint64_t seed = 0x5EEDFA17u);
  ~ScopedFaultInjection();

  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;
};

}  // namespace imgrn

#endif  // IMGRN_COMMON_FAULT_INJECTION_H_
