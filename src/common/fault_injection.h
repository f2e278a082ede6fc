#ifndef IMGRN_COMMON_FAULT_INJECTION_H_
#define IMGRN_COMMON_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/status.h"

namespace imgrn {

/// Injection points. Every fault point in the library evaluates exactly
/// one of these sites, so a test can target a single layer of the storage
/// stack deterministically.
namespace fault_sites {
enum Site {
  /// MemoryStorageManager::Read — a page read from the in-memory store.
  /// `detail` = page id.
  kPagedFileRead,
  /// MemoryStorageManager::Commit — a page write sealing an in-memory
  /// page. `detail` = page id.
  kPagedFileWrite,
  /// BufferPool::Fetch — every accounted page access. `detail` = page id.
  kBufferPoolFetch,
  /// DiskStorageManager::Read — a pread of a page slot off the real disk.
  /// `detail` = logical page id.
  kDiskRead,
  /// DiskStorageManager::Commit — a pwrite of a page slot to the real
  /// disk. `detail` = logical page id.
  kDiskWrite,
  /// DiskStorageManager::Sync — the steps of the atomic commit protocol.
  /// `detail` = protocol step (see DiskStorageManager::SyncStep), so a
  /// test can simulate a crash at each fsync point individually.
  kDiskSync,
};
}  // namespace fault_sites

/// One injection rule: where it applies and when it triggers. A rule that
/// fires injects kUnavailable, a transient I/O fault.
struct FaultRule {
  /// Matches any `detail` argument at the site.
  static constexpr int64_t kAnyDetail = -1;

  /// The one site the rule applies to.
  fault_sites::Site site;

  /// Restricts the rule to evaluations carrying this detail value (e.g.
  /// one page id); kAnyDetail matches every evaluation.
  int64_t detail = kAnyDetail;

  /// Fire on the Nth, 2Nth, ... matching evaluation (1 = every
  /// evaluation; 0 = never).
  uint64_t every_nth = 1;

  /// Stop firing after this many faults (0 = unlimited). every_nth = 1
  /// with max_fires = 2 models a transient outage: two failures, then the
  /// site works again.
  uint64_t max_fires = 0;
};

/// The process-wide fault-injection registry, armed only by tests.
/// Deterministic, site-keyed and thread-safe; the disabled path — the only
/// path production traffic ever sees — is a single relaxed atomic load.
///
/// Usage (tests prefer the ScopedFaultInjection RAII below):
///
///   FaultInjector::Global().Enable(
///       {.site = fault_sites::kBufferPoolFetch, .detail = 2});
///   ... // every buffer-pool fetch of page 2 now fails with kUnavailable
///   FaultInjector::Global().Clear();
///
/// Thread safety: Enable/Clear/Evaluate may be called from any thread.
/// Rules are evaluated under one mutex — fault evaluation is a test
/// facility, so simplicity beats scalability on the *enabled* path; the
/// `enabled()` fast path keeps the disabled cost at one atomic load.
class FaultInjector {
 public:
  static FaultInjector& Global();

  FaultInjector() = default;
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Installs one rule (injection turns on). Rules are evaluated in
  /// installation order; the first one that fires wins.
  void Enable(FaultRule rule);

  /// Removes every rule (injection turns off).
  void Clear();

  /// True when at least one rule is installed. The zero-cost gate: a
  /// relaxed atomic load, no branch taken in production.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Evaluates `site` against the installed rules; returns kUnavailable,
  /// "injected fault at <site>#<detail>", when one fires, OK otherwise.
  /// Called only behind enabled().
  Status Evaluate(fault_sites::Site site,
                  int64_t detail = FaultRule::kAnyDetail);

 private:
  struct ActiveRule {
    FaultRule rule;
    uint64_t evaluations = 0;
    uint64_t fires = 0;
  };

  std::atomic<bool> enabled_{false};
  std::mutex mutex_;
  std::vector<ActiveRule> rules_;
};

/// Evaluates a fault point. The disabled path is one relaxed atomic load;
/// call sites propagate the returned Status with IMGRN_RETURN_IF_ERROR.
inline Status CheckFault(fault_sites::Site site,
                         int64_t detail = FaultRule::kAnyDetail) {
  FaultInjector& global = FaultInjector::Global();
  if (!global.enabled()) return Status::Ok();
  return global.Evaluate(site, detail);
}

/// RAII installer for tests: installs `rules` into the global injector on
/// construction, clears the injector on destruction (so one test's faults
/// can never leak into the next).
class ScopedFaultInjection {
 public:
  explicit ScopedFaultInjection(std::vector<FaultRule> rules);
  ~ScopedFaultInjection();

  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;
};

}  // namespace imgrn

#endif  // IMGRN_COMMON_FAULT_INJECTION_H_
