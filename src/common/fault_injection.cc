#include "common/fault_injection.h"

#include <iterator>
#include <string>

namespace imgrn {

namespace {

// Indexed by fault_sites::Site.
constexpr const char* kSiteNames[] = {"paged_file.read",   "paged_file.write",
                                      "buffer_pool.fetch", "disk.read",
                                      "disk.write",        "disk.sync"};
static_assert(std::size(kSiteNames) == fault_sites::kDiskSync + 1,
              "one name per site");

}  // namespace

FaultInjector& FaultInjector::Global() {
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

void FaultInjector::Enable(FaultRule rule) {
  std::lock_guard<std::mutex> lock(mutex_);
  rules_.push_back({.rule = rule});
  enabled_.store(true, std::memory_order_release);
}

void FaultInjector::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  rules_.clear();
  enabled_.store(false, std::memory_order_release);
}

Status FaultInjector::Evaluate(fault_sites::Site site, int64_t detail) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (ActiveRule& active : rules_) {
    const FaultRule& rule = active.rule;
    if (rule.site != site ||
        (rule.detail != FaultRule::kAnyDetail && rule.detail != detail)) {
      continue;
    }
    ++active.evaluations;
    if ((rule.max_fires > 0 && active.fires >= rule.max_fires) ||
        rule.every_nth == 0 || active.evaluations % rule.every_nth != 0) {
      continue;
    }
    ++active.fires;
    std::string message = "injected fault at ";
    message += kSiteNames[site];
    if (detail != FaultRule::kAnyDetail) {
      message += "#";
      message += std::to_string(detail);
    }
    return Status::Unavailable(std::move(message));
  }
  return Status::Ok();
}

ScopedFaultInjection::ScopedFaultInjection(std::vector<FaultRule> rules) {
  FaultInjector& global = FaultInjector::Global();
  global.Clear();
  for (const FaultRule& rule : rules) {
    global.Enable(rule);
  }
}

ScopedFaultInjection::~ScopedFaultInjection() {
  FaultInjector::Global().Clear();
}

}  // namespace imgrn
