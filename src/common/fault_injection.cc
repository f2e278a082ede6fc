#include "common/fault_injection.h"

#include <cerrno>
#include <cstdlib>
#include <functional>

namespace imgrn {

FaultInjector& FaultInjector::Global() {
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

void FaultInjector::Enable(FaultRule rule) {
  std::lock_guard<std::mutex> lock(mutex_);
  ActiveRule active;
  // Each rule owns an independent deterministic stream: the global seed
  // mixed with the site name and installation index, so re-ordering other
  // rules does not perturb this rule's draws.
  uint64_t stream = seed_ ^ std::hash<std::string>{}(rule.site) ^
                    (static_cast<uint64_t>(rules_.size()) * 0x9E3779B97F4A7C15ull);
  active.rule = std::move(rule);
  active.rng = Rng(stream);
  rules_.push_back(std::move(active));
  enabled_.store(true, std::memory_order_release);
}

void FaultInjector::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  rules_.clear();
  enabled_.store(false, std::memory_order_release);
}

void FaultInjector::Seed(uint64_t seed) {
  std::lock_guard<std::mutex> lock(mutex_);
  seed_ = seed;
}

bool FaultInjector::Matches(const ActiveRule& active, std::string_view site,
                            int64_t detail) {
  const std::string& pattern = active.rule.site;
  if (!pattern.empty() && pattern.back() == '*') {
    std::string_view prefix(pattern.data(), pattern.size() - 1);
    if (site.substr(0, prefix.size()) != prefix) return false;
  } else if (site != pattern) {
    return false;
  }
  return active.rule.detail == FaultRule::kAnyDetail ||
         active.rule.detail == detail;
}

Status FaultInjector::Evaluate(std::string_view site, int64_t detail) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (ActiveRule& active : rules_) {
    if (!Matches(active, site, detail)) continue;
    ++active.evaluations;
    if (active.rule.max_fires > 0 && active.fires >= active.rule.max_fires) {
      continue;
    }
    bool fire = false;
    if (active.rule.every_nth > 0) {
      fire = (active.evaluations % active.rule.every_nth) == 0;
    } else if (active.rule.probability > 0.0) {
      fire = active.rng.Bernoulli(active.rule.probability);
    }
    if (!fire) continue;
    ++active.fires;
    std::string message = "injected fault at ";
    message += site;
    if (detail != FaultRule::kAnyDetail) {
      message += "#";
      message += std::to_string(detail);
    }
    return Status(active.rule.code, std::move(message));
  }
  return Status::Ok();
}

FaultSiteStats FaultInjector::SiteStats(std::string_view site) const {
  std::lock_guard<std::mutex> lock(mutex_);
  FaultSiteStats stats;
  for (const ActiveRule& active : rules_) {
    const std::string& pattern = active.rule.site;
    bool matches;
    if (!pattern.empty() && pattern.back() == '*') {
      std::string_view prefix(pattern.data(), pattern.size() - 1);
      matches = site.substr(0, prefix.size()) == prefix;
    } else {
      matches = site == pattern;
    }
    if (!matches) continue;
    stats.evaluations += active.evaluations;
    stats.fires += active.fires;
  }
  return stats;
}

namespace {

// Splits `text` on `sep`, preserving empty pieces (they become parse errors
// downstream, which beats silently ignoring a stray comma).
std::vector<std::string> Split(const std::string& text, char sep) {
  std::vector<std::string> pieces;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(sep, start);
    if (pos == std::string::npos) {
      pieces.push_back(text.substr(start));
      return pieces;
    }
    pieces.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

// Parses all of `text` as a base-10 integer. False on an empty string,
// trailing characters, or a value strtoll clamps to its range.
bool ParseInteger(const std::string& text, long long* value) {
  char* end = nullptr;
  errno = 0;
  *value = std::strtoll(text.c_str(), &end, 10);
  return !text.empty() && *end == '\0' && errno != ERANGE;
}

// Whether `site` is a wired site, or a trailing-'*' prefix of one.
bool NamesWiredSite(const std::string& site) {
  const bool wildcard = site.back() == '*';
  const std::string_view pattern(site.data(),
                                 site.size() - (wildcard ? 1 : 0));
  for (std::string_view wired : fault_sites::kWired) {
    if (wildcard ? wired.starts_with(pattern) : wired == pattern) return true;
  }
  return false;
}

std::string WiredSiteList() {
  std::string list;
  for (const char* wired : fault_sites::kWired) {
    if (!list.empty()) list += ", ";
    list += wired;
  }
  return list;
}

Status ParseOneRule(const std::string& text, FaultRule* rule) {
  size_t eq = text.find('=');
  if (eq == std::string::npos || eq == 0) {
    return Status::InvalidArgument("fault rule '" + text +
                                   "' is not of the form site=trigger");
  }
  std::string site = text.substr(0, eq);
  size_t hash = site.find('#');
  if (hash != std::string::npos) {
    long long detail = 0;
    if (!ParseInteger(site.substr(hash + 1), &detail) || detail < 0) {
      return Status::InvalidArgument("fault rule '" + text +
                                     "' has a bad #detail (want a "
                                     "non-negative integer)");
    }
    rule->detail = detail;
    site.resize(hash);
  }
  if (site.empty()) {
    return Status::InvalidArgument("fault rule '" + text +
                                   "' has an empty site");
  }
  if (!NamesWiredSite(site)) {
    return Status::InvalidArgument("fault rule '" + text + "': no code "
                                   "evaluates site '" + site +
                                   "' (wired sites: " + WiredSiteList() +
                                   ")");
  }
  rule->site = std::move(site);

  std::vector<std::string> parts = Split(text.substr(eq + 1), ':');
  // parts[0] is the trigger; the rest are options.
  const std::string& trigger = parts[0];
  if (trigger.size() < 2 || (trigger[0] != 'p' && trigger[0] != 'n')) {
    return Status::InvalidArgument(
        "fault rule '" + text +
        "' needs a trigger pFLOAT (probability) or nINT (every Nth)");
  }
  if (trigger[0] == 'p') {
    char* end = nullptr;
    double p = std::strtod(trigger.c_str() + 1, &end);
    // Written so that NaN fails it too.
    if (*end != '\0' || !(p > 0.0 && p <= 1.0)) {
      return Status::InvalidArgument("fault rule '" + text +
                                     "' has a bad probability (want 0 < p "
                                     "<= 1)");
    }
    rule->probability = p;
  } else {
    long long n = 0;
    if (!ParseInteger(trigger.substr(1), &n) || n <= 0) {
      return Status::InvalidArgument("fault rule '" + text +
                                     "' has a bad period (want n >= 1)");
    }
    rule->every_nth = static_cast<uint64_t>(n);
  }

  for (size_t i = 1; i < parts.size(); ++i) {
    const std::string& opt = parts[i];
    if (opt.size() >= 2 && opt[0] == 'x') {
      long long x = 0;
      if (!ParseInteger(opt.substr(1), &x) || x <= 0) {
        return Status::InvalidArgument("fault rule '" + text +
                                       "' has a bad xN limit (want N >= 1)");
      }
      rule->max_fires = static_cast<uint64_t>(x);
    } else if (opt.rfind("code=", 0) == 0) {
      const std::string name = opt.substr(5);
      if (name == "unavailable") {
        rule->code = StatusCode::kUnavailable;
      } else if (name == "dataloss") {
        rule->code = StatusCode::kDataLoss;
      } else if (name == "internal") {
        rule->code = StatusCode::kInternal;
      } else {
        return Status::InvalidArgument(
            "fault rule '" + text +
            "' has an unknown code (want unavailable, dataloss or "
            "internal)");
      }
    } else {
      return Status::InvalidArgument("fault rule '" + text +
                                     "' has an unknown option '" + opt + "'");
    }
  }
  return Status::Ok();
}

}  // namespace

Result<std::vector<FaultRule>> ParseFaultSpec(const std::string& spec) {
  std::vector<FaultRule> rules;
  if (spec.empty()) return rules;
  for (const std::string& piece : Split(spec, ',')) {
    FaultRule rule;
    IMGRN_RETURN_IF_ERROR(ParseOneRule(piece, &rule));
    rules.push_back(std::move(rule));
  }
  return rules;
}

ScopedFaultInjection::ScopedFaultInjection(std::vector<FaultRule> rules,
                                           uint64_t seed) {
  FaultInjector& global = FaultInjector::Global();
  global.Clear();
  global.Seed(seed);
  for (FaultRule& rule : rules) {
    global.Enable(std::move(rule));
  }
}

ScopedFaultInjection::~ScopedFaultInjection() {
  FaultInjector::Global().Clear();
}

}  // namespace imgrn
