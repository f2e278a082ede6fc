#ifndef IMGRN_SERVICE_CIRCUIT_BREAKER_H_
#define IMGRN_SERVICE_CIRCUIT_BREAKER_H_

#include <cstdint>
#include <functional>
#include <mutex>

namespace imgrn {

/// Knobs of one CircuitBreaker (see below).
struct CircuitBreakerOptions {
  /// Consecutive counted failures that trip the breaker open.
  size_t failure_threshold = 5;

  /// How long an open breaker rejects before letting a probe through.
  int64_t open_duration_micros = 50'000;

  /// Monotonic clock in microseconds; null uses std::chrono::steady_clock.
  /// Tests inject a fake to step through open->half-open deterministically.
  std::function<int64_t()> clock_micros;
};

/// A per-shard quarantine gate with the classic three-state protocol:
///
///   closed ──(failure_threshold consecutive failures)──> open
///   open ──(open_duration elapses)──> half-open (one probe at a time)
///   half-open ──(probe succeeds)──> closed
///   half-open ──(probe fails)──> open (cooldown restarts)
///
/// The point: a shard that fails every sub-query otherwise eats
/// max_attempts retries (and their backoff sleeps) out of EVERY query's
/// latency budget. Once the breaker opens, queries skip the sick shard
/// instantly (degrading per QueryParams::allow_partial) and only the
/// occasional probe pays for discovering recovery.
///
/// Callers drive it with one AllowRequest() per attempt and exactly one
/// Record*() per allowed attempt:
///   - RecordSuccess(): the shard answered.
///   - RecordFailure(): the shard failed for a reason that indicts the
///     shard (kUnavailable, kDataLoss, kInternal).
///   - RecordNeutral(): the attempt says nothing about shard health
///     (caller cancelled, deadline expired) — releases a half-open probe
///     without moving the state machine.
///
/// The one-Record-per-allowed-attempt contract is load-bearing: an
/// admitted attempt may hold the half-open probe slot, and a caller that
/// drops it without ANY verdict wedges probe_in_flight_ true forever —
/// the breaker then rejects every future probe and the shard can never
/// recover. Paths that can unwind without reaching a Record*() call
/// (early returns, exceptions out of the sub-query, engine teardown
/// mid-attempt) must hold a ProbeGuard, which delivers the abandonment
/// verdict (RecordNeutral) on destruction if nothing else was recorded.
///
/// Thread safety: fully synchronized; every method is one short critical
/// section.
class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  /// RAII verdict scope for one admitted attempt. Construct it immediately
  /// after the attempt is admitted (AllowRequest() true, or a routing
  /// layer like ReplicaSet::PickReplica admitted on the caller's behalf);
  /// deliver the verdict through it; if the scope unwinds with no verdict
  /// — early return, exception, teardown — the destructor records the
  /// attempt as abandoned (RecordNeutral), releasing any half-open probe
  /// slot the attempt held so the NEXT probe is admitted.
  class ProbeGuard {
   public:
    explicit ProbeGuard(CircuitBreaker* breaker) : breaker_(breaker) {}
    ~ProbeGuard() {
      if (breaker_ != nullptr) breaker_->RecordNeutral();
    }

    ProbeGuard(const ProbeGuard&) = delete;
    ProbeGuard& operator=(const ProbeGuard&) = delete;

    void Success() { Deliver(&CircuitBreaker::RecordSuccess); }
    void Failure() { Deliver(&CircuitBreaker::RecordFailure); }
    void Neutral() { Deliver(&CircuitBreaker::RecordNeutral); }

    /// True once a verdict went out (the destructor will be a no-op).
    bool delivered() const { return breaker_ == nullptr; }

   private:
    void Deliver(void (CircuitBreaker::*record)()) {
      CircuitBreaker* breaker = breaker_;
      breaker_ = nullptr;
      (breaker->*record)();
    }

    CircuitBreaker* breaker_;
  };

  explicit CircuitBreaker(CircuitBreakerOptions options = {});

  CircuitBreaker(const CircuitBreaker&) = delete;
  CircuitBreaker& operator=(const CircuitBreaker&) = delete;

  /// True if an attempt may proceed. In the open state this is where the
  /// cooldown expiry transitions to half-open; in half-open only one probe
  /// is outstanding at a time (callers that got `false` must NOT call
  /// Record*()).
  bool AllowRequest();

  void RecordSuccess();
  void RecordFailure();
  void RecordNeutral();

  State state() const;

  /// Attempts turned away (open, or half-open with a probe already out).
  uint64_t rejections() const;

  static const char* StateName(State state);

 private:
  int64_t NowMicros() const;

  CircuitBreakerOptions options_;
  mutable std::mutex mutex_;
  State state_ = State::kClosed;
  size_t consecutive_failures_ = 0;
  bool probe_in_flight_ = false;
  int64_t open_until_micros_ = 0;
  uint64_t rejections_ = 0;
};

}  // namespace imgrn

#endif  // IMGRN_SERVICE_CIRCUIT_BREAKER_H_
