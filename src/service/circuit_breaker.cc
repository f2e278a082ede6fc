#include "service/circuit_breaker.h"

#include <chrono>

#include "common/logging.h"

namespace imgrn {

CircuitBreaker::CircuitBreaker(CircuitBreakerOptions options)
    : options_(std::move(options)) {
  IMGRN_CHECK_GE(options_.failure_threshold, 1u);
}

int64_t CircuitBreaker::NowMicros() const {
  if (options_.clock_micros != nullptr) return options_.clock_micros();
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool CircuitBreaker::AllowRequest() {
  std::lock_guard<std::mutex> lock(mutex_);
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kOpen:
      if (NowMicros() < open_until_micros_) {
        ++rejections_;
        return false;
      }
      // Cooldown over: let exactly one probe through.
      state_ = State::kHalfOpen;
      probe_in_flight_ = true;
      return true;
    case State::kHalfOpen:
      if (probe_in_flight_) {
        ++rejections_;
        return false;
      }
      probe_in_flight_ = true;
      return true;
  }
  return false;  // Unreachable.
}

void CircuitBreaker::RecordSuccess() {
  std::lock_guard<std::mutex> lock(mutex_);
  probe_in_flight_ = false;
  switch (state_) {
    case State::kClosed:
      consecutive_failures_ = 0;
      break;
    case State::kHalfOpen:
      state_ = State::kClosed;
      consecutive_failures_ = 0;
      break;
    case State::kOpen:
      // A straggler from before the breaker opened; the cooldown stands.
      break;
  }
}

void CircuitBreaker::RecordFailure() {
  std::lock_guard<std::mutex> lock(mutex_);
  probe_in_flight_ = false;
  switch (state_) {
    case State::kClosed:
      if (++consecutive_failures_ >= options_.failure_threshold) {
        state_ = State::kOpen;
        open_until_micros_ = NowMicros() + options_.open_duration_micros;
      }
      break;
    case State::kHalfOpen:
      // The probe failed: back to open, cooldown restarts.
      state_ = State::kOpen;
      open_until_micros_ = NowMicros() + options_.open_duration_micros;
      break;
    case State::kOpen:
      break;
  }
}

void CircuitBreaker::RecordNeutral() {
  std::lock_guard<std::mutex> lock(mutex_);
  // Releases a half-open probe without judging the shard; in the closed
  // state the consecutive-failure streak is also left untouched.
  probe_in_flight_ = false;
}

CircuitBreaker::State CircuitBreaker::state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_;
}

uint64_t CircuitBreaker::rejections() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return rejections_;
}

const char* CircuitBreaker::StateName(State state) {
  switch (state) {
    case State::kClosed:
      return "closed";
    case State::kOpen:
      return "open";
    case State::kHalfOpen:
      return "half-open";
  }
  return "unknown";
}

}  // namespace imgrn
