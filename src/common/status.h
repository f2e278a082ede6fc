#ifndef IMGRN_COMMON_STATUS_H_
#define IMGRN_COMMON_STATUS_H_

#include <optional>
#include <string>
#include <utility>

namespace imgrn {

/// Error categories used across the library. Kept deliberately small; the
/// message carries the details.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kInternal,
  kDeadlineExceeded,
  kResourceExhausted,
  kCancelled,
  /// A transient infrastructure failure (flaky I/O). The operation may
  /// succeed if the caller repeats it.
  kUnavailable,
  /// Unrecoverable corruption (e.g. a page failing its CRC32C check). The
  /// bytes are wrong and will stay wrong, so repeating cannot help.
  kDataLoss,
};

/// Returns a short human-readable name for `code` (e.g. "InvalidArgument").
const char* StatusCodeName(StatusCode code);

/// A lightweight success-or-error value, modeled after absl::Status.
///
/// The library does not use exceptions (Google style); every fallible public
/// API returns a Status or a Result<T>. The OK status carries no allocation.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string message) {
    return Status(StatusCode::kInvalidArgument, std::move(message));
  }
  static Status NotFound(std::string message) {
    return Status(StatusCode::kNotFound, std::move(message));
  }
  static Status OutOfRange(std::string message) {
    return Status(StatusCode::kOutOfRange, std::move(message));
  }
  static Status FailedPrecondition(std::string message) {
    return Status(StatusCode::kFailedPrecondition, std::move(message));
  }
  static Status Internal(std::string message) {
    return Status(StatusCode::kInternal, std::move(message));
  }
  static Status DeadlineExceeded(std::string message) {
    return Status(StatusCode::kDeadlineExceeded, std::move(message));
  }
  static Status ResourceExhausted(std::string message) {
    return Status(StatusCode::kResourceExhausted, std::move(message));
  }
  static Status Cancelled(std::string message) {
    return Status(StatusCode::kCancelled, std::move(message));
  }
  static Status Unavailable(std::string message) {
    return Status(StatusCode::kUnavailable, std::move(message));
  }
  static Status DataLoss(std::string message) {
    return Status(StatusCode::kDataLoss, std::move(message));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Renders "Code: message" (or "OK").
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// Either a value of type T or an error Status. Accessing the value of an
/// errored Result is a fatal programming error (checked).
template <typename T>
class Result {
 public:
  /// Implicit construction from a value or an error keeps call sites terse:
  ///   Result<int> F() { if (bad) return Status::InvalidArgument(...);
  ///                     return 42; }
  Result(T value)  // NOLINT(google-explicit-constructor)
      : value_(std::move(value)) {}
  Result(Status status)  // NOLINT(google-explicit-constructor)
      : status_(std::move(status)) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& { return value_.value(); }
  T& value() & { return value_.value(); }
  T&& value() && { return std::move(value_).value(); }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace imgrn

/// Propagates a non-OK Status from an expression, absl-style.
#define IMGRN_RETURN_IF_ERROR(expr)              \
  do {                                           \
    ::imgrn::Status imgrn_status_tmp_ = (expr);  \
    if (!imgrn_status_tmp_.ok()) {               \
      return imgrn_status_tmp_;                  \
    }                                            \
  } while (false)

#endif  // IMGRN_COMMON_STATUS_H_
