// Typed status codes for recoverable failures.
//
// Capacity and allocation failures used to assert (MORPH_CHECK) and abort the
// run; the resilience subsystem needs something it can catch and act on
// instead. A Status is cheap to return from hot paths (one enum + an optional
// message that is only populated on failure); FaultError wraps a non-OK
// Status for the boundaries where failure must propagate as an exception
// (driver loops, CLI mains).
#pragma once

#include <stdexcept>
#include <string>
#include <utility>

namespace morph {

enum class StatusCode {
  kOk = 0,
  kArenaExhausted,      ///< DeviceHeap chunk arena at its budget
  kWorklistFull,        ///< global worklist capacity reached
  kLaunchFailed,        ///< transient kernel-launch failure (injected)
  kLivelock,            ///< conflict resolution made no progress
  kInvariantViolation,  ///< app-level invariant checker rejected the state
  kRetriesExhausted,    ///< a bounded-retry recovery ladder gave up
  kBadFaultSpec,        ///< --faults=<spec> did not parse
  kAdmissionRejected,   ///< job server admission control turned the job away
  kBadRequest,          ///< malformed protocol frame / job request
  kIoError,             ///< socket or file transport failure
  kTimeout,             ///< client-side receive deadline expired
  kDeadlineExceeded,    ///< job could not meet its virtual-time deadline
  kCancelled,           ///< job cancelled by the client before it sealed
  kUnavailable,         ///< server is draining and accepts no new work
};

inline const char* status_code_name(StatusCode c) {
  switch (c) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kArenaExhausted: return "arena-exhausted";
    case StatusCode::kWorklistFull: return "worklist-full";
    case StatusCode::kLaunchFailed: return "launch-failed";
    case StatusCode::kLivelock: return "livelock";
    case StatusCode::kInvariantViolation: return "invariant-violation";
    case StatusCode::kRetriesExhausted: return "retries-exhausted";
    case StatusCode::kBadFaultSpec: return "bad-fault-spec";
    case StatusCode::kAdmissionRejected: return "admission-rejected";
    case StatusCode::kBadRequest: return "bad-request";
    case StatusCode::kIoError: return "io-error";
    case StatusCode::kTimeout: return "timeout";
    case StatusCode::kDeadlineExceeded: return "deadline-exceeded";
    case StatusCode::kCancelled: return "cancelled";
    case StatusCode::kUnavailable: return "unavailable";
  }
  return "unknown";
}

/// Result of an operation that may fail recoverably.
class Status {
 public:
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status{}; }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "arena-exhausted: chunk budget (8) reached" — or "ok".
  std::string to_string() const {
    if (ok()) return "ok";
    std::string s = status_code_name(code_);
    if (!message_.empty()) {
      s += ": ";
      s += message_;
    }
    return s;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Thrown at recovery-ladder boundaries when a Status must stop the run
/// (exhausted retries, unparseable fault spec, watchdog give-up). Carries the
/// originating Status so tests and mains can branch on the code.
class FaultError : public std::runtime_error {
 public:
  explicit FaultError(Status status)
      : std::runtime_error(status.to_string()), status_(std::move(status)) {}

  const Status& status() const { return status_; }
  StatusCode code() const { return status_.code(); }

 private:
  Status status_;
};

/// Throws FaultError if `s` is not OK; otherwise returns it unchanged.
inline const Status& throw_if_error(const Status& s) {
  if (!s.ok()) throw FaultError(s);
  return s;
}

}  // namespace morph
