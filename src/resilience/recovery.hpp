// Recovery policies for the graceful-degradation ladders.
//
// RetryPolicy bounds how often a recovery step (arena growth, launch retry)
// may be attempted and charges an exponentially growing modeled-cycle
// backoff, mirroring what a real driver would do with cudaDeviceSynchronize +
// host-side growth (the paper's Kernel-Host fallback, Sec. 6.2).
// LivelockWatchdog turns "no-progress round" observations from the 3-phase
// conflict protocol (paper Sec. 7.2: terminates only with high probability)
// into an escalation decision: retry, serialize priority arbitration, or
// give up loudly.
#pragma once

#include <cstdint>

#include "support/status.hpp"

namespace morph::resilience {

/// Bounded retry with exponential modeled-cycle backoff.
struct RetryPolicy {
  std::uint32_t max_retries = 3;
  double backoff_cycles = 1000.0;  ///< charged on the 1st retry
  double backoff_factor = 2.0;     ///< multiplier per subsequent retry

  /// Backoff charged for retry number `attempt` (1-based). 0.0 for attempt 0
  /// (the initial try is free).
  double backoff_for(std::uint32_t attempt) const {
    if (attempt == 0) return 0.0;
    double b = backoff_cycles;
    for (std::uint32_t i = 1; i < attempt; ++i) b *= backoff_factor;
    return b;
  }

  bool exhausted(std::uint32_t attempt) const { return attempt > max_retries; }
};

/// Tracks consecutive no-progress rounds of a conflict-resolution loop and
/// decides when to escalate. The defaults replicate the drivers' historical
/// behaviour (serialize on the first no-progress round), so arming a
/// watchdog with default thresholds does not change any fault-free run.
class LivelockWatchdog {
 public:
  enum class Action {
    kNone,      ///< progress was made (or below threshold): keep going
    kEscalate,  ///< serialize priority arbitration for the next round
    kGiveUp,    ///< hopeless: fail loudly with kLivelock
  };

  /// `escalate_after`: consecutive no-progress rounds tolerated before
  /// serializing. `give_up_after`: consecutive no-progress rounds (counting
  /// escalated rounds) before giving up; 0 means never give up.
  explicit LivelockWatchdog(std::uint32_t escalate_after = 1,
                            std::uint32_t give_up_after = 0)
      : escalate_after_(escalate_after), give_up_after_(give_up_after) {}

  /// Feed one round's outcome; returns what the driver should do next.
  Action observe(bool made_progress) {
    if (made_progress) {
      stalled_ = 0;
      return Action::kNone;
    }
    ++stalled_;
    if (give_up_after_ != 0 && stalled_ >= give_up_after_)
      return Action::kGiveUp;
    if (stalled_ >= escalate_after_) return Action::kEscalate;
    return Action::kNone;
  }

  /// The Status a driver should wrap in FaultError on kGiveUp.
  Status give_up_status(const char* where) const {
    return Status(StatusCode::kLivelock,
                  std::string(where) + ": no progress after " +
                      std::to_string(stalled_) + " rounds (watchdog limit)");
  }

 private:
  std::uint32_t escalate_after_;
  std::uint32_t give_up_after_;
  std::uint32_t stalled_ = 0;
};

}  // namespace morph::resilience
