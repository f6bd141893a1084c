// Deterministic fault injection for the simulated GPU.
//
// A FaultPlan is a parsed --faults=<spec> campaign: a list of clauses, each
// naming a fault class and saying when (and how often, and with what
// probability) it fires. The plan is attached to gpu::DeviceConfig::faults;
// components with an injection point ask the device's FaultInjector
// `should_fire(cls)` once per *opportunity* (an allocation, a push, a launch,
// a barrier, a conflict round). Opportunities are counted per class, so a
// clause like `arena@3x2` fires on the 3rd and 4th arena-allocation
// opportunities — positions in program order, not wall-clock, which is what
// makes a campaign replay bit-identically. Probabilistic clauses (`~p`) draw
// from a seeded per-class PRNG keyed by (plan seed, class), so they are just
// as deterministic.
//
// Spec grammar (comma-separated clauses):
//
//   clause  := class [ '@' after ] [ 'x' count ] [ '~' prob ]
//   class   := arena | globalwl | launch | barrier | livelock | journal
//
//   after   — 1-based opportunity index of the first firing (default 1)
//   count   — number of consecutive opportunities that fire (default 1)
//   prob    — firing probability per opportunity in (0,1] (default 1),
//             evaluated only inside the [after, after+count) window
//
// Example: `--faults=arena@3x2,launch@1,livelock@2x3`.
//
// The library deliberately depends only on morph_support: the gpu layer owns
// the injector instance and emits the telemetry fault/recovery events itself.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "support/status.hpp"

namespace morph::resilience {

/// The injectable failure classes. A class's ordinal keys its PRNG stream
/// (FaultInjector), so ordinals are part of the replay contract and are
/// never renumbered: ordinal 2 belonged to a retired class and stays unused,
/// and a new class takes the next free ordinal.
enum class FaultClass : std::uint8_t {
  kArenaExhaust = 0,      ///< device-malloc arena exhaustion (DeviceHeap)
  kGlobalWlOverflow = 1,  ///< global worklist push finds it full
  kLaunchFail = 3,        ///< transient kernel-launch failure
  kBarrierStall = 4,      ///< one intra-kernel global barrier stalls
  kLivelock = 5,          ///< conflict resolution: repeated priority ties
  kJournalTorn = 6,       ///< serve WAL append crashes mid-record (torn write)
};

/// One past the largest FaultClass ordinal: the injector's per-class arrays.
inline constexpr std::size_t kFaultClassSlots = 7;

const char* fault_class_name(FaultClass cls);

/// One `class[@after][xcount][~prob]` clause.
struct FaultClause {
  FaultClass cls = FaultClass::kArenaExhaust;
  std::uint64_t after = 1;  ///< 1-based first firing opportunity
  std::uint64_t count = 1;  ///< consecutive firing opportunities
  double prob = 1.0;        ///< per-opportunity firing probability

  std::string to_string() const;
};

/// A full --faults campaign. Empty clauses == no injection (the device then
/// never constructs an injector, keeping the disabled path at one branch per
/// injection point).
struct FaultPlan {
  std::vector<FaultClause> clauses;
  std::uint64_t seed = 1;  ///< --fault-seed; keys the probabilistic clauses

  bool empty() const { return clauses.empty(); }
  std::string to_string() const;
};

/// Parses the spec grammar above. Returns kBadFaultSpec (with a pointed
/// message naming the offending clause) on any malformed input.
Status parse_fault_plan(const std::string& spec, std::uint64_t seed,
                        FaultPlan* out);

/// Runtime injection state for one device: per-class opportunity counters
/// plus the seeded PRNG streams. Opportunity counting is done under the
/// caller's serialization (the device pins execution to sequential block
/// order while a plan is armed), so the class is intentionally not
/// thread-safe.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan);

  /// Counts one opportunity for `cls` and reports whether a clause fires on
  /// it. At most one firing is reported per opportunity.
  bool should_fire(FaultClass cls);

  /// Opportunities seen so far for `cls` (after the should_fire calls).
  std::uint64_t opportunities(FaultClass cls) const {
    return seen_[static_cast<std::size_t>(cls)];
  }
  /// Faults actually fired so far for `cls`.
  std::uint64_t fired(FaultClass cls) const {
    return fired_[static_cast<std::size_t>(cls)];
  }

  const FaultPlan& plan() const { return plan_; }

 private:
  FaultPlan plan_;
  std::array<std::uint64_t, kFaultClassSlots> seen_{};
  std::array<std::uint64_t, kFaultClassSlots> fired_{};
  std::array<std::uint64_t, kFaultClassSlots> rng_{};  ///< splitmix64 states
};

// --- CLI plumbing (bench harness + examples) -------------------------------

/// The flag names the fault CLI contributes ("faults", "fault-seed") — for
/// CliArgs::warn_unknown known-lists.
const std::vector<std::string>& fault_cli_flags();

/// Reads --faults / --fault-seed from parsed CLI flags. Returns an empty
/// optional when --faults is absent; exits with status 2 on a malformed spec
/// (mirroring CliArgs::get_positive_int's loud-failure convention).
std::optional<FaultPlan> fault_plan_from_args(
    const std::string& spec_or_empty, std::uint64_t seed);

}  // namespace morph::resilience
