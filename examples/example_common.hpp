// Shared CLI plumbing for the examples: strict flag checking (a typo like
// --fault=... gets a did-you-mean pointing at --faults), the
// --faults/--fault-seed campaign flags of docs/RESILIENCE.md, and a guarded
// main that turns an unrecovered injected fault into a clean nonzero exit.
#pragma once

#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "resilience/fault.hpp"
#include "support/cli.hpp"
#include "support/status.hpp"

namespace morph::examples {

/// CliArgs plus the flags every example shares. `known` lists the example's
/// own flags; --host-workers, --faults and --fault-seed are added here, and
/// anything else warns with a closest-match suggestion.
class ExampleCli {
 public:
  ExampleCli(int argc, char** argv, std::vector<std::string> known)
      : args_(argc, argv) {
    known.push_back("host-workers");
    const auto& fault_flags = resilience::fault_cli_flags();
    known.insert(known.end(), fault_flags.begin(), fault_flags.end());
    args_.warn_unknown(known, std::cerr);
    plan_ = resilience::fault_plan_from_args(
        args_.get("faults", ""),
        static_cast<std::uint64_t>(args_.get_int("fault-seed", 1)));
  }

  CliArgs& args() { return args_; }
  const CliArgs& args() const { return args_; }

  /// The armed campaign, or null when --faults is absent. Plumb into
  /// gpu::DeviceConfig::faults; this object must outlive the devices.
  const resilience::FaultPlan* faults() const {
    return plan_ ? &*plan_ : nullptr;
  }

 private:
  CliArgs args_;
  std::optional<resilience::FaultPlan> plan_;
};

/// Runs the example body; an unrecovered injected fault (exhausted retries,
/// watchdog give-up, invariant violation) exits 3 with the fault's status
/// line instead of terminating on an uncaught exception.
template <typename F>
int guarded_main(F&& body) {
  try {
    return body();
  } catch (const FaultError& e) {
    std::cerr << "fault campaign failed: " << e.status().to_string() << "\n";
    return 3;
  }
}

}  // namespace morph::examples
