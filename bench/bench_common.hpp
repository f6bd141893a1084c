// Shared harness for the figure-reproduction benches.
//
// Every bench prints the same rows/series as the corresponding figure or
// table of the paper, and (new with the telemetry subsystem) can emit the
// same data machine-readably:
//
//   --json=<path>       write a versioned BenchReport (telemetry/bench_report
//                       .hpp); morph-report pretty-prints/diffs/merges these.
//   --trace=<path>      record every kernel launch/phase/barrier on the
//                       simulated devices and write a Chrome trace-event file
//                       (open in Perfetto or chrome://tracing).
//   --trace-blocks      additionally record one span per executed block
//                       (one track per simulated SM).
//   --clock-ghz=<ghz>   nominal device clock used to express modeled cycles
//                       as milliseconds (default 1.0, the paper-era Fermi
//                       ballpark); lives in gpu::DeviceConfig::clock_ghz so
//                       tables and JSON reports always agree.
//   --faults=<spec>     arm a deterministic fault-injection campaign on every
//                       device the bench constructs (docs/RESILIENCE.md);
//                       --fault-seed=<n> keys its probabilistic clauses.
//   --sanitize=<spec>   arm the MorphSan hazard checker (docs/ANALYSIS.md)
//                       on every device the bench constructs; <spec> is a
//                       comma list of races,worklist,memory or "all".
//                       The report is printed to stderr, a
//                       "sanitizer" section is added to --json output, and
//                       the bench exits 4 if any hazard was found.
//
// Cross-platform timing claims use the simulator's modeled cycles (reported
// as "model-ms"); wall-clock seconds of the real computation are printed
// alongside. Pass --scale=N to divide workload sizes by N (default sizes
// are already scaled from the paper's to laptop range; see DESIGN.md).
#pragma once

#include <cstdint>
#include <exception>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/sanitizer.hpp"
#include "gpu/config.hpp"
#include "gpu/device.hpp"
#include "resilience/fault.hpp"
#include "support/check.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "telemetry/bench_report.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/trace.hpp"

namespace morph::bench {

namespace detail {
/// Set when a Bench unwinds (its body threw) after the sanitizer recorded
/// findings; guarded_main then exits 4 as finish() would have.
inline bool& unwound_with_findings() {
  static bool flag = false;
  return flag;
}
}  // namespace detail

/// One bench run: CLI parsing (with unknown-flag warnings), the shared
/// device configuration, the clock-derived model-ms scale, and the optional
/// machine-readable outputs. Construct it first thing in main(), add one
/// report row per printed table row, and `return bench.finish();`.
class Bench {
 public:
  Bench(int argc, char** argv, const std::string& title,
        const std::string& paper_ref,
        std::vector<std::string> extra_flags = {})
      : args_(argc, argv) {
    std::vector<std::string> known = {"host-workers", "json",      "trace",
                                      "trace-blocks", "clock-ghz", "sanitize"};
    const auto& fault_flags = resilience::fault_cli_flags();
    known.insert(known.end(), fault_flags.begin(), fault_flags.end());
    known.insert(known.end(), extra_flags.begin(), extra_flags.end());
    args_.warn_unknown(known, std::cerr);

    base_cfg_.host_workers = host_workers_arg(args_);
    if (args_.has("sanitize")) {
      analysis::SanitizeOptions sopts;
      std::string spec = args_.get("sanitize", "all");
      if (spec == "1") spec = "all";  // bare --sanitize arms everything
      if (!analysis::SanitizeOptions::parse(spec, &sopts)) {
        std::cerr << "error: --sanitize must be a comma list of "
                     "races,worklist,memory or 'all' (got '"
                  << spec << "')\n";
        std::exit(2);
      }
      san_ = std::make_unique<analysis::Sanitizer>(sopts);
      base_cfg_.sanitize = san_.get();
    }
    fault_plan_ = resilience::fault_plan_from_args(
        args_.get("faults", ""),
        static_cast<std::uint64_t>(args_.get_int("fault-seed", 1)));
    if (fault_plan_) base_cfg_.faults = &*fault_plan_;
    base_cfg_.clock_ghz = args_.get_double("clock-ghz", 1.0);
    if (base_cfg_.clock_ghz <= 0.0) {
      std::cerr << "error: --clock-ghz must be positive\n";
      std::exit(2);
    }
    // 1e-6/1.0 == 1e-6 exactly, so the default clock reproduces the
    // historical `cycles * 1e-6` bit for bit.
    ms_per_cycle_ = 1e-6 / base_cfg_.clock_ghz;

    if (args_.has("trace")) {
      telemetry::TraceSink::Options topts;
      topts.block_spans = args_.get_bool("trace-blocks", false);
      sink_ = std::make_unique<telemetry::TraceSink>(topts);
      base_cfg_.trace = sink_.get();
    }

    report_.bench = bench_name(argc, argv);
    report_.title = title;
    report_.clock_ghz = base_cfg_.clock_ghz;
    for (const auto& [k, v] : args_.flags()) {
      if (k == "json" || k == "trace") continue;  // output paths vary per run
      report_.args.emplace_back(k, v);
    }

    section(title, paper_ref);
  }

  /// A body that throws (a failed MORPH_CHECK, say) never reaches finish():
  /// the sanitizer's findings recorded so far are printed here instead.
  ~Bench() {
    if (!san_ || std::uncaught_exceptions() <= uncaught_at_start_) return;
    san_->report(std::cerr);
    if (!san_->clean()) detail::unwound_with_findings() = true;
  }
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  /// Prints a section header (the constructor prints one for `title`;
  /// benches with several tables call this in between).
  void section(const std::string& title, const std::string& paper_ref) const {
    std::cout << "\n=== " << title << " ===\n"
              << "reproduces: " << paper_ref << "\n\n";
  }

  CliArgs& args() { return args_; }

  /// Device configuration shared by the bench harnesses: block-parallel host
  /// execution by default (--host-workers, 0 = one worker per hardware
  /// thread) and the trace sink when --trace was given. Modeled statistics
  /// do not depend on either.
  const gpu::DeviceConfig& device_config() const { return base_cfg_; }

  /// Modeled cycles -> milliseconds at the nominal device clock.
  double model_ms(double cycles) const { return cycles * ms_per_cycle_; }

  std::string fmt_ms(double ms) const { return Table::num(ms, 2); }

  telemetry::BenchReport& report() { return report_; }
  telemetry::BenchReport::Row& add_row(const std::string& name) {
    return report_.add_row(name);
  }

  /// Standard per-device metrics every bench row records for the GPU arm.
  void add_device_metrics(telemetry::BenchReport::Row& row,
                          const gpu::Device& dev) const {
    const gpu::DeviceStats& st = dev.stats();
    row.metric("modeled_cycles", st.modeled_cycles)
        .metric("model_ms", model_ms(st.modeled_cycles))
        .metric("launches", static_cast<double>(st.launches))
        .metric("barriers", static_cast<double>(st.barriers))
        .metric("total_work", static_cast<double>(st.total_work))
        .metric("warp_steps", static_cast<double>(st.warp_steps))
        .metric("atomics", static_cast<double>(st.atomics))
        .metric("global_accesses", static_cast<double>(st.global_accesses))
        .metric("divergence", st.divergence(dev.config().warp_size))
        .metric("device_mallocs", static_cast<double>(st.device_mallocs))
        .metric("reallocs", static_cast<double>(st.reallocs))
        .metric("bytes_allocated", static_cast<double>(st.bytes_allocated))
        .metric("bytes_copied", static_cast<double>(st.bytes_copied))
        .metric("wl_contended_ops", static_cast<double>(st.wl_contended_ops))
        .metric("wl_contention_cycles",
                st.wl_contention_cycles(dev.config().atomic_cost,
                                        dev.config().atomic_concurrency));
  }

  /// The hazard checker armed by --sanitize (nullptr when the flag is off);
  /// device_config() already points at it, so most benches never touch this.
  analysis::Sanitizer* sanitizer() const { return san_.get(); }

  /// Writes --json / --trace outputs (if requested). Returns the process
  /// exit code for main(): 0, or 4 if the sanitizer found hazards.
  int finish() {
    if (san_) {
      report_.sanitizer.enabled = true;
      report_.sanitizer.spec = san_->options().to_string();
      for (std::size_t c = 0; c < analysis::kNumHazardClasses; ++c) {
        const auto cls = static_cast<analysis::HazardClass>(c);
        report_.sanitizer.counts.emplace_back(
            analysis::hazard_class_name(cls),
            static_cast<double>(san_->finding_count(cls)));
      }
      for (const analysis::Finding& f : san_->findings()) {
        report_.sanitizer.findings.push_back(f.to_string());
      }
      report_.sanitizer.suppressed =
          static_cast<double>(san_->suppressed());
    }
    if (args_.has("json")) {
      report_.save(args_.get("json", ""));
      std::cerr << "wrote bench report: " << args_.get("json", "") << "\n";
    }
    if (sink_) {
      telemetry::ChromeTraceOptions topts;
      topts.clock_ghz = base_cfg_.clock_ghz;
      topts.dropped_events = sink_->dropped();
      if (topts.dropped_events > 0) {
        std::cerr << "warning: trace ring overflow dropped "
                  << topts.dropped_events << " events\n";
      }
      telemetry::write_chrome_trace(args_.get("trace", ""), sink_->merged(),
                                    topts);
      std::cerr << "wrote trace: " << args_.get("trace", "") << "\n";
    }
    if (san_) {
      san_->report(std::cerr);
      if (!san_->clean()) return 4;
    }
    return 0;
  }

 private:
  static std::string bench_name(int argc, char** argv) {
    if (argc < 1 || argv[0] == nullptr) return "bench";
    const std::string path = argv[0];
    const auto slash = path.find_last_of('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
  }

  CliArgs args_;
  gpu::DeviceConfig base_cfg_;
  /// Owns the --faults campaign base_cfg_.faults points at (if armed).
  std::optional<resilience::FaultPlan> fault_plan_;
  /// Owns the --sanitize checker base_cfg_.sanitize points at (if armed).
  std::unique_ptr<analysis::Sanitizer> san_;
  double ms_per_cycle_ = 1e-6;
  std::unique_ptr<telemetry::TraceSink> sink_;
  telemetry::BenchReport report_;
  int uncaught_at_start_ = std::uncaught_exceptions();
};

/// Runs a bench body, turning an unrecovered injected fault (FaultError:
/// exhausted retries, watchdog give-up, invariant violation) and a failed
/// MORPH_CHECK into a clean nonzero exit instead of a terminate(). A check
/// failure exits 4 when the sanitizer had findings (the Bench printed them
/// while unwinding, before the check message), else 1. Mains do
/// `return bench::guarded_main([&] { ...; return bench.finish(); });`.
template <typename F>
int guarded_main(F&& body) {
  try {
    return body();
  } catch (const FaultError& e) {
    std::cerr << "fault campaign failed: " << e.status().to_string() << "\n";
    return 3;
  } catch (const CheckError& e) {
    std::cerr << e.what() << "\n";
    return detail::unwound_with_findings() ? 4 : 1;
  }
}

}  // namespace morph::bench
