// morphbench — the repository's outside-in benchmark program.
//
//   morphbench --workload dmr-fig|serve-mixed --seed N --seconds S
//              --trace 0|1 [--trace-out FILE] [--scratch DIR]
//   morphbench --self-test [--scratch DIR]
//
// One process is one run of one workload. It sets the workload up three
// times (setup_s is the median), measures a closed loop of ops for S
// seconds, checks every output, and prints the metrics by name with their
// units; the last stdout line is the JSON result. With --trace 1 the first
// half of the window runs untraced and the second half records spans, so
// the run reports its own tracing overhead next to the per-layer figures.
// See morphbench/README.md.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "harness.hpp"

#ifndef MORPHBENCH_BUILD_TYPE
#define MORPHBENCH_BUILD_TYPE "unknown"
#endif
#ifndef MORPHBENCH_COMPILER
#define MORPHBENCH_COMPILER "unknown"
#endif

namespace morphbench {
namespace {

#if defined(__OPTIMIZE__)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

/// Process wall time after which a window stops even if it has not finished
/// its minimum pass, so a run on a slow host still exits within 180 s.
constexpr double kHardStopSeconds = 150.0;
constexpr int kSetupRepeats = 3;

const std::map<std::string, WorkloadFactory>& workloads() {
  static const std::map<std::string, WorkloadFactory> table = {
      {"dmr-fig", make_dmr_fig},
      {"serve-mixed", make_serve_mixed},
  };
  return table;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string quote(const std::string& s) {
  std::string out(1, '"');
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

/// Resident memory in MB once the allocator has handed its free pages back
/// (malloc_trim), read from a page-table walk (smaps_rollup). Untrimmed,
/// the figure depended on which arena a short-lived device thread had
/// freed into and on when glibc last trimmed it: peaks 12.8 MB apart came
/// out of runs of the same seed. The kernel's own high-water mark
/// (getrusage, VmHWM) has the same problem and cannot be reset per op.
double resident_mb() {
  ::malloc_trim(0);
  std::ifstream f("/proc/self/smaps_rollup");
  std::string key;
  double kib = 0;
  while (f >> key) {
    if (key == "Rss:") {
      f >> kib;
      return kib / 1024.0;
    }
    f.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // fallback, KiB
}

/// Memory is sampled between ops, at most this often, so the trim's page
/// faults stay a negligible share of op time.
constexpr double kRssSampleSeconds = 0.5;

std::string facts_json(const Options& opt, const Workload& w) {
  std::ostringstream o;
  o << "{\"workload\":" << quote(opt.workload) << ",\"seed\":" << opt.seed
    << ",\"seconds\":" << num(opt.seconds)
    << ",\"trace\":" << (opt.trace ? 1 : 0)
    << ",\"nproc\":" << ::sysconf(_SC_NPROCESSORS_ONLN)
    << ",\"hardware_concurrency\":" << std::thread::hardware_concurrency()
    << ",\"build_type\":" << quote(MORPHBENCH_BUILD_TYPE)
    << ",\"compiler\":" << quote(MORPHBENCH_COMPILER)
    << ",\"optimized\":" << (kOptimized ? "true" : "false")
    << ",\"sanitizer\":" << (kSanitized ? "true" : "false")
    << ",\"setup_repeats\":" << kSetupRepeats << ",\"knobs\":{";
  bool first = true;
  for (const auto& [k, v] : w.knobs()) {
    o << (first ? "" : ",") << quote(k) << ":" << v;
    first = false;
  }
  o << "}}";
  return o.str();
}

struct Window {
  double active_s = 0.0;
  std::uint64_t ops = 0;
  double peak_rss_mb = 0.0;  ///< max resident memory sampled between ops
  Clock::time_point last_rss_sample = Clock::now();
  double ops_per_s() const { return active_s > 0 ? ops / active_s : 0.0; }
};

/// Closed loop: the next op starts when the previous one returns. Probes
/// (traced window only) run between ops and off the clock.
Window run_window(Workload& w, RunCtx& ctx, double seconds,
                  std::uint64_t min_calls, std::uint64_t* calls_so_far,
                  Clock::time_point process_start) {
  Window win;
  std::uint64_t calls = 0;
  while (win.active_s < seconds || *calls_so_far + calls < min_calls) {
    if (seconds_since(process_start) > kHardStopSeconds) {
      std::cerr << "warning: hard stop after " << calls << " ops\n";
      break;
    }
    ctx.tracer.set_op(calls);
    const auto t0 = Clock::now();
    win.ops += w.op(ctx);
    win.active_s += seconds_since(t0);
    ++calls;
    if (seconds_since(win.last_rss_sample) >= kRssSampleSeconds) {
      win.peak_rss_mb = std::max(win.peak_rss_mb, resident_mb());
      win.last_rss_sample = Clock::now();
    }
    if (ctx.traced_window) w.probe(ctx);
  }
  *calls_so_far += calls;
  return win;
}

void print_metrics(const char* group, const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::cout << group << " " << m.name << " = " << num(m.value) << " "
              << m.unit << "\n";
  }
}

int run(const Options& opt) {
  const auto process_start = Clock::now();
  const auto it = workloads().find(opt.workload);
  if (it == workloads().end()) {
    std::cerr << "error: unknown workload \"" << opt.workload << "\"\n";
    return 2;
  }

  RunCtx ctx;
  std::vector<double> setup_times;
  std::unique_ptr<Workload> w;
  for (int i = 0; i < kSetupRepeats; ++i) {
    w.reset();  // tears the previous instance down, off the clock
    const auto t0 = Clock::now();
    w = it->second(opt);
    w->setup(ctx);
    setup_times.push_back(seconds_since(t0));
  }
  ctx.latency_ms = Samples();  // the warm-up ops'
  const double setup_rss_mb = resident_mb();
  std::sort(setup_times.begin(), setup_times.end());
  const double setup_s = setup_times[setup_times.size() / 2];
  const std::string facts = facts_json(opt, *w);
  std::cout << "facts " << facts << "\n";

  // Ops of both windows count towards the minimum pass over the inputs.
  Window untraced, traced;
  std::uint64_t calls = 0;
  if (!opt.trace) {
    untraced =
        run_window(*w, ctx, opt.seconds, w->min_ops(), &calls, process_start);
  } else {
    untraced = run_window(*w, ctx, opt.seconds / 2, 0, &calls, process_start);
    ctx.latency_ms = Samples();
    ctx.tracer.set_enabled(true);
    ctx.traced_window = true;
    traced = run_window(*w, ctx, opt.seconds / 2, w->min_ops(), &calls,
                        process_start);
    ctx.tracer.set_enabled(false);
  }
  const Window& main_win = opt.trace ? traced : untraced;

  Figures fig;
  w->figures(ctx, &fig);

  const Samples& lat = ctx.latency_ms;
  const double q = w->tail_q();
  if (lat.beyond(q) < 10) {
    std::cerr << "warning: only " << lat.beyond(q) << " samples beyond p"
              << num(q * 100) << " (" << lat.size() << " ops)\n";
  }
  std::vector<Metric> e2e = {
      {"setup_s", setup_s, "s"},
      {"ops_per_s", untraced.ops_per_s(), "1/s"},
      {"op_p50_ms", lat.pct(0.5), "ms"},
      {"op_tail_ms", lat.pct(q), "ms"},
  };
  e2e.insert(e2e.end(), fig.end_to_end.begin(), fig.end_to_end.end());
  e2e.push_back({"peak_rss_mb",
                 std::max({setup_rss_mb, untraced.peak_rss_mb,
                           traced.peak_rss_mb}),
                 "MB"});

  if (opt.trace) {
    const double base = untraced.ops_per_s();
    fig.layer["trace.overhead_pct"] =
        base > 0 ? 100.0 * (base - traced.ops_per_s()) / base : 0.0;
    fig.layer["trace.spans"] = static_cast<double>(ctx.tracer.spans().size());
    if (!opt.trace_out.empty() &&
        !ctx.tracer.write_chrome(opt.trace_out, facts)) {
      std::cerr << "warning: could not write " << opt.trace_out << "\n";
    }
  }
  std::vector<Metric> layer, exact;
  for (const LayerMetric& m : layer_metrics()) {
    const auto v = fig.layer.find(m.name);
    layer.push_back({m.name, v == fig.layer.end() ? 0.0 : v->second, m.unit});
    if (m.exact) exact.push_back(layer.back());
  }

  const std::uint64_t attempted = ctx.checks.attempted();
  const std::uint64_t failed = ctx.checks.failed();
  std::cout << "ops " << main_win.ops << " in " << num(main_win.active_s)
            << " s; tail = p" << num(q * 100) << " with " << lat.beyond(q)
            << " of " << lat.size() << " samples beyond it\n";
  std::cout << "latency ms";
  for (double pq : {0.5, 0.75, 0.85, 0.9, 0.95, 0.99}) {
    std::cout << " p" << num(pq * 100) << "=" << num(lat.pct(pq));
  }
  std::cout << "\n";
  std::cout << "checks attempted " << attempted << ", failed " << failed
            << ", fail_ratio "
            << num(attempted ? static_cast<double>(failed) / attempted : 0.0)
            << "\n";
  print_metrics("exact", exact);
  print_metrics("end-to-end", e2e);
  if (opt.trace) print_metrics("per-layer", layer);

  const std::vector<Metric>& reported = opt.trace ? layer : e2e;
  std::ostringstream o;
  o << "{\"correct\": " << (failed == 0 && attempted > 0 ? "true" : "false")
    << ", \"attempted\": " << std::max<std::uint64_t>(attempted, 1)
    << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < reported.size(); ++i) {
    o << (i ? ", " : "") << quote(reported[i].name) << ": {\"value\": "
      << num(reported[i].value) << ", \"unit\": " << quote(reported[i].unit)
      << "}";
  }
  o << "}}";
  std::cout << o.str() << std::endl;
  return failed == 0 && attempted > 0 ? 0 : 1;
}

/// Each workload must catch a reference corrupted after setup.
int self_test(const Options& base) {
  int missed = 0;
  for (const auto& [name, factory] : workloads()) {
    Options opt = base;
    opt.workload = name;
    RunCtx ctx;
    auto w = factory(opt);
    w->setup(ctx);
    const std::uint64_t clean = ctx.checks.failed();
    w->corrupt_reference();
    w->op(ctx);
    w.reset();
    const bool caught = clean == 0 && ctx.checks.failed() > 0;
    std::cout << name << ": clean setup " << (clean == 0 ? "ok" : "FAILED")
              << ", corrupted reference "
              << (caught ? "caught" : "NOT caught") << "\n";
    if (!caught) ++missed;
  }
  std::cout << (missed == 0 ? "self-test passed" : "self-test FAILED") << "\n";
  return missed == 0 ? 0 : 1;
}

bool parse_args(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;
    try {
      if (a == "--self-test") {
        opt->self_test = true;
      } else if (a == "--workload") {
        if (!value(&opt->workload)) return false;
      } else if (a == "--seed") {
        if (!value(&v)) return false;
        opt->seed = std::stoull(v);
      } else if (a == "--seconds") {
        if (!value(&v)) return false;
        opt->seconds = std::stod(v);
        if (!(opt->seconds > 0)) return false;
      } else if (a == "--trace") {
        if (!value(&v) || (v != "0" && v != "1")) return false;
        opt->trace = v == "1";
      } else if (a == "--trace-out") {
        if (!value(&opt->trace_out)) return false;
      } else if (a == "--scratch") {
        if (!value(&opt->scratch_dir)) return false;
      } else {
        std::cerr << "error: unknown argument " << a << "\n";
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return opt->self_test || !opt->workload.empty();
}

}  // namespace
}  // namespace morphbench

int main(int argc, char** argv) {
  using namespace morphbench;
  Options opt;
  if (!parse_args(argc, argv, &opt)) {
    std::cerr << "usage: morphbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE] [--scratch DIR] | "
                 "--self-test\n";
    return 2;
  }
  if (!kOptimized || kSanitized) {
    std::cerr << "error: refusing to report from an unoptimised or sanitizer "
                 "build (build type "
              << MORPHBENCH_BUILD_TYPE << ")\n";
    return 3;
  }
  try {
    return opt.self_test ? self_test(opt) : run(opt);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
