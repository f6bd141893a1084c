// Shared machinery of the outside-in benchmark program: span recording,
// latency samples, the measurement loop, and the result report.
//
// Every number morphbench reports is taken from outside the library: it
// times the calls it makes into a layer (dmr, pta, gpu, serve, ...) and reads
// the statistics those calls return. Nothing inside src/ is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace morphbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;    ///< Chrome-trace file for --trace 1 ("" = none)
  std::string scratch_dir{"."};  ///< where sockets / journals live
  bool self_test = false;
};

/// In-memory span recorder. Spans nest on one thread
/// — the benchmark's single generator thread — so a span's parent is the
/// innermost open span when it starts. Disabled recorders cost one branch
/// per span. Spans are written out as Chrome-trace JSON at exit.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t parent;  ///< index into spans(), -1 for roots
    std::uint64_t op;
  };

  /// RAII span; a null tracer records nothing.
  class Scope {
   public:
    Scope(Tracer* t, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    std::int64_t index_ = -1;
  };

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  void set_op(std::uint64_t op) { op_ = op; }
  Scope span(const char* name) { return Scope(this, name); }

  const std::vector<Span>& spans() const { return spans_; }

  /// Summed duration of every span named `name`, in seconds (self time per
  /// span name is what trace_summary.py prints from the written trace).
  double total_s(const std::string& name) const;
  std::uint64_t count(const std::string& name) const;

  /// Writes {"traceEvents":[...], "otherData":{facts}} to `path`.
  bool write_chrome(const std::string& path,
                    const std::string& facts_json) const;

 private:
  std::int64_t now_ns() const;

  bool enabled_ = false;
  std::uint64_t op_ = 0;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
};

/// Sorted-on-demand latency sample.
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  std::size_t size() const { return v_.size(); }
  /// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
  double pct(double q) const;
  /// Samples strictly above pct(q).
  std::size_t beyond(double q) const;
  double mean() const;

 private:
  std::vector<double> v_;
};

/// Failure accounting shared by every output check in a run: each
/// expect() or fail() is one attempted check; the first few failures are
/// described on stderr.
class Checks {
 public:
  /// One check; records a failure described by `what` unless `cond`.
  /// Returns `cond`.
  bool expect(bool cond, const std::string& what);
  /// One check that failed (a wrong, missing or unexpected answer).
  void fail(const std::string& what) { expect(false, what); }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// One per-layer metric of the benchmark. Every workload reports every
/// one; a layer a workload does not go through reads 0 there. `exact`
/// marks the deterministic ones (modeled counts, per pass over the
/// inputs), which are printed in untraced runs too so the two runs can be
/// compared value for value.
struct LayerMetric {
  const char* name;
  const char* unit;
  bool exact;
};
const std::vector<LayerMetric>& layer_metrics();

/// What a workload hands back after measuring.
struct Figures {
  std::vector<Metric> end_to_end;      ///< workload-computed end-to-end
  std::map<std::string, double> layer;  ///< by LayerMetric::name
};

/// Per-run context handed to a workload's op/probe calls.
struct RunCtx {
  Tracer tracer;
  Checks checks;
  Samples latency_ms;  ///< op latencies of the measured window
  bool traced_window = false;  ///< true while the traced half is running
};

/// A workload: build inputs and references (setup), run one op, and in the
/// traced window time the layer calls the op hides (probe). Ops and probes
/// report their own latencies; the harness owns the clock, the windows and
/// the setup repetitions. Destruction stops whatever setup started.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates inputs and references, starts whatever serves them, and runs
  /// one untimed warm-up op. Counted in setup_s.
  virtual void setup(RunCtx& ctx) = 0;
  /// One op: a figure row, or one serving round. Adds its latencies to
  /// RunCtx::latency_ms and returns the number of ops it completed (a
  /// serving round completes several).
  virtual std::uint64_t op(RunCtx& ctx) = 0;
  /// Traced window only, untimed: direct calls into the layers the last op
  /// went through, for per-layer figures the op cannot expose.
  virtual void probe(RunCtx& ctx) = 0;
  /// Minimum number of op() calls in a window (one pass over the inputs),
  /// so per-pass sums never rest on a partial pass.
  virtual std::uint64_t min_ops() const = 0;
  /// The percentile of RunCtx::latency_ms reported as op_tail_ms.
  virtual double tail_q() const = 0;
  /// Deterministic figures (modeled time, speedup, counts) plus the
  /// per-layer figures gathered from the traced window.
  virtual void figures(const RunCtx& ctx, Figures* out) = 0;
  /// Self-test hook: perturbs one stored reference so the next op that
  /// touches it must be caught by the output checks.
  virtual void corrupt_reference() = 0;
  /// Every thread-count knob the workload pins, for the host facts.
  virtual std::vector<std::pair<std::string, std::uint64_t>> knobs() const = 0;
};

using WorkloadFactory = std::function<std::unique_ptr<Workload>(const Options&)>;

std::unique_ptr<Workload> make_dmr_fig(const Options& opt);
std::unique_ptr<Workload> make_serve_mixed(const Options& opt);

/// 64-bit mixer used to derive every generated input from --seed.
inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4595bull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Modeled cycles -> modeled milliseconds at the simulator's nominal clock.
double model_ms(double cycles);

/// Geometric mean of positive values (0 for an empty list).
double geomean_of(const std::vector<double>& xs);

}  // namespace morphbench
