// Job model of the morph job server (docs/SERVER.md).
//
// A job is one morph workload — refine a mesh (dmr), run a survey (sp),
// solve a constraint set (pta), contract a graph (mst) — described entirely
// by a small deterministic spec: kind, sizes, and a seed. Inputs are
// generated server-side from the spec (the repo's benches do the same), so
// a job's result and its modeled execution stats are a pure function of
// (spec, device configuration) — the property every serving-layer
// determinism gate rests on: replaying a job list must reproduce results
// byte for byte regardless of pool size, host workers, or real-time
// interleaving.
//
// Requests and results round-trip through the telemetry JSON model
// (telemetry/json.hpp), which prints numbers deterministically; the
// length-prefixed wire framing lives in serve/protocol.hpp.
#pragma once

#include <cstdint>
#include <string>

#include "gpu/stats.hpp"
#include "support/status.hpp"
#include "telemetry/json.hpp"

namespace morph::serve {

enum class JobKind : std::uint8_t {
  kDmr = 0,  ///< Delaunay mesh refinement (dmr::refine_gpu)
  kSp,       ///< survey propagation, fixed sweep workload (sp::solve_gpu)
  kPta,      ///< points-to constraint solving (pta::solve_gpu)
  kMst,      ///< Boruvka spanning-forest contraction (mst::mst_gpu)
};

inline constexpr std::size_t kNumJobKinds = 4;

const char* job_kind_name(JobKind k);
bool parse_job_kind(const std::string& s, JobKind* out);

/// Deterministic description of one workload. `size`/`size2` are
/// kind-specific (see the field comments); everything a job computes is a
/// function of this struct plus the server's device configuration.
struct JobSpec {
  JobKind kind = JobKind::kDmr;
  /// dmr: target triangles; sp: literals; pta: variables; mst: nodes.
  std::uint64_t size = 1000;
  /// pta: constraints (0 = 1.3x vars); mst: undirected edges (0 = 2x nodes).
  std::uint64_t size2 = 0;
  std::uint32_t k = 3;        ///< sp: clause width (3..6)
  std::uint32_t sweeps = 8;   ///< sp: survey sweeps per decimation phase
  std::uint32_t phases = 2;   ///< sp: decimation phases
  std::uint64_t seed = 1;     ///< input-generator seed
  /// Run the app-level invariant gate on the result (mesh validity /
  /// verify_forest / pta::check_solution / sp assignment check).
  bool validate = false;
  /// Optional latency deadline in modeled milliseconds (0 = none). Enforced
  /// by the scheduler in *virtual time* against the pool-independent
  /// reference server: a job whose admission backlog already implies a start
  /// past arrival + deadline is turned away with kDeadlineExceeded — the
  /// same decision at every pool size (docs/SERVER.md).
  double deadline_model_ms = 0.0;

  /// Stable one-line signature ("dmr/size=800/seed=3"); identical specs
  /// produce identical results, so the load test uses this to group replay
  /// cohorts when checking for pool poisoning.
  std::string signature() const;

  telemetry::Json to_json() const;
  /// Parses the wire "params" object. Unknown keys are rejected (typos in a
  /// job spec must not silently change the workload). Returns kBadRequest
  /// with a pointed message on any malformed field.
  static Status from_json(const telemetry::Json& doc, JobKind kind,
                          JobSpec* out);
};

/// One submission as it travels client -> server.
struct JobRequest {
  std::uint64_t id = 0;       ///< client-scoped id, echoed on every reply
  std::uint32_t priority = 3; ///< 0 = most urgent .. 7 = background
  JobSpec spec;
  std::string faults;         ///< per-job --faults spec ("" = none)
  std::uint64_t fault_seed = 1;
  bool trace = false;         ///< attach a per-job TraceSink

  telemetry::Json to_json() const;  ///< the full "submit" message body
  static Status from_json(const telemetry::Json& doc, JobRequest* out);
};

inline constexpr std::uint32_t kMaxPriority = 7;

/// Modeled execution statistics of one job: the DeviceStats of the device
/// the job ran on, integer-exact so serialized results are byte-comparable.
struct JobExecStats {
  std::uint64_t launches = 0;
  std::uint64_t barriers = 0;
  std::uint64_t total_work = 0;
  std::uint64_t warp_steps = 0;
  std::uint64_t atomics = 0;
  std::uint64_t global_accesses = 0;
  std::uint64_t device_mallocs = 0;
  std::uint64_t reallocs = 0;
  std::uint64_t bytes_allocated = 0;
  std::uint64_t bytes_copied = 0;
  std::uint64_t wl_contended_ops = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t faults_recovered = 0;
  double modeled_cycles = 0.0;

  /// Lifts a DeviceStats (or a DeviceStats::delta_since difference, for
  /// session updates on a persistent device) into the wire shape.
  static JobExecStats from_stats(const gpu::DeviceStats& st);

  telemetry::Json to_json() const;
};

/// Outcome of executing one job (serve/executor.hpp). Everything here is
/// pool-size- and host-worker-independent; the serving-layer placement
/// (batch, slot, virtual queue latency) is attached separately by the
/// scheduler when the result is emitted.
struct JobOutcome {
  Status status;               ///< ok, or the typed failure that stopped it
  telemetry::Json outputs = telemetry::Json::object();  ///< kind-specific
  JobExecStats exec;
  std::uint64_t trace_events = 0;  ///< per-job TraceSink volume (if armed)
  double wall_seconds = 0.0;       ///< informational; never serialized into
                                   ///< determinism-gated artifacts

  bool ok() const { return status.ok(); }
};

}  // namespace morph::serve
