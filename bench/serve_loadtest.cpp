// Load test for the morph job server (docs/SERVER.md).
//
//   serve_loadtest [--jobs=1000] [--clients=4] [--seed=1]
//                  [--pool=2] [--workers=0] [--batch-max=8]
//                  [--batch-linger=16] [--queue-cap=CYCLES]
//                  [--max-job-cycles=CYCLES] [--small-job=CYCLES]
//                  [--dispatch-cycles=C] [--default-gap=CYCLES]
//                  [--fault-every=16] [--fault-spec=launch@1x64]
//                  [--deadline-every=0] [--deadline-ms=MS]
//                  [--jobs-json=PATH] [--json=REPORT]
//                  [--connect=SOCKET | --oneshot] [--socket=PATH]
//                  [--journal=PATH] [--crash-after=N]
//                  [--shutdown]
//
// Three modes sharing one deterministic job list:
//   * embedded (default): starts a Server in-process on --socket and drives
//     it through --clients real client connections;
//   * --connect=SOCKET: drives an external morph-served daemon;
//   * --oneshot: no server — replays the same admission decisions through a
//     local Scheduler and runs accepted jobs directly on the executor.
//
// --jobs-json writes the canonical per-job artifact (sorted by job id,
// pool-independent fields only); tier1.sh byte-compares it between served
// and oneshot runs, and between different pool sizes / host workers. Every
// --fault-every'th job carries --fault-spec, a campaign that exhausts the
// launch-retry ladder: the job must fail alone with a typed status while
// its cohort (jobs with the identical spec) completes byte-identically —
// any cohort divergence is counted as a pool poisoning and fails the run
// (exit 5). --deadline-every=K stamps every Kth job with a
// deadline_model_ms deadline (--deadline-ms); deadline rejects are typed
// and land in the artifact like any other reject.
//
// Crash campaign (--crash-after=N, requires --journal, embedded only): the
// server runs in a forked child with a write-ahead journal; after N replies
// the child is SIGKILLed mid-flight, a recovery child is started against
// the same journal, the clients reconnect and resubmit every unanswered job
// with its original arrival stamp, and the merged artifact must be
// byte-identical to an uninterrupted run (docs/SERVER.md, "Durability &
// operations").
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "serve/client.hpp"
#include "serve/executor.hpp"
#include "serve/scheduler.hpp"
#include "serve/server.hpp"
#include "server_process.hpp"
#include "support/check.hpp"

namespace {

using morph::Status;
using morph::StatusCode;
using morph::serve::Client;
using morph::serve::JobKind;
using morph::serve::JobOutcome;
using morph::serve::JobRequest;
using morph::serve::JobSpec;
using morph::serve::Scheduler;
using morph::serve::SchedulerConfig;
using morph::serve::Server;
using morph::serve::ServerConfig;
using morph::telemetry::Json;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4595bull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// The deterministic job list. Specs cycle through a small table so each
/// distinct spec recurs many times — those replay cohorts are what the
/// poisoning check compares. Priorities vary per job (they influence
/// scheduling, never results).
std::vector<JobRequest> make_jobs(std::uint64_t jobs, std::uint64_t seed,
                                  std::uint64_t fault_every,
                                  const std::string& fault_spec,
                                  std::uint64_t deadline_every,
                                  double deadline_ms) {
  struct SpecSeed {
    JobKind kind;
    std::uint64_t size;
    std::uint32_t sweeps, phases;
    bool validate;
  };
  static const SpecSeed kTable[] = {
      {JobKind::kDmr, 60, 0, 0, false},  {JobKind::kSp, 40, 4, 1, false},
      {JobKind::kPta, 60, 0, 0, true},   {JobKind::kMst, 120, 0, 0, false},
      {JobKind::kDmr, 90, 0, 0, true},   {JobKind::kSp, 60, 4, 1, true},
      {JobKind::kPta, 100, 0, 0, false}, {JobKind::kMst, 200, 0, 0, true},
      {JobKind::kDmr, 140, 0, 0, false}, {JobKind::kSp, 80, 3, 1, false},
      {JobKind::kPta, 140, 0, 0, false}, {JobKind::kMst, 300, 0, 0, false},
  };
  constexpr std::size_t kSpecs = sizeof(kTable) / sizeof(kTable[0]);

  std::vector<JobRequest> out;
  out.reserve(jobs);
  for (std::uint64_t i = 0; i < jobs; ++i) {
    const SpecSeed& t = kTable[i % kSpecs];
    JobRequest r;
    r.id = i;
    r.priority = static_cast<std::uint32_t>(splitmix64(seed ^ i) % 8);
    r.spec.kind = t.kind;
    r.spec.size = t.size;
    if (t.sweeps != 0) r.spec.sweeps = t.sweeps;
    if (t.phases != 0) r.spec.phases = t.phases;
    r.spec.seed = seed + i % kSpecs;  // cohort-stable: same spec, same seed
    r.spec.validate = t.validate;
    if (fault_every != 0 && i % fault_every == fault_every - 1) {
      r.faults = fault_spec;
      r.fault_seed = seed + i;
    }
    if (deadline_every != 0 && i % deadline_every == deadline_every - 1) {
      r.spec.deadline_model_ms = deadline_ms;
    }
    out.push_back(std::move(r));
  }
  return out;
}

/// One per-job record of the canonical artifact. Only pool-independent
/// fields: results and exec stats are a pure function of (spec, device
/// config); rejects are a pure function of the arrival order.
Json job_entry(const JobRequest& req, const std::string& status_name,
               const std::string& message, const Json* outputs,
               const Json* exec) {
  Json e = Json::object();
  e.set("id", req.id);
  e.set("kind", morph::serve::job_kind_name(req.spec.kind));
  e.set("params", req.spec.to_json());
  if (!req.faults.empty()) e.set("faults", req.faults);
  e.set("status", status_name);
  if (!message.empty()) e.set("message", message);
  if (outputs != nullptr) e.set("outputs", *outputs);
  if (exec != nullptr) e.set("exec", *exec);
  return e;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      p / 100.0 * static_cast<double>(v.size()) + 0.999999);
  return v[std::min(rank == 0 ? 0 : rank - 1, v.size() - 1)];
}

struct Tally {
  std::vector<Json> entries;        ///< by job id
  std::vector<double> queue_cycles; ///< completed jobs only (served mode)
  std::set<std::uint64_t> batches;
  double makespan_cycles = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t completed_ok = 0;
  std::uint64_t failed_typed = 0;
  std::uint64_t rejected = 0;
};

}  // namespace

int main(int argc, char** argv) {
  return morph::bench::guarded_main([&]() -> int {
    morph::bench::Bench bench(
        argc, argv, "serve_loadtest — job-server load test",
        "morph-as-a-service serving layer (docs/SERVER.md)",
        {"jobs", "clients", "seed", "pool", "workers", "batch-max",
         "batch-linger", "queue-cap", "max-job-cycles", "small-job",
         "dispatch-cycles", "default-gap", "fault-every", "fault-spec",
         "deadline-every", "deadline-ms", "jobs-json", "connect", "oneshot",
         "socket", "journal", "crash-after", "shutdown"});
    auto& args = bench.args();

    const auto jobs_n =
        static_cast<std::uint64_t>(args.get_positive_int("jobs", 1000));
    const auto clients_n =
        static_cast<std::uint64_t>(args.get_positive_int("clients", 4));
    const auto seed =
        static_cast<std::uint64_t>(args.get_positive_int("seed", 1));
    const auto fault_every = static_cast<std::uint64_t>(
        args.get_int_at_least("fault-every", 0, 16));
    const std::string fault_spec =
        args.get("fault-spec", "launch@1x64");
    const auto deadline_every = static_cast<std::uint64_t>(
        args.get_int_at_least("deadline-every", 0, 0));
    const double deadline_ms = args.get_double("deadline-ms", 50.0);
    const bool oneshot = args.get_bool("oneshot", false);
    const std::string connect_path = args.get("connect", "");
    const std::string journal_path = args.get("journal", "");
    const auto crash_after = static_cast<std::uint64_t>(
        args.get_int_at_least("crash-after", 0, 0));
    if (crash_after > 0 && (oneshot || !connect_path.empty())) {
      std::cerr << "error: --crash-after needs the embedded server mode\n";
      return 2;
    }
    if (crash_after > 0 && journal_path.empty()) {
      std::cerr << "error: --crash-after needs --journal (nothing would "
                   "survive the kill)\n";
      return 2;
    }

    SchedulerConfig sched;
    sched.pool = static_cast<std::uint32_t>(args.get_positive_int("pool", 2));
    sched.batch_max =
        static_cast<std::uint32_t>(args.get_positive_int("batch-max", 8));
    sched.batch_linger = static_cast<std::uint64_t>(
        args.get_int_at_least("batch-linger", 0,
                              static_cast<std::int64_t>(sched.batch_linger)));
    sched.queue_cap_cycles = args.get_double("queue-cap", sched.queue_cap_cycles);
    sched.max_job_cycles =
        args.get_double("max-job-cycles", sched.max_job_cycles);
    sched.small_job_cycles = args.get_double("small-job", sched.small_job_cycles);
    sched.dispatch_cycles =
        args.get_double("dispatch-cycles", sched.dispatch_cycles);
    sched.default_gap_cycles =
        args.get_double("default-gap", sched.default_gap_cycles);

    const std::vector<JobRequest> jobs = make_jobs(
        jobs_n, seed, fault_every, fault_spec, deadline_every, deadline_ms);
    Tally tally;
    tally.entries.resize(jobs.size());
    // Durability counters scraped from the server's stats frame (zero in
    // oneshot mode, which has no server to crash).
    double stat_recoveries = 0.0, stat_recovered_jobs = 0.0;
    double stat_deadline_exceeded = 0.0, stat_cancelled = 0.0;
    double stat_quarantined = 0.0;

    const auto t0 = std::chrono::steady_clock::now();

    if (oneshot) {
      // Replay the (pool-independent) admission decisions, then run the
      // admitted jobs directly — the reference the served runs must match.
      Scheduler admission(sched);
      for (const JobRequest& req : jobs) {
        // Same ms -> cycles deadline conversion the server applies.
        const double deadline_cycles =
            req.spec.deadline_model_ms > 0.0
                ? req.spec.deadline_model_ms *
                      bench.device_config().clock_ghz * 1e6
                : 0.0;
        const auto sub = admission.submit(
            req.spec.kind, req.priority,
            morph::serve::estimate_job_cycles(req.spec), -1.0,
            deadline_cycles);
        if (!sub.accepted) {
          ++tally.rejected;
          tally.entries[req.id] =
              job_entry(req, morph::status_code_name(sub.reject.code()),
                        sub.reject.message(), nullptr, nullptr);
          continue;
        }
        const JobOutcome out =
            morph::serve::run_job(req, bench.device_config());
        ++tally.completed;
        out.ok() ? ++tally.completed_ok : ++tally.failed_typed;
        const Json exec = out.exec.to_json();
        tally.entries[req.id] = job_entry(
            req, morph::status_code_name(out.status.code()),
            out.status.message(), &out.outputs, &exec);
      }
    } else {
      std::unique_ptr<Server> server;
      std::unique_ptr<morph::bench::ServerProcess> victim;
      ServerConfig scfg;
      std::string path = connect_path;
      if (path.empty()) {
        scfg.socket_path = args.get("socket", "/tmp/morph_loadtest.sock");
        scfg.sched = sched;
        scfg.device = bench.device_config();
        scfg.workers = static_cast<std::uint32_t>(
            args.get_int_at_least("workers", 0, 0));
        scfg.journal.path = journal_path;
        if (crash_after > 0) {
          // The victim must be a separate process — SIGKILL is the only
          // honest crash.
          victim = std::make_unique<morph::bench::ServerProcess>(scfg);
          if (!victim->start()) {
            std::cerr << "error: failed to spawn the server child\n";
            return 1;
          }
        } else {
          server = std::make_unique<Server>(scfg);
          const Status s = server->start();
          if (!s.ok()) {
            std::cerr << "error: " << s.to_string() << "\n";
            return 1;
          }
        }
        path = scfg.socket_path;
      }

      std::vector<std::unique_ptr<Client>> clients;
      for (std::uint64_t c = 0; c < clients_n; ++c) {
        auto cl = std::make_unique<Client>();
        const Status s = cl->connect(path);
        if (!s.ok()) {
          std::cerr << "error: connect client " << c << ": " << s.to_string()
                    << "\n";
          return 1;
        }
        clients.push_back(std::move(cl));
      }

      // One thread, round-robin over the connections, every frame stamped
      // with its global arrival number: the server's arrival gate admits
      // stamps in order across connections, so the arrival sequence — and
      // with it batching, admission, and placement — replays exactly no
      // matter how the per-connection reader threads interleave.
      std::vector<std::uint64_t> outstanding(clients.size(), 0);
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        const std::size_t c = i % clients.size();
        const Status s =
            clients[c]->submit(jobs[i], static_cast<std::int64_t>(i));
        if (!s.ok()) {
          std::cerr << "error: submit job " << i << ": " << s.to_string()
                    << "\n";
          return 1;
        }
        ++outstanding[c];
      }
      morph::throw_if_error(
          clients[0]->send_flush(static_cast<std::int64_t>(jobs.size())));

      std::vector<bool> answered(jobs.size(), false);
      std::uint64_t answered_n = 0;
      auto handle_reply = [&](const Json& msg) -> bool {
        const std::string type = msg.at("type").as_string();
        const auto id = static_cast<std::uint64_t>(msg.at("id").as_int());
        MORPH_CHECK(id < jobs.size());
        MORPH_CHECK_MSG(!answered[id], "duplicate reply for job " << id);
        answered[id] = true;
        ++answered_n;
        const JobRequest& req = jobs[id];
        if (type == "result") {
          ++tally.completed;
          const std::string st = msg.at("status").as_string();
          st == "ok" ? ++tally.completed_ok : ++tally.failed_typed;
          const Json* message = msg.find("message");
          tally.entries[id] = job_entry(
              req, st, message != nullptr ? message->as_string() : "",
              msg.find("outputs"), msg.find("exec"));
          const Json& sv = msg.at("serve");
          tally.queue_cycles.push_back(sv.at("queue_cycles").as_double());
          tally.batches.insert(
              static_cast<std::uint64_t>(sv.at("batch").as_int()));
          tally.makespan_cycles =
              std::max(tally.makespan_cycles, sv.at("end_cycles").as_double());
          return true;
        }
        if (type == "reject") {
          ++tally.rejected;
          tally.entries[id] =
              job_entry(req, msg.at("code").as_string(),
                        msg.at("message").as_string(), nullptr, nullptr);
          return true;
        }
        std::cerr << "error: unexpected reply " << msg.dump() << "\n";
        std::exit(1);
      };

      if (crash_after > 0) {
        // Phase 1: collect replies round-robin (a short receive timeout
        // keeps one quiet connection from stalling the count) until the
        // kill point, then SIGKILL the victim mid-flight.
        for (auto& cl : clients) cl->set_recv_timeout_ms(200);
        const std::uint64_t kill_at =
            std::min<std::uint64_t>(crash_after, jobs.size());
        std::size_t c = 0;
        while (answered_n < kill_at) {
          Json msg;
          const Status s = clients[c]->next_message(&msg);
          c = (c + 1) % clients.size();
          if (s.ok()) {
            handle_reply(msg);
            continue;
          }
          if (s.code() != StatusCode::kTimeout) {
            std::cerr << "error: pre-crash receive: " << s.to_string()
                      << "\n";
            return 1;
          }
        }
        victim->crash();
        std::cerr << "crash campaign: SIGKILL after " << answered_n
                  << " replies; starting recovery\n";
        for (auto& cl : clients) cl->close();

        // Phase 2: a recovery child on the same socket (the stale file the
        // corpse left is probed and unlinked) and the same journal.
        if (!victim->start()) {
          std::cerr << "error: failed to spawn the recovery server\n";
          return 1;
        }

        // Phase 3: reconnect and resubmit every unanswered frame with its
        // original arrival stamp, in the original order. Stamps the old
        // process admitted are answered idempotently from the replay;
        // stamps it never saw continue the arrival sequence exactly where
        // it stopped — either way the merged artifact cannot tell a crash
        // happened.
        std::fill(outstanding.begin(), outstanding.end(), 0);
        for (std::size_t k = 0; k < clients.size(); ++k) {
          morph::throw_if_error(clients[k]->connect(path));
          clients[k]->set_recv_timeout_ms(30000);
        }
        for (std::size_t i = 0; i < jobs.size(); ++i) {
          if (answered[i]) continue;
          const std::size_t k = i % clients.size();
          morph::throw_if_error(
              clients[k]->submit(jobs[i], static_cast<std::int64_t>(i)));
          ++outstanding[k];
        }
        morph::throw_if_error(
            clients[0]->send_flush(static_cast<std::int64_t>(jobs.size())));
      }

      for (std::size_t c = 0; c < clients.size(); ++c) {
        while (outstanding[c] > 0) {
          Json msg;
          morph::throw_if_error(clients[c]->next_message(&msg));
          if (handle_reply(msg)) --outstanding[c];
        }
      }

      // Scrape the durability counters while the server is still up.
      {
        morph::throw_if_error(clients[0]->send_stats());
        Json msg;
        for (;;) {
          morph::throw_if_error(clients[0]->next_message(&msg));
          const Json* t = msg.find("type");
          if (t != nullptr && t->is_string() && t->as_string() == "stats") {
            break;
          }
        }
        const auto stat = [&msg](const char* key) {
          const Json* v = msg.find(key);
          return v != nullptr && v->is_number() ? v->as_double() : 0.0;
        };
        stat_recoveries = stat("recoveries");
        stat_recovered_jobs = stat("recovered_jobs");
        stat_deadline_exceeded = stat("deadline_exceeded");
        stat_cancelled = stat("cancelled");
        stat_quarantined = stat("quarantined_devices");
      }

      const bool do_shutdown = connect_path.empty() ||
                               args.get_bool("shutdown", false);
      if (do_shutdown) {
        morph::throw_if_error(clients[0]->send_shutdown());
        Json bye;
        morph::throw_if_error(clients[0]->next_message(&bye));
      }
      clients.clear();
      server.reset();
      if (victim) victim->reap();
    }

    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    // Pool-poisoning check: all non-faulted jobs of a cohort (identical
    // spec) must have produced byte-identical results.
    std::uint64_t poisonings = 0;
    std::map<std::string, std::string> cohort_first;
    for (const JobRequest& req : jobs) {
      if (!req.faults.empty()) continue;  // faulted jobs may legally differ
      const Json& e = tally.entries[req.id];
      if (!e.is_object() || e.find("outputs") == nullptr) continue;
      std::string repr = e.at("status").as_string();
      repr += '|';
      repr += e.at("outputs").dump();
      repr += '|';
      repr += e.at("exec").dump();
      auto [it, fresh] = cohort_first.emplace(req.spec.signature(), repr);
      if (!fresh && it->second != repr) ++poisonings;
    }

    if (args.has("jobs-json")) {
      Json doc = Json::object();
      doc.set("schema", "morph-serve-jobs");
      doc.set("version", static_cast<std::int64_t>(1));
      Json arr = Json::array();
      for (const Json& e : tally.entries) arr.push_back(e);
      doc.set("jobs", std::move(arr));
      const std::string out_path = args.get("jobs-json", "");
      std::ofstream os(out_path, std::ios::binary);
      MORPH_CHECK_MSG(os.good(), "cannot open " << out_path);
      os << doc.dump(2) << "\n";
      MORPH_CHECK_MSG(os.good(), "failed writing " << out_path);
      std::cerr << "wrote jobs: " << out_path << "\n";
    }

    const char* mode = oneshot               ? "oneshot"
                       : connect_path.empty() ? "embedded"
                                              : "connect";
    std::cout << "mode:        " << mode << "\n"
              << "jobs:        " << jobs_n << "\n"
              << "completed:   " << tally.completed << " (" << tally.completed_ok
              << " ok, " << tally.failed_typed << " typed failures)\n"
              << "rejected:    " << tally.rejected << "\n"
              << "poisonings:  " << poisonings << "\n"
              << "wall:        " << wall << " s\n";

    auto& row = bench.add_row("loadtest");
    row.metric("jobs", static_cast<double>(jobs_n))
        .metric("completed", static_cast<double>(tally.completed))
        .metric("completed_ok", static_cast<double>(tally.completed_ok))
        .metric("failed_typed", static_cast<double>(tally.failed_typed))
        .metric("rejected", static_cast<double>(tally.rejected))
        .metric("poisonings", static_cast<double>(poisonings))
        .metric("wall_seconds", wall);

    if (!oneshot) {
      const double makespan_ms = bench.model_ms(tally.makespan_cycles);
      const double throughput =
          makespan_ms > 0.0
              ? static_cast<double>(tally.completed) / (makespan_ms / 1e3)
              : 0.0;
      const double occupancy =
          tally.batches.empty()
              ? 0.0
              : static_cast<double>(tally.completed) /
                    static_cast<double>(tally.batches.size());
      std::cout << "makespan:    " << bench.fmt_ms(makespan_ms)
                << " model-ms\n"
                << "throughput:  " << throughput << " jobs/model-s\n"
                << "batches:     " << tally.batches.size() << " (occupancy "
                << occupancy << ")\n"
                << "queue p50/p90/p99: "
                << bench.fmt_ms(bench.model_ms(percentile(tally.queue_cycles, 50)))
                << " / "
                << bench.fmt_ms(bench.model_ms(percentile(tally.queue_cycles, 90)))
                << " / "
                << bench.fmt_ms(bench.model_ms(percentile(tally.queue_cycles, 99)))
                << " model-ms\n";

      auto& sv = bench.report().serve;
      sv.enabled = true;
      sv.metric("jobs", static_cast<double>(jobs_n))
          .metric("completed", static_cast<double>(tally.completed))
          .metric("throughput_jobs_per_model_s", throughput)
          .metric("makespan_model_ms", makespan_ms)
          .metric("queue_p50_model_ms",
                  bench.model_ms(percentile(tally.queue_cycles, 50)))
          .metric("queue_p90_model_ms",
                  bench.model_ms(percentile(tally.queue_cycles, 90)))
          .metric("queue_p99_model_ms",
                  bench.model_ms(percentile(tally.queue_cycles, 99)))
          .metric("batches", static_cast<double>(tally.batches.size()))
          .metric("batch_occupancy", occupancy)
          .metric("rejected", static_cast<double>(tally.rejected))
          .metric("poisonings", static_cast<double>(poisonings))
          .metric("recoveries", stat_recoveries)
          .metric("recovered_jobs", stat_recovered_jobs)
          .metric("deadline_exceeded", stat_deadline_exceeded)
          .metric("cancelled", stat_cancelled)
          .metric("quarantined_devices", stat_quarantined);
    }

    const int rc = bench.finish();
    if (poisonings > 0) {
      std::cerr << "FAIL: " << poisonings << " pool poisoning(s) detected\n";
      return 5;
    }
    if (tally.completed + tally.rejected != jobs_n) {
      std::cerr << "FAIL: " << (jobs_n - tally.completed - tally.rejected)
                << " job(s) unaccounted for\n";
      return 1;
    }
    return rc;
  });
}
