// morph-served: the morph job-server daemon (docs/SERVER.md).
//
//   morph-served --socket=/tmp/morph.sock [--pool=N] [--workers=N]
//                [--queue-cap=CYCLES] [--max-job-cycles=CYCLES]
//                [--batch-max=N] [--batch-linger=N] [--small-job=CYCLES]
//                [--dispatch-cycles=C] [--default-gap=CYCLES]
//                [--host-workers=N]
//                [--journal=PATH] [--journal-fsync=always|none|N]
//                [--journal-checkpoint=N]
//                [--drain-deadline-ms=MS] [--quarantine-threshold=N]
//
// Serves morph jobs (dmr / sp / pta / mst) over a unix socket until a client
// sends "shutdown" (drains, then exits) or a signal arrives. SIGTERM is the
// graceful path: stop accepting, finish every admitted job, emit every
// result, checkpoint the journal, exit 0. SIGINT is the hard stop: in-flight
// batches finish but queued, unemitted work is abandoned (with --journal the
// next start recovers it). Prints "listening on <path>" once the socket is
// ready so scripts can wait for it.
#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "serve/server.hpp"
#include "support/cli.hpp"

namespace {

int g_stop_pipe[2] = {-1, -1};

void on_signal(int sig) {
  // Relay which signal fired — SIGTERM drains, SIGINT hard-stops. The pipe
  // is the only async-signal-safe wakeup we need.
  const char b = sig == SIGTERM ? 'T' : 'I';
  [[maybe_unused]] const ssize_t w = ::write(g_stop_pipe[1], &b, 1);
}

}  // namespace

int main(int argc, char** argv) {
  using morph::CliArgs;
  morph::serve::ServerConfig cfg;

  CliArgs args(argc, argv);
  args.warn_unknown(
      {"socket", "pool", "workers", "queue-cap", "max-job-cycles", "batch-max",
       "batch-linger", "small-job", "dispatch-cycles", "default-gap",
       "host-workers", "journal", "journal-fsync", "journal-checkpoint",
       "drain-deadline-ms", "quarantine-threshold"},
      std::cerr);

  cfg.socket_path = args.get("socket", cfg.socket_path);
  cfg.sched.pool =
      static_cast<std::uint32_t>(args.get_positive_int("pool", 1));
  cfg.workers =
      static_cast<std::uint32_t>(args.get_int_at_least("workers", 0, 0));
  cfg.sched.queue_cap_cycles =
      args.get_double("queue-cap", cfg.sched.queue_cap_cycles);
  cfg.sched.max_job_cycles =
      args.get_double("max-job-cycles", cfg.sched.max_job_cycles);
  cfg.sched.batch_max =
      static_cast<std::uint32_t>(args.get_positive_int("batch-max", 8));
  cfg.sched.batch_linger = static_cast<std::uint64_t>(
      args.get_int_at_least("batch-linger", 0,
                            static_cast<std::int64_t>(cfg.sched.batch_linger)));
  cfg.sched.small_job_cycles =
      args.get_double("small-job", cfg.sched.small_job_cycles);
  cfg.sched.dispatch_cycles =
      args.get_double("dispatch-cycles", cfg.sched.dispatch_cycles);
  cfg.sched.default_gap_cycles =
      args.get_double("default-gap", cfg.sched.default_gap_cycles);
  cfg.device.host_workers = morph::host_workers_arg(args);
  cfg.journal.path = args.get("journal", "");
  const std::string fsync_policy = args.get("journal-fsync", "always");
  if (!morph::serve::parse_fsync_policy(fsync_policy, &cfg.journal)) {
    std::cerr << "error: --journal-fsync must be 'always', 'none', or a "
                 "positive record count (got '"
              << fsync_policy << "')\n";
    return 2;
  }
  cfg.journal.checkpoint_every =
      static_cast<std::uint64_t>(args.get_int_at_least(
          "journal-checkpoint", 0,
          static_cast<std::int64_t>(cfg.journal.checkpoint_every)));
  cfg.drain_deadline_ms =
      args.get_double("drain-deadline-ms", cfg.drain_deadline_ms);
  cfg.quarantine_threshold =
      static_cast<std::uint32_t>(args.get_int_at_least(
          "quarantine-threshold", 0,
          static_cast<std::int64_t>(cfg.quarantine_threshold)));

  if (::pipe(g_stop_pipe) != 0) {
    std::cerr << "error: pipe: " << std::strerror(errno) << "\n";
    return 1;
  }
  struct sigaction sa {};
  sa.sa_handler = on_signal;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);

  morph::serve::Server server(cfg);
  const morph::Status s = server.start();
  if (!s.ok()) {
    std::cerr << "error: " << s.to_string() << "\n";
    return 1;
  }
  if (server.recovered_jobs() > 0) {
    std::cout << "morph-served: recovered " << server.recovered_jobs()
              << " unfinished job(s) from " << cfg.journal.path << "\n"
              << std::flush;
  }
  std::cout << "listening on " << cfg.socket_path << "\n" << std::flush;

  // Relay signals into the matching stop; server.wait() also returns when a
  // client-driven shutdown drained the queue.
  int exit_code = 0;
  std::thread relay([&server, &exit_code] {
    char b = 0;
    while (::read(g_stop_pipe[0], &b, 1) < 0 && errno == EINTR) {
    }
    if (b == 'T') {
      if (server.drain_stop()) {
        std::cout << "morph-served: drained " << server.drained_jobs()
                  << " job(s)\n"
                  << std::flush;
      } else {
        std::cerr << "morph-served: drain deadline exceeded; hard stop "
                     "(journal keeps the tail)\n";
        exit_code = 3;
      }
      return;
    }
    server.request_stop();
  });
  server.wait();
  // Unblock the relay if the stop came from a client shutdown.
  on_signal(0);
  relay.join();
  std::cout << "morph-served: stopped\n";
  return exit_code;
}
