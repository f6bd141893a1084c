// The morph job server: a long-lived, multi-tenant serving loop.
//
// Threads:
//   * one acceptor, blocking on the unix listening socket;
//   * one reader per client connection, parsing frames and feeding the
//     scheduler;
//   * `workers` executor threads, each popping the best (priority, seal
//     order) sealed batch and running its jobs on fresh gpu::Device
//     instances (serve/executor.hpp) — the "pool".
//
// Determinism layering: real threads race freely (TSan-clean), but nothing
// they race on is observable. Job results come from isolated per-job
// devices; batch composition, dispatch order, and modeled serving stats come
// from the single-threaded Scheduler fed only by the arrival sequence; and
// results are emitted in the scheduler's virtual dispatch order, serialized
// by an emission lock. Replaying an arrival order therefore reproduces every
// reply byte for byte (wall-clock fields are never put on the wire).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gpu/config.hpp"
#include "serve/executor.hpp"
#include "serve/journal.hpp"
#include "serve/scheduler.hpp"
#include "serve/session.hpp"
#include "support/status.hpp"

namespace morph::serve {

struct ServerConfig {
  std::string socket_path = "/tmp/morph-served.sock";
  SchedulerConfig sched;
  gpu::DeviceConfig device;      ///< base config; per-job state is re-armed
  std::uint32_t workers = 0;     ///< executor threads; 0 = one per pool slot
  /// Write-ahead journal (docs/SERVER.md, "Durability & operations").
  /// journal.path empty = no journal, no durability, no recovery.
  JournalConfig journal;
  /// Wall-clock bound on drain_stop(); past it the server hard-stops with
  /// work still queued. <= 0 waits forever.
  double drain_deadline_ms = 30000.0;
  /// Consecutive job faults on one virtual pool slot before that slot is
  /// flagged quarantined in stats. 0 disables.
  std::uint32_t quarantine_threshold = 3;
};

/// See the file comment. start() spawns the serving threads and returns;
/// wait() blocks until a client "shutdown" (drained) or request_stop().
class Server {
 public:
  explicit Server(ServerConfig cfg);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Recovers from the journal (when configured), binds the socket, and
  /// spawns the serving threads. Recovery replays every journaled frame
  /// through the normal admission path before the socket opens, so the
  /// arrival sequence — and with it every scheduling decision — continues
  /// exactly where the crashed process left it.
  Status start();
  void wait();
  /// Signal-safe entry is the caller's job (write to a pipe, then call this
  /// from a normal thread). Stops accepting, drains nothing: queued batches
  /// finish, unfinished emissions are dropped.
  void request_stop();
  /// Graceful drain (SIGTERM): stop accepting work, seal and finish every
  /// admitted batch, emit all results, checkpoint the journal, then stop.
  /// Bounded by drain_deadline_ms — on timeout the server hard-stops and
  /// the journal keeps the unfinished tail for the next recovery. Returns
  /// false on that timeout path.
  bool drain_stop();

  const ServerConfig& config() const { return cfg_; }
  std::uint64_t recovered_jobs() const { return recovered_jobs_; }
  std::uint64_t drained_jobs() const { return drained_jobs_; }

 private:
  /// One client connection. Outbound frames are queued and flushed by a
  /// dedicated writer thread, so a slow or stalled client can never block
  /// emission (which is serialized server-wide to preserve the virtual
  /// dispatch order) for everyone else.
  struct Conn {
    int fd = -1;
    std::uint64_t id = 0;
    std::mutex write_mu;            ///< guards outbuf + drained signalling
    std::condition_variable write_cv;
    std::string outbuf;             ///< encoded frames awaiting the writer
    bool writing = false;           ///< writer is mid-chunk (for flush_conn)
    std::atomic<bool> open{true};
  };
  /// Sentinel arrival stamp for unstamped frames.
  static constexpr std::uint64_t kNoArrival = ~std::uint64_t{0};

  struct JobCtx {
    std::shared_ptr<Conn> conn;  ///< null while owned by recovery replay
    JobRequest req;
    std::uint64_t arrival = kNoArrival;  ///< stamp of the admitting frame
  };
  struct Emission {
    std::shared_ptr<Conn> conn;
    telemetry::Json frame;
    std::uint64_t arrival = kNoArrival;
  };

  void accept_loop();
  void reader_loop(std::shared_ptr<Conn> conn);
  void writer_loop(std::shared_ptr<Conn> conn);
  void worker_loop();
  void handle_message(const std::shared_ptr<Conn>& conn,
                      const telemetry::Json& msg,
                      std::uint64_t arrival = kNoArrival);
  void handle_submit(const std::shared_ptr<Conn>& conn,
                     const telemetry::Json& msg, std::uint64_t arrival);
  void handle_cancel(const std::shared_ptr<Conn>& conn,
                     const telemetry::Json& msg, std::uint64_t arrival);
  /// session-open / session-update / session-close. Executed inline: the
  /// arrival gate already serializes stamped frames, and a session's
  /// persistent device must never be handed to racing pool workers
  /// (serve/session.hpp).
  void handle_session(const std::shared_ptr<Conn>& conn,
                      const telemetry::Json& msg, std::uint64_t arrival,
                      const std::string& type);
  /// A frame whose stamp the gate already admitted — a client resubmitting
  /// after a server crash. Answered idempotently: stored replayed reply,
  /// re-attachment to the still-running replayed job, or a silent no-op for
  /// re-applied flush/cancel.
  void handle_replayed(const std::shared_ptr<Conn>& conn,
                       const telemetry::Json& msg, std::uint64_t arrival);
  /// Replays the journal's surviving records through handle_message before
  /// any serving thread exists.
  Status recover_from_journal();
  /// send() when the frame has a live connection; otherwise (recovery
  /// replay) the frame is stored by arrival stamp for the client's
  /// resubmission to collect.
  void reply(const std::shared_ptr<Conn>& conn, std::uint64_t arrival,
             const telemetry::Json& frame);
  /// Best-effort journal append: a journal that stops accepting writes
  /// costs durability, not availability (counted in stats as
  /// journal_errors).
  void journal_admitted(std::uint64_t arrival, const telemetry::Json& msg);
  void journal_completed(std::uint64_t arrival);
  /// Completion marker for a frame answered inline — session frames, flush,
  /// cancel, and rejected submits, whose replies never pass through
  /// emit_ready. Like journal_completed, but suppressed for frames the
  /// pre-crash process already completed (recovery replay re-executes them
  /// for state only), and followed by a compaction check. Without this a
  /// flush or reject would be retained forever and re-applied on top of a
  /// checkpoint snapshot that already contains its effect.
  void inline_completed(std::uint64_t arrival);
  /// Checkpoint compaction (docs/SERVER.md, "Durability & operations"):
  /// once checkpoint_every completions have accumulated and the server is
  /// quiescent (no admitted job awaiting execution or emission), snapshots
  /// the arrival gate + scheduler into a 'K' record and rewrites the journal
  /// down to that record plus the frames recovery still needs — uncompleted
  /// frames and open sessions' history. `force` compacts regardless of the
  /// completion count (the graceful-drain path uses it to persist open
  /// sessions). `floor_hint` is the arrival of the frame whose completion
  /// triggered the checkpoint: completion can run inside handle_message,
  /// before the reader loop bumps next_arrival_, so the snapshotted gate
  /// floor must be raised to hint + 1 or a restart would wait forever for a
  /// stamp it already consumed. Caller must hold emit_mu_ and nothing else.
  void maybe_checkpoint_locked(bool force,
                               std::uint64_t floor_hint = kNoArrival);
  telemetry::Json stats_json();
  /// Runs the virtual placement as far as it goes and streams the newly
  /// final results, in virtual dispatch order. Callers must NOT hold
  /// emit_mu_ or mu_.
  void emit_ready();
  /// Queues a frame on the connection's outbound buffer (never blocks on
  /// the socket; the writer thread does the actual I/O).
  void send(const std::shared_ptr<Conn>& conn, const telemetry::Json& msg);
  /// Blocks until the connection's outbound buffer has drained (or the
  /// connection died) — used before acknowledged teardown ("bye").
  void flush_conn(const std::shared_ptr<Conn>& conn);
  void enqueue_runnable_locked();

  ServerConfig cfg_;
  int listen_fd_ = -1;

  std::mutex mu_;  ///< guards scheduler + queues + job maps + counters
  std::condition_variable work_cv_;   ///< batches queued / stopping
  std::condition_variable drain_cv_;  ///< a drain watcher (shutdown) waits
  Scheduler sched_;
  std::map<std::pair<std::uint32_t, std::uint64_t>, SealedBatch> exec_queue_;
  std::map<std::uint64_t, JobCtx> job_ctx_;        ///< by admission seq
  std::map<std::uint64_t, JobOutcome> outcomes_;   ///< by admission seq
  std::uint32_t executing_ = 0;                    ///< batches in flight
  std::uint64_t jobs_executed_ = 0;
  std::uint64_t results_emitted_ = 0;
  std::uint64_t bad_requests_ = 0;
  std::uint64_t next_conn_id_ = 0;
  /// Replies produced while replaying the journal (reject, error, result)
  /// keyed by the admitting frame's arrival stamp; a resubmission with that
  /// stamp is answered from here, byte-identical to the no-crash reply.
  std::map<std::uint64_t, telemetry::Json> replayed_replies_;
  QuarantinePool quarantine_;
  std::uint64_t recoveries_ = 0;      ///< journal recoveries at start (0/1)
  std::uint64_t recovered_jobs_ = 0;  ///< incomplete jobs re-admitted
  std::uint64_t drained_jobs_ = 0;    ///< results emitted by drain_stop()

  /// Open sessions by name. Mutations happen only on the gate-serialized
  /// frame path (or single-threaded recovery); mu_ guards the map structure
  /// so stats_json can read counts concurrently. Session *execution* holds
  /// no server lock — the gate is the serialization.
  std::map<std::string, std::unique_ptr<Session>> sessions_;
  std::uint64_t sessions_opened_ = 0;
  std::uint64_t session_updates_ = 0;    ///< update frames applied
  std::uint64_t recovered_sessions_ = 0; ///< sessions rebuilt by recovery

  /// Journal state. Ordered after mu_ (journal_admitted is called with no
  /// lock held; journal_completed from emit_ready after mu_ released).
  std::mutex journal_mu_;
  Journal journal_;
  bool journal_enabled_ = false;
  std::uint64_t journal_errors_ = 0;

  /// Compaction bookkeeping (guarded by journal_mu_): every journaled frame
  /// recovery could still need. Completed 'A' entries drop immediately
  /// (their scheduler effects live in the next checkpoint's snapshot);
  /// completed 'S' entries stay while their session is open, because
  /// recovery re-executes the whole session history to rebuild state.
  struct RetainedRec {
    bool session = false;      ///< 'S' record (vs 'A')
    std::string frame;         ///< raw frame JSON
    std::string session_name;  ///< session records only
    bool completed = false;
  };
  std::map<std::uint64_t, RetainedRec> retained_;  ///< by arrival stamp
  std::set<std::string> open_session_names_;  ///< journal_mu_ mirror of sessions_
  std::uint64_t completions_since_checkpoint_ = 0;
  /// One past the highest arrival journaled as completed: a checkpoint's
  /// gate floor never drops below it, since those frames are no longer in
  /// retained_ even when their reader has not bumped next_arrival_ yet.
  std::uint64_t completed_floor_ = 0;
  std::uint64_t compactions_ = 0;

  /// True while recover_from_journal replays; suppresses compaction and
  /// duplicate completion markers for frames in recovery_completed_.
  bool in_recovery_ = false;
  std::set<std::uint64_t> recovery_completed_;

  /// Serializes emission so results leave in virtual dispatch order even
  /// when several workers finish simultaneously. Ordered before mu_.
  std::mutex emit_mu_;

  /// The arrival gate: frames stamped with an "arrival" sequence number are
  /// admitted in strictly increasing stamp order across ALL connections.
  /// Per-connection reader threads otherwise race, which would make the
  /// arrival order — the input the whole determinism contract is
  /// conditioned on — depend on thread scheduling (a flush could even
  /// overtake submits still queued on sibling connections and strand them
  /// in open batches). Unstamped frames bypass the gate.
  std::mutex order_mu_;
  std::condition_variable order_cv_;
  std::uint64_t next_arrival_ = 0;

  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};
  std::mutex lifecycle_mu_;
  std::condition_variable stopped_cv_;
  bool stop_requested_ = false;

  std::thread acceptor_;
  std::vector<std::thread> workers_;
  std::mutex readers_mu_;
  std::vector<std::thread> readers_;
  std::vector<std::shared_ptr<Conn>> conns_;
};

}  // namespace morph::serve
