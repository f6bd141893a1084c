#include "serve/server.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <optional>
#include <set>
#include <utility>

#include "serve/protocol.hpp"
#include "support/check.hpp"

namespace morph::serve {

using telemetry::Json;

namespace {

bool is_session_type(const std::string& t) {
  return t == "session-open" || t == "session-update" || t == "session-close";
}

}  // namespace

Server::Server(ServerConfig cfg) : cfg_(std::move(cfg)), sched_(cfg_.sched) {
  if (cfg_.workers == 0) cfg_.workers = cfg_.sched.pool;
  quarantine_ = QuarantinePool(cfg_.sched.pool, cfg_.quarantine_threshold);
}

Server::~Server() {
  request_stop();
  if (acceptor_.joinable()) acceptor_.join();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  std::vector<std::thread> readers;
  {
    std::lock_guard<std::mutex> lk(readers_mu_);
    readers.swap(readers_);
  }
  for (auto& r : readers) {
    if (r.joinable()) r.join();
  }
  {
    std::lock_guard<std::mutex> lk(readers_mu_);
    for (auto& c : conns_) {
      if (c->fd >= 0) ::close(c->fd);
    }
    conns_.clear();
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  ::unlink(cfg_.socket_path.c_str());
}

Status Server::start() {
  Status s = recover_from_journal();
  if (!s.ok()) return s;
  s = listen_unix(cfg_.socket_path, &listen_fd_);
  if (!s.ok()) return s;
  acceptor_ = std::thread([this] { accept_loop(); });
  workers_.reserve(cfg_.workers);
  for (std::uint32_t i = 0; i < cfg_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  return Status::Ok();
}

void Server::wait() {
  std::unique_lock<std::mutex> lk(lifecycle_mu_);
  stopped_cv_.wait(lk, [this] { return stop_requested_; });
}

void Server::request_stop() {
  stopping_.store(true);
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  {
    std::lock_guard<std::mutex> lk(readers_mu_);
    for (auto& c : conns_) {
      c->open.store(false);
      if (c->fd >= 0) ::shutdown(c->fd, SHUT_RDWR);
      c->write_cv.notify_all();
    }
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    work_cv_.notify_all();
    drain_cv_.notify_all();
  }
  {
    std::lock_guard<std::mutex> lk(order_mu_);
  }
  order_cv_.notify_all();
  {
    std::lock_guard<std::mutex> lk(lifecycle_mu_);
    stop_requested_ = true;
  }
  stopped_cv_.notify_all();
}

bool Server::drain_stop() {
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true)) {
    return true;  // a drain is already underway
  }
  // Stop the front door; connected clients keep their sockets so queued
  // results can still reach them (new submits are rejected kUnavailable).
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);

  std::uint64_t before = 0;
  bool drained = true;
  {
    std::unique_lock<std::mutex> lk(mu_);
    before = results_emitted_;
    sched_.flush();
    enqueue_runnable_locked();
    work_cv_.notify_all();
    const auto done = [this] {
      return (exec_queue_.empty() && executing_ == 0) || stopping_.load();
    };
    if (cfg_.drain_deadline_ms > 0.0) {
      drained = drain_cv_.wait_for(
          lk,
          std::chrono::duration<double, std::milli>(cfg_.drain_deadline_ms),
          done);
    } else {
      drain_cv_.wait(lk, done);
    }
  }
  if (!drained) {
    // Past the deadline with work still queued: hard stop. The journal
    // keeps the unfinished tail, so the next start finishes the job.
    request_stop();
    return false;
  }
  emit_ready();
  {
    std::lock_guard<std::mutex> lk(mu_);
    drained_jobs_ = results_emitted_ - before;
  }
  // Push queued reply bytes onto the wire before teardown closes the fds.
  std::vector<std::shared_ptr<Conn>> conns;
  {
    std::lock_guard<std::mutex> lk(readers_mu_);
    conns = conns_;
  }
  for (const auto& c : conns) {
    if (c->open.load()) flush_conn(c);
  }
  if (journal_enabled_) {
    // With sessions still open their state must survive the restart, so the
    // drain ends in a forced checkpoint (keeping the sessions' history)
    // instead of the usual truncation.
    bool keep_sessions;
    {
      std::lock_guard<std::mutex> jlk(journal_mu_);
      keep_sessions = !open_session_names_.empty();
    }
    if (keep_sessions) {
      std::lock_guard<std::mutex> emit_lk(emit_mu_);
      maybe_checkpoint_locked(true);
    } else {
      std::lock_guard<std::mutex> jlk(journal_mu_);
      (void)journal_.truncate_all();
      retained_.clear();
      completions_since_checkpoint_ = 0;
    }
  }
  request_stop();
  return true;
}

void Server::accept_loop() {
  while (!stopping_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down (or broken): stop accepting
    }
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    std::lock_guard<std::mutex> lk(readers_mu_);
    if (stopping_.load()) {
      ::close(fd);
      break;
    }
    conn->id = next_conn_id_++;
    conns_.push_back(conn);
    readers_.emplace_back([this, conn] { reader_loop(conn); });
    readers_.emplace_back([this, conn] { writer_loop(conn); });
  }
}

void Server::writer_loop(std::shared_ptr<Conn> conn) {
  for (;;) {
    std::string chunk;
    {
      std::unique_lock<std::mutex> lk(conn->write_mu);
      conn->write_cv.wait(lk, [&] {
        return !conn->outbuf.empty() || !conn->open.load();
      });
      if (conn->outbuf.empty()) return;  // closed and drained
      chunk.swap(conn->outbuf);
      conn->writing = true;
    }
    // Socket I/O happens with no lock held; a stalled client blocks only
    // its own writer. request_stop()'s shutdown(fd) unblocks a full pipe.
    const char* data = chunk.data();
    std::size_t n = chunk.size();
    while (n > 0) {
      const ssize_t w = ::send(conn->fd, data, n, MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EINTR) continue;
        conn->open.store(false);  // client went away; drop quietly
        break;
      }
      data += w;
      n -= static_cast<std::size_t>(w);
    }
    {
      std::lock_guard<std::mutex> lk(conn->write_mu);
      conn->writing = false;
    }
    conn->write_cv.notify_all();  // wake flush_conn waiters
  }
}

void Server::reader_loop(std::shared_ptr<Conn> conn) {
  // A frame refused before the arrival gate: typed error, the stream lives.
  const auto refuse = [&](const std::string& message) {
    Json err = Json::object();
    err.set("type", "error");
    err.set("code", status_code_name(StatusCode::kBadRequest));
    err.set("message", message);
    send(conn, err);
    std::lock_guard<std::mutex> lk(mu_);
    ++bad_requests_;
  };
  while (!stopping_.load() && conn->open.load()) {
    Json msg;
    const Status s = read_frame(conn->fd, &msg);
    if (!s.ok()) {
      if (s.code() == StatusCode::kBadRequest) {
        // Framing survived; only the payload was garbage. Complain, go on.
        refuse(s.message());
        continue;
      }
      break;  // disconnect
    }
    const Json* arr = msg.find("arrival");
    if (arr != nullptr) {
      // Arrival gate (see server.hpp): block until this frame's turn in the
      // client-assigned global order. Cooperative — a client that skips a
      // number stalls its successors until stop. A malformed stamp (a
      // negative, a fraction, a non-number) is refused before the gate: it
      // is not journaled and the gate does not move.
      const std::optional<std::uint64_t> stamp = arr->as_uint();
      if (!stamp) {
        refuse("arrival must be a non-negative integer");
        continue;
      }
      const std::uint64_t n = *stamp;
      std::unique_lock<std::mutex> lk(order_mu_);
      order_cv_.wait(lk, [&] { return stopping_.load() || next_arrival_ >= n; });
      if (stopping_.load()) break;
      if (next_arrival_ > n) {
        // A stamp the gate already admitted: a client resubmitting after a
        // server crash (or a confused one — handle_replayed tells them
        // apart). Idempotent; the gate does not move.
        lk.unlock();
        handle_replayed(conn, msg, n);
        continue;
      }
      lk.unlock();
      // WAL discipline: the frame reaches the journal before anything acts
      // on it, so a crash at any later point can replay it.
      journal_admitted(n, msg);
      handle_message(conn, msg, n);
      lk.lock();
      ++next_arrival_;
      lk.unlock();
      order_cv_.notify_all();
      continue;
    }
    handle_message(conn, msg);
  }
  conn->open.store(false);
}

void Server::handle_message(const std::shared_ptr<Conn>& conn,
                            const Json& msg, std::uint64_t arrival) {
  const Json* type = msg.find("type");
  const std::string t =
      type != nullptr && type->is_string() ? type->as_string() : "";
  if (t == "submit") {
    handle_submit(conn, msg, arrival);
    return;
  }
  if (t == "cancel") {
    handle_cancel(conn, msg, arrival);
    return;
  }
  if (is_session_type(t)) {
    handle_session(conn, msg, arrival, t);
    return;
  }
  if (t == "hello") {
    Json r = Json::object();
    r.set("type", "hello");
    r.set("proto", kProtocolVersion);
    r.set("server", "morph-served");
    send(conn, r);
    return;
  }
  if (t == "flush") {
    {
      std::lock_guard<std::mutex> lk(mu_);
      sched_.flush();
      enqueue_runnable_locked();
      work_cv_.notify_all();
    }
    emit_ready();
    // Flush is idempotent at quiescence, but marking it completed lets
    // compaction drop the frame once its sealing effect is snapshotted.
    inline_completed(arrival);
    return;
  }
  if (t == "stats") {
    send(conn, stats_json());
    return;
  }
  if (t == "shutdown") {
    {
      std::unique_lock<std::mutex> lk(mu_);
      sched_.flush();
      enqueue_runnable_locked();
      work_cv_.notify_all();
      drain_cv_.wait(lk, [this] {
        return (exec_queue_.empty() && executing_ == 0) || stopping_.load();
      });
    }
    emit_ready();
    // Clean, drained shutdown: every reply is out, so the journal history
    // is dead weight — drop it and the next start recovers nothing. Open
    // sessions are the exception: their state must survive the restart, so
    // they force a final checkpoint instead.
    if (journal_enabled_) {
      bool keep_sessions;
      {
        std::lock_guard<std::mutex> jlk(journal_mu_);
        keep_sessions = !open_session_names_.empty();
      }
      if (keep_sessions) {
        std::lock_guard<std::mutex> emit_lk(emit_mu_);
        maybe_checkpoint_locked(true, arrival);
      } else {
        std::lock_guard<std::mutex> jlk(journal_mu_);
        (void)journal_.truncate_all();
        retained_.clear();
        completions_since_checkpoint_ = 0;
      }
    }
    Json bye = Json::object();
    bye.set("type", "bye");
    send(conn, bye);
    flush_conn(conn);  // the bye must reach the wire before teardown
    request_stop();
    return;
  }
  Json err = Json::object();
  err.set("type", "error");
  err.set("code", status_code_name(StatusCode::kBadRequest));
  err.set("message", "unknown message type \"" + t + "\"");
  reply(conn, arrival, err);
  std::lock_guard<std::mutex> lk(mu_);
  ++bad_requests_;
}

void Server::handle_submit(const std::shared_ptr<Conn>& conn,
                           const Json& msg, std::uint64_t arrival) {
  JobRequest req;
  const Status parsed = JobRequest::from_json(msg, &req);
  if (!parsed.ok()) {
    Json err = Json::object();
    err.set("type", "error");
    if (const Json* id = msg.find("id")) {
      if (const std::optional<std::uint64_t> v = id->as_uint()) {
        err.set("id", *v);
      }
    }
    err.set("code", status_code_name(parsed.code()));
    err.set("message", parsed.message());
    reply(conn, arrival, err);
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++bad_requests_;
    }
    inline_completed(arrival);
    return;
  }
  if (draining_.load()) {
    // Graceful drain: nothing new gets in; the client should go elsewhere.
    Json rej = Json::object();
    rej.set("type", "reject");
    rej.set("id", req.id);
    rej.set("code", status_code_name(StatusCode::kUnavailable));
    rej.set("message", "server is draining");
    reply(conn, arrival, rej);
    inline_completed(arrival);
    return;
  }

  const double est = estimate_job_cycles(req.spec);
  // Deadlines are declared in modeled milliseconds; the scheduler thinks in
  // modeled cycles at the device's nominal clock.
  const double deadline_cycles =
      req.spec.deadline_model_ms > 0.0
          ? req.spec.deadline_model_ms * cfg_.device.clock_ghz * 1e6
          : 0.0;
  Scheduler::Submitted sub;
  {
    std::lock_guard<std::mutex> lk(mu_);
    sub = sched_.submit(req.spec.kind, req.priority, est, -1.0,
                        deadline_cycles);
    if (sub.accepted) {
      job_ctx_.emplace(sub.seq, JobCtx{conn, req, arrival});
      enqueue_runnable_locked();
      work_cv_.notify_all();
    }
  }
  if (!sub.accepted) {
    Json rej = Json::object();
    rej.set("type", "reject");
    rej.set("id", req.id);
    rej.set("code", status_code_name(sub.reject.code()));
    rej.set("message", sub.reject.message());
    reply(conn, arrival, rej);
    // A rejected submit is terminal: mark it completed so compaction drops
    // the frame instead of re-running the (already-snapshotted) rejection.
    inline_completed(arrival);
  }
}

void Server::handle_cancel(const std::shared_ptr<Conn>& conn, const Json& msg,
                           std::uint64_t arrival) {
  const Json* id = msg.find("id");
  const std::optional<std::uint64_t> target =
      id != nullptr ? id->as_uint() : std::nullopt;
  if (!target) {
    Json err = Json::object();
    err.set("type", "error");
    err.set("code", status_code_name(StatusCode::kBadRequest));
    err.set("message", "cancel.id must be a non-negative integer");
    reply(conn, arrival, err);
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++bad_requests_;
    }
    inline_completed(arrival);
    return;
  }
  bool caught = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    // Cancels ride the arrival gate and are journaled: whether one lands
    // before its job seals is part of the deterministic arrival sequence.
    for (auto it = job_ctx_.begin(); it != job_ctx_.end(); ++it) {
      if (it->second.req.id != *target) continue;
      if (sched_.cancel(it->first)) {
        job_ctx_.erase(it);
        caught = true;
      }
      break;
    }
  }
  Json r = Json::object();
  r.set("type", "cancelled");
  r.set("id", *target);
  r.set("caught", caught);  // false: sealed already, the result still comes
  reply(conn, arrival, r);
  inline_completed(arrival);
}

void Server::handle_session(const std::shared_ptr<Conn>& conn, const Json& msg,
                            std::uint64_t arrival, const std::string& t) {
  const Json* idj = msg.find("id");
  const std::optional<std::uint64_t> idv =
      idj != nullptr ? idj->as_uint() : std::nullopt;
  const bool has_id = idv.has_value();
  const std::uint64_t id = idv.value_or(0);
  const auto error_frame = [&](StatusCode code, const std::string& m) {
    Json err = Json::object();
    err.set("type", "error");
    if (has_id) err.set("id", id);
    err.set("code", status_code_name(code));
    err.set("message", m);
    return err;
  };
  if (arrival == kNoArrival) {
    // An unstamped session frame would never reach the journal, so a crash
    // would silently drop it from the replayed session history; insist on
    // the gate.
    reply(conn, arrival,
          error_frame(StatusCode::kBadRequest,
                      t + " frames must carry an arrival stamp"));
    std::lock_guard<std::mutex> lk(mu_);
    ++bad_requests_;
    return;
  }

  // From here on the frame is journaled: every exit marks completion so
  // recovery can tell replied frames from interrupted ones.
  Json r;
  bool bad = false;
  const Json* sj = msg.find("session");
  const std::string sname =
      sj != nullptr && sj->is_string() ? sj->as_string() : "";
  if (idj != nullptr && !has_id) {
    r = error_frame(StatusCode::kBadRequest,
                    t + ".id must be a non-negative integer");
    bad = true;
  } else if (sname.empty()) {
    r = error_frame(StatusCode::kBadRequest,
                    t + ".session must be a non-empty string");
    bad = true;
  } else if (draining_.load() && t != "session-close") {
    // Draining: no new sessions, no new work; closes still land so clients
    // can wind down cleanly.
    r = Json::object();
    r.set("type", "reject");
    if (has_id) r.set("id", id);
    r.set("code", status_code_name(StatusCode::kUnavailable));
    r.set("message", "server is draining");
  } else if (t == "session-open") {
    if (sessions_.count(sname) != 0) {
      r = error_frame(StatusCode::kBadRequest,
                      "session \"" + sname + "\" is already open");
      bad = true;
    } else {
      // The pinned slot is a pure function of the open frame's arrival
      // stamp, so it survives recovery — and compaction — unchanged.
      const auto slot = static_cast<std::uint32_t>(arrival % cfg_.sched.pool);
      std::unique_ptr<Session> sess;
      const Status s = Session::Open(msg, slot, cfg_.device, &sess);
      if (!s.ok()) {
        r = error_frame(s.code(), s.message());
        bad = true;
      } else {
        r = Json::object();
        r.set("type", "session-opened");
        if (has_id) r.set("id", id);
        r.set("session", sname);
        r.set("kind", sess->kind());
        r.set("slot", static_cast<std::int64_t>(slot));
        r.set("digest", sess->digest_hex());
        {
          std::lock_guard<std::mutex> lk(mu_);
          sessions_.emplace(sname, std::move(sess));
          ++sessions_opened_;
        }
        std::lock_guard<std::mutex> jlk(journal_mu_);
        open_session_names_.insert(sname);
      }
    }
  } else {
    Session* sess = nullptr;
    if (const auto it = sessions_.find(sname); it != sessions_.end()) {
      sess = it->second.get();
    }
    if (sess == nullptr) {
      r = error_frame(StatusCode::kBadRequest,
                      "unknown session \"" + sname + "\"");
      bad = true;
    } else if (t == "session-update") {
      r = Json::object();
      r.set("type", "session-result");
      if (has_id) r.set("id", id);
      r.set("session", sname);
      // Inline execution on the persistent device; the arrival gate is the
      // serialization, so no server lock is held across the launch.
      const Status s = sess->Update(msg, &r);
      if (!s.ok()) {
        r = error_frame(s.code(), s.message());
        bad = true;
      } else {
        std::lock_guard<std::mutex> lk(mu_);
        ++session_updates_;
      }
    } else {  // session-close
      r = Json::object();
      r.set("type", "session-closed");
      if (has_id) r.set("id", id);
      r.set("session", sname);
      r.set("updates", sess->updates_applied());
      r.set("digest", sess->digest_hex());
      {
        std::lock_guard<std::mutex> lk(mu_);
        sessions_.erase(sname);
      }
      // Dropping the name here lets journal_completed and the next
      // compaction retire this session's whole journaled history.
      std::lock_guard<std::mutex> jlk(journal_mu_);
      open_session_names_.erase(sname);
    }
  }
  reply(conn, arrival, r);
  if (bad) {
    std::lock_guard<std::mutex> lk(mu_);
    ++bad_requests_;
  }
  inline_completed(arrival);
}

Status Server::recover_from_journal() {
  if (cfg_.journal.path.empty()) return Status::Ok();
  JournalScan scan;
  Status s = Journal::scan(cfg_.journal.path, &scan);
  if (!s.ok()) return s;
  s = journal_.open(cfg_.journal, scan.valid_bytes);
  if (!s.ok()) return s;
  journal_enabled_ = true;
  if (scan.records.empty() && scan.checkpoint_state.empty()) {
    return Status::Ok();
  }

  // Replay. No serving thread exists yet, so this runs the normal admission
  // path single-threaded: every journaled frame goes back through
  // handle_message in its original order, with no connection attached —
  // replies land in replayed_replies_ for resubmitting clients to collect,
  // and re-admitted jobs execute once the workers spawn. Completed frames
  // are replayed too: their measured cycles feed the placement of
  // everything after them. A checkpoint's state bytes restore the epoch the
  // retained suffix was recorded in: the arrival-gate high-water mark plus
  // the scheduler snapshot taken at compaction quiescence.
  recoveries_ = 1;
  std::uint64_t gate_floor = 0;
  if (scan.checkpoint_state.size() >= 8) {
    gate_floor = get_u64be(scan.checkpoint_state.data());
    // A failed restore (e.g. the pool was resized across the restart) keeps
    // the fresh scheduler: continuity is forfeited, correctness is not.
    (void)sched_.restore_blob(scan.checkpoint_state.substr(8));
  }
  in_recovery_ = true;
  for (const JournalRecord& r : scan.records) {
    if (r.type == JournalRecord::Type::kCompleted) {
      recovery_completed_.insert(r.arrival);
    }
  }
  std::uint64_t max_arrival = 0;
  bool any = false;
  for (const JournalRecord& r : scan.records) {
    if (r.type == JournalRecord::Type::kCheckpoint) continue;
    max_arrival = any ? std::max(max_arrival, r.arrival) : r.arrival;
    any = true;
    if (r.type == JournalRecord::Type::kCompleted) continue;
    Json msg;
    try {
      msg = Json::parse(r.frame);
    } catch (const CheckError&) {
      continue;  // CRC passed but the payload is not JSON; skip defensively
    }
    const Json* type = msg.find("type");
    const std::string t =
        type != nullptr && type->is_string() ? type->as_string() : "";
    if (r.type == JournalRecord::Type::kSession) {
      if (!is_session_type(t)) continue;
      std::string sname;
      if (const Json* sj = msg.find("session");
          sj != nullptr && sj->is_string()) {
        sname = sj->as_string();
      }
      retained_.emplace(r.arrival,
                        RetainedRec{true, r.frame, std::move(sname),
                                    recovery_completed_.count(r.arrival) > 0});
      handle_message(nullptr, msg, r.arrival);
      continue;
    }
    // Lifecycle frames (hello/stats/shutdown) are conversational, never
    // journaled; tolerate them anyway in case of an old or hand-built log.
    if (t != "submit" && t != "flush" && t != "cancel") continue;
    if (recovery_completed_.count(r.arrival) == 0) {
      if (t == "submit") ++recovered_jobs_;
      retained_.emplace(r.arrival, RetainedRec{false, r.frame, "", false});
    }
    handle_message(nullptr, msg, r.arrival);
  }
  in_recovery_ = false;
  recovery_completed_.clear();
  recovered_sessions_ = sessions_.size();
  next_arrival_ =
      std::max(gate_floor, any ? max_arrival + 1 : std::uint64_t{0});
  return Status::Ok();
}

void Server::handle_replayed(const std::shared_ptr<Conn>& conn,
                             const Json& msg, std::uint64_t arrival) {
  const Json* type = msg.find("type");
  const std::string t =
      type != nullptr && type->is_string() ? type->as_string() : "";
  Json stored;
  bool have = false;
  bool pending = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    const auto rit = replayed_replies_.find(arrival);
    if (rit != replayed_replies_.end()) {
      stored = rit->second;
      have = true;
    } else {
      // The replayed job is still in flight; adopt the resubmitting
      // connection so its result is delivered directly when placed.
      for (auto& [seq, ctx] : job_ctx_) {
        (void)seq;
        if (ctx.arrival != arrival || ctx.conn != nullptr) continue;
        ctx.conn = conn;
        pending = true;
        break;
      }
    }
  }
  if (have) {
    send(conn, stored);
    return;
  }
  if (pending) return;
  if (t == "flush" || t == "cancel") return;  // already applied: no-op
  Json err = Json::object();
  err.set("type", "error");
  err.set("code", status_code_name(StatusCode::kBadRequest));
  err.set("message",
          "arrival " + std::to_string(arrival) + " already admitted");
  send(conn, err);
  std::lock_guard<std::mutex> lk(mu_);
  ++bad_requests_;
}

void Server::reply(const std::shared_ptr<Conn>& conn, std::uint64_t arrival,
                   const Json& frame) {
  if (conn != nullptr) {
    send(conn, frame);
    return;
  }
  if (arrival == kNoArrival) return;
  std::lock_guard<std::mutex> lk(mu_);
  replayed_replies_.emplace(arrival, frame);
}

void Server::journal_admitted(std::uint64_t arrival, const Json& msg) {
  if (!journal_enabled_) return;
  const Json* type = msg.find("type");
  const std::string t =
      type != nullptr && type->is_string() ? type->as_string() : "";
  const bool session = is_session_type(t);
  std::string sname;
  if (session) {
    if (const Json* sj = msg.find("session");
        sj != nullptr && sj->is_string()) {
      sname = sj->as_string();
    }
  }
  // Only frames recovery replays are worth retaining across compaction;
  // stamped conversational frames (hello/stats) are journaled for the
  // arrival-sequence record but dropped at the first checkpoint.
  const bool replayable =
      session || t == "submit" || t == "flush" || t == "cancel";
  std::string frame = msg.dump();
  std::lock_guard<std::mutex> lk(journal_mu_);
  const Status s = session ? journal_.append_session(arrival, frame)
                           : journal_.append_admitted(arrival, frame);
  if (!s.ok()) {
    if (journal_errors_ == 0) {
      std::fprintf(stderr, "morph-served: journal append failed: %s\n",
                   s.message().c_str());
    }
    ++journal_errors_;
  }
  if (replayable) {
    retained_.emplace(arrival, RetainedRec{session, std::move(frame),
                                           std::move(sname), false});
  }
}

void Server::journal_completed(std::uint64_t arrival) {
  if (!journal_enabled_ || arrival == kNoArrival) return;
  std::lock_guard<std::mutex> lk(journal_mu_);
  const Status s = journal_.append_completed(arrival);
  if (!s.ok()) {
    if (journal_errors_ == 0) {
      std::fprintf(stderr, "morph-served: journal append failed: %s\n",
                   s.message().c_str());
    }
    ++journal_errors_;
  }
  // Compaction bookkeeping: a completed job frame is dead weight (its
  // scheduler effects live in the next checkpoint's snapshot); a completed
  // session frame stays while its session is open, because recovery
  // re-executes the whole history to rebuild the persistent state.
  const auto it = retained_.find(arrival);
  if (it != retained_.end()) {
    if (!it->second.session ||
        open_session_names_.count(it->second.session_name) == 0) {
      retained_.erase(it);
    } else {
      it->second.completed = true;
    }
  }
  completed_floor_ = std::max(completed_floor_, arrival + 1);
  ++completions_since_checkpoint_;
}

void Server::inline_completed(std::uint64_t arrival) {
  if (in_recovery_ && recovery_completed_.count(arrival) > 0) {
    return;  // the pre-crash process already marked it; replay was state-only
  }
  journal_completed(arrival);
  if (in_recovery_) return;
  std::lock_guard<std::mutex> emit_lk(emit_mu_);
  maybe_checkpoint_locked(false, arrival);
}

void Server::maybe_checkpoint_locked(bool force, std::uint64_t floor_hint) {
  if (!journal_enabled_ || in_recovery_) return;
  {
    std::lock_guard<std::mutex> jlk(journal_mu_);
    const std::uint64_t every = cfg_.journal.checkpoint_every;
    if (!force && (every == 0 || completions_since_checkpoint_ < every)) {
      return;
    }
  }
  // Snapshot only at quiescence: with no admitted job awaiting execution or
  // emission, the scheduler blob plus the frames still in retained_ (all
  // admitted at or after this instant, or part of an open session's
  // history) reproduces every later decision. Holding emit_mu_ keeps any
  // emission's "job erased from job_ctx_ / completion journaled" pair from
  // straddling the snapshot.
  std::string state;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!job_ctx_.empty() || !outcomes_.empty() || !exec_queue_.empty() ||
        executing_ != 0) {
      return;  // in-flight work: try again at a later completion
    }
    state = sched_.checkpoint_blob();
  }
  std::uint64_t floor;
  {
    std::lock_guard<std::mutex> olk(order_mu_);
    // The triggering frame is fully applied (its effects are in the blob),
    // but its reader may not have bumped next_arrival_ yet — snapshot the
    // gate as if it had, or the restart blocks waiting for a stamp the
    // pre-crash process already consumed.
    floor = next_arrival_;
    if (floor_hint != kNoArrival && floor_hint + 1 > floor) {
      floor = floor_hint + 1;
    }
  }
  std::lock_guard<std::mutex> jlk(journal_mu_);
  // The same holds for a frame another thread completed meanwhile (say an
  // inline flush racing this emission's checkpoint): it is already gone
  // from retained_, so the floor must cover it too.
  floor = std::max(floor, completed_floor_);
  std::string head;
  put_u64be(floor, head);
  state.insert(0, head);
  std::vector<JournalRecord> kept;
  kept.reserve(retained_.size());
  for (auto it = retained_.begin(); it != retained_.end();) {
    const RetainedRec& r = it->second;
    if (r.completed &&
        (!r.session || open_session_names_.count(r.session_name) == 0)) {
      it = retained_.erase(it);  // a retired (closed) session's history
      continue;
    }
    JournalRecord rec;
    rec.type = r.session ? JournalRecord::Type::kSession
                         : JournalRecord::Type::kAdmitted;
    rec.arrival = it->first;
    rec.frame = r.frame;
    kept.push_back(std::move(rec));
    if (r.completed) {
      JournalRecord done;
      done.type = JournalRecord::Type::kCompleted;
      done.arrival = it->first;
      kept.push_back(std::move(done));
    }
    ++it;
  }
  const Status s = journal_.compact(state, kept);
  if (!s.ok()) {
    if (journal_errors_ == 0) {
      std::fprintf(stderr, "morph-served: journal compaction failed: %s\n",
                   s.message().c_str());
    }
    ++journal_errors_;
    return;
  }
  completions_since_checkpoint_ = 0;
  ++compactions_;
}

Json Server::stats_json() {
  std::lock_guard<std::mutex> lk(mu_);
  Json o = Json::object();
  o.set("type", "stats");
  o.set("admitted", sched_.admitted());
  o.set("rejected", sched_.rejected());
  o.set("batches_sealed", sched_.batches_sealed());
  o.set("placed", sched_.placed());
  o.set("backlog_cycles", sched_.backlog_cycles());
  o.set("jobs_executed", jobs_executed_);
  o.set("results_emitted", results_emitted_);
  o.set("bad_requests", bad_requests_);
  o.set("deadline_exceeded", sched_.deadline_rejected());
  o.set("cancelled", sched_.cancelled());
  o.set("quarantined_devices",
        static_cast<std::int64_t>(quarantine_.quarantined()));
  o.set("recoveries", recoveries_);
  o.set("recovered_jobs", recovered_jobs_);
  o.set("drained_jobs", drained_jobs_);
  o.set("sessions_open", static_cast<std::uint64_t>(sessions_.size()));
  o.set("sessions_opened", sessions_opened_);
  o.set("session_updates", session_updates_);
  o.set("recovered_sessions", recovered_sessions_);
  o.set("pool", static_cast<std::int64_t>(cfg_.sched.pool));
  o.set("workers", static_cast<std::int64_t>(cfg_.workers));
  {
    std::lock_guard<std::mutex> jlk(journal_mu_);
    o.set("journal_records", journal_.records_appended());
    o.set("journal_errors", journal_errors_);
    o.set("compactions", compactions_);
  }
  return o;
}

void Server::enqueue_runnable_locked() {
  for (SealedBatch& b : sched_.take_runnable()) {
    const auto key = std::make_pair(b.priority, b.id);
    exec_queue_.emplace(key, std::move(b));
  }
}

void Server::worker_loop() {
  for (;;) {
    SealedBatch batch;
    std::vector<JobRequest> reqs;
    {
      std::unique_lock<std::mutex> lk(mu_);
      work_cv_.wait(lk, [this] {
        return stopping_.load() || !exec_queue_.empty();
      });
      if (exec_queue_.empty()) return;  // stopping, queue drained
      auto it = exec_queue_.begin();
      batch = std::move(it->second);
      exec_queue_.erase(it);
      ++executing_;
      reqs.reserve(batch.jobs.size());
      for (const std::uint64_t seq : batch.jobs) {
        const auto cit = job_ctx_.find(seq);
        MORPH_CHECK(cit != job_ctx_.end());
        reqs.push_back(cit->second.req);
      }
    }

    // One shared launch: the batch's jobs run back to back on this pool
    // worker, each on a fresh, isolated device.
    std::vector<JobOutcome> outs;
    std::vector<double> measured;
    outs.reserve(reqs.size());
    measured.reserve(reqs.size());
    for (const JobRequest& r : reqs) {
      outs.push_back(run_job(r, cfg_.device));
      measured.push_back(outs.back().exec.modeled_cycles);
    }

    {
      std::lock_guard<std::mutex> lk(mu_);
      for (std::size_t i = 0; i < batch.jobs.size(); ++i) {
        outcomes_.emplace(batch.jobs[i], std::move(outs[i]));
      }
      jobs_executed_ += batch.jobs.size();
      sched_.record_measured(batch.id, measured);
      --executing_;
      drain_cv_.notify_all();
    }
    emit_ready();
  }
}

void Server::emit_ready() {
  // emit_mu_ before mu_: advancing the virtual schedule and writing the
  // resulting frames must be one atomic step, or two workers could emit out
  // of virtual dispatch order.
  std::lock_guard<std::mutex> emit_lk(emit_mu_);
  std::vector<Emission> emissions;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const JobPlacement& p : sched_.advance()) {
      const auto cit = job_ctx_.find(p.seq);
      const auto oit = outcomes_.find(p.seq);
      MORPH_CHECK(cit != job_ctx_.end());
      MORPH_CHECK(oit != outcomes_.end());
      const JobRequest& req = cit->second.req;
      const JobOutcome& out = oit->second;
      // Quarantine bookkeeping happens here — placements arrive in virtual
      // dispatch order, so the per-slot consecutive-fault streaks (and the
      // quarantine set) are as deterministic as the placements themselves.
      quarantine_.record(p.slot, out.ok());

      Json r = Json::object();
      r.set("type", "result");
      r.set("id", req.id);
      r.set("seq", p.seq);
      r.set("kind", job_kind_name(req.spec.kind));
      r.set("status", status_code_name(out.status.code()));
      if (!out.ok()) r.set("message", out.status.message());
      r.set("outputs", out.outputs);
      r.set("exec", out.exec.to_json());
      if (req.trace) r.set("trace_events", out.trace_events);
      Json sv = Json::object();
      sv.set("batch", p.batch);
      sv.set("batch_size", static_cast<std::int64_t>(p.batch_size));
      sv.set("slot", static_cast<std::int64_t>(p.slot));
      sv.set("arrival_cycles", p.arrival_cycles);
      sv.set("start_cycles", p.start_cycles);
      sv.set("end_cycles", p.end_cycles);
      sv.set("queue_cycles", p.queue_cycles);
      r.set("serve", sv);

      if (cit->second.conn == nullptr) {
        // Recovery replay owns this job: park the reply for the client's
        // resubmission instead of a wire that no longer exists.
        replayed_replies_.emplace(cit->second.arrival, r);
      }
      emissions.push_back(
          Emission{cit->second.conn, std::move(r), cit->second.arrival});
      job_ctx_.erase(cit);
      outcomes_.erase(oit);
      ++results_emitted_;
    }
  }
  std::uint64_t floor_hint = kNoArrival;
  for (const Emission& e : emissions) {
    if (e.conn != nullptr) send(e.conn, e.frame);
    // Completion marker only after the reply is handed to the writer (or
    // parked for resubmission): a crash before this line replays the job, a
    // crash after it replays too — 'C' only trims the recovered_jobs count,
    // never the replay itself.
    journal_completed(e.arrival);
    if (e.arrival != kNoArrival &&
        (floor_hint == kNoArrival || e.arrival > floor_hint)) {
      floor_hint = e.arrival;
    }
  }
  maybe_checkpoint_locked(false, floor_hint);
}

void Server::send(const std::shared_ptr<Conn>& conn, const Json& msg) {
  if (!conn->open.load()) return;
  {
    std::lock_guard<std::mutex> lk(conn->write_mu);
    conn->outbuf += encode_frame(msg);
  }
  conn->write_cv.notify_all();
}

void Server::flush_conn(const std::shared_ptr<Conn>& conn) {
  std::unique_lock<std::mutex> lk(conn->write_mu);
  conn->write_cv.wait(lk, [&] {
    return (conn->outbuf.empty() && !conn->writing) || !conn->open.load();
  });
}

}  // namespace morph::serve
