// Client side of the morph job server protocol.
//
// The socket is nonblocking and every send pumps the connection both ways:
// outbound bytes drain as the kernel accepts them while inbound result
// frames are decoded into an ordered inbox. That way a client can keep
// submitting while the server streams results back — with a blocking socket
// both sides could fill their send buffers mid-burst and deadlock.
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "serve/job.hpp"
#include "serve/protocol.hpp"
#include "support/status.hpp"
#include "telemetry/json.hpp"

namespace morph::serve {

class Client {
 public:
  Client() = default;
  ~Client() { close(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects and performs the hello handshake (verifies the protocol
  /// version). kIoError / kBadRequest on failure.
  Status connect(const std::string& socket_path);
  void close();
  bool connected() const { return fd_ >= 0; }

  /// Bounds how long next_message() waits for the server before giving up
  /// with kTimeout. Negative (the default) waits forever. A timed-out
  /// connection is still usable — the caller decides between waiting more
  /// and resubmit_after_failure().
  void set_recv_timeout_ms(int ms) { recv_timeout_ms_ = ms; }

  /// One reconnect-and-resubmit attempt after a timeout or disconnect:
  /// closes the wedged connection, backs off deterministically (keyed by
  /// the job id, so a thundering herd of retrying clients spreads out the
  /// same way every run), reconnects to the same path, and resubmits `req`
  /// with its original arrival stamp. The server answers a stamp it already
  /// admitted idempotently, so retrying a job whose reply was merely lost
  /// in transit is safe (docs/SERVER.md, "Durability & operations").
  Status resubmit_after_failure(const JobRequest& req,
                                std::int64_t arrival = -1);

  /// Queues a submit frame and pumps. Results arriving meanwhile land in
  /// the inbox for next_message(). `arrival >= 0` stamps the frame with a
  /// global arrival sequence number: the server admits stamped frames in
  /// strictly increasing arrival order across ALL connections, which is
  /// what makes a multi-connection workload replayable (docs/SERVER.md).
  Status submit(const JobRequest& req, std::int64_t arrival = -1);
  Status send_flush(std::int64_t arrival = -1);
  /// Asks the server to cancel job `id`. The server answers "cancelled" with
  /// `caught` saying whether the job was still in an open batch (sealed jobs
  /// run to completion and their result arrives normally).
  Status send_cancel(std::uint64_t id, std::int64_t arrival = -1);
  Status send_stats();
  Status send_shutdown();

  /// Incremental recompute sessions (docs/SERVER.md, "Sessions"). Session
  /// frames MUST be stamped (`arrival >= 0`): the server journals them by
  /// stamp and rejects unstamped ones, because an unjournaled update would
  /// silently vanish from the replayed session history after a crash.
  /// `kind` is "mst" or "pta"; `count` is the node (mst) or variable (pta)
  /// count. The server answers "session-opened" with the pinned slot and
  /// the initial state digest.
  Status send_session_open(const std::string& session, const std::string& kind,
                           std::uint64_t count, std::uint64_t id,
                           std::int64_t arrival);
  /// One update batch. Rows are [op,u,v,w] for mst (op 1=insert, 0=delete)
  /// or [kind,dst,src] for pta (kind 0..3). Answered with "session-result"
  /// carrying the incremental outputs, exec-stats delta, and state digest.
  Status send_session_update(const std::string& session,
                             const telemetry::Json& updates, std::uint64_t id,
                             std::int64_t arrival);
  Status send_session_close(const std::string& session, std::uint64_t id,
                            std::int64_t arrival);

  /// Next server message (result / reject / error / stats / bye), in arrival
  /// order. Blocks until one is available; kIoError once the connection is
  /// gone and the inbox is empty; kTimeout when a receive timeout is set
  /// and the server stays silent past it.
  Status next_message(telemetry::Json* out);

 private:
  Status send_message(const telemetry::Json& msg);
  /// Drains writable outbound bytes and readable inbound frames.
  /// `wait_readable` blocks until at least one inbound frame (or error).
  Status pump(bool wait_readable);

  int fd_ = -1;
  std::string path_;        ///< last connect target, for reconnects
  int recv_timeout_ms_ = -1;
  std::string outbuf_;
  FrameDecoder decoder_;
  std::deque<telemetry::Json> inbox_;
  bool peer_closed_ = false;
};

}  // namespace morph::serve
