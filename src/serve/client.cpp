#include "serve/client.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <thread>

namespace morph::serve {

using telemetry::Json;

Status Client::connect(const std::string& socket_path) {
  close();
  path_ = socket_path;
  Status s = connect_unix(socket_path, &fd_);
  if (!s.ok()) return s;
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK) < 0) {
    s = io_error("fcntl O_NONBLOCK");
    close();
    return s;
  }

  Json hello = Json::object();
  hello.set("type", "hello");
  hello.set("proto", kProtocolVersion);
  if (!(s = send_message(hello)).ok()) return s;
  Json reply;
  if (!(s = next_message(&reply)).ok()) return s;
  const Json* type = reply.find("type");
  const Json* proto = reply.find("proto");
  if (type == nullptr || !type->is_string() || type->as_string() != "hello" ||
      proto == nullptr || !proto->is_number() ||
      proto->as_int() != kProtocolVersion) {
    close();
    return Status(StatusCode::kBadRequest,
                  "server handshake failed (wrong protocol version?)");
  }
  return Status::Ok();
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  outbuf_.clear();
  decoder_ = FrameDecoder{};
  inbox_.clear();
  peer_closed_ = false;
}

Status Client::submit(const JobRequest& req, std::int64_t arrival) {
  Json m = req.to_json();
  if (arrival >= 0) m.set("arrival", static_cast<std::uint64_t>(arrival));
  return send_message(m);
}

Status Client::resubmit_after_failure(const JobRequest& req,
                                      std::int64_t arrival) {
  const std::string path = path_;
  if (path.empty()) {
    return Status(StatusCode::kIoError, "never connected; nothing to retry");
  }
  close();
  // Deterministic per-job backoff: every retrying client spreads out the
  // same way on every run, instead of a synchronized reconnect stampede.
  const auto backoff_ms = 5 + (req.id % 16) * 5;
  std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
  Status s = connect(path);
  if (!s.ok()) return s;
  return submit(req, arrival);
}

Status Client::send_flush(std::int64_t arrival) {
  Json m = Json::object();
  m.set("type", "flush");
  if (arrival >= 0) m.set("arrival", static_cast<std::uint64_t>(arrival));
  return send_message(m);
}

Status Client::send_cancel(std::uint64_t id, std::int64_t arrival) {
  Json m = Json::object();
  m.set("type", "cancel");
  m.set("id", id);
  if (arrival >= 0) m.set("arrival", static_cast<std::uint64_t>(arrival));
  return send_message(m);
}

Status Client::send_session_open(const std::string& session,
                                 const std::string& kind, std::uint64_t count,
                                 std::uint64_t id, std::int64_t arrival) {
  Json m = Json::object();
  m.set("type", "session-open");
  m.set("id", id);
  m.set("session", session);
  m.set("kind", kind);
  m.set(kind == "pta" ? "vars" : "nodes", count);
  if (arrival >= 0) m.set("arrival", static_cast<std::uint64_t>(arrival));
  return send_message(m);
}

Status Client::send_session_update(const std::string& session,
                                   const Json& updates, std::uint64_t id,
                                   std::int64_t arrival) {
  Json m = Json::object();
  m.set("type", "session-update");
  m.set("id", id);
  m.set("session", session);
  m.set("updates", updates);
  if (arrival >= 0) m.set("arrival", static_cast<std::uint64_t>(arrival));
  return send_message(m);
}

Status Client::send_session_close(const std::string& session, std::uint64_t id,
                                  std::int64_t arrival) {
  Json m = Json::object();
  m.set("type", "session-close");
  m.set("id", id);
  m.set("session", session);
  if (arrival >= 0) m.set("arrival", static_cast<std::uint64_t>(arrival));
  return send_message(m);
}

Status Client::send_stats() {
  Json m = Json::object();
  m.set("type", "stats");
  return send_message(m);
}

Status Client::send_shutdown() {
  Json m = Json::object();
  m.set("type", "shutdown");
  return send_message(m);
}

Status Client::send_message(const Json& msg) {
  if (fd_ < 0) return Status(StatusCode::kIoError, "not connected");
  outbuf_ += encode_frame(msg);
  return pump(false);
}

Status Client::next_message(Json* out) {
  for (;;) {
    if (!inbox_.empty()) {
      *out = std::move(inbox_.front());
      inbox_.pop_front();
      return Status::Ok();
    }
    if (peer_closed_ || fd_ < 0) {
      return Status(StatusCode::kIoError, "connection closed");
    }
    const Status s = pump(true);
    if (!s.ok()) return s;
  }
}

Status Client::pump(bool wait_readable) {
  if (fd_ < 0) return Status(StatusCode::kIoError, "not connected");
  for (;;) {
    // Flush as much outbound as the kernel will take right now.
    while (!outbuf_.empty()) {
      const ssize_t w =
          ::send(fd_, outbuf_.data(), outbuf_.size(), MSG_NOSIGNAL);
      if (w >= 0) {
        outbuf_.erase(0, static_cast<std::size_t>(w));
        continue;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return io_error("send");
    }

    // Drain whatever the server has pushed at us.
    char buf[65536];
    for (;;) {
      const ssize_t r = ::read(fd_, buf, sizeof(buf));
      if (r > 0) {
        decoder_.feed(buf, static_cast<std::size_t>(r));
        continue;
      }
      if (r == 0) {
        peer_closed_ = true;
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return io_error("read");
    }
    for (;;) {
      Json msg;
      bool have = false;
      const Status s = decoder_.poll(&msg, &have);
      if (!s.ok()) return s;
      if (!have) break;
      inbox_.push_back(std::move(msg));
    }

    const bool outbound_done = outbuf_.empty();
    const bool inbox_ready = !inbox_.empty();
    if ((outbound_done && !wait_readable) || inbox_ready) return Status::Ok();
    if (peer_closed_) {
      return wait_readable && !inbox_ready
                 ? Status(StatusCode::kIoError, "connection closed")
                 : Status::Ok();
    }

    pollfd pfd{};
    pfd.fd = fd_;
    pfd.events = POLLIN;
    if (!outbound_done) pfd.events |= POLLOUT;
    const int timeout = wait_readable ? recv_timeout_ms_ : -1;
    const int rv = ::poll(&pfd, 1, timeout);
    if (rv < 0 && errno != EINTR) return io_error("poll");
    if (rv == 0) {
      return Status(StatusCode::kTimeout,
                    "no server message within " +
                        std::to_string(recv_timeout_ms_) + " ms");
    }
  }
}

}  // namespace morph::serve
