#include "serve/protocol.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "support/check.hpp"

namespace morph::serve {

using telemetry::Json;

Status io_error(const std::string& what) {
  return Status(StatusCode::kIoError, what + ": " + std::strerror(errno));
}

namespace {

Status read_all(int fd, char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t r = ::read(fd, data, n);
    if (r < 0) {
      if (errno == EINTR) continue;
      return io_error("read");
    }
    if (r == 0) return Status(StatusCode::kIoError, "connection closed");
    data += r;
    n -= static_cast<std::size_t>(r);
  }
  return Status::Ok();
}

Status parse_payload(const std::string& text, Json* out) {
  try {
    *out = Json::parse(text);
  } catch (const CheckError& e) {
    return Status(StatusCode::kBadRequest,
                  std::string("malformed frame payload: ") + e.what());
  }
  if (!out->is_object()) {
    return Status(StatusCode::kBadRequest, "frame payload must be an object");
  }
  return Status::Ok();
}

}  // namespace

std::string encode_frame(const Json& msg) {
  const std::string payload = msg.dump();
  MORPH_CHECK_MSG(payload.size() <= kMaxFrameBytes, "frame too large");
  std::string out;
  out.reserve(4 + payload.size());
  put_u32be(static_cast<std::uint32_t>(payload.size()), out);
  out += payload;
  return out;
}

Status read_frame(int fd, Json* out) {
  char hdr[4];
  Status s = read_all(fd, hdr, 4);
  if (!s.ok()) return s;
  const std::uint32_t len = get_u32be(hdr);
  if (len > kMaxFrameBytes) {
    return Status(StatusCode::kBadRequest, "frame length exceeds limit");
  }
  std::string payload(len, '\0');
  if (!(s = read_all(fd, payload.data(), len)).ok()) return s;
  return parse_payload(payload, out);
}

Status FrameDecoder::poll(Json* out, bool* have) {
  *have = false;
  if (buf_.size() < 4) return Status::Ok();
  const std::uint32_t len = get_u32be(buf_.data());
  if (len > kMaxFrameBytes) {
    return Status(StatusCode::kBadRequest, "frame length exceeds limit");
  }
  if (buf_.size() < 4 + static_cast<std::size_t>(len)) return Status::Ok();
  const Status s = parse_payload(buf_.substr(4, len), out);
  buf_.erase(0, 4 + static_cast<std::size_t>(len));
  if (s.ok()) *have = true;
  return s;
}

Status listen_unix(const std::string& path, int* fd_out) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status(StatusCode::kIoError, "socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  // A socket file may be left behind by a crashed (SIGKILLed) server. Probe
  // it with a connect before unlinking: a live listener answers (address in
  // use — refuse to steal it), a dead one refuses the connection (stale —
  // safe to remove), a missing file means a clean start.
  const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (probe < 0) return io_error("socket");
  if (::connect(probe, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) == 0) {
    ::close(probe);
    return Status(StatusCode::kIoError,
                  path + " already has a live server listening");
  }
  const int probe_errno = errno;
  ::close(probe);
  if (probe_errno == ECONNREFUSED) {
    ::unlink(path.c_str());  // confirmed stale: no listener behind the file
  } else if (probe_errno != ENOENT) {
    // Some other obstruction (a regular file, permissions, ...): let bind
    // report it rather than destroy something we don't understand.
  }

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return io_error("socket");
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    const Status s = io_error("bind " + path);
    ::close(fd);
    return s;
  }
  if (::listen(fd, 64) < 0) {
    const Status s = io_error("listen " + path);
    ::close(fd);
    return s;
  }
  *fd_out = fd;
  return Status::Ok();
}

Status connect_unix(const std::string& path, int* fd_out) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status(StatusCode::kIoError, "socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return io_error("socket");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status s = io_error("connect " + path);
    ::close(fd);
    return s;
  }
  *fd_out = fd;
  return Status::Ok();
}

}  // namespace morph::serve
