// Wire protocol of the morph job server (docs/SERVER.md, "Protocol").
//
// Transport: a local AF_UNIX stream socket. Framing: each message is one
// telemetry::Json document serialized compactly, prefixed by a 4-byte
// big-endian byte length. JSON keeps the protocol debuggable and reuses the
// repo's deterministic reader/writer; the length prefix keeps parsing
// trivial (no sniffing for document boundaries in a byte stream).
//
// Message types ride in a "type" field:
//   client -> server: "hello", "submit" (serve/job.hpp), "flush", "cancel",
//                     "stats", "shutdown"
//   server -> client: "hello", "result", "reject", "error", "cancelled",
//                     "stats", "bye"
//
// This header owns framing, socket plumbing and the byte helpers the journal
// and checkpoint encodings share; message construction lives in
// serve/server.cpp and serve/client.cpp.
#pragma once

#include <cstdint>
#include <string>

#include "support/status.hpp"
#include "telemetry/json.hpp"

namespace morph::serve {

/// Upper bound on one frame's payload; a length prefix beyond this is
/// treated as a protocol error, not an allocation request.
inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

/// Protocol revision, exchanged in "hello". Bump on incompatible changes.
inline constexpr std::int64_t kProtocolVersion = 1;

/// kIoError whose message is "<what>: <strerror(errno)>".
Status io_error(const std::string& what);

// Big-endian integers, the one byte order of frame prefixes, journal
// records and checkpoint blobs.
inline void put_u32be(std::uint32_t v, std::string& out) {
  for (int i = 24; i >= 0; i -= 8) out.push_back(static_cast<char>(v >> i));
}
inline void put_u64be(std::uint64_t v, std::string& out) {
  for (int i = 56; i >= 0; i -= 8) out.push_back(static_cast<char>(v >> i));
}
inline std::uint32_t get_u32be(const char* in) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v = (v << 8) | static_cast<unsigned char>(in[i]);
  return v;
}
inline std::uint64_t get_u64be(const char* in) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | static_cast<unsigned char>(in[i]);
  return v;
}

/// Encodes a message into its on-the-wire bytes (prefix + payload). The
/// nonblocking client assembles frames itself so it can interleave partial
/// writes with draining inbound results.
std::string encode_frame(const telemetry::Json& msg);

/// Reads one frame from a blocking fd. kIoError on EOF or transport
/// failure, kBadRequest on oversized or unparseable payloads.
Status read_frame(int fd, telemetry::Json* out);

/// Incremental frame decoder for nonblocking reads: feed raw bytes, pop
/// complete messages. Used by the client's receive pump.
class FrameDecoder {
 public:
  void feed(const char* data, std::size_t n) { buf_.append(data, n); }

  /// Pops the next complete frame. Returns kOk with *out set, kIoError-free:
  /// an incomplete frame returns ok() == true with *have = false.
  Status poll(telemetry::Json* out, bool* have);

 private:
  std::string buf_;
};

/// Creates, binds, and listens on a unix socket. A leftover socket file at
/// `path` is probed with a connect first: a live listener makes this fail
/// with kIoError (never steal a running server's socket); a refused
/// connection marks the file stale — the corpse of a crashed server — and
/// it is unlinked. kIoError on failure.
Status listen_unix(const std::string& path, int* fd_out);

/// Connects to a listening unix socket. kIoError on failure.
Status connect_unix(const std::string& path, int* fd_out);

}  // namespace morph::serve
