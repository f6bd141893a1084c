#include "serve/journal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "serve/protocol.hpp"

namespace morph::serve {

namespace {

constexpr char kMagic[8] = {'M', 'W', 'A', 'L', 'J', 'R', 'N', '1'};

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320), table built on first use.
std::uint32_t crc32(const char* data, std::size_t n) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ static_cast<unsigned char>(data[i])) & 0xFFu] ^
          (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

Status write_all(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return io_error("journal write");
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return Status::Ok();
}

}  // namespace

bool parse_fsync_policy(const std::string& s, JournalConfig* cfg) {
  if (s == "none") {
    cfg->fsync = JournalConfig::Fsync::kNone;
    return true;
  }
  if (s == "always") {
    cfg->fsync = JournalConfig::Fsync::kAlways;
    return true;
  }
  if (s.empty()) return false;
  std::uint64_t n = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    n = n * 10 + static_cast<std::uint64_t>(c - '0');
  }
  if (n == 0) return false;
  cfg->fsync = JournalConfig::Fsync::kInterval;
  cfg->fsync_interval = n;
  return true;
}

Status Journal::scan(const std::string& path, JournalScan* out) {
  *out = JournalScan{};
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return Status::Ok();  // no journal yet: empty scan
    return io_error("journal open " + path);
  }

  std::string bytes;
  char buf[65536];
  for (;;) {
    const ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r < 0) {
      if (errno == EINTR) continue;
      const Status s = io_error("journal read " + path);
      ::close(fd);
      return s;
    }
    if (r == 0) break;
    bytes.append(buf, static_cast<std::size_t>(r));
  }
  ::close(fd);
  out->file_bytes = bytes.size();

  if (bytes.size() < sizeof(kMagic)) {
    // Shorter than the magic: an empty or torn-at-birth journal.
    out->torn_tail = !bytes.empty();
    return Status::Ok();
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status(StatusCode::kIoError,
                  path + " is not a morph journal (bad magic)");
  }

  std::size_t pos = sizeof(kMagic);
  out->valid_bytes = pos;
  std::size_t last_checkpoint = 0;  // index into records, one past the 'K'
  while (pos < bytes.size()) {
    if (bytes.size() - pos < 8) {
      out->torn_tail = true;
      break;
    }
    const std::uint32_t len = get_u32be(bytes.data() + pos);
    const std::uint32_t crc = get_u32be(bytes.data() + pos + 4);
    if (len == 0 || bytes.size() - pos - 8 < len) {
      out->torn_tail = true;
      break;
    }
    const char* payload = bytes.data() + pos + 8;
    if (crc32(payload, len) != crc) {
      out->torn_tail = true;  // torn or bit-rotted: treat as end of log
      break;
    }
    JournalRecord rec;
    const char tag = payload[0];
    if (tag == 'A' && len >= 9) {
      rec.type = JournalRecord::Type::kAdmitted;
      rec.arrival = get_u64be(payload + 1);
      rec.frame.assign(payload + 9, len - 9);
    } else if (tag == 'S' && len >= 9) {
      rec.type = JournalRecord::Type::kSession;
      rec.arrival = get_u64be(payload + 1);
      rec.frame.assign(payload + 9, len - 9);
    } else if (tag == 'C' && len == 9) {
      rec.type = JournalRecord::Type::kCompleted;
      rec.arrival = get_u64be(payload + 1);
    } else if (tag == 'K' && len >= 1) {
      rec.type = JournalRecord::Type::kCheckpoint;
      rec.frame.assign(payload + 1, len - 1);
    } else {
      out->torn_tail = true;  // unknown/garbled payload: end of log
      break;
    }
    pos += 8 + len;
    out->valid_bytes = pos;
    if (rec.type == JournalRecord::Type::kCheckpoint) {
      last_checkpoint = out->records.size() + 1;
      out->checkpoint_state = rec.frame;
    }
    out->records.push_back(std::move(rec));
  }

  if (last_checkpoint > 0) {
    // Everything before the last checkpoint is complete and emitted; recovery
    // only cares about what came after it.
    out->records.erase(out->records.begin(),
                       out->records.begin() +
                           static_cast<std::ptrdiff_t>(last_checkpoint));
  }
  return Status::Ok();
}

Status Journal::open(const JournalConfig& cfg, std::uint64_t valid_bytes) {
  close();
  cfg_ = cfg;
  inject_ = cfg.faults != nullptr && !cfg.faults->empty();
  if (inject_) injector_ = resilience::FaultInjector(*cfg.faults);

  fd_ = ::open(cfg_.path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd_ < 0) return io_error("journal open " + cfg_.path);

  struct stat st {};
  if (::fstat(fd_, &st) != 0) {
    const Status s = io_error("journal fstat " + cfg_.path);
    close();
    return s;
  }
  if (st.st_size == 0) {
    const Status s = write_all(fd_, kMagic, sizeof(kMagic));
    if (!s.ok()) {
      close();
      return s;
    }
  } else {
    // Drop a torn tail, then position at the end of the valid prefix.
    const auto keep =
        static_cast<off_t>(valid_bytes == 0 ? sizeof(kMagic) : valid_bytes);
    if (keep < st.st_size && ::ftruncate(fd_, keep) != 0) {
      const Status s = io_error("journal truncate " + cfg_.path);
      close();
      return s;
    }
    if (::lseek(fd_, 0, SEEK_END) < 0) {
      const Status s = io_error("journal seek " + cfg_.path);
      close();
      return s;
    }
  }
  return sync();
}

Status Journal::append_record(const std::string& payload) {
  if (fd_ < 0) return Status(StatusCode::kIoError, "journal not open");
  if (failed_) {
    return Status(StatusCode::kIoError, "journal failed (torn write)");
  }
  std::string rec;
  rec.reserve(8 + payload.size());
  put_u32be(static_cast<std::uint32_t>(payload.size()), rec);
  put_u32be(crc32(payload.data(), payload.size()), rec);
  rec += payload;

  if (inject_ &&
      injector_.should_fire(resilience::FaultClass::kJournalTorn)) {
    // The deterministic crash-mid-append: half the record reaches the disk
    // and the journal is dead from here on, exactly what a SIGKILL between
    // write() calls leaves behind.
    const Status s = write_all(fd_, rec.data(), rec.size() / 2);
    failed_ = true;
    if (!s.ok()) return s;
    return Status(StatusCode::kIoError, "journal torn write (injected)");
  }

  const Status s = write_all(fd_, rec.data(), rec.size());
  if (!s.ok()) return s;
  ++appended_;
  ++since_sync_;
  if (cfg_.fsync == JournalConfig::Fsync::kAlways ||
      (cfg_.fsync == JournalConfig::Fsync::kInterval &&
       since_sync_ >= cfg_.fsync_interval)) {
    return sync();
  }
  return Status::Ok();
}

namespace {

std::string frame_payload(char tag, std::uint64_t arrival,
                          const std::string& frame) {
  std::string p;
  p.reserve(9 + frame.size());
  p.push_back(tag);
  put_u64be(arrival, p);
  p += frame;
  return p;
}

std::string record_payload(const JournalRecord& rec) {
  switch (rec.type) {
    case JournalRecord::Type::kAdmitted:
      return frame_payload('A', rec.arrival, rec.frame);
    case JournalRecord::Type::kSession:
      return frame_payload('S', rec.arrival, rec.frame);
    case JournalRecord::Type::kCompleted: {
      std::string p;
      p.push_back('C');
      put_u64be(rec.arrival, p);
      return p;
    }
    case JournalRecord::Type::kCheckpoint:
      return "K" + rec.frame;
  }
  return "K";  // unreachable
}

void encode_record(const std::string& payload, std::string& out) {
  put_u32be(static_cast<std::uint32_t>(payload.size()), out);
  put_u32be(crc32(payload.data(), payload.size()), out);
  out += payload;
}

}  // namespace

Status Journal::append_admitted(std::uint64_t arrival,
                                const std::string& frame) {
  return append_record(frame_payload('A', arrival, frame));
}

Status Journal::append_session(std::uint64_t arrival,
                               const std::string& frame) {
  return append_record(frame_payload('S', arrival, frame));
}

Status Journal::append_completed(std::uint64_t arrival) {
  std::string p;
  p.push_back('C');
  put_u64be(arrival, p);
  return append_record(p);
}

Status Journal::append_checkpoint() { return append_record("K"); }

Status Journal::compact(const std::string& state,
                        const std::vector<JournalRecord>& retained) {
  if (fd_ < 0) return Status(StatusCode::kIoError, "journal not open");
  if (failed_) {
    return Status(StatusCode::kIoError, "journal failed (torn write)");
  }
  std::string bytes(kMagic, sizeof(kMagic));
  encode_record("K" + state, bytes);  // leading checkpoint marks the compaction
  for (const JournalRecord& rec : retained)
    encode_record(record_payload(rec), bytes);

  const std::string tmp = cfg_.path + ".compact";
  const int tfd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (tfd < 0) return io_error("journal compact open " + tmp);
  Status s = write_all(tfd, bytes.data(), bytes.size());
  // fsync before the rename regardless of policy: the rename must never
  // become visible ahead of the bytes it points at.
  if (s.ok() && ::fsync(tfd) != 0) s = io_error("journal compact fsync");
  ::close(tfd);
  if (!s.ok()) {
    ::unlink(tmp.c_str());
    return s;
  }
  if (::rename(tmp.c_str(), cfg_.path.c_str()) != 0) {
    const Status r = io_error("journal compact rename " + cfg_.path);
    ::unlink(tmp.c_str());
    return r;
  }
  // The old fd now points at the unlinked file; reopen the compacted one
  // for further appends.
  ::close(fd_);
  fd_ = ::open(cfg_.path.c_str(), O_RDWR, 0644);
  if (fd_ < 0) return io_error("journal reopen " + cfg_.path);
  if (::lseek(fd_, 0, SEEK_END) < 0) return io_error("journal seek");
  since_sync_ = 0;
  return sync();
}

Status Journal::truncate_all() {
  if (fd_ < 0) return Status(StatusCode::kIoError, "journal not open");
  if (::ftruncate(fd_, static_cast<off_t>(sizeof(kMagic))) != 0) {
    return io_error("journal truncate " + cfg_.path);
  }
  if (::lseek(fd_, 0, SEEK_END) < 0) {
    return io_error("journal seek " + cfg_.path);
  }
  since_sync_ = 0;
  return sync();
}

Status Journal::sync() {
  if (fd_ < 0) return Status(StatusCode::kIoError, "journal not open");
  if (cfg_.fsync != JournalConfig::Fsync::kNone && ::fsync(fd_) != 0) {
    return io_error("journal fsync " + cfg_.path);
  }
  since_sync_ = 0;
  return Status::Ok();
}

void Journal::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  failed_ = false;
  appended_ = 0;
  since_sync_ = 0;
}

}  // namespace morph::serve
