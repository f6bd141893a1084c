// Session crash campaign for the morph job server (docs/SERVER.md,
// "Sessions" + "Durability & operations").
//
//   session_crash [--updates=24] [--rows=8] [--nodes=256] [--vars=128]
//                 [--seed=1] [--socket=PATH] [--journal=PATH]
//                 [--checkpoint-every=4] [--json=REPORT]
//
// One deterministic stream of session frames — open an mst session and a
// pta session, interleave update batches, close both — is first replayed
// against an uninterrupted journal-less server to record the reference
// reply bytes. Then, for each kill point, the same stream runs against a
// forked server child with a write-ahead journal (checkpoint compaction
// on): after N replies the child is SIGKILLed, a recovery child restarts
// from the journal, the client reconnects, resends the last answered frame
// with its original arrival stamp (the parked replay reply must be
// byte-identical), and streams the remainder. Every reply of every crash
// run must match the reference byte for byte — session state, exec-stats
// deltas, and digests all survive the kill exactly. Exits nonzero on any
// divergence, so tier1.sh can gate on it directly.
#include <unistd.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "server_process.hpp"
#include "support/check.hpp"
#include "telemetry/json.hpp"

namespace {

using morph::Status;
using morph::serve::Client;
using morph::serve::ServerConfig;
using morph::telemetry::Json;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4595bull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

enum class FrameKind { kOpen, kUpdate, kClose };

struct Frame {
  FrameKind kind;
  std::string session;
  std::string session_kind;  ///< "mst" / "pta", open frames only
  std::uint64_t count = 0;   ///< node / variable count, open frames only
  Json updates;              ///< update frames only
  std::uint64_t id = 0;
  std::int64_t arrival = 0;
};

Json mst_row(std::int64_t op, std::int64_t u, std::int64_t v,
             std::int64_t w) {
  Json row = Json::array();
  row.push_back(Json(op));
  row.push_back(Json(u));
  row.push_back(Json(v));
  row.push_back(Json(w));
  return row;
}

Json pta_row(std::int64_t kind, std::int64_t dst, std::int64_t src) {
  Json row = Json::array();
  row.push_back(Json(kind));
  row.push_back(Json(dst));
  row.push_back(Json(src));
  return row;
}

/// The whole campaign replays one frame list; determinism of the stream is
/// what makes "byte-identical to the reference run" a meaningful gate.
std::vector<Frame> build_frames(std::uint64_t updates, std::uint64_t rows,
                                std::uint64_t nodes, std::uint64_t vars,
                                std::uint64_t seed) {
  std::vector<Frame> frames;
  std::int64_t arrival = 0;
  std::uint64_t id = 1;
  frames.push_back({FrameKind::kOpen, "m", "mst", nodes, Json(), id++,
                    arrival++});
  frames.push_back({FrameKind::kOpen, "p", "pta", vars, Json(), id++,
                    arrival++});

  std::uint64_t rng = seed;
  auto next = [&rng]() { return rng = splitmix64(rng); };
  // Live mst edges so deletes always target an existing edge and inserts
  // never duplicate one (both would be typed errors, not crash fodder).
  std::set<std::uint64_t> live_keys;
  std::vector<std::array<std::int64_t, 3>> live_edges;
  for (std::uint64_t b = 0; b < updates; ++b) {
    const bool mst = b % 2 == 0;
    Frame f{FrameKind::kUpdate, mst ? "m" : "p", "", 0, Json::array(), id++,
            arrival++};
    if (mst) {
      for (std::uint64_t r = 0; r < rows; ++r) {
        const bool del = !live_edges.empty() && next() % 4 == 0;
        if (del) {
          const std::size_t at = next() % live_edges.size();
          const auto e = live_edges[at];
          live_edges.erase(live_edges.begin() + static_cast<long>(at));
          live_keys.erase(static_cast<std::uint64_t>(e[0]) * nodes +
                          static_cast<std::uint64_t>(e[1]));
          f.updates.push_back(mst_row(0, e[0], e[1], e[2]));
          continue;
        }
        std::int64_t u = 0, v = 0;
        std::uint64_t key = 0;
        do {
          u = static_cast<std::int64_t>(next() % nodes);
          v = static_cast<std::int64_t>(next() % nodes);
          if (u == v) v = (v + 1) % static_cast<std::int64_t>(nodes);
          const std::int64_t lo = u < v ? u : v;
          const std::int64_t hi = u < v ? v : u;
          key = static_cast<std::uint64_t>(lo) * nodes +
                static_cast<std::uint64_t>(hi);
          u = lo;
          v = hi;
        } while (live_keys.count(key) != 0);
        const std::int64_t w =
            1 + static_cast<std::int64_t>(next() % 1000000);
        live_keys.insert(key);
        live_edges.push_back({u, v, w});
        f.updates.push_back(mst_row(1, u, v, w));
      }
    } else {
      for (std::uint64_t r = 0; r < rows; ++r) {
        const auto kind = static_cast<std::int64_t>(next() % 4);
        const auto dst = static_cast<std::int64_t>(next() % vars);
        const auto src = static_cast<std::int64_t>(next() % vars);
        f.updates.push_back(pta_row(kind, dst, src));
      }
    }
    frames.push_back(std::move(f));
  }
  frames.push_back(
      {FrameKind::kClose, "m", "", 0, Json(), id++, arrival++});
  frames.push_back(
      {FrameKind::kClose, "p", "", 0, Json(), id++, arrival++});
  return frames;
}

Status send_frame(Client& c, const Frame& f) {
  switch (f.kind) {
    case FrameKind::kOpen:
      return c.send_session_open(f.session, f.session_kind, f.count, f.id,
                                 f.arrival);
    case FrameKind::kUpdate:
      return c.send_session_update(f.session, f.updates, f.id, f.arrival);
    case FrameKind::kClose:
      return c.send_session_close(f.session, f.id, f.arrival);
  }
  return Status(morph::StatusCode::kBadRequest, "unreachable");
}

struct RunResult {
  bool ok = false;
  std::map<std::uint64_t, std::string> replies;  ///< id -> reply dump
  std::int64_t recoveries = 0;
  std::int64_t recovered_sessions = 0;
  std::int64_t compactions = 0;
};

/// Streams the frames serially (send, wait for the reply, record it by id).
/// kill_after > 0 SIGKILLs the child after that many replies, restarts it
/// on the same journal, and replays the last answered frame first — the
/// parked reply must come back byte-identical before the stream continues.
RunResult run_campaign(const ServerConfig& cfg,
                       const std::vector<Frame>& frames,
                       std::uint64_t kill_after) {
  RunResult out;
  morph::bench::ServerProcess server(cfg);
  if (!server.start()) {
    std::cerr << "error: failed to start server child\n";
    return out;
  }
  Client c;
  if (!c.connect(cfg.socket_path).ok()) {
    std::cerr << "error: connect failed\n";
    return out;
  }

  std::uint64_t replies = 0;
  bool killed = false;
  auto ask = [&](const Frame& f, std::string* dump) -> bool {
    if (!send_frame(c, f).ok()) return false;
    Json msg;
    if (!c.next_message(&msg).ok()) return false;
    if (msg.at("type").as_string() == "error") {
      std::cerr << "error reply for id " << f.id << ": " << msg.dump()
                << "\n";
      return false;
    }
    *dump = msg.dump();
    return true;
  };

  for (std::size_t i = 0; i < frames.size(); ++i) {
    std::string dump;
    if (!ask(frames[i], &dump)) {
      std::cerr << "error: frame id " << frames[i].id << " failed\n";
      return out;
    }
    out.replies[frames[i].id] = dump;
    ++replies;

    if (!killed && kill_after > 0 && replies >= kill_after) {
      killed = true;
      if (!server.restart()) {
        std::cerr << "error: recovery child failed to start\n";
        return out;
      }
      c.close();
      if (!c.connect(cfg.socket_path).ok()) {
        std::cerr << "error: reconnect after crash failed\n";
        return out;
      }
      // The already-answered frame, resent with its original stamp: the
      // recovered server must serve the parked replay reply byte for byte.
      std::string replay;
      if (!ask(frames[i], &replay) || replay != dump) {
        std::cerr << "error: replay reply diverged after crash (id "
                  << frames[i].id << ")\n  pre-crash: " << dump
                  << "\n  replayed:  " << replay << "\n";
        return out;
      }
    }
  }

  Json st;
  if (c.send_stats().ok() && c.next_message(&st).ok()) {
    out.recoveries = st.at("recoveries").as_int();
    out.recovered_sessions = st.at("recovered_sessions").as_int();
    if (const Json* k = st.find("compactions")) out.compactions = k->as_int();
  }
  (void)c.send_shutdown();
  Json bye;
  (void)c.next_message(&bye);
  server.reap();
  out.ok = true;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  return morph::bench::guarded_main([&]() -> int {
    morph::bench::Bench bench(
        argc, argv, "session_crash — session durability campaign",
        "incremental recompute sessions under SIGKILL (docs/SERVER.md)",
        {"updates", "rows", "nodes", "vars", "seed", "socket", "journal",
         "checkpoint-every"});
    auto& args = bench.args();
    const auto updates =
        static_cast<std::uint64_t>(args.get_positive_int("updates", 24));
    const auto rows =
        static_cast<std::uint64_t>(args.get_positive_int("rows", 8));
    const auto nodes =
        static_cast<std::uint64_t>(args.get_positive_int("nodes", 256));
    const auto vars =
        static_cast<std::uint64_t>(args.get_positive_int("vars", 128));
    const auto seed =
        static_cast<std::uint64_t>(args.get_positive_int("seed", 1));
    const std::string base = "/tmp/morph_session_crash_" +
                             std::to_string(::getpid());
    const std::string socket = args.get("socket", base + ".sock");
    const std::string journal = args.get("journal", base + ".wal");
    const auto checkpoint_every = static_cast<std::uint64_t>(
        args.get_int_at_least("checkpoint-every", 0, 4));

    const std::vector<Frame> frames =
        build_frames(updates, rows, nodes, vars, seed);

    // Reference: the same stream, uninterrupted, with no journal at all —
    // durability machinery must not change a single reply byte.
    ServerConfig ref_cfg;
    ref_cfg.socket_path = socket + ".ref";
    const RunResult ref = run_campaign(ref_cfg, frames, /*kill_after=*/0);
    if (!ref.ok) {
      std::cerr << "FAIL: reference run failed\n";
      return 1;
    }

    // Kill points: right after the first open (recovery rebuilds a session
    // that never saw an update), mid-stream (checkpoints + journal tail),
    // and after the last update (recovery straddles the close frames).
    const std::uint64_t total = static_cast<std::uint64_t>(frames.size());
    const std::vector<std::uint64_t> kills = {1, total / 2, total - 2};

    bool ok = true;
    for (const std::uint64_t kill_after : kills) {
      ::unlink(journal.c_str());
      ServerConfig cfg;
      cfg.socket_path = socket;
      cfg.journal.path = journal;
      cfg.journal.checkpoint_every = checkpoint_every;
      const RunResult got = run_campaign(cfg, frames, kill_after);
      std::uint64_t divergent = 0;
      if (!got.ok) {
        ok = false;
        std::cerr << "FAIL: crash run (kill after " << kill_after
                  << " replies) did not complete\n";
      } else {
        for (const auto& [id, dump] : ref.replies) {
          auto it = got.replies.find(id);
          if (it == got.replies.end() || it->second != dump) {
            ++divergent;
            ok = false;
            std::cerr << "FAIL: reply for id " << id
                      << " diverged (kill after " << kill_after << ")\n";
          }
        }
        if (got.recoveries != 1) {
          ok = false;
          std::cerr << "FAIL: expected exactly 1 recovery, got "
                    << got.recoveries << " (kill after " << kill_after
                    << ")\n";
        }
      }
      std::cout << "kill after " << kill_after << " replies: "
                << (got.ok && divergent == 0 ? "byte-identical" : "DIVERGED")
                << " (" << ref.replies.size() << " replies, "
                << got.recovered_sessions << " sessions recovered, "
                << got.compactions << " compactions)\n";
      bench.add_row("kill_after_" + std::to_string(kill_after))
          .metric("replies", static_cast<double>(ref.replies.size()))
          .metric("divergent", static_cast<double>(divergent))
          .metric("recovered_sessions",
                  static_cast<double>(got.recovered_sessions))
          .metric("compactions", static_cast<double>(got.compactions));
    }
    ::unlink(journal.c_str());

    std::cout << (ok ? "PASS: every reply byte-identical across all kill "
                       "points\n"
                     : "FAIL: session crash campaign diverged\n");
    const int rc = bench.finish();
    return ok ? rc : (rc != 0 ? rc : 1);
  });
}
