// serve-mixed: the job server under a closed-loop read/write mix.
//
// An in-process serve::Server (pool 2, 2 workers, device host_workers 1)
// journals every admitted frame with fsync=always and checkpoint compaction
// on. One generator thread drives it over two connections with global
// arrival stamps. Each round is a burst of small stateless sp/pta/mst jobs
// with validate=true (the reads) plus one session-update on each of two
// sessions, one MST and one PTA (the writes); a flush ends the round, and
// the next round starts once every reply is in. This is the only workload
// where protocol, scheduler, journal, session and the incremental engines
// do most of the work. DMR jobs are left out on purpose: at ~0.15 s each
// they are simulator launch overhead, which dmr-fig already isolates.
//
// Sessions are re-opened every kEpochRounds rounds so their state, and with
// it the cost of an update, stays the same however many rounds a run gets
// through; the update streams cycle through kEpochStreams seeded epochs.
#include <unistd.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "harness.hpp"
#include "mst/incremental.hpp"
#include "mst/mst.hpp"
#include "pta/incremental.hpp"
#include "pta/solve.hpp"
#include "serve/client.hpp"
#include "serve/executor.hpp"
#include "serve/journal.hpp"
#include "serve/protocol.hpp"
#include "serve/scheduler.hpp"
#include "serve/server.hpp"

namespace morphbench {
namespace {

using namespace morph;
using serve::JobKind;
using serve::JobRequest;
using telemetry::Json;

constexpr std::uint32_t kPool = 2;
constexpr std::uint32_t kWorkers = 2;
constexpr std::uint32_t kDeviceHostWorkers = 1;
constexpr std::size_t kConnections = 2;
constexpr std::size_t kReadsPerRound = 8;
constexpr std::size_t kEpochRounds = 32;
constexpr std::size_t kEpochStreams = 4;
constexpr std::size_t kRowsPerUpdate = 8;
constexpr std::uint32_t kMstNodes = 256;
constexpr std::uint32_t kPtaVars = 128;
constexpr std::uint64_t kCheckpointEvery = 64;
constexpr std::uint32_t kGaloisWidth = 48;
/// Virtual arrival spacing: above the mean job estimate, so the admission
/// bucket drains and no read is ever turned away, however long the run.
constexpr double kArrivalGapCycles = 4e6;
// p99 of the job latency spread 25% across seeds on a shared 4-core host;
// p90 keeps hundreds of samples beyond it and spread under 10%.
constexpr double kTailQ = 0.9;
constexpr double kUpdateTailQ = 0.95;
constexpr double kReplyTimeoutS = 60.0;
/// The traced window probes one round in this many: a probe re-runs every
/// job of its round twice (host_workers 1 and 2), several times the round's
/// own cost.
constexpr std::size_t kProbeEvery = 4;

std::uint32_t priority_of(std::size_t j) {
  return static_cast<std::uint32_t>(2 + j % 3);
}

/// Stateless job specs per kind; sizes spread evenly over [lo, hi] and the
/// kinds interleave, so every round mixes sp, pta and mst jobs.
constexpr std::size_t kSpecsPerKind = 16;
struct KindRange {
  JobKind kind;
  std::uint64_t lo, hi;
};
constexpr std::array<KindRange, 3> kKinds = {{{JobKind::kSp, 40, 160},
                                             {JobKind::kPta, 60, 200},
                                             {JobKind::kMst, 120, 500}}};

/// Reference answer of one stateless spec, from a direct serve::run_job.
struct SpecRef {
  JobRequest req;
  std::string outputs, exec;  ///< compact JSON, compared byte for byte
  double cycles = 0;
  std::uint64_t launches = 0, warp_steps = 0;
  double galois_cycles = 0;  ///< Galois-48 baseline (pta/mst only)
  std::uint64_t pta_iterations = 0, pta_pts = 0, pta_edges = 0;  ///< pta
};

/// One session-update batch with the reply a local replay predicts.
struct UpdateRef {
  Json rows;
  std::string outputs, exec, digest;
  double cycles = 0;
};

struct Stream {
  std::vector<UpdateRef> mst, pta;
};

std::string hex(std::uint64_t d) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(d));
  return buf;
}

Json row_of(std::initializer_list<std::uint64_t> cells) {
  Json row = Json::array();
  for (std::uint64_t c : cells) row.push_back(Json(c));
  return row;
}

/// Seeded update batches for one epoch, MST edges kept unique and deletes
/// aimed at live edges (both would otherwise be typed errors), and the
/// replies a local apply_updates replay predicts for them.
Stream make_stream(std::uint64_t seed, const gpu::DeviceConfig& dev_cfg) {
  Stream out;
  std::uint64_t rng = seed;
  auto next = [&rng] { return rng = splitmix64(rng); };

  gpu::Device mdev(dev_cfg);
  mst::MstState ms = mst::make_mst_state(kMstNodes, {}, mdev);
  std::set<std::uint64_t> live_keys;
  std::vector<std::array<std::uint64_t, 3>> live;
  gpu::Device pdev(dev_cfg);
  pta::PtaState ps = pta::make_pta_state(kPtaVars);

  for (std::size_t r = 0; r < kEpochRounds; ++r) {
    UpdateRef m;
    m.rows = Json::array();
    std::vector<mst::EdgeUpdate> mbatch;
    for (std::size_t i = 0; i < kRowsPerUpdate; ++i) {
      if (!live.empty() && next() % 4 == 0) {
        const std::size_t at = next() % live.size();
        const auto e = live[at];
        live.erase(live.begin() + static_cast<long>(at));
        live_keys.erase(e[0] * kMstNodes + e[1]);
        m.rows.push_back(row_of({0, e[0], e[1], e[2]}));
        mbatch.push_back({false, static_cast<graph::Node>(e[0]),
                          static_cast<graph::Node>(e[1]),
                          static_cast<graph::Weight>(e[2])});
        continue;
      }
      std::uint64_t u = 0, v = 0;
      do {
        u = next() % kMstNodes;
        v = next() % kMstNodes;
        if (u == v) v = (v + 1) % kMstNodes;
        if (u > v) std::swap(u, v);
      } while (live_keys.count(u * kMstNodes + v) != 0);
      const std::uint64_t w = 1 + next() % 1000000;
      live_keys.insert(u * kMstNodes + v);
      live.push_back({u, v, w});
      m.rows.push_back(row_of({1, u, v, w}));
      mbatch.push_back({true, static_cast<graph::Node>(u),
                        static_cast<graph::Node>(v),
                        static_cast<graph::Weight>(w)});
    }
    const gpu::DeviceStats mbase = mdev.stats();
    const mst::MstResult res = mst::apply_updates(ms, mbatch, mdev);
    Json mo = Json::object();
    mo.set("total_weight", res.total_weight);
    mo.set("tree_edges", res.tree_edges);
    mo.set("components", static_cast<std::int64_t>(res.components));
    mo.set("rounds", res.rounds);
    mo.set("delta_edges", static_cast<std::uint64_t>(res.edges.size()));
    m.outputs = mo.dump();
    const gpu::DeviceStats md = mdev.stats().delta_since(mbase);
    m.exec = serve::JobExecStats::from_stats(md).to_json().dump();
    m.cycles = md.modeled_cycles;
    m.digest = hex(mst::state_digest(ms));
    out.mst.push_back(std::move(m));

    UpdateRef p;
    p.rows = Json::array();
    std::vector<pta::Constraint> pbatch;
    for (std::size_t i = 0; i < kRowsPerUpdate; ++i) {
      const std::uint64_t kind = next() % 4;
      const std::uint64_t dst = next() % kPtaVars;
      const std::uint64_t src = next() % kPtaVars;
      p.rows.push_back(row_of({kind, dst, src}));
      pbatch.push_back({static_cast<pta::ConstraintKind>(kind),
                        static_cast<pta::Var>(dst),
                        static_cast<pta::Var>(src)});
    }
    const gpu::DeviceStats pbase = pdev.stats();
    const pta::PtaDelta d = pta::apply_updates(ps, pbatch, pdev);
    Json po = Json::object();
    po.set("pts_total", d.pts_total);
    po.set("pts_added", d.pts_added);
    po.set("edges_added", d.edges_added);
    po.set("rounds", d.rounds);
    p.outputs = po.dump();
    const gpu::DeviceStats pd = pdev.stats().delta_since(pbase);
    p.exec = serve::JobExecStats::from_stats(pd).to_json().dump();
    p.cycles = pd.modeled_cycles;
    p.digest = hex(pta::state_digest(ps));
    out.pta.push_back(std::move(p));
  }
  return out;
}

/// What the generator expects back for one in-flight frame.
struct Pending {
  enum class What { kRead, kMstUpdate, kPtaUpdate, kOpened, kClosed } what;
  std::size_t index = 0;  ///< spec index (reads)
  std::string digest;     ///< expected digest (session frames)
  const UpdateRef* update = nullptr;
  Clock::time_point sent;
};

class ServeMixed final : public Workload {
 public:
  explicit ServeMixed(const Options& opt)
      : seed_(opt.seed), instance_(next_instance_++) {
    const std::string stem = opt.scratch_dir + "/mb-" +
                             std::to_string(::getpid()) + "-" +
                             std::to_string(instance_);
    socket_ = stem + ".sock";
    journal_ = stem + ".wal";
    probe_journal_ = stem + ".probe.wal";
    dev_cfg_.host_workers = kDeviceHostWorkers;
    sched_cfg_.pool = kPool;
    sched_cfg_.default_gap_cycles = kArrivalGapCycles;
  }

  ~ServeMixed() override { shutdown(); }

  void setup(RunCtx& ctx) override {
    make_references(ctx);
    for (std::size_t e = 0; e < kEpochStreams; ++e) {
      streams_.push_back(make_stream(splitmix64(seed_ * 7919 + e), dev_cfg_));
    }
    gpu::Device empty_dev(dev_cfg_);
    empty_mst_digest_ =
        hex(mst::state_digest(mst::make_mst_state(kMstNodes, {}, empty_dev)));
    empty_pta_digest_ = hex(pta::state_digest(pta::make_pta_state(kPtaVars)));

    std::error_code ec;
    std::filesystem::remove(journal_, ec);
    serve::ServerConfig cfg;
    cfg.socket_path = socket_;
    cfg.sched = sched_cfg_;
    cfg.device = dev_cfg_;
    cfg.workers = kWorkers;
    cfg.journal.path = journal_;
    cfg.journal.fsync = serve::JournalConfig::Fsync::kAlways;
    cfg.journal.checkpoint_every = kCheckpointEvery;
    server_ = std::make_unique<serve::Server>(cfg);
    const Status st = server_->start();
    if (!st.ok()) throw std::runtime_error("server start: " + st.to_string());
    for (std::size_t i = 0; i < kConnections; ++i) {
      auto c = std::make_unique<serve::Client>();
      const Status cs = c->connect(socket_);
      if (!cs.ok()) throw std::runtime_error("connect: " + cs.to_string());
      c->set_recv_timeout_ms(0);  // polled: one generator thread, two conns
      clients_.push_back(std::move(c));
    }
    open_sessions(ctx, 0);
    op(ctx);  // warm-up round
  }

  std::uint64_t op(RunCtx& ctx) override {
    auto root = ctx.tracer.span("serve.round");
    const std::size_t epoch = round_ / kEpochRounds;
    const std::size_t k = round_ % kEpochRounds;
    if (k == 0 && round_ > 0) {
      close_sessions(ctx, epoch - 1);
      open_sessions(ctx, epoch);
    }
    const Stream& stream = streams_[epoch % kEpochStreams];
    last_reads_.clear();
    read_latency_ms_.clear();
    for (std::size_t j = 0; j < kReadsPerRound; ++j) {
      const std::size_t idx = (round_ * kReadsPerRound + j) % refs_.size();
      JobRequest req = refs_[idx].req;
      req.id = next_id_++;
      req.priority = priority_of(j);
      pending_[req.id] = {Pending::What::kRead, idx, "", nullptr, Clock::now()};
      last_reads_.push_back({req.id, idx});
      auto s = ctx.tracer.span("client.submit");
      send(ctx, clients_[j % kConnections]->submit(req, next_arrival_++));
    }
    const UpdateRef& mu = stream.mst[k];
    const UpdateRef& pu = stream.pta[k];
    send_update(ctx, 0, "m" + std::to_string(epoch), mu,
                Pending::What::kMstUpdate);
    send_update(ctx, 1, "p" + std::to_string(epoch), pu,
                Pending::What::kPtaUpdate);
    {
      auto s = ctx.tracer.span("client.flush");
      send(ctx, clients_[0]->send_flush(next_arrival_++));
    }
    await(ctx);
    ++round_;
    return kReadsPerRound + 2;
  }

  /// Direct calls into the layers the round went through, on the round's
  /// own frames and batches: framing, scheduler admission, journal append
  /// and fsync on a scratch file, run_job, apply_updates, and device
  /// construction.
  void probe(RunCtx& ctx) override {
    if ((round_ - 1) % kProbeEvery != 0) return;
    Tracer& t = ctx.tracer;
    if (!stats_base_) {
      stats_base_ = true;
      base_records_ = journal_records();
      base_rounds_ = round_;
    }
    const std::size_t r = round_ - 1;
    const std::size_t epoch = r / kEpochRounds;
    const std::size_t k = r % kEpochRounds;
    const Stream& stream = streams_[epoch % kEpochStreams];

    struct Frame {
      bool session;
      Json msg;
      std::string text;
    };
    std::vector<Frame> frames;
    for (const auto& [id, idx] : last_reads_) {
      Json m = refs_[idx].req.to_json();
      m.set("id", id);
      m.set("arrival", id);
      frames.push_back({false, m, m.dump()});
    }
    for (const auto* u : {&stream.mst[k], &stream.pta[k]}) {
      Json m = Json::object();
      m.set("type", "session-update");
      m.set("id", next_id_);
      m.set("session", u == &stream.mst[k] ? "m" : "p");
      m.set("updates", u->rows);
      frames.push_back({true, m, m.dump()});
    }

    std::string wire;
    for (const Frame& f : frames) {
      auto s = t.span("protocol.encode_frame");
      wire += serve::encode_frame(f.msg);
    }
    {
      serve::FrameDecoder dec;
      dec.feed(wire.data(), wire.size());
      for (std::size_t i = 0; i < frames.size(); ++i) {
        auto s = t.span("protocol.decode_frame");
        Json msg;
        bool have = false;
        if (!dec.poll(&msg, &have).ok() || !have) {
          ctx.checks.fail("probe: FrameDecoder lost a frame");
        }
      }
    }

    {
      std::vector<std::pair<std::uint64_t, double>> seqs;
      for (std::size_t j = 0; j < last_reads_.size(); ++j) {
        const SpecRef& ref = refs_[last_reads_[j].second];
        auto s = t.span("scheduler.submit");
        const auto sub = probe_sched_.submit(
            ref.req.spec.kind, priority_of(j),
            serve::estimate_job_cycles(ref.req.spec));
        if (sub.accepted) seqs.push_back({sub.seq, ref.cycles});
      }
      probe_sched_.flush();
      for (const serve::SealedBatch& b : probe_sched_.take_runnable()) {
        std::vector<double> cycles;
        for (std::uint64_t seq : b.jobs) {
          for (const auto& [sq, c] : seqs) {
            if (sq == seq) cycles.push_back(c);
          }
        }
        probe_sched_.record_measured(b.id, cycles);
      }
      (void)probe_sched_.advance();
    }

    if (!probe_wal_.is_open()) {
      serve::JournalConfig jc;
      jc.path = probe_journal_;
      // Appends never fsync on their own; sync() always does, so the two
      // costs are timed apart.
      jc.fsync = serve::JournalConfig::Fsync::kInterval;
      jc.fsync_interval = ~std::uint64_t{0};
      if (!probe_wal_.open(jc).ok()) ctx.checks.fail("probe: journal open");
    }
    const auto before = file_size(probe_journal_);
    for (std::size_t i = 0; i < frames.size(); ++i) {
      auto s = t.span("journal.append");
      const Status st =
          frames[i].session ? probe_wal_.append_session(i, frames[i].text)
                            : probe_wal_.append_admitted(i, frames[i].text);
      if (!st.ok()) ctx.checks.fail("probe: journal append");
    }
    {
      auto s = t.span("journal.sync");
      if (!probe_wal_.sync().ok()) ctx.checks.fail("probe: journal sync");
    }
    journal_bytes_ += file_size(probe_journal_) - before;
    journal_frames_ += frames.size();

    gpu::DeviceConfig hw2 = dev_cfg_;
    hw2.host_workers = 2;
    for (const auto& [id, idx] : last_reads_) {
      const SpecRef& ref = refs_[idx];
      const auto t0 = Clock::now();
      serve::JobOutcome out;
      {
        auto s = t.span(span_name(ref.req.spec.kind));
        out = serve::run_job(ref.req, dev_cfg_);
      }
      const double exec_ms = seconds_since(t0) * 1e3;
      {
        auto s = t.span("serve.run_job.hw2");
        (void)serve::run_job(ref.req, hw2);
      }
      ctx.checks.expect(out.ok() && out.outputs.dump() == ref.outputs,
                        "probe: direct run_job disagrees with its reference");
      probe_launches_ += ref.launches;
      probe_warp_steps_ += ref.warp_steps;
      probe_pta_pts_ += ref.pta_pts;
      const auto lat = read_latency_ms_.find(id);
      if (lat != read_latency_ms_.end()) {
        overhead_ms_.add(lat->second - exec_ms);
      }
    }

    // Mirror the sessions up to this round, then time the round's batches.
    if (mirror_epoch_ != epoch || mirror_next_ != k) {
      mirror_dev_ = std::make_unique<gpu::Device>(dev_cfg_);
      mirror_mst_ = std::make_unique<mst::MstState>(
          mst::make_mst_state(kMstNodes, {}, *mirror_dev_));
      mirror_pta_ =
          std::make_unique<pta::PtaState>(pta::make_pta_state(kPtaVars));
      for (std::size_t i = 0; i < k; ++i) apply_mirror(ctx, stream, i, false);
      mirror_epoch_ = epoch;
    }
    apply_mirror(ctx, stream, k, true);
    mirror_next_ = k + 1;

    for (int i = 0; i < 4; ++i) {
      auto s = t.span("gpu.Device");
      gpu::Device dev(dev_cfg_);
    }
  }

  std::uint64_t min_ops() const override { return 1; }

  double tail_q() const override { return kTailQ; }

  void figures(const RunCtx& ctx, Figures* out) override {
    double gpu_ms = 0;
    std::vector<double> speedups;
    std::uint64_t launches = 0, warp_steps = 0;
    std::uint64_t pta_iterations = 0, pta_pts = 0, pta_edges = 0;
    for (const SpecRef& r : refs_) {
      gpu_ms += model_ms(r.cycles);
      launches += r.launches;
      warp_steps += r.warp_steps;
      pta_iterations += r.pta_iterations;
      pta_pts += r.pta_pts;
      pta_edges += r.pta_edges;
      if (r.galois_cycles > 0) speedups.push_back(r.galois_cycles / r.cycles);
    }
    for (const Stream& s : streams_) {
      for (const UpdateRef& u : s.mst) gpu_ms += model_ms(u.cycles);
      for (const UpdateRef& u : s.pta) gpu_ms += model_ms(u.cycles);
    }
    out->end_to_end = {
        {"gpu_model_ms", gpu_ms, "model-ms"},
        {"model_speedup_g48", geomean_of(speedups), "x"},
    };
    auto& l = out->layer;
    l["gpu.launches"] = static_cast<double>(launches);
    l["gpu.warp_steps"] = static_cast<double>(warp_steps);
    l["pta.iterations"] = static_cast<double>(pta_iterations);
    l["pta.pts_total"] = static_cast<double>(pta_pts);
    l["pta.edges_added"] = static_cast<double>(pta_edges);
    l["update_p50_ms"] = update_lat_.pct(0.5);
    l["update_tail_ms"] = update_lat_.pct(kUpdateTailQ);

    const Tracer& t = ctx.tracer;
    if (t.count("serve.round") == 0) return;
    auto mean_us = [&t](const char* name) {
      const auto n = t.count(name);
      return n ? t.total_s(name) / static_cast<double>(n) * 1e6 : 0.0;
    };
    l["serve.submit_us"] = mean_us("client.submit");
    l["serve.queue_model_ms"] = model_ms(queue_cycles_.mean());
    l["serve.batch_occupancy"] =
        batch_sizes_.mean() / static_cast<double>(sched_cfg_.batch_max);
    l["serve.exec_ms.sp"] = mean_us("serve.run_job.sp") / 1e3;
    l["serve.exec_ms.pta"] = mean_us("serve.run_job.pta") / 1e3;
    l["serve.exec_ms.mst"] = mean_us("serve.run_job.mst") / 1e3;
    l["serve.overhead_ms"] = overhead_ms_.pct(0.5);
    if (stats_base_ && round_ > base_rounds_) {
      l["serve.journal_records"] =
          static_cast<double>(journal_records() - base_records_) /
          static_cast<double>((round_ - base_rounds_) * (kReadsPerRound + 2));
    }
    l["journal.append_us"] = mean_us("journal.append");
    l["journal.sync_us"] = mean_us("journal.sync");
    if (journal_frames_ > 0) {
      l["journal.bytes_per_op"] =
          static_cast<double>(journal_bytes_) / journal_frames_;
    }
    l["protocol.encode_us"] = mean_us("protocol.encode_frame");
    l["protocol.decode_us"] = mean_us("protocol.decode_frame");
    l["scheduler.submit_us"] = mean_us("scheduler.submit");
    l["session.mst_apply_us"] = mean_us("session.apply_mst");
    l["session.pta_apply_us"] = mean_us("session.apply_pta");
    l["gpu.device_setup_us"] = mean_us("gpu.Device");
    const double exec_s = t.total_s("serve.run_job.sp") +
                          t.total_s("serve.run_job.pta") +
                          t.total_s("serve.run_job.mst");
    if (probe_launches_ > 0) {
      l["gpu.host_us_per_launch"] = exec_s / probe_launches_ * 1e6;
    }
    if (probe_warp_steps_ > 0) {
      l["gpu.host_ns_per_warp_step"] = exec_s / probe_warp_steps_ * 1e9;
    }
    if (probe_pta_pts_ > 0) {
      l["pta.ns_per_pts"] =
          t.total_s("serve.run_job.pta") / probe_pta_pts_ * 1e9;
    }
    const double hw2_s = t.total_s("serve.run_job.hw2");
    if (hw2_s > 0) l["gpu.hw2_speedup"] = exec_s / hw2_s;
  }

  /// Drains and stops the server, then removes its socket and journals.
  void shutdown() {
    if (server_) {
      if (!clients_.empty() && clients_[0]->connected()) {
        clients_[0]->set_recv_timeout_ms(30000);
        if (clients_[0]->send_shutdown().ok()) {
          Json msg;
          while (clients_[0]->next_message(&msg).ok()) {
            if (msg.at("type").as_string() == "bye") break;
          }
        }
      }
      server_->request_stop();
      server_->wait();
      clients_.clear();
      server_.reset();
    }
    probe_wal_.close();
    std::error_code ec;
    for (const std::string& p : {socket_, journal_, probe_journal_}) {
      std::filesystem::remove(p, ec);
    }
  }

  /// Corrupts the reference of the next round's first job.
  void corrupt_reference() override {
    refs_[round_ * kReadsPerRound % refs_.size()].outputs += " ";
  }

  std::vector<std::pair<std::string, std::uint64_t>> knobs() const override {
    return {{"server_pool", kPool},
            {"server_workers", kWorkers},
            {"gpu_host_workers", kDeviceHostWorkers},
            {"client_connections", kConnections},
            {"generator_threads", 1}};
  }

 private:
  static const char* span_name(JobKind k) {
    switch (k) {
      case JobKind::kSp: return "serve.run_job.sp";
      case JobKind::kPta: return "serve.run_job.pta";
      case JobKind::kMst: return "serve.run_job.mst";
      default: return "serve.run_job.other";
    }
  }

  static std::uint64_t file_size(const std::string& p) {
    std::error_code ec;
    const auto n = std::filesystem::file_size(p, ec);
    return ec ? 0 : static_cast<std::uint64_t>(n);
  }

  /// Direct run_job per spec (the byte-exact reference every served reply
  /// must equal) plus the Galois-48 baseline of the same input.
  void make_references(RunCtx& ctx) {
    for (std::size_t i = 0; i < kSpecsPerKind * kKinds.size(); ++i) {
      const KindRange& kr = kKinds[i % kKinds.size()];
      const std::size_t rank = (i / kKinds.size() * 7) % kSpecsPerKind;
      SpecRef ref;
      ref.req.spec.kind = kr.kind;
      ref.req.spec.size = kr.lo + (kr.hi - kr.lo) * rank / (kSpecsPerKind - 1);
      ref.req.spec.seed = 1 + splitmix64(seed_ * 100 + i) % 1000000007ull;
      ref.req.spec.validate = true;
      if (kr.kind == JobKind::kSp) {
        ref.req.spec.sweeps = 4;
        ref.req.spec.phases = 1;
      }
      const serve::JobOutcome out = serve::run_job(ref.req, dev_cfg_);
      ctx.checks.expect(out.ok(), "reference " + ref.req.spec.signature() +
                                      ": " + out.status.to_string());
      ref.outputs = out.outputs.dump();
      ref.exec = out.exec.to_json().dump();
      ref.cycles = out.exec.modeled_cycles;
      ref.launches = out.exec.launches;
      ref.warp_steps = out.exec.warp_steps;
      cpu::ParallelRunner runner({.workers = kGaloisWidth});
      const serve::JobSpec& sp = ref.req.spec;
      if (sp.kind == JobKind::kPta) {
        const pta::ConstraintSet cs = pta::synthetic_program(
            static_cast<std::uint32_t>(sp.size),
            static_cast<std::uint32_t>(serve::resolved_size2(sp)), sp.seed);
        pta::PtaStats st;
        (void)pta::solve_multicore(cs, runner, &st);
        ref.galois_cycles = st.modeled_cycles;
        const auto count = [&out](const char* key) {
          return static_cast<std::uint64_t>(out.outputs.at(key).as_int());
        };
        ref.pta_iterations = count("iterations");
        ref.pta_pts = count("pts_total");
        ref.pta_edges = count("edges_added");
      } else if (sp.kind == JobKind::kMst) {
        const auto n = static_cast<graph::Node>(sp.size);
        const auto g = graph::CsrGraph::from_undirected_edges(
            n, graph::gen_random_uniform(n, serve::resolved_size2(sp),
                                         1u << 16, sp.seed));
        ref.galois_cycles = mst::mst_union_find(g, runner).modeled_cycles;
      }
      refs_.push_back(std::move(ref));
    }
  }

  void send(RunCtx& ctx, const Status& s) {
    if (!s.ok()) {
      ctx.checks.fail("send: " + s.to_string());
      throw std::runtime_error("client send failed: " + s.to_string());
    }
  }

  void send_update(RunCtx& ctx, std::size_t conn, const std::string& session,
                   const UpdateRef& u, Pending::What what) {
    const std::uint64_t id = next_id_++;
    pending_[id] = {what, 0, u.digest, &u, Clock::now()};
    auto s = ctx.tracer.span("client.session_update");
    send(ctx, clients_[conn]->send_session_update(session, u.rows, id,
                                                  next_arrival_++));
  }

  void open_sessions(RunCtx& ctx, std::size_t epoch) {
    auto s = ctx.tracer.span("client.session_open");
    const std::string e = std::to_string(epoch);
    std::uint64_t id = next_id_++;
    pending_[id] = {Pending::What::kOpened, 0, empty_mst_digest_, nullptr,
                    Clock::now()};
    send(ctx, clients_[0]->send_session_open("m" + e, "mst", kMstNodes, id,
                                             next_arrival_++));
    id = next_id_++;
    pending_[id] = {Pending::What::kOpened, 0, empty_pta_digest_, nullptr,
                    Clock::now()};
    send(ctx, clients_[1]->send_session_open("p" + e, "pta", kPtaVars, id,
                                             next_arrival_++));
    await(ctx);
  }

  void close_sessions(RunCtx& ctx, std::size_t epoch) {
    auto s = ctx.tracer.span("client.session_close");
    const Stream& stream = streams_[epoch % kEpochStreams];
    const std::string e = std::to_string(epoch);
    std::uint64_t id = next_id_++;
    pending_[id] = {Pending::What::kClosed, 0, stream.mst.back().digest,
                    nullptr, Clock::now()};
    send(ctx, clients_[0]->send_session_close("m" + e, id, next_arrival_++));
    id = next_id_++;
    pending_[id] = {Pending::What::kClosed, 0, stream.pta.back().digest,
                    nullptr, Clock::now()};
    send(ctx, clients_[1]->send_session_close("p" + e, id, next_arrival_++));
    await(ctx);
  }

  /// Polls both connections until every pending frame has its reply.
  void await(RunCtx& ctx) {
    auto span = ctx.tracer.span("client.await_replies");
    const auto start = Clock::now();
    while (!pending_.empty()) {
      bool any = false;
      for (auto& c : clients_) {
        Json msg;
        const Status s = c->next_message(&msg);
        if (s.ok()) {
          on_reply(ctx, msg, Clock::now());
          any = true;
        } else if (s.code() != StatusCode::kTimeout) {
          ctx.checks.fail("connection lost: " + s.to_string());
          throw std::runtime_error("connection lost: " + s.to_string());
        }
      }
      if (any) continue;
      if (seconds_since(start) > kReplyTimeoutS) {
        ctx.checks.fail("replies missing after " +
                        std::to_string(kReplyTimeoutS) + " s");
        throw std::runtime_error("server stopped answering");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  }

  void on_reply(RunCtx& ctx, const Json& msg, Clock::time_point at) {
    const Json* idj = msg.find("id");
    const std::string type = msg.at("type").as_string();
    if (idj == nullptr || !idj->is_number()) {
      ctx.checks.fail("reply without id: " + msg.dump());
      return;
    }
    const auto id = static_cast<std::uint64_t>(idj->as_int());
    const auto it = pending_.find(id);
    if (it == pending_.end()) {
      ctx.checks.fail("unexpected reply: " + msg.dump());
      return;
    }
    const Pending p = it->second;
    pending_.erase(it);
    const double ms =
        std::chrono::duration<double>(at - p.sent).count() * 1e3;
    switch (p.what) {
      case Pending::What::kRead: {
        const SpecRef& ref = refs_[p.index];
        const bool ok = type == "result" &&
                        msg.at("status").as_string() == "ok" &&
                        msg.at("outputs").dump() == ref.outputs &&
                        msg.at("exec").dump() == ref.exec;
        if (!ctx.checks.expect(ok, "job " + ref.req.spec.signature() +
                                       " reply differs from run_job: " +
                                       msg.dump())) {
          return;
        }
        ctx.latency_ms.add(ms);
        if (ctx.traced_window) {
          read_latency_ms_[id] = ms;
          const Json& sv = msg.at("serve");
          batch_sizes_.add(sv.at("batch_size").as_double());
          queue_cycles_.add(sv.at("queue_cycles").as_double());
        }
        return;
      }
      case Pending::What::kMstUpdate:
      case Pending::What::kPtaUpdate: {
        const bool ok = type == "session-result" &&
                        msg.at("digest").as_string() == p.digest &&
                        msg.at("outputs").dump() == p.update->outputs &&
                        msg.at("exec").dump() == p.update->exec;
        if (ctx.checks.expect(ok, "session update differs from the local "
                                  "apply_updates replay: " +
                                      msg.dump()) &&
            ctx.traced_window) {
          update_lat_.add(ms);
        }
        return;
      }
      case Pending::What::kOpened:
      case Pending::What::kClosed: {
        const char* want = p.what == Pending::What::kOpened ? "session-opened"
                                                            : "session-closed";
        ctx.checks.expect(
            type == want && msg.at("digest").as_string() == p.digest,
            std::string(want) + " digest differs: " + msg.dump());
        return;
      }
    }
  }

  void apply_mirror(RunCtx& ctx, const Stream& stream, std::size_t k,
                    bool timed) {
    std::vector<mst::EdgeUpdate> mb;
    const Json& mrows = stream.mst[k].rows;
    for (std::size_t i = 0; i < mrows.size(); ++i) {
      const Json& row = mrows.at(i);
      mb.push_back({row.at(std::size_t{0}).as_int() == 1,
                    static_cast<graph::Node>(row.at(1).as_int()),
                    static_cast<graph::Node>(row.at(2).as_int()),
                    static_cast<graph::Weight>(row.at(3).as_int())});
    }
    std::vector<pta::Constraint> pb;
    const Json& prows = stream.pta[k].rows;
    for (std::size_t i = 0; i < prows.size(); ++i) {
      const Json& row = prows.at(i);
      pb.push_back({static_cast<pta::ConstraintKind>(
                        row.at(std::size_t{0}).as_int()),
                    static_cast<pta::Var>(row.at(1).as_int()),
                    static_cast<pta::Var>(row.at(2).as_int())});
    }
    Tracer* t = timed ? &ctx.tracer : nullptr;
    {
      Tracer::Scope s(t, "session.apply_mst");
      (void)mst::apply_updates(*mirror_mst_, mb, *mirror_dev_);
    }
    {
      Tracer::Scope s(t, "session.apply_pta");
      (void)pta::apply_updates(*mirror_pta_, pb, *mirror_dev_);
    }
  }

  std::uint64_t journal_records() {
    auto& c = *clients_[0];
    if (!c.send_stats().ok()) return 0;
    const auto start = Clock::now();
    Json msg;
    for (;;) {
      const Status s = c.next_message(&msg);
      if (s.ok() && msg.at("type").as_string() == "stats") break;
      if (!s.ok() && s.code() != StatusCode::kTimeout) return 0;
      if (seconds_since(start) > kReplyTimeoutS) return 0;
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    return static_cast<std::uint64_t>(msg.at("journal_records").as_int());
  }

  static inline int next_instance_ = 0;

  std::uint64_t seed_;
  int instance_;
  std::string socket_, journal_, probe_journal_;
  gpu::DeviceConfig dev_cfg_;
  serve::SchedulerConfig sched_cfg_;

  std::vector<SpecRef> refs_;
  std::vector<Stream> streams_;
  std::string empty_mst_digest_, empty_pta_digest_;

  std::unique_ptr<serve::Server> server_;
  std::vector<std::unique_ptr<serve::Client>> clients_;
  std::map<std::uint64_t, Pending> pending_;
  std::uint64_t next_id_ = 1;
  std::int64_t next_arrival_ = 0;
  std::size_t round_ = 0;

  // Traced window only.
  Samples update_lat_, batch_sizes_, queue_cycles_, overhead_ms_;

  // Traced-window probe state.
  std::vector<std::pair<std::uint64_t, std::size_t>> last_reads_;  // id, spec
  std::map<std::uint64_t, double> read_latency_ms_;
  serve::Scheduler probe_sched_{serve::SchedulerConfig{
      .pool = kPool, .default_gap_cycles = kArrivalGapCycles}};
  serve::Journal probe_wal_;
  std::uint64_t journal_bytes_ = 0, journal_frames_ = 0;
  std::uint64_t probe_launches_ = 0, probe_warp_steps_ = 0;
  std::uint64_t probe_pta_pts_ = 0;
  std::unique_ptr<gpu::Device> mirror_dev_;
  std::unique_ptr<mst::MstState> mirror_mst_;
  std::unique_ptr<pta::PtaState> mirror_pta_;
  std::size_t mirror_epoch_ = ~std::size_t{0};
  std::size_t mirror_next_ = 0;
  bool stats_base_ = false;
  std::uint64_t base_records_ = 0;
  std::size_t base_rounds_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_serve_mixed(const Options& opt) {
  return std::make_unique<ServeMixed>(opt);
}

}  // namespace morphbench
