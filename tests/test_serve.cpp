// Tests for the morph job server (src/serve): scheduler decision rules,
// admission control, batching compatibility, executor determinism and
// isolation, the wire protocol, and the end-to-end socket path.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "gpu/config.hpp"
#include "gpu/device.hpp"
#include "gpu/stats.hpp"
#include "mst/incremental.hpp"
#include "pta/incremental.hpp"
#include "resilience/fault.hpp"
#include "serve/client.hpp"
#include "serve/executor.hpp"
#include "serve/job.hpp"
#include "serve/journal.hpp"
#include "serve/protocol.hpp"
#include "serve/scheduler.hpp"
#include "serve/server.hpp"
#include "telemetry/bench_report.hpp"
#include "telemetry/report_diff.hpp"
#include "telemetry/trace.hpp"

namespace {

using morph::Status;
using morph::StatusCode;
using morph::serve::JobKind;
using morph::serve::JobOutcome;
using morph::serve::JobPlacement;
using morph::serve::JobRequest;
using morph::serve::JobSpec;
using morph::serve::Journal;
using morph::serve::JournalConfig;
using morph::serve::JournalRecord;
using morph::serve::JournalScan;
using morph::serve::Scheduler;
using morph::serve::SchedulerConfig;
using morph::serve::SealedBatch;
using morph::telemetry::Json;

/// Lower-case hex of raw bytes, for pinning encoded records and blobs.
std::string hex_bytes(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out += kDigits[b >> 4];
    out += kDigits[b & 0xFu];
  }
  return out;
}

// --- scheduler -------------------------------------------------------------

SchedulerConfig small_sched() {
  SchedulerConfig cfg;
  cfg.pool = 1;
  cfg.batch_max = 4;
  cfg.batch_linger = 100;
  cfg.dispatch_cycles = 10.0;
  return cfg;
}

/// Submits, seals (flush), records `cycles` for every batch, and returns all
/// placements — the standard drive-to-completion helper.
std::vector<JobPlacement> drain(Scheduler& s, double cycles = 100.0) {
  s.flush();
  std::vector<JobPlacement> out;
  for (const SealedBatch& b : s.take_runnable()) {
    s.record_measured(b.id, std::vector<double>(b.jobs.size(), cycles));
  }
  for (const JobPlacement& p : s.advance()) out.push_back(p);
  return out;
}

TEST(Scheduler, BatchesCompatibleSmallJobs) {
  Scheduler s(small_sched());
  // Same kind, same priority: one batch until batch_max.
  for (int i = 0; i < 4; ++i) {
    auto sub = s.submit(JobKind::kSp, 3, 100.0);
    ASSERT_TRUE(sub.accepted);
  }
  auto batches = s.take_runnable();
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].jobs.size(), 4u);
  EXPECT_EQ(batches[0].priority, 3u);
}

TEST(Scheduler, DifferentKindOrPriorityNeverShareABatch) {
  Scheduler s(small_sched());
  s.submit(JobKind::kSp, 3, 100.0);
  s.submit(JobKind::kDmr, 3, 100.0);  // different kind
  s.submit(JobKind::kSp, 2, 100.0);   // different priority
  s.flush();
  const auto batches = s.take_runnable();
  ASSERT_EQ(batches.size(), 3u);
  for (const auto& b : batches) EXPECT_EQ(b.jobs.size(), 1u);
}

TEST(Scheduler, LargeJobSealsAsSingletonImmediately) {
  auto cfg = small_sched();
  cfg.small_job_cycles = 1000.0;
  Scheduler s(cfg);
  s.submit(JobKind::kMst, 3, 500.0);     // small: stays open
  s.submit(JobKind::kMst, 3, 5000.0);    // large: instant singleton
  auto batches = s.take_runnable();
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].jobs.size(), 1u);
  EXPECT_EQ(batches[0].jobs[0], 1u);  // the large job, not the small one
}

TEST(Scheduler, LingerSealsAnAgingOpenBatch) {
  auto cfg = small_sched();
  cfg.batch_linger = 3;
  Scheduler s(cfg);
  s.submit(JobKind::kSp, 3, 100.0);       // seq 0 opens the batch
  s.submit(JobKind::kDmr, 3, 100.0);      // unrelated arrivals age it
  s.submit(JobKind::kDmr, 3, 100.0);
  EXPECT_EQ(s.take_runnable().size(), 0u);
  s.submit(JobKind::kDmr, 3, 100.0);      // seq 3: linger expires
  const auto batches = s.take_runnable();
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].jobs, std::vector<std::uint64_t>{0});
}

TEST(Scheduler, RejectsJobsOverThePerJobCap) {
  auto cfg = small_sched();
  cfg.max_job_cycles = 1000.0;
  Scheduler s(cfg);
  EXPECT_TRUE(s.submit(JobKind::kSp, 3, 999.0).accepted);
  const auto sub = s.submit(JobKind::kSp, 3, 1001.0);
  EXPECT_FALSE(sub.accepted);
  EXPECT_EQ(sub.reject.code(), StatusCode::kAdmissionRejected);
  EXPECT_EQ(s.admitted(), 1u);
  EXPECT_EQ(s.rejected(), 1u);
}

TEST(Scheduler, LeakyBucketRejectsWhenFullAndReadmitsAfterDraining) {
  auto cfg = small_sched();
  cfg.queue_cap_cycles = 1000.0;
  cfg.drain_rate = 1.0;
  Scheduler s(cfg);
  EXPECT_TRUE(s.submit(JobKind::kSp, 3, 600.0, 0.0).accepted);
  EXPECT_TRUE(s.submit(JobKind::kSp, 3, 400.0, 0.0).accepted);
  // Bucket is at 1000: the next job at the same virtual time is turned away.
  const auto rej = s.submit(JobKind::kSp, 3, 1.0, 0.0);
  EXPECT_FALSE(rej.accepted);
  EXPECT_EQ(rej.reject.code(), StatusCode::kAdmissionRejected);
  // 500 virtual cycles later half the backlog has drained.
  EXPECT_TRUE(s.submit(JobKind::kSp, 3, 400.0, 500.0).accepted);
  EXPECT_FALSE(s.submit(JobKind::kSp, 3, 200.0, 500.0).accepted);
}

TEST(Scheduler, HigherPriorityBatchDispatchesFirst) {
  auto cfg = small_sched();
  cfg.batch_max = 2;
  Scheduler s(cfg);
  // Two background jobs, then two urgent ones; all runnable at flush time.
  s.submit(JobKind::kSp, 7, 100.0);
  s.submit(JobKind::kSp, 7, 100.0);
  s.submit(JobKind::kDmr, 0, 100.0);
  s.submit(JobKind::kDmr, 0, 100.0);
  const auto placements = drain(s);
  ASSERT_EQ(placements.size(), 4u);
  // Urgent (priority 0) jobs place before the background batch.
  EXPECT_EQ(placements[0].seq, 2u);
  EXPECT_EQ(placements[1].seq, 3u);
  EXPECT_EQ(placements[2].seq, 0u);
  EXPECT_EQ(placements[3].seq, 1u);
  EXPECT_LT(placements[0].start_cycles, placements[2].start_cycles);
}

TEST(Scheduler, PlacementStallsUntilMeasuredCyclesArrive) {
  Scheduler s(small_sched());
  s.submit(JobKind::kSp, 3, 100.0);
  s.flush();
  const auto batches = s.take_runnable();
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_TRUE(s.advance().empty());  // no measurement yet
  s.record_measured(batches[0].id, {42.0});
  const auto placements = s.advance();
  ASSERT_EQ(placements.size(), 1u);
  EXPECT_EQ(placements[0].queue_cycles, 0.0);
  EXPECT_EQ(placements[0].end_cycles,
            small_sched().dispatch_cycles + 42.0);
}

TEST(Scheduler, BatchCompositionIsPoolSizeIndependent) {
  std::string first_shape;
  for (std::uint32_t pool : {1u, 3u}) {
    auto cfg = small_sched();
    cfg.pool = pool;
    Scheduler s(cfg);
    for (int i = 0; i < 10; ++i) {
      s.submit(i % 2 == 0 ? JobKind::kSp : JobKind::kMst,
               static_cast<std::uint32_t>(i % 3), 100.0);
    }
    s.flush();
    std::string shape;
    for (const auto& b : s.take_runnable()) {
      shape += std::to_string(b.priority) + ":";
      for (auto j : b.jobs) shape += std::to_string(j) + ",";
      shape += ";";
    }
    if (pool == 1) {
      first_shape = shape;
    } else {
      EXPECT_EQ(shape, first_shape);
    }
  }
}

TEST(Scheduler, ReplayIsByteIdenticalAtFixedPool) {
  auto run = [] {
    auto cfg = small_sched();
    cfg.pool = 2;
    Scheduler s(cfg);
    for (int i = 0; i < 12; ++i) {
      s.submit(i % 2 == 0 ? JobKind::kSp : JobKind::kPta,
               static_cast<std::uint32_t>((i * 5) % 8), 100.0 + i);
    }
    std::string repr;
    for (const auto& p : drain(s, 77.0)) {
      repr += std::to_string(p.seq) + "/" + std::to_string(p.slot) + "/" +
              std::to_string(p.start_cycles) + ";";
    }
    return repr;
  };
  EXPECT_EQ(run(), run());
}

TEST(Scheduler, EmissionWaitsForFlushWhenArrivalsMayStillCompete) {
  Scheduler s(small_sched());
  const auto sub = s.submit(JobKind::kSp, 3, 100.0, 0.0);
  ASSERT_TRUE(sub.accepted);
  // Fill the batch so it seals without a flush.
  for (int i = 0; i < 3; ++i) s.submit(JobKind::kSp, 3, 100.0, 0.0);
  for (const auto& b : s.take_runnable()) {
    s.record_measured(b.id, std::vector<double>(b.jobs.size(), 10.0));
  }
  // Placement would be at t=0 == latest arrival: a competing higher-priority
  // batch could still arrive at 0, so nothing may be emitted yet.
  EXPECT_TRUE(s.advance().empty());
  s.flush();
  EXPECT_EQ(s.advance().size(), 4u);
}

TEST(Scheduler, DeadlineRejectsWhenBacklogOutrunsIt) {
  auto cfg = small_sched();
  cfg.queue_cap_cycles = 1e9;
  cfg.drain_rate = 1.0;
  Scheduler s(cfg);
  ASSERT_TRUE(s.submit(JobKind::kSp, 3, 500.0, 0.0).accepted);
  // 500 backlog cycles drain at 1 cycle/cycle: a 100-cycle deadline cannot
  // be met, and the refusal is typed (not a generic admission reject).
  const auto rej = s.submit(JobKind::kSp, 3, 10.0, 0.0, /*deadline=*/100.0);
  EXPECT_FALSE(rej.accepted);
  EXPECT_EQ(rej.reject.code(), StatusCode::kDeadlineExceeded);
  // A deadline the backlog fits inside is admitted, and no deadline at all
  // never triggers the check.
  EXPECT_TRUE(s.submit(JobKind::kSp, 3, 10.0, 0.0, 1000.0).accepted);
  EXPECT_TRUE(s.submit(JobKind::kSp, 3, 10.0, 0.0).accepted);
  EXPECT_EQ(s.deadline_rejected(), 1u);
  EXPECT_EQ(s.rejected(), 0u);  // deadline misses are counted separately
}

TEST(Scheduler, CancelCatchesOpenBatchesOnlyAndRefundsTheBucket) {
  auto cfg = small_sched();
  cfg.queue_cap_cycles = 1000.0;
  cfg.drain_rate = 1.0;
  Scheduler s(cfg);
  const auto a = s.submit(JobKind::kSp, 3, 900.0, 0.0);
  ASSERT_TRUE(a.accepted);
  EXPECT_TRUE(s.cancel(a.seq));
  EXPECT_EQ(s.cancelled(), 1u);
  // The refund releases the room the cancelled job was holding: another
  // 900-cycle job at the same virtual instant fits again.
  const auto b = s.submit(JobKind::kSp, 3, 900.0, 0.0);
  ASSERT_TRUE(b.accepted);
  // Only the live job places; the cancelled one is gone without a trace.
  const auto placements = drain(s);
  ASSERT_EQ(placements.size(), 1u);
  EXPECT_EQ(placements[0].seq, b.seq);
  // A sealed job is past the point of no return.
  const auto c = s.submit(JobKind::kSp, 3, 10.0, 2000.0);
  ASSERT_TRUE(c.accepted);
  s.flush();
  EXPECT_FALSE(s.cancel(c.seq));
  EXPECT_EQ(s.cancelled(), 1u);
}

TEST(Scheduler, CancelAfterPartialDrainRefundsOnlyTheRemainder) {
  // Regression guard for the deposit-refund bug: cancelling a job whose
  // bucket deposit was already partially drained must refund only the
  // *undrained remainder*, not the full estimate — a full refund would also
  // remove cycles other live jobs deposited and let the bucket over-admit.
  auto cfg = small_sched();
  cfg.queue_cap_cycles = 1000.0;
  cfg.drain_rate = 1.0;
  Scheduler s(cfg);
  const auto a = s.submit(JobKind::kSp, 3, 600.0, 0.0);
  ASSERT_TRUE(a.accepted);
  // 300 virtual cycles later 300 of A's deposit has drained (FIFO): bucket
  // holds A's remainder 300 + B's 400 = 700.
  const auto b = s.submit(JobKind::kSp, 3, 400.0, 300.0);
  ASSERT_TRUE(b.accepted);
  EXPECT_TRUE(s.cancel(a.seq));
  // Correct refund: 700 - 300 = 400. The buggy full-estimate refund would
  // leave 100 and wrongly admit the 601-cycle probe below.
  EXPECT_FALSE(s.submit(JobKind::kSp, 3, 601.0, 300.0).accepted);
  EXPECT_TRUE(s.submit(JobKind::kSp, 3, 600.0, 300.0).accepted);
}

TEST(Scheduler, CheckpointBlobRoundTripsAtQuiescence) {
  auto cfg = small_sched();
  cfg.queue_cap_cycles = 10000.0;
  cfg.drain_rate = 1.0;
  Scheduler a(cfg);
  ASSERT_TRUE(a.submit(JobKind::kSp, 3, 100.0, 0.0).accepted);
  ASSERT_TRUE(a.submit(JobKind::kSp, 3, 100.0, 0.0).accepted);
  drain(a);  // place everything: quiescent, but counters + bucket are live
  const std::string blob = a.checkpoint_blob();
  // The blob is persisted in journal 'K' records: its encoding is pinned.
  EXPECT_EQ(hex_bytes(blob),
            "0000000000000002000000000000000100000000000000010000000000000002"
            "0000000000000002000000000000000000000000000000000000000000000000"
            "0000000000000000406900000000000000000000000000010000000000000001"
            "406a400000000000000000000000000200000000000000004059000000000000"
            "00000000000000014059000000000000");

  Scheduler b(cfg);
  ASSERT_TRUE(b.restore_blob(blob));
  EXPECT_EQ(b.checkpoint_blob(), blob);
  // The restored scheduler continues the epoch: identical decisions and
  // placements for an identical suffix of submissions.
  auto drive = [](Scheduler& s) {
    std::string repr;
    auto sub = s.submit(JobKind::kDmr, 2, 150.0, 400.0);
    repr += sub.accepted ? "A" : "R";
    for (const JobPlacement& p : drain(s)) {
      repr += '|';
      repr += std::to_string(p.seq) + "," + std::to_string(p.batch) + "," +
              std::to_string(p.slot) + "," +
              std::to_string(p.start_cycles) + "," +
              std::to_string(p.end_cycles);
    }
    return repr;
  };
  Scheduler ref(cfg);
  ASSERT_TRUE(ref.submit(JobKind::kSp, 3, 100.0, 0.0).accepted);
  ASSERT_TRUE(ref.submit(JobKind::kSp, 3, 100.0, 0.0).accepted);
  drain(ref);
  EXPECT_EQ(drive(b), drive(ref));

  // A pool resize invalidates the snapshot instead of corrupting it.
  auto resized = cfg;
  resized.pool = 2;
  Scheduler c(resized);
  EXPECT_FALSE(c.restore_blob(blob));
  Scheduler d(cfg);
  EXPECT_FALSE(d.restore_blob(blob + "x"));  // trailing bytes
  EXPECT_FALSE(d.restore_blob("short"));
}

// --- executor --------------------------------------------------------------

JobRequest small_job(JobKind kind, std::uint64_t seed = 7) {
  JobRequest req;
  req.spec.kind = kind;
  req.spec.size = kind == JobKind::kDmr ? 60 : 80;
  req.spec.sweeps = 3;
  req.spec.phases = 1;
  req.spec.seed = seed;
  req.spec.validate = true;
  return req;
}

std::string outcome_repr(const JobOutcome& out) {
  return std::string(morph::status_code_name(out.status.code())) + "|" +
         out.outputs.dump() + "|" + out.exec.to_json().dump();
}

TEST(Executor, ResultsAreHostWorkerIndependent) {
  for (JobKind kind :
       {JobKind::kDmr, JobKind::kSp, JobKind::kPta, JobKind::kMst}) {
    morph::gpu::DeviceConfig hw1;
    hw1.host_workers = 1;
    morph::gpu::DeviceConfig hw4;
    hw4.host_workers = 4;
    const JobOutcome a = morph::serve::run_job(small_job(kind), hw1);
    const JobOutcome b = morph::serve::run_job(small_job(kind), hw4);
    EXPECT_TRUE(a.ok()) << outcome_repr(a);
    EXPECT_EQ(outcome_repr(a), outcome_repr(b))
        << "kind " << morph::serve::job_kind_name(kind);
  }
}

TEST(Executor, FaultedJobFailsAloneWithTypedStatus) {
  morph::gpu::DeviceConfig cfg;
  JobRequest faulted = small_job(JobKind::kMst);
  faulted.faults = "launch@1x64";  // exhausts the launch-retry ladder
  const JobOutcome bad = morph::serve::run_job(faulted, cfg);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status.code(), StatusCode::kRetriesExhausted);
  EXPECT_GT(bad.exec.faults_injected, 0u);

  // The identical spec without the campaign is untouched — and a run after
  // the faulted one is byte-identical to a run before it (fresh devices).
  const JobOutcome good = morph::serve::run_job(small_job(JobKind::kMst), cfg);
  EXPECT_TRUE(good.ok());
  const JobOutcome again = morph::serve::run_job(small_job(JobKind::kMst), cfg);
  EXPECT_EQ(outcome_repr(good), outcome_repr(again));
}

TEST(Executor, BadFaultSpecIsATypedPerJobFailure) {
  JobRequest req = small_job(JobKind::kSp);
  req.faults = "nonsense@@";
  const JobOutcome out = morph::serve::run_job(req, {});
  EXPECT_EQ(out.status.code(), StatusCode::kBadFaultSpec);
}

TEST(Executor, ServerBaseSinksNeverLeakIntoJobs) {
  morph::telemetry::TraceSink sink;
  morph::gpu::DeviceConfig cfg;
  cfg.trace = &sink;  // a server-wide sink a job must not inherit
  JobRequest req = small_job(JobKind::kSp);
  req.trace = false;
  const JobOutcome out = morph::serve::run_job(req, cfg);
  EXPECT_TRUE(out.ok());
  EXPECT_EQ(sink.merged().size(), 0u);
  EXPECT_EQ(out.trace_events, 0u);

  req.trace = true;  // per-job sink, counted per job
  const JobOutcome traced = morph::serve::run_job(req, cfg);
  EXPECT_GT(traced.trace_events, 0u);
  EXPECT_EQ(sink.merged().size(), 0u);
}

TEST(Executor, QuarantinePoolFlagsRepeatOffendersOnce) {
  morph::serve::QuarantinePool q(2, 3);
  q.record(0, false);
  q.record(0, false);
  q.record(0, true);  // success resets the streak
  q.record(0, false);
  q.record(0, false);
  EXPECT_EQ(q.quarantined(), 0u);
  q.record(0, false);  // third consecutive fault
  EXPECT_EQ(q.quarantined(), 1u);
  EXPECT_TRUE(q.is_quarantined(0));
  EXPECT_FALSE(q.is_quarantined(1));
  q.record(0, false);  // an already-flagged slot is not counted again
  EXPECT_EQ(q.quarantined(), 1u);

  morph::serve::QuarantinePool off(2, 0);  // threshold 0 disables the policy
  for (int i = 0; i < 10; ++i) off.record(1, false);
  EXPECT_EQ(off.quarantined(), 0u);
}

// --- journal ---------------------------------------------------------------

std::string temp_journal(const std::string& tag) {
  return ::testing::TempDir() + "morph_wal_" + tag + "_" +
         std::to_string(::getpid()) + ".wal";
}

JournalConfig nosync_journal(const std::string& path) {
  JournalConfig cfg;
  cfg.path = path;
  cfg.fsync = JournalConfig::Fsync::kNone;  // tests tear files by hand
  return cfg;
}

TEST(Journal, FsyncPolicyParses) {
  JournalConfig cfg;
  EXPECT_TRUE(morph::serve::parse_fsync_policy("none", &cfg));
  EXPECT_EQ(cfg.fsync, JournalConfig::Fsync::kNone);
  EXPECT_TRUE(morph::serve::parse_fsync_policy("always", &cfg));
  EXPECT_EQ(cfg.fsync, JournalConfig::Fsync::kAlways);
  EXPECT_TRUE(morph::serve::parse_fsync_policy("16", &cfg));
  EXPECT_EQ(cfg.fsync, JournalConfig::Fsync::kInterval);
  EXPECT_EQ(cfg.fsync_interval, 16u);
  EXPECT_FALSE(morph::serve::parse_fsync_policy("", &cfg));
  EXPECT_FALSE(morph::serve::parse_fsync_policy("0", &cfg));
  EXPECT_FALSE(morph::serve::parse_fsync_policy("sometimes", &cfg));
}

TEST(Journal, RecordsRoundTripThroughScan) {
  const std::string path = temp_journal("rt");
  ::unlink(path.c_str());
  Journal j;
  ASSERT_TRUE(j.open(nosync_journal(path)).ok());
  ASSERT_TRUE(j.append_admitted(0, R"({"type":"submit","id":7})").ok());
  ASSERT_TRUE(j.append_admitted(1, R"({"type":"flush"})").ok());
  ASSERT_TRUE(j.append_completed(0).ok());
  EXPECT_EQ(j.records_appended(), 3u);
  j.close();

  JournalScan scan;
  ASSERT_TRUE(Journal::scan(path, &scan).ok());
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.valid_bytes, scan.file_bytes);
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_EQ(scan.records[0].type, JournalRecord::Type::kAdmitted);
  EXPECT_EQ(scan.records[0].arrival, 0u);
  EXPECT_EQ(scan.records[0].frame, R"({"type":"submit","id":7})");
  EXPECT_EQ(scan.records[1].arrival, 1u);
  EXPECT_EQ(scan.records[2].type, JournalRecord::Type::kCompleted);
  EXPECT_EQ(scan.records[2].arrival, 0u);
  ::unlink(path.c_str());
}

TEST(Journal, AdmittedRecordBytesArePinned) {
  // The on-disk encoding of one 'A' record (length, CRC-32, type, big-endian
  // arrival, frame), pinned so a changed encoding cannot pass unnoticed.
  const std::string path = temp_journal("pin");
  ::unlink(path.c_str());
  Journal j;
  ASSERT_TRUE(j.open(nosync_journal(path)).ok());
  ASSERT_TRUE(j.append_admitted(258, R"({"type":"flush"})").ok());
  j.close();
  std::ifstream in(path, std::ios::binary);
  const std::string file((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  ASSERT_GT(file.size(), 8u);
  EXPECT_EQ(file.substr(0, 8), "MWALJRN1");
  EXPECT_EQ(hex_bytes(file.substr(8)),
            "00000019f95c3ec941000000000000010"
            "27b2274797065223a22666c757368227d");
  ::unlink(path.c_str());
}

TEST(Journal, CheckpointHidesEmittedHistory) {
  const std::string path = temp_journal("ckpt");
  ::unlink(path.c_str());
  Journal j;
  ASSERT_TRUE(j.open(nosync_journal(path)).ok());
  ASSERT_TRUE(j.append_admitted(0, R"({"type":"submit"})").ok());
  ASSERT_TRUE(j.append_completed(0).ok());
  ASSERT_TRUE(j.append_checkpoint().ok());
  ASSERT_TRUE(j.append_admitted(1, R"({"type":"submit","id":1})").ok());
  j.close();

  JournalScan scan;
  ASSERT_TRUE(Journal::scan(path, &scan).ok());
  EXPECT_FALSE(scan.torn_tail);
  // Recovery only sees what came after the checkpoint.
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].arrival, 1u);
  ::unlink(path.c_str());
}

TEST(Journal, TornTailEndsTheScanAndOpenTruncatesIt) {
  const std::string path = temp_journal("torn");
  ::unlink(path.c_str());
  Journal j;
  ASSERT_TRUE(j.open(nosync_journal(path)).ok());
  ASSERT_TRUE(j.append_admitted(0, R"({"type":"submit","id":0})").ok());
  ASSERT_TRUE(j.append_admitted(1, R"({"type":"submit","id":1})").ok());
  j.close();

  // Tear the last record the way a crash mid-write does: drop its tail.
  struct stat st {};
  ASSERT_EQ(::stat(path.c_str(), &st), 0);
  ASSERT_EQ(::truncate(path.c_str(), st.st_size - 3), 0);

  JournalScan scan;
  ASSERT_TRUE(Journal::scan(path, &scan).ok());
  EXPECT_TRUE(scan.torn_tail);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].arrival, 0u);
  EXPECT_LT(scan.valid_bytes, scan.file_bytes);

  // Reopening for append drops the torn bytes; the log stays usable.
  ASSERT_TRUE(j.open(nosync_journal(path), scan.valid_bytes).ok());
  ASSERT_TRUE(j.append_admitted(2, R"({"type":"flush"})").ok());
  j.close();
  ASSERT_TRUE(Journal::scan(path, &scan).ok());
  EXPECT_FALSE(scan.torn_tail);
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.records[0].arrival, 0u);
  EXPECT_EQ(scan.records[1].arrival, 2u);
  ::unlink(path.c_str());
}

TEST(Journal, InjectedTornWriteLooksLikeACrashMidAppend) {
  const std::string path = temp_journal("fault");
  ::unlink(path.c_str());
  morph::resilience::FaultPlan plan;
  ASSERT_TRUE(
      morph::resilience::parse_fault_plan("journal@2", 1, &plan).ok());
  JournalConfig cfg = nosync_journal(path);
  cfg.faults = &plan;
  Journal j;
  ASSERT_TRUE(j.open(cfg).ok());
  ASSERT_TRUE(j.append_admitted(0, R"({"type":"submit","id":0})").ok());
  // The second append writes half a record and wedges the journal — the
  // deterministic stand-in for dying between write() calls.
  EXPECT_EQ(j.append_admitted(1, R"({"type":"submit","id":1})").code(),
            StatusCode::kIoError);
  EXPECT_EQ(j.append_admitted(2, R"({"type":"flush"})").code(),
            StatusCode::kIoError);
  j.close();

  JournalScan scan;
  ASSERT_TRUE(Journal::scan(path, &scan).ok());
  EXPECT_TRUE(scan.torn_tail);
  ASSERT_EQ(scan.records.size(), 1u);
  // A clean reopen recovers exactly the pre-crash prefix.
  ASSERT_TRUE(j.open(nosync_journal(path), scan.valid_bytes).ok());
  ASSERT_TRUE(j.append_admitted(1, R"({"type":"submit","id":1})").ok());
  j.close();
  ASSERT_TRUE(Journal::scan(path, &scan).ok());
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.records.size(), 2u);
  ::unlink(path.c_str());
}

TEST(Journal, TruncateAllResetsToMagicAndBadMagicIsLoud) {
  const std::string path = temp_journal("trunc");
  ::unlink(path.c_str());
  Journal j;
  ASSERT_TRUE(j.open(nosync_journal(path)).ok());
  ASSERT_TRUE(j.append_admitted(0, R"({"type":"submit"})").ok());
  ASSERT_TRUE(j.truncate_all().ok());
  ASSERT_TRUE(j.append_admitted(5, R"({"type":"flush"})").ok());
  j.close();
  JournalScan scan;
  ASSERT_TRUE(Journal::scan(path, &scan).ok());
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].arrival, 5u);

  // A file that is not a journal must not be silently treated as one.
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("definitely not a journal", f);
  std::fclose(f);
  EXPECT_EQ(Journal::scan(path, &scan).code(), StatusCode::kIoError);
  ::unlink(path.c_str());
}

// --- job model / protocol --------------------------------------------------

TEST(JobModel, RequestRoundTripsThroughJson) {
  JobRequest req = small_job(JobKind::kPta, 11);
  req.id = 42;
  req.priority = 5;
  req.faults = "arena@2";
  req.fault_seed = 9;
  JobRequest back;
  ASSERT_TRUE(JobRequest::from_json(req.to_json(), &back).ok());
  EXPECT_EQ(back.id, 42u);
  EXPECT_EQ(back.priority, 5u);
  EXPECT_EQ(back.faults, "arena@2");
  EXPECT_EQ(back.fault_seed, 9u);
  EXPECT_EQ(back.spec.signature(), req.spec.signature());
}

TEST(JobModel, UnknownParamKeysAreRejected) {
  Json msg = small_job(JobKind::kSp).to_json();
  msg.set("id", std::uint64_t{1});
  Json params = msg.at("params");
  params.set("sizee", std::uint64_t{100});  // typo must not silently no-op
  msg.set("params", params);
  JobRequest out;
  const Status s = JobRequest::from_json(msg, &out);
  EXPECT_EQ(s.code(), StatusCode::kBadRequest);
}

TEST(JobModel, OutOfRangePriorityIsRejected) {
  Json msg = small_job(JobKind::kSp).to_json();
  msg.set("id", std::uint64_t{1});
  msg.set("priority", std::int64_t{8});
  JobRequest out;
  EXPECT_EQ(JobRequest::from_json(msg, &out).code(), StatusCode::kBadRequest);
}

TEST(JobModel, IntegerFieldsAreCheckedNotCast) {
  // Each field must hold an integer in its range; anything else is a bad
  // request, never a truncated, saturated or wrapped value.
  const auto parse = [](const std::string& id, const std::string& priority,
                        const std::string& params, JobRequest* out) {
    const Json msg = Json::parse(R"({"type":"submit","id":)" + id +
                                 R"(,"kind":"sp","priority":)" + priority +
                                 R"(,"params":{"size":80,)" + params + "}}");
    return JobRequest::from_json(msg, out);
  };
  JobRequest out;
  ASSERT_TRUE(parse("3", "2", R"("sweeps":4294967295)", &out).ok());
  EXPECT_EQ(out.id, 3u);
  EXPECT_EQ(out.priority, 2u);
  EXPECT_EQ(out.spec.size, 80u);
  EXPECT_EQ(out.spec.sweeps, 4294967295u);
  for (const char* bad_params :
       {R"("size2":1e30)", R"("size2":1.5)", R"("size2":-1)",
        R"("sweeps":4294967296)", R"("phases":-1)",
        R"("seed":99999999999999999999)"}) {
    const Status s = parse("3", "2", bad_params, &out);
    EXPECT_EQ(s.code(), StatusCode::kBadRequest) << bad_params;
  }
  for (const char* bad_id : {"-1", "1.5", "1e30", "99999999999999999999"}) {
    EXPECT_EQ(parse(bad_id, "2", R"("seed":1)", &out).code(),
              StatusCode::kBadRequest)
        << bad_id;
  }
  for (const char* bad_priority : {"-1", "1.5", "1e30"}) {
    EXPECT_EQ(parse("3", bad_priority, R"("seed":1)", &out).code(),
              StatusCode::kBadRequest)
        << bad_priority;
  }
  // The writer agrees with the reader: a seed past int64 serializes as its
  // (double-rounded) value, never wrapped negative, and is then refused.
  JobRequest big = small_job(JobKind::kSp, std::uint64_t{1} << 63);
  big.id = 3;
  const std::string frame = big.to_json().dump();
  EXPECT_EQ(frame.find('-'), std::string::npos) << frame;
  const Json back = Json::parse(frame);
  EXPECT_EQ(back.at("params").at("seed").as_double(), 0x1p63);
  EXPECT_EQ(JobRequest::from_json(back, &out).code(), StatusCode::kBadRequest);
}

TEST(Protocol, FrameDecoderReassemblesSplitFrames) {
  Json a = Json::object();
  a.set("type", "hello");
  Json b = Json::object();
  b.set("type", "stats");
  const std::string wire =
      morph::serve::encode_frame(a) + morph::serve::encode_frame(b);

  morph::serve::FrameDecoder dec;
  std::vector<std::string> seen;
  for (std::size_t i = 0; i < wire.size(); ++i) {  // worst case: byte by byte
    dec.feed(wire.data() + i, 1);
    Json msg;
    bool have = false;
    ASSERT_TRUE(dec.poll(&msg, &have).ok());
    if (have) seen.push_back(msg.at("type").as_string());
  }
  EXPECT_EQ(seen, (std::vector<std::string>{"hello", "stats"}));
}

TEST(Protocol, OversizedFrameLengthIsAProtocolError) {
  morph::serve::FrameDecoder dec;
  const char hdr[4] = {0x7f, 0x7f, 0x7f, 0x7f};  // ~2 GB claimed length
  dec.feed(hdr, 4);
  Json msg;
  bool have = false;
  EXPECT_EQ(dec.poll(&msg, &have).code(), StatusCode::kBadRequest);
}

// Hand-builds a frame with an arbitrary (possibly lying) length prefix.
std::string raw_frame(std::uint32_t claimed_len, const std::string& payload) {
  std::string wire;
  wire.push_back(static_cast<char>(claimed_len >> 24));
  wire.push_back(static_cast<char>(claimed_len >> 16));
  wire.push_back(static_cast<char>(claimed_len >> 8));
  wire.push_back(static_cast<char>(claimed_len));
  wire += payload;
  return wire;
}

TEST(Protocol, TruncatedHeaderJustWaitsForMoreBytes) {
  morph::serve::FrameDecoder dec;
  dec.feed("\x00\x00\x00", 3);  // not even a full length prefix
  Json msg;
  bool have = true;
  ASSERT_TRUE(dec.poll(&msg, &have).ok());
  EXPECT_FALSE(have);
  // The missing byte plus a payload completes the frame normally.
  Json hello = Json::object();
  hello.set("type", "hello");
  const std::string rest = morph::serve::encode_frame(hello).substr(3);
  dec.feed(rest.data(), rest.size());
  ASSERT_TRUE(dec.poll(&msg, &have).ok());
  ASSERT_TRUE(have);
  EXPECT_EQ(msg.at("type").as_string(), "hello");
}

TEST(Protocol, GarbagePayloadIsTypedAndTheStreamAdvances) {
  // A frame whose length checks out but whose payload is not JSON must come
  // back kBadRequest — and must be consumed, so the next frame still parses.
  const std::string bad = "this is } not { json";
  Json good = Json::object();
  good.set("type", "stats");
  morph::serve::FrameDecoder dec;
  const std::string wire =
      raw_frame(static_cast<std::uint32_t>(bad.size()), bad) +
      morph::serve::encode_frame(good);
  dec.feed(wire.data(), wire.size());
  Json msg;
  bool have = true;
  EXPECT_EQ(dec.poll(&msg, &have).code(), StatusCode::kBadRequest);
  EXPECT_FALSE(have);
  ASSERT_TRUE(dec.poll(&msg, &have).ok());
  ASSERT_TRUE(have);
  EXPECT_EQ(msg.at("type").as_string(), "stats");

  // Valid JSON that is not an object is just as malformed.
  const std::string arr = "[1,2,3]";
  dec.feed(raw_frame(static_cast<std::uint32_t>(arr.size()), arr).data(),
           4 + arr.size());
  EXPECT_EQ(dec.poll(&msg, &have).code(), StatusCode::kBadRequest);
}

// --- bench report serve section -------------------------------------------

TEST(ServeReport, SectionRoundTripsAndStaysOptional) {
  morph::telemetry::BenchReport rep;
  rep.bench = "serve_loadtest";
  rep.add_row("loadtest").metric("jobs", 10);
  // Disabled: serialization is byte-identical to a serve-less report.
  EXPECT_EQ(rep.to_json().find("serve"), nullptr);

  rep.serve.enabled = true;
  rep.serve.metric("throughput_jobs_per_model_s", 123.5)
      .metric("queue_p99_model_ms", 4.5);
  const auto back =
      morph::telemetry::BenchReport::parse(rep.to_json_text());
  ASSERT_TRUE(back.serve.enabled);
  ASSERT_NE(back.serve.find("queue_p99_model_ms"), nullptr);
  EXPECT_EQ(*back.serve.find("queue_p99_model_ms"), 4.5);
  EXPECT_EQ(back.serve.metrics.size(), 2u);
}

TEST(ServeReport, DiffGatesQueueLatencyRegressions) {
  morph::telemetry::BenchReport base;
  base.serve.enabled = true;
  base.serve.metric("queue_p99_model_ms", 10.0).metric("rejected", 3.0);
  morph::telemetry::BenchReport cur = base;
  cur.serve.metrics.clear();
  cur.serve.metric("queue_p99_model_ms", 11.0).metric("rejected", 5.0);

  const auto res = morph::telemetry::diff_reports(base, cur);
  EXPECT_TRUE(res.regressed);  // +10% p99 breaches the default 2%
  bool saw_info_rejected = false;
  for (const auto& d : res.deltas) {
    if (d.metric == "rejected") saw_info_rejected = !d.gated;
  }
  EXPECT_TRUE(saw_info_rejected);

  // A serve section appearing/disappearing is structural.
  morph::telemetry::BenchReport plain;
  const auto res2 = morph::telemetry::diff_reports(plain, base);
  EXPECT_FALSE(res2.structural.empty());
}

TEST(ServeReport, MismatchedSchemaVersionFailsLoudly) {
  morph::telemetry::BenchReport rep;
  rep.bench = "x";
  Json doc = rep.to_json();
  doc.set("version", std::int64_t{999});
  try {
    morph::telemetry::BenchReport::from_json(doc);
    FAIL() << "expected CheckError";
  } catch (const morph::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported schema version"),
              std::string::npos);
  }
}

// --- end to end ------------------------------------------------------------

class ServeEndToEnd : public ::testing::Test {
 protected:
  std::string socket_path() {
    return ::testing::TempDir() + "morph_serve_e2e_" +
           std::to_string(::getpid()) + ".sock";
  }
};

TEST_F(ServeEndToEnd, MixedBatchMatchesDirectExecutionAndIsolatesFaults) {
  morph::serve::ServerConfig cfg;
  cfg.socket_path = socket_path();
  cfg.sched.pool = 2;
  cfg.sched.batch_max = 3;
  morph::serve::Server server(cfg);
  ASSERT_TRUE(server.start().ok());

  morph::serve::Client client;
  ASSERT_TRUE(client.connect(cfg.socket_path).ok());

  std::vector<JobRequest> reqs;
  for (std::uint64_t i = 0; i < 6; ++i) {
    JobRequest r = small_job(static_cast<JobKind>(i % 4), 3 + i % 2);
    r.id = i;
    r.priority = static_cast<std::uint32_t>(i % 3);
    if (i == 3) r.faults = "launch@1x64";  // one poisoning attempt
    reqs.push_back(r);
  }
  for (const auto& r : reqs) ASSERT_TRUE(client.submit(r).ok());
  ASSERT_TRUE(client.send_flush().ok());

  std::map<std::uint64_t, Json> results;
  while (results.size() < reqs.size()) {
    Json msg;
    ASSERT_TRUE(client.next_message(&msg).ok());
    ASSERT_EQ(msg.at("type").as_string(), "result") << msg.dump();
    results[static_cast<std::uint64_t>(msg.at("id").as_int())] = msg;
  }

  for (const auto& r : reqs) {
    const Json& res = results[r.id];
    // The served result must equal a direct one-shot run, byte for byte.
    const JobOutcome direct = morph::serve::run_job(r, cfg.device);
    EXPECT_EQ(res.at("status").as_string(),
              morph::status_code_name(direct.status.code()))
        << "job " << r.id;
    EXPECT_EQ(res.at("outputs").dump(), direct.outputs.dump());
    EXPECT_EQ(res.at("exec").dump(), direct.exec.to_json().dump());
    if (r.id == 3) {
      EXPECT_EQ(res.at("status").as_string(), "retries-exhausted");
    } else {
      EXPECT_EQ(res.at("status").as_string(), "ok") << res.dump();
    }
  }

  // Typed admission data survives on the stats endpoint.
  ASSERT_TRUE(client.send_stats().ok());
  Json stats;
  ASSERT_TRUE(client.next_message(&stats).ok());
  EXPECT_EQ(stats.at("type").as_string(), "stats");
  EXPECT_EQ(stats.at("admitted").as_int(), 6);
  EXPECT_EQ(stats.at("placed").as_int(), 6);

  ASSERT_TRUE(client.send_shutdown().ok());
  Json bye;
  ASSERT_TRUE(client.next_message(&bye).ok());
  EXPECT_EQ(bye.at("type").as_string(), "bye");
  server.wait();
}

TEST_F(ServeEndToEnd, ArrivalGateOrdersStampedFramesAcrossConnections) {
  morph::serve::ServerConfig cfg;
  cfg.socket_path = socket_path() + ".3";
  cfg.sched.batch_max = 2;
  morph::serve::Server server(cfg);
  ASSERT_TRUE(server.start().ok());

  morph::serve::Client a;
  morph::serve::Client b;
  ASSERT_TRUE(a.connect(cfg.socket_path).ok());
  ASSERT_TRUE(b.connect(cfg.socket_path).ok());

  // Send arrival 1 first, on a different connection than arrival 0: the
  // gate must hold it until 0 is admitted, so the admission sequence (and
  // with it the shared batch) comes out in stamp order regardless of which
  // reader thread got to run first.
  JobRequest r1 = small_job(JobKind::kDmr, 4);
  r1.id = 11;
  ASSERT_TRUE(a.submit(r1, /*arrival=*/1).ok());
  JobRequest r0 = small_job(JobKind::kDmr, 3);
  r0.id = 10;
  ASSERT_TRUE(b.submit(r0, /*arrival=*/0).ok());
  ASSERT_TRUE(a.send_flush(/*arrival=*/2).ok());

  Json res1;
  ASSERT_TRUE(a.next_message(&res1).ok());
  Json res0;
  ASSERT_TRUE(b.next_message(&res0).ok());
  ASSERT_EQ(res0.at("type").as_string(), "result") << res0.dump();
  ASSERT_EQ(res1.at("type").as_string(), "result") << res1.dump();
  EXPECT_EQ(res0.at("id").as_int(), 10);
  EXPECT_EQ(res1.at("id").as_int(), 11);
  // Stamp order decided admission order...
  EXPECT_EQ(res0.at("seq").as_int(), 0);
  EXPECT_EQ(res1.at("seq").as_int(), 1);
  // ...and both landed in the same (batch_max = 2) shared batch.
  EXPECT_EQ(res0.at("serve").at("batch").as_int(),
            res1.at("serve").at("batch").as_int());

  // A stamp that was already admitted is a typed protocol error.
  JobRequest dup = small_job(JobKind::kSp);
  dup.id = 12;
  ASSERT_TRUE(b.submit(dup, /*arrival=*/1).ok());
  Json err;
  ASSERT_TRUE(b.next_message(&err).ok());
  EXPECT_EQ(err.at("type").as_string(), "error");
  EXPECT_EQ(err.at("code").as_string(), "bad-request");

  server.request_stop();
}

TEST_F(ServeEndToEnd, AdmissionRejectsAndBadRequestsComeBackTyped) {
  morph::serve::ServerConfig cfg;
  cfg.socket_path = socket_path() + ".2";
  cfg.sched.queue_cap_cycles = 1.0;  // everything is over budget
  morph::serve::Server server(cfg);
  ASSERT_TRUE(server.start().ok());

  morph::serve::Client client;
  ASSERT_TRUE(client.connect(cfg.socket_path).ok());

  JobRequest r = small_job(JobKind::kSp);
  r.id = 1;
  ASSERT_TRUE(client.submit(r).ok());
  Json rej;
  ASSERT_TRUE(client.next_message(&rej).ok());
  EXPECT_EQ(rej.at("type").as_string(), "reject");
  EXPECT_EQ(rej.at("code").as_string(), "admission-rejected");
  EXPECT_EQ(rej.at("id").as_int(), 1);

  Json bad = Json::object();
  bad.set("type", "submit");
  bad.set("id", std::uint64_t{2});
  bad.set("kind", "quantum");  // not a job kind
  // Raw framing path: no client-side validation in the way.
  Json err;
  int raw_fd = -1;
  ASSERT_TRUE(morph::serve::connect_unix(cfg.socket_path, &raw_fd).ok());
  const std::string wire = morph::serve::encode_frame(bad);
  ASSERT_EQ(::write(raw_fd, wire.data(), wire.size()),
            static_cast<ssize_t>(wire.size()));
  ASSERT_TRUE(morph::serve::read_frame(raw_fd, &err).ok());
  EXPECT_EQ(err.at("type").as_string(), "error");
  EXPECT_EQ(err.at("code").as_string(), "bad-request");
  ::close(raw_fd);

  server.request_stop();
}

TEST_F(ServeEndToEnd, MalformedFramesGetTypedErrorsAndNeverWedgeTheServer) {
  morph::serve::ServerConfig cfg;
  cfg.socket_path = socket_path() + ".adv";
  morph::serve::Server server(cfg);
  ASSERT_TRUE(server.start().ok());

  // Garbage JSON behind a correct length prefix: typed error, stream lives.
  int fd = -1;
  ASSERT_TRUE(morph::serve::connect_unix(cfg.socket_path, &fd).ok());
  const std::string garbage = "}{ definitely not json";
  const std::string wire =
      raw_frame(static_cast<std::uint32_t>(garbage.size()), garbage);
  ASSERT_EQ(::write(fd, wire.data(), wire.size()),
            static_cast<ssize_t>(wire.size()));
  Json err;
  ASSERT_TRUE(morph::serve::read_frame(fd, &err).ok());
  EXPECT_EQ(err.at("type").as_string(), "error");
  EXPECT_EQ(err.at("code").as_string(), "bad-request");
  ::close(fd);

  // A length prefix claiming ~4 GB: refused as a protocol error, not
  // treated as an allocation request.
  ASSERT_TRUE(morph::serve::connect_unix(cfg.socket_path, &fd).ok());
  const std::string huge = raw_frame(0xFFFFFFFFu, "");
  ASSERT_EQ(::write(fd, huge.data(), huge.size()),
            static_cast<ssize_t>(huge.size()));
  ASSERT_TRUE(morph::serve::read_frame(fd, &err).ok());
  EXPECT_EQ(err.at("type").as_string(), "error");
  EXPECT_EQ(err.at("code").as_string(), "bad-request");
  ::close(fd);

  // Malformed arrival stamps: typed errors before the gate, which does not
  // move, and the same connection still answers a valid frame.
  ASSERT_TRUE(morph::serve::connect_unix(cfg.socket_path, &fd).ok());
  for (const std::string stamp : {"-1", "0.5"}) {
    const std::string doc = R"({"type":"flush","arrival":)" + stamp + "}";
    const std::string frame =
        raw_frame(static_cast<std::uint32_t>(doc.size()), doc);
    ASSERT_EQ(::write(fd, frame.data(), frame.size()),
              static_cast<ssize_t>(frame.size()));
    ASSERT_TRUE(morph::serve::read_frame(fd, &err).ok());
    EXPECT_EQ(err.at("type").as_string(), "error") << stamp;
    EXPECT_EQ(err.at("code").as_string(), "bad-request") << stamp;
  }
  // Stamp 0 is still the gate's next turn: admitted, not a replay.
  const std::string cancel = morph::serve::encode_frame(
      Json::parse(R"({"type":"cancel","id":99,"arrival":0})"));
  ASSERT_EQ(::write(fd, cancel.data(), cancel.size()),
            static_cast<ssize_t>(cancel.size()));
  ASSERT_TRUE(morph::serve::read_frame(fd, &err).ok());
  EXPECT_EQ(err.at("type").as_string(), "cancelled") << err.dump();
  ::close(fd);

  // A client that dies mid-frame (header promised 100 bytes, 10 arrived).
  ASSERT_TRUE(morph::serve::connect_unix(cfg.socket_path, &fd).ok());
  const std::string partial = raw_frame(100, "0123456789");
  ASSERT_EQ(::write(fd, partial.data(), partial.size()),
            static_cast<ssize_t>(partial.size()));
  ::close(fd);

  // After all that abuse a well-behaved client still gets served.
  morph::serve::Client client;
  ASSERT_TRUE(client.connect(cfg.socket_path).ok());
  JobRequest r = small_job(JobKind::kSp);
  r.id = 1;
  ASSERT_TRUE(client.submit(r).ok());
  ASSERT_TRUE(client.send_flush().ok());
  Json res;
  ASSERT_TRUE(client.next_message(&res).ok());
  EXPECT_EQ(res.at("type").as_string(), "result");
  EXPECT_EQ(res.at("status").as_string(), "ok");
  server.request_stop();
}

TEST_F(ServeEndToEnd, StaleSocketFilesAreRecycledButLiveOnesAreNot) {
  const std::string path = socket_path() + ".stale";
  // Manufacture the corpse of a crashed server: a bound socket file whose
  // listener is gone.
  int dead = -1;
  ASSERT_TRUE(morph::serve::listen_unix(path, &dead).ok());
  ::close(dead);

  morph::serve::ServerConfig cfg;
  cfg.socket_path = path;
  morph::serve::Server server(cfg);
  ASSERT_TRUE(server.start().ok());  // probe says stale: unlink and rebind

  // With the server alive, the same probe refuses to steal the socket...
  int fd = -1;
  const Status busy = morph::serve::listen_unix(path, &fd);
  EXPECT_EQ(busy.code(), StatusCode::kIoError);
  EXPECT_NE(busy.message().find("live server"), std::string::npos);
  // ...and the running server is untouched by the attempt.
  morph::serve::Client client;
  EXPECT_TRUE(client.connect(path).ok());
  server.request_stop();
}

TEST_F(ServeEndToEnd, RecvTimeoutIsTypedAndTheConnectionSurvives) {
  morph::serve::ServerConfig cfg;
  cfg.socket_path = socket_path() + ".to";
  cfg.sched.batch_max = 8;       // nothing seals until the flush
  cfg.sched.batch_linger = 1000;
  morph::serve::Server server(cfg);
  ASSERT_TRUE(server.start().ok());

  morph::serve::Client client;
  ASSERT_TRUE(client.connect(cfg.socket_path).ok());
  JobRequest r = small_job(JobKind::kSp);
  r.id = 9;
  ASSERT_TRUE(client.submit(r).ok());

  client.set_recv_timeout_ms(50);
  Json msg;
  EXPECT_EQ(client.next_message(&msg).code(), StatusCode::kTimeout);

  // The timeout did not wreck the connection: flush and collect normally.
  client.set_recv_timeout_ms(30000);
  ASSERT_TRUE(client.send_flush().ok());
  ASSERT_TRUE(client.next_message(&msg).ok());
  EXPECT_EQ(msg.at("type").as_string(), "result");
  EXPECT_EQ(msg.at("id").as_int(), 9);
  server.request_stop();
}

TEST_F(ServeEndToEnd, DeadlineMissesAreRejectedUpFrontWithTypedCode) {
  morph::serve::ServerConfig cfg;
  cfg.socket_path = socket_path() + ".dl";
  cfg.sched.batch_max = 8;
  cfg.sched.batch_linger = 1000;
  morph::serve::Server server(cfg);
  ASSERT_TRUE(server.start().ok());

  morph::serve::Client client;
  ASSERT_TRUE(client.connect(cfg.socket_path).ok());
  // Job 0 loads the admission bucket; job 1 declares a deadline far below
  // the implied queueing delay and is turned away before doing any work.
  JobRequest fill = small_job(JobKind::kSp);
  fill.id = 0;
  ASSERT_TRUE(client.submit(fill).ok());
  JobRequest urgent = small_job(JobKind::kSp);
  urgent.id = 1;
  urgent.spec.deadline_model_ms = 1e-6;  // one virtual cycle at 1 GHz
  ASSERT_TRUE(client.submit(urgent).ok());

  Json rej;
  ASSERT_TRUE(client.next_message(&rej).ok());
  EXPECT_EQ(rej.at("type").as_string(), "reject");
  EXPECT_EQ(rej.at("code").as_string(), "deadline-exceeded");
  EXPECT_EQ(rej.at("id").as_int(), 1);

  ASSERT_TRUE(client.send_flush().ok());
  Json res;
  ASSERT_TRUE(client.next_message(&res).ok());
  EXPECT_EQ(res.at("type").as_string(), "result");
  EXPECT_EQ(res.at("id").as_int(), 0);

  ASSERT_TRUE(client.send_stats().ok());
  Json stats;
  ASSERT_TRUE(client.next_message(&stats).ok());
  EXPECT_EQ(stats.at("deadline_exceeded").as_int(), 1);
  server.request_stop();
}

TEST_F(ServeEndToEnd, CancelCatchesAJobStillInAnOpenBatch) {
  morph::serve::ServerConfig cfg;
  cfg.socket_path = socket_path() + ".cxl";
  cfg.sched.batch_max = 8;
  cfg.sched.batch_linger = 1000;
  morph::serve::Server server(cfg);
  ASSERT_TRUE(server.start().ok());

  morph::serve::Client client;
  ASSERT_TRUE(client.connect(cfg.socket_path).ok());
  JobRequest doomed = small_job(JobKind::kSp);
  doomed.id = 5;
  ASSERT_TRUE(client.submit(doomed).ok());
  ASSERT_TRUE(client.send_cancel(5).ok());
  Json cxl;
  ASSERT_TRUE(client.next_message(&cxl).ok());
  EXPECT_EQ(cxl.at("type").as_string(), "cancelled") << cxl.dump();
  EXPECT_EQ(cxl.at("id").as_int(), 5);
  EXPECT_TRUE(cxl.at("caught").as_bool());

  // Only the surviving job produces a result.
  JobRequest live = small_job(JobKind::kDmr);
  live.id = 6;
  ASSERT_TRUE(client.submit(live).ok());
  ASSERT_TRUE(client.send_flush().ok());
  Json res;
  ASSERT_TRUE(client.next_message(&res).ok());
  EXPECT_EQ(res.at("type").as_string(), "result") << res.dump();
  EXPECT_EQ(res.at("id").as_int(), 6);

  // Cancelling something unknown is answered, not ignored.
  ASSERT_TRUE(client.send_cancel(999).ok());
  ASSERT_TRUE(client.next_message(&cxl).ok());
  EXPECT_EQ(cxl.at("type").as_string(), "cancelled");
  EXPECT_FALSE(cxl.at("caught").as_bool());

  ASSERT_TRUE(client.send_stats().ok());
  Json stats;
  ASSERT_TRUE(client.next_message(&stats).ok());
  EXPECT_EQ(stats.at("cancelled").as_int(), 1);
  server.request_stop();
}

TEST_F(ServeEndToEnd, JournalRecoveryFinishesInterruptedWorkByteIdentically) {
  const std::string sock = socket_path() + ".jr";
  const std::string wal = ::testing::TempDir() + "morph_serve_recovery_" +
                          std::to_string(::getpid()) + ".wal";
  ::unlink(wal.c_str());
  morph::serve::ServerConfig cfg;
  cfg.socket_path = sock;
  cfg.journal.path = wal;
  cfg.sched.batch_max = 8;       // the batch stays open: no results before
  cfg.sched.batch_linger = 1000; // the "crash"
  JobRequest r0 = small_job(JobKind::kSp, 3);
  r0.id = 0;
  JobRequest r1 = small_job(JobKind::kDmr, 4);
  r1.id = 1;

  {
    morph::serve::Server crashed(cfg);
    ASSERT_TRUE(crashed.start().ok());
    morph::serve::Client c;
    ASSERT_TRUE(c.connect(sock).ok());
    ASSERT_TRUE(c.submit(r0, /*arrival=*/0).ok());
    ASSERT_TRUE(c.submit(r1, /*arrival=*/1).ok());
    // stats rides the same connection, so its answer proves both submits
    // were admitted — and therefore journaled — before the hard stop.
    ASSERT_TRUE(c.send_stats().ok());
    Json st;
    ASSERT_TRUE(c.next_message(&st).ok());
    ASSERT_EQ(st.at("admitted").as_int(), 2);
    crashed.request_stop();  // hard stop: no drain, no journal truncation
    crashed.wait();
  }

  morph::serve::Server revived(cfg);
  ASSERT_TRUE(revived.start().ok());
  EXPECT_EQ(revived.recovered_jobs(), 2u);

  // The client comes back the way a real one would: one job through the
  // reconnect-and-resubmit helper, one as a plain stamped resubmission.
  // Both stamps were already admitted, so they adopt the new connection
  // instead of admitting duplicates.
  morph::serve::Client c;
  ASSERT_TRUE(c.connect(sock).ok());
  ASSERT_TRUE(c.resubmit_after_failure(r0, /*arrival=*/0).ok());
  ASSERT_TRUE(c.submit(r1, /*arrival=*/1).ok());
  ASSERT_TRUE(c.send_flush(/*arrival=*/2).ok());

  std::map<std::uint64_t, Json> results;
  while (results.size() < 2) {
    Json msg;
    ASSERT_TRUE(c.next_message(&msg).ok());
    ASSERT_EQ(msg.at("type").as_string(), "result") << msg.dump();
    results[static_cast<std::uint64_t>(msg.at("id").as_int())] = msg;
  }
  // Byte-identical to an uninterrupted run: the journal replay reproduced
  // the exact admission sequence, so execution had nothing left to chance.
  for (const JobRequest& r : {r0, r1}) {
    const JobOutcome direct = morph::serve::run_job(r, cfg.device);
    const Json& res = results[r.id];
    EXPECT_EQ(res.at("status").as_string(),
              morph::status_code_name(direct.status.code()));
    EXPECT_EQ(res.at("outputs").dump(), direct.outputs.dump());
    EXPECT_EQ(res.at("exec").dump(), direct.exec.to_json().dump());
  }

  ASSERT_TRUE(c.send_stats().ok());
  Json stats;
  ASSERT_TRUE(c.next_message(&stats).ok());
  EXPECT_EQ(stats.at("recoveries").as_int(), 1);
  EXPECT_EQ(stats.at("recovered_jobs").as_int(), 2);
  revived.request_stop();
  ::unlink(wal.c_str());
}

TEST_F(ServeEndToEnd, DrainStopFinishesAdmittedJobsAndTruncatesTheJournal) {
  const std::string wal = ::testing::TempDir() + "morph_serve_drain_" +
                          std::to_string(::getpid()) + ".wal";
  ::unlink(wal.c_str());
  morph::serve::ServerConfig cfg;
  cfg.socket_path = socket_path() + ".drain";
  cfg.journal.path = wal;
  cfg.sched.batch_max = 8;       // nothing seals on its own: the drain must
  cfg.sched.batch_linger = 1000; // flush and finish these jobs itself
  morph::serve::Server server(cfg);
  ASSERT_TRUE(server.start().ok());

  morph::serve::Client client;
  ASSERT_TRUE(client.connect(cfg.socket_path).ok());
  for (std::uint64_t i = 0; i < 3; ++i) {
    JobRequest r = small_job(static_cast<JobKind>(i % 4), 3 + i);
    r.id = i;
    ASSERT_TRUE(client.submit(r).ok());
  }
  // Synchronize: once stats answers, all three are admitted, so the drain
  // below cannot race the reader and bounce them with kUnavailable.
  ASSERT_TRUE(client.send_stats().ok());
  Json st;
  ASSERT_TRUE(client.next_message(&st).ok());
  ASSERT_EQ(st.at("admitted").as_int(), 3);

  bool drained = false;
  std::thread op([&] { drained = server.drain_stop(); });
  std::map<std::uint64_t, Json> results;
  while (results.size() < 3) {
    Json msg;
    ASSERT_TRUE(client.next_message(&msg).ok());
    if (msg.at("type").as_string() != "result") continue;
    results[static_cast<std::uint64_t>(msg.at("id").as_int())] = msg;
  }
  op.join();
  EXPECT_TRUE(drained);
  EXPECT_EQ(server.drained_jobs(), 3u);
  server.wait();

  // The drain proved every admitted job done and every reply out, so the
  // journal was reset to just its magic header.
  struct stat wst {};
  ASSERT_EQ(::stat(wal.c_str(), &wst), 0);
  EXPECT_EQ(wst.st_size, 8);
  ::unlink(wal.c_str());
}

// --- incremental recompute sessions ----------------------------------------

std::string hex64(std::uint64_t d) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(d));
  return std::string(buf);
}

Json mst_row(std::int64_t op, std::int64_t u, std::int64_t v,
             std::int64_t w) {
  Json row = Json::array();
  row.push_back(Json(op));
  row.push_back(Json(u));
  row.push_back(Json(v));
  row.push_back(Json(w));
  return row;
}

TEST_F(ServeEndToEnd, SessionUpdatesMatchDirectIncrementalStateExactly) {
  morph::serve::ServerConfig cfg;
  cfg.socket_path = socket_path() + ".sess";
  morph::serve::Server server(cfg);
  ASSERT_TRUE(server.start().ok());
  morph::serve::Client c;
  ASSERT_TRUE(c.connect(cfg.socket_path).ok());

  // Session frames must ride the arrival gate: unstamped ones are refused
  // before they can silently miss the journal.
  ASSERT_TRUE(c.send_session_open("inc", "mst", 64, 1, /*arrival=*/-1).ok());
  Json msg;
  ASSERT_TRUE(c.next_message(&msg).ok());
  EXPECT_EQ(msg.at("type").as_string(), "error");
  EXPECT_EQ(msg.at("code").as_string(), "bad-request");

  // The local mirror runs the exact same call sequence on its own device:
  // every digest the server reports must match it bit for bit.
  morph::gpu::Device dev(cfg.device);
  morph::mst::MstState local = morph::mst::make_mst_state(64, {}, dev);

  ASSERT_TRUE(c.send_session_open("inc", "mst", 64, 2, /*arrival=*/0).ok());
  ASSERT_TRUE(c.next_message(&msg).ok());
  ASSERT_EQ(msg.at("type").as_string(), "session-opened") << msg.dump();
  EXPECT_EQ(msg.at("kind").as_string(), "mst");
  EXPECT_EQ(msg.at("digest").as_string(),
            hex64(morph::mst::state_digest(local)));

  // Updates to a session nobody opened are typed errors.
  Json upd = Json::array();
  upd.push_back(mst_row(1, 0, 1, 5));
  ASSERT_TRUE(c.send_session_update("ghost", upd, 3, /*arrival=*/1).ok());
  ASSERT_TRUE(c.next_message(&msg).ok());
  EXPECT_EQ(msg.at("type").as_string(), "error");

  // Two update batches; after each, outputs / exec stats / digest must be
  // byte-identical to the direct in-process incremental run.
  std::vector<std::vector<morph::mst::EdgeUpdate>> batches = {
      {{true, 0, 1, 5}, {true, 1, 2, 3}, {true, 2, 3, 9}, {true, 0, 3, 4}},
      {{false, 2, 3, 9}, {true, 5, 6, 2}},
  };
  std::int64_t arrival = 2;
  for (const auto& batch : batches) {
    Json rows = Json::array();
    for (const auto& e : batch) {
      rows.push_back(mst_row(e.insert ? 1 : 0, e.u, e.v,
                             static_cast<std::int64_t>(e.w)));
    }
    ASSERT_TRUE(c.send_session_update("inc", rows, 10, arrival++).ok());
    const morph::gpu::DeviceStats base = dev.stats();
    const morph::mst::MstResult direct =
        morph::mst::apply_updates(local, batch, dev);
    ASSERT_TRUE(c.next_message(&msg).ok());
    ASSERT_EQ(msg.at("type").as_string(), "session-result") << msg.dump();
    EXPECT_EQ(msg.at("outputs").at("total_weight").as_int(),
              static_cast<std::int64_t>(direct.total_weight));
    EXPECT_EQ(msg.at("outputs").at("tree_edges").as_int(),
              static_cast<std::int64_t>(direct.tree_edges));
    EXPECT_EQ(msg.at("outputs").at("components").as_int(),
              static_cast<std::int64_t>(direct.components));
    EXPECT_EQ(msg.at("exec").dump(),
              morph::serve::JobExecStats::from_stats(
                  dev.stats().delta_since(base))
                  .to_json()
                  .dump());
    EXPECT_EQ(msg.at("digest").as_string(),
              hex64(morph::mst::state_digest(local)));
  }

  // A malformed row rejects the whole batch atomically: the digest (and so
  // the state) is unchanged afterwards.
  Json bad_rows = Json::array();
  bad_rows.push_back(mst_row(1, 0, 1, 2));
  bad_rows.push_back(mst_row(7, 0, 1, 2));  // op 7: invalid
  ASSERT_TRUE(c.send_session_update("inc", bad_rows, 11, arrival++).ok());
  ASSERT_TRUE(c.next_message(&msg).ok());
  EXPECT_EQ(msg.at("type").as_string(), "error");

  // A pta session coexists, pinned to its own state.
  morph::pta::PtaState plocal = morph::pta::make_pta_state(32);
  ASSERT_TRUE(c.send_session_open("pts", "pta", 32, 12, arrival++).ok());
  ASSERT_TRUE(c.next_message(&msg).ok());
  ASSERT_EQ(msg.at("type").as_string(), "session-opened") << msg.dump();
  EXPECT_EQ(msg.at("digest").as_string(),
            hex64(morph::pta::state_digest(plocal)));
  const std::vector<morph::pta::Constraint> cons = {
      {morph::pta::ConstraintKind::kAddressOf, 1, 2},
      {morph::pta::ConstraintKind::kCopy, 3, 1},
      {morph::pta::ConstraintKind::kLoad, 4, 3},
      {morph::pta::ConstraintKind::kStore, 1, 4},
  };
  Json prows = Json::array();
  for (const auto& k : cons) {
    Json row = Json::array();
    row.push_back(Json(static_cast<std::int64_t>(k.kind)));
    row.push_back(Json(static_cast<std::int64_t>(k.dst)));
    row.push_back(Json(static_cast<std::int64_t>(k.src)));
    prows.push_back(row);
  }
  ASSERT_TRUE(c.send_session_update("pts", prows, 13, arrival++).ok());
  const morph::pta::PtaDelta pd =
      morph::pta::apply_updates(plocal, cons, dev);
  ASSERT_TRUE(c.next_message(&msg).ok());
  ASSERT_EQ(msg.at("type").as_string(), "session-result") << msg.dump();
  EXPECT_EQ(msg.at("outputs").at("pts_total").as_int(),
            static_cast<std::int64_t>(pd.pts_total));
  EXPECT_EQ(msg.at("digest").as_string(),
            hex64(morph::pta::state_digest(plocal)));

  // Close returns the cumulative accepted-update count and final digest.
  ASSERT_TRUE(c.send_session_close("inc", 14, arrival++).ok());
  ASSERT_TRUE(c.next_message(&msg).ok());
  ASSERT_EQ(msg.at("type").as_string(), "session-closed") << msg.dump();
  EXPECT_EQ(msg.at("updates").as_int(), 6);
  EXPECT_EQ(msg.at("digest").as_string(),
            hex64(morph::mst::state_digest(local)));
  // Closed means gone.
  ASSERT_TRUE(c.send_session_close("inc", 15, arrival++).ok());
  ASSERT_TRUE(c.next_message(&msg).ok());
  EXPECT_EQ(msg.at("type").as_string(), "error");

  ASSERT_TRUE(c.send_stats().ok());
  Json st;
  ASSERT_TRUE(c.next_message(&st).ok());
  EXPECT_EQ(st.at("sessions_opened").as_int(), 2);
  EXPECT_EQ(st.at("sessions_open").as_int(), 1);  // "pts" is still open
  EXPECT_EQ(st.at("session_updates").as_int(), 3);
  server.request_stop();
  server.wait();
}

TEST_F(ServeEndToEnd, SessionStateSurvivesACrashByteIdentically) {
  const std::string sock = socket_path() + ".sr";
  const std::string wal = ::testing::TempDir() + "morph_serve_sess_" +
                          std::to_string(::getpid()) + ".wal";
  ::unlink(wal.c_str());
  morph::serve::ServerConfig cfg;
  cfg.socket_path = sock;
  cfg.journal.path = wal;

  Json u1 = Json::array();
  u1.push_back(mst_row(1, 0, 1, 5));
  u1.push_back(mst_row(1, 1, 2, 3));
  u1.push_back(mst_row(1, 0, 2, 4));
  Json u2 = Json::array();
  u2.push_back(mst_row(0, 0, 1, 5));
  u2.push_back(mst_row(1, 3, 4, 7));

  Json r1;
  {
    morph::serve::Server crashed(cfg);
    ASSERT_TRUE(crashed.start().ok());
    morph::serve::Client c;
    ASSERT_TRUE(c.connect(sock).ok());
    ASSERT_TRUE(c.send_session_open("inc", "mst", 64, 0, /*arrival=*/0).ok());
    Json opened;
    ASSERT_TRUE(c.next_message(&opened).ok());
    ASSERT_EQ(opened.at("type").as_string(), "session-opened")
        << opened.dump();
    ASSERT_TRUE(c.send_session_update("inc", u1, 1, /*arrival=*/1).ok());
    ASSERT_TRUE(c.next_message(&r1).ok());
    ASSERT_EQ(r1.at("type").as_string(), "session-result") << r1.dump();
    crashed.request_stop();  // hard stop: the journal keeps the history
    crashed.wait();
  }

  morph::serve::Server revived(cfg);
  ASSERT_TRUE(revived.start().ok());
  morph::serve::Client c;
  ASSERT_TRUE(c.connect(sock).ok());

  // A client resubmitting the already-applied update gets the parked replay
  // reply, byte-identical to the one the crashed process sent.
  ASSERT_TRUE(c.send_session_update("inc", u1, 1, /*arrival=*/1).ok());
  Json replay;
  ASSERT_TRUE(c.next_message(&replay).ok());
  EXPECT_EQ(replay.dump(), r1.dump());

  // The recovered state continues exactly where the crash left it: the next
  // batch lands on the replayed state and matches the direct u1+u2 run.
  morph::gpu::Device dev(cfg.device);
  morph::mst::MstState local = morph::mst::make_mst_state(64, {}, dev);
  const std::vector<morph::mst::EdgeUpdate> b1 = {
      {true, 0, 1, 5}, {true, 1, 2, 3}, {true, 0, 2, 4}};
  const std::vector<morph::mst::EdgeUpdate> b2 = {{false, 0, 1, 5},
                                                  {true, 3, 4, 7}};
  (void)morph::mst::apply_updates(local, b1, dev);
  (void)morph::mst::apply_updates(local, b2, dev);

  ASSERT_TRUE(c.send_session_update("inc", u2, 2, /*arrival=*/2).ok());
  Json r2;
  ASSERT_TRUE(c.next_message(&r2).ok());
  ASSERT_EQ(r2.at("type").as_string(), "session-result") << r2.dump();
  EXPECT_EQ(r2.at("digest").as_string(),
            hex64(morph::mst::state_digest(local)));

  ASSERT_TRUE(c.send_stats().ok());
  Json st;
  ASSERT_TRUE(c.next_message(&st).ok());
  EXPECT_EQ(st.at("recoveries").as_int(), 1);
  EXPECT_EQ(st.at("recovered_sessions").as_int(), 1);

  ASSERT_TRUE(c.send_session_close("inc", 3, /*arrival=*/3).ok());
  Json closed;
  ASSERT_TRUE(c.next_message(&closed).ok());
  EXPECT_EQ(closed.at("type").as_string(), "session-closed") << closed.dump();
  revived.request_stop();
  revived.wait();
  ::unlink(wal.c_str());
}

TEST_F(ServeEndToEnd, CheckpointCompactionBoundsTheJournalAndContinuesExactly) {
  const std::string wal = ::testing::TempDir() + "morph_serve_compact_" +
                          std::to_string(::getpid()) + ".wal";
  ::unlink(wal.c_str());
  morph::serve::ServerConfig cfg;
  cfg.socket_path = socket_path() + ".cp";
  cfg.journal.path = wal;
  cfg.journal.checkpoint_every = 2;
  cfg.sched.batch_max = 2;
  // The reference server lives the same arrival sequence uninterrupted (no
  // journal: durability must not change a single reply byte).
  morph::serve::ServerConfig ref_cfg = cfg;
  ref_cfg.socket_path = socket_path() + ".cpref";
  ref_cfg.journal.path.clear();

  // Uniform kind/priority: every stamped pair seals at batch_max = 2. The
  // trailing stamped flush closes the epoch — without it the scheduler
  // (correctly) refuses to finalize the last batch's dispatch, since a
  // future arrival could still seal a competing batch.
  auto submit_all = [&](morph::serve::Client& c, std::int64_t lo,
                        std::int64_t hi, std::map<std::uint64_t, Json>* out) {
    const std::size_t before = out->size();
    for (std::int64_t i = lo; i < hi; ++i) {
      JobRequest r = small_job(JobKind::kSp, 3 + static_cast<std::uint64_t>(i));
      r.id = static_cast<std::uint64_t>(i);
      ASSERT_TRUE(c.submit(r, /*arrival=*/i).ok());
    }
    ASSERT_TRUE(c.send_flush(/*arrival=*/hi).ok());
    while (out->size() < before + static_cast<std::size_t>(hi - lo)) {
      Json msg;
      ASSERT_TRUE(c.next_message(&msg).ok());
      ASSERT_EQ(msg.at("type").as_string(), "result") << msg.dump();
      (*out)[static_cast<std::uint64_t>(msg.at("id").as_int())] = msg;
    }
  };

  std::map<std::uint64_t, Json> got;
  {
    morph::serve::Server first(cfg);
    ASSERT_TRUE(first.start().ok());
    morph::serve::Client c;
    ASSERT_TRUE(c.connect(cfg.socket_path).ok());
    submit_all(c, 0, 4, &got);  // two sealed pairs + flush: compaction fires
    // The compaction runs in the tail of the emit that delivered the last
    // result, so it can still be mid-rewrite when that result reaches us:
    // poll the counter briefly instead of racing it.
    std::int64_t compactions = 0;
    for (int attempt = 0; attempt < 100 && compactions == 0; ++attempt) {
      ASSERT_TRUE(c.send_stats().ok());
      Json st;
      ASSERT_TRUE(c.next_message(&st).ok());
      compactions = st.at("compactions").as_int();
      if (compactions == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    EXPECT_GE(compactions, 1);
    first.request_stop();  // hard stop: no truncation; only the checkpoint
    first.wait();
  }

  // The compacted journal is a bounded artifact — one checkpoint record —
  // not the full frame history.
  struct stat wst {};
  ASSERT_EQ(::stat(wal.c_str(), &wst), 0);
  EXPECT_LT(wst.st_size, 1024) << "journal not compacted";

  // Restart: nothing to re-execute, but the checkpoint must restore the
  // arrival gate and scheduler epoch so the NEXT jobs behave as if the
  // process had never died.
  morph::serve::Server revived(cfg);
  ASSERT_TRUE(revived.start().ok());
  EXPECT_EQ(revived.recovered_jobs(), 0u);
  morph::serve::Client c;
  ASSERT_TRUE(c.connect(cfg.socket_path).ok());
  submit_all(c, 5, 9, &got);  // arrival 4 was the pre-restart flush
  revived.request_stop();
  revived.wait();

  morph::serve::Server ref(ref_cfg);
  ASSERT_TRUE(ref.start().ok());
  morph::serve::Client rc;
  ASSERT_TRUE(rc.connect(ref_cfg.socket_path).ok());
  std::map<std::uint64_t, Json> want;
  submit_all(rc, 0, 4, &want);
  submit_all(rc, 5, 9, &want);
  ref.request_stop();
  ref.wait();

  ASSERT_EQ(got.size(), want.size());
  for (const auto& [id, frame] : want) {
    // Full-frame byte identity, serve section included: seqs, batches,
    // slots, and modeled latencies all continue across the checkpoint.
    EXPECT_EQ(got.at(id).dump(), frame.dump()) << "job " << id;
  }
  ::unlink(wal.c_str());
}

}  // namespace
