// Unit tests for the telemetry subsystem: JSON round-trips, trace-merge
// determinism across host worker counts, BenchReport schema, and the
// regression diff used by morph-report.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "gpu/device.hpp"
#include "support/check.hpp"
#include "telemetry/bench_report.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/json.hpp"
#include "telemetry/report_diff.hpp"
#include "telemetry/trace.hpp"

namespace morph::telemetry {
namespace {

// ---------------------------------------------------------------- JSON ----

TEST(Json, RoundTripsScalarsAndContainers) {
  Json doc = Json::object();
  doc.set("flag", Json(true));
  doc.set("count", Json(std::int64_t{42}));
  doc.set("pi", Json(3.141592653589793));
  doc.set("name", Json(std::string("mesh")));
  Json arr = Json::array();
  arr.push_back(Json(1.0));
  arr.push_back(Json(std::string("two")));
  doc.set("list", std::move(arr));

  const Json back = Json::parse(doc.dump());
  EXPECT_TRUE(back.at("flag").as_bool());
  EXPECT_EQ(back.at("count").as_int(), 42);
  EXPECT_DOUBLE_EQ(back.at("pi").as_double(), 3.141592653589793);
  EXPECT_EQ(back.at("name").as_string(), "mesh");
  EXPECT_EQ(back.at("list").size(), 2u);
  EXPECT_DOUBLE_EQ(back.at("list").at(0).as_double(), 1.0);
}

TEST(Json, PreservesInsertionOrderAndEscapes) {
  Json doc = Json::object();
  doc.set("z", Json(1.0));
  doc.set("a", Json(std::string("line\nbreak \"quoted\"")));
  const std::string text = doc.dump();
  EXPECT_LT(text.find("\"z\""), text.find("\"a\""));
  const Json back = Json::parse(text);
  EXPECT_EQ(back.at("a").as_string(), "line\nbreak \"quoted\"");
}

TEST(Json, NonAsciiBytesRoundTripThroughAsciiEscapes) {
  // Regression: the writer passed a plain (signed) char to snprintf's %x,
  // which sign-extended bytes >= 0x80 into "￿ffXX" garbage the parser
  // rejected. Every byte value must now survive a dump/parse round trip,
  // and the emitted JSON must stay plain ASCII.
  std::string all_bytes;
  for (int b = 1; b < 256; ++b) all_bytes += static_cast<char>(b);
  Json doc = Json::object();
  doc.set("bytes", Json(all_bytes));
  doc.set("utf8", Json(std::string("caf\xc3\xa9 \xe2\x9c\x93")));
  const std::string text = doc.dump();
  for (char c : text) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
    EXPECT_LT(static_cast<unsigned char>(c), 0x80u);
  }
  const Json back = Json::parse(text);
  EXPECT_EQ(back.at("bytes").as_string(), all_bytes);
  EXPECT_EQ(back.at("utf8").as_string(), "caf\xc3\xa9 \xe2\x9c\x93");
}

TEST(Json, DoublesSurviveExactly) {
  // Shortest-round-trip printing must reproduce the bits.
  const double values[] = {0.1, 1.0 / 3.0, 1e-300, 123456789.123456789,
                           754151.436011905};
  for (double v : values) {
    Json doc = Json::array();
    doc.push_back(Json(v));
    const double got = Json::parse(doc.dump()).at(0).as_double();
    EXPECT_EQ(got, v);
  }
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse("{"), CheckError);
  EXPECT_THROW(Json::parse("[1,]"), CheckError);
  EXPECT_THROW(Json::parse("nope"), CheckError);
  EXPECT_THROW(Json::parse("{} trailing"), CheckError);
  EXPECT_THROW(Json::parse(""), CheckError);
}

TEST(Json, TypeMismatchThrows) {
  const Json doc = Json::parse("{\"n\": 3}");
  EXPECT_THROW(doc.at("n").as_string(), CheckError);
  EXPECT_THROW(doc.at("missing"), CheckError);
}

// --------------------------------------------------------------- traces ----

// A deterministic little multi-phase workload with skewed per-thread work.
gpu::KernelStats run_workload(gpu::Device& dev) {
  const gpu::Phase phases[3] = {
      {[](gpu::ThreadCtx& ctx) { ctx.work(1 + ctx.tid() % 7); }},
      {[](gpu::ThreadCtx& ctx) {
        if (ctx.lane() < 4) ctx.atomic_op();
        ctx.global_access();
      }},
      {[](gpu::ThreadCtx& ctx) { ctx.work(ctx.block() % 3); }},
  };
  return dev.launch_phases({16, 64}, phases);
}

TEST(Trace, DisabledSinkLeavesStatsBitIdentical) {
  gpu::DeviceConfig plain;
  plain.host_workers = 1;
  gpu::Device dev_plain(plain);
  const gpu::KernelStats a = run_workload(dev_plain);

  TraceSink sink;
  gpu::DeviceConfig traced = plain;
  traced.trace = &sink;
  gpu::Device dev_traced(traced);
  const gpu::KernelStats b = run_workload(dev_traced);

  EXPECT_EQ(a.modeled_cycles, b.modeled_cycles);  // bitwise, not approx
  EXPECT_EQ(a.warp_steps, b.warp_steps);
  EXPECT_EQ(a.atomics, b.atomics);
  EXPECT_FALSE(sink.merged().empty());
}

std::string traced_run(std::uint32_t host_workers, bool blocks) {
  TraceSink::Options opts;
  opts.block_spans = blocks;
  TraceSink sink(opts);
  gpu::DeviceConfig cfg;
  cfg.host_workers = host_workers;
  cfg.trace = &sink;
  gpu::Device dev(cfg);
  run_workload(dev);
  run_workload(dev);
  dev.note_counter("test.counter", 42.0);
  ChromeTraceOptions copts;
  copts.dropped_events = sink.dropped();
  return chrome_trace_json(sink.merged(), copts);
}

TEST(Trace, MergeIsByteIdenticalAcrossHostWorkers) {
  const std::string hw1 = traced_run(1, true);
  const std::string hw4 = traced_run(4, true);
  EXPECT_EQ(hw1, hw4);
}

TEST(Trace, ChromeExportIsValidJsonWithExpectedTracks) {
  const std::string text = traced_run(2, true);
  const Json doc = Json::parse(text);
  EXPECT_EQ(doc.at("otherData").at("schema").as_string(),
            "morph-chrome-trace");
  const Json& events = doc.at("traceEvents");
  EXPECT_GT(events.size(), 0u);
  bool saw_launch = false, saw_counter = false, saw_block = false;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Json& e = events.at(i);
    const std::string ph = e.at("ph").as_string();
    if (ph == "X" && e.at("tid").as_int() == 0 &&
        e.at("name").as_string().rfind("launch", 0) == 0) {
      saw_launch = true;
    }
    if (ph == "C") saw_counter = true;
    if (ph == "X" && e.at("tid").as_int() > 0) saw_block = true;
  }
  EXPECT_TRUE(saw_launch);
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_block);
}

TEST(Trace, RingOverflowCountsDrops) {
  TraceSink::Options opts;
  opts.ring_capacity = 8;
  opts.block_spans = true;
  TraceSink sink(opts);
  gpu::DeviceConfig cfg;
  cfg.host_workers = 1;
  cfg.trace = &sink;
  gpu::Device dev(cfg);
  run_workload(dev);  // 16 blocks x 3 phases of block events alone
  EXPECT_GT(sink.dropped(), 0u);
  EXPECT_LE(sink.merged().size(), 2u * 8u);  // two rings, capped
}

TEST(Trace, EventOrderIsATotalOrderKey) {
  TraceEvent a, b;
  a.kind = b.kind = EventKind::kBlock;
  a.launch = b.launch = 3;
  a.block = 1;
  b.block = 2;
  EXPECT_TRUE(trace_event_order(a, b));
  EXPECT_FALSE(trace_event_order(b, a));
  b.block = 1;
  EXPECT_FALSE(trace_event_order(a, b));
  EXPECT_FALSE(trace_event_order(b, a));
}

// --------------------------------------------------------- bench report ----

BenchReport sample_report() {
  BenchReport rep;
  rep.bench = "fig_test";
  rep.title = "A test bench";
  rep.clock_ghz = 1.0;
  rep.args = {{"scale", "4"}, {"host-workers", "2"}};
  rep.add_row("row-a")
      .metric("modeled_cycles", 1000.5)
      .metric("atomics", 32.0)
      .metric("wall_seconds", 0.25);
  rep.add_row("row-b").metric("modeled_cycles", 2000.0);
  return rep;
}

TEST(BenchReportTest, RoundTripsThroughJsonText) {
  const BenchReport rep = sample_report();
  const BenchReport back = BenchReport::parse(rep.to_json_text());
  EXPECT_EQ(back.bench, rep.bench);
  EXPECT_EQ(back.title, rep.title);
  EXPECT_EQ(back.clock_ghz, rep.clock_ghz);
  EXPECT_EQ(back.args, rep.args);
  ASSERT_EQ(back.rows.size(), rep.rows.size());
  for (std::size_t i = 0; i < rep.rows.size(); ++i) {
    EXPECT_EQ(back.rows[i].name, rep.rows[i].name);
    EXPECT_EQ(back.rows[i].metrics, rep.rows[i].metrics);  // exact doubles
  }
}

TEST(BenchReportTest, RejectsWrongSchemaOrVersion) {
  Json doc = sample_report().to_json();
  doc.set("schema", Json(std::string("other-schema")));
  EXPECT_THROW(BenchReport::from_json(doc), CheckError);
  Json doc2 = sample_report().to_json();
  doc2.set("version", Json(std::int64_t{999}));
  EXPECT_THROW(BenchReport::from_json(doc2), CheckError);
}

TEST(BenchReportTest, MergePrefixesRowNames) {
  BenchReport a = sample_report();
  BenchReport b = sample_report();
  b.bench = "fig_other";
  const BenchReport merged = merge_reports({a, b}, "snapshot");
  EXPECT_EQ(merged.bench, "snapshot");
  ASSERT_EQ(merged.rows.size(), 4u);
  EXPECT_EQ(merged.rows[0].name, "fig_test/row-a");
  EXPECT_EQ(merged.rows[2].name, "fig_other/row-a");
}

// ------------------------------------------------------------------ diff ----

TEST(Diff, IdenticalReportsAreClean) {
  const BenchReport rep = sample_report();
  const DiffResult res = diff_reports(rep, rep);
  EXPECT_TRUE(res.clean());
  EXPECT_EQ(res.exit_code(), 0);
  EXPECT_TRUE(res.deltas.empty());
}

TEST(Diff, RegressionBeyondThresholdFails) {
  const BenchReport base = sample_report();
  BenchReport cur = sample_report();
  cur.rows[0].metric("modeled_cycles", 1000.5 * 1.10);  // +10% > 2% default
  const DiffResult res = diff_reports(base, cur);
  EXPECT_TRUE(res.regressed);
  EXPECT_EQ(res.exit_code(), 1);
  ASSERT_EQ(res.deltas.size(), 1u);
  EXPECT_EQ(res.deltas[0].metric, "modeled_cycles");
  EXPECT_TRUE(res.deltas[0].regression);
}

TEST(Diff, ThresholdOverridesAllowTheRegression) {
  const BenchReport base = sample_report();
  BenchReport cur = sample_report();
  cur.rows[0].metric("modeled_cycles", 1000.5 * 1.10);

  DiffThresholds loose;
  loose.default_rel = 0.2;
  EXPECT_EQ(diff_reports(base, cur, loose).exit_code(), 0);

  DiffThresholds per;
  per.per_metric = {{"modeled_cycles", 0.15}};
  EXPECT_EQ(diff_reports(base, cur, per).exit_code(), 0);
  // The override is per-metric: a different gated metric still uses 2%.
  cur.rows[0].metric("atomics", 32.0 * 1.10);
  EXPECT_EQ(diff_reports(base, cur, per).exit_code(), 1);
}

TEST(Diff, ImprovementsNeverFail) {
  const BenchReport base = sample_report();
  BenchReport cur = sample_report();
  cur.rows[0].metric("modeled_cycles", 500.0);  // -50%
  const DiffResult res = diff_reports(base, cur);
  EXPECT_TRUE(res.clean());
  ASSERT_EQ(res.deltas.size(), 1u);
  EXPECT_FALSE(res.deltas[0].regression);
}

TEST(Diff, WallClockIsInformationalOnly) {
  const BenchReport base = sample_report();
  BenchReport cur = sample_report();
  cur.rows[0].metric("wall_seconds", 100.0);  // wildly slower, not gated
  const DiffResult res = diff_reports(base, cur);
  EXPECT_TRUE(res.clean());
  ASSERT_EQ(res.deltas.size(), 1u);
  EXPECT_FALSE(res.deltas[0].gated);
}

TEST(Diff, ZeroBaselineGatesOnAbsoluteThresholdNotInfPercent) {
  // Regression guard: a gated metric whose baseline is exactly 0 used to
  // produce rel_change = +inf and trip the *relative* gate no matter how
  // small the increase; the gate must fall back to the absolute threshold.
  BenchReport base = sample_report();
  base.rows[0].metric("atomics", 0.0);
  BenchReport cur = sample_report();
  cur.rows[0].metric("atomics", 3.0);

  // Default absolute threshold is 0: growth from zero still fails, but via
  // the absolute gate (health counters must never grow silently).
  const DiffResult strict = diff_reports(base, cur);
  EXPECT_TRUE(strict.regressed);
  ASSERT_EQ(strict.deltas.size(), 1u);
  EXPECT_EQ(strict.deltas[0].metric, "atomics");
  EXPECT_TRUE(std::isinf(strict.deltas[0].rel_change));

  // An absolute allowance admits the step where no finite relative
  // threshold ever could.
  DiffThresholds abs_ok;
  abs_ok.default_abs = 3.0;
  EXPECT_EQ(diff_reports(base, cur, abs_ok).exit_code(), 0);
  DiffThresholds abs_tight;
  abs_tight.default_abs = 2.0;
  EXPECT_EQ(diff_reports(base, cur, abs_tight).exit_code(), 1);

  // Per-metric absolute overrides win over the default.
  DiffThresholds per;
  per.per_metric_abs = {{"atomics", 5.0}};
  EXPECT_EQ(diff_reports(base, cur, per).exit_code(), 0);

  // A zero-baseline *improvement* (0 -> negative) never fails.
  BenchReport down = sample_report();
  down.rows[0].metric("atomics", -1.0);
  EXPECT_FALSE(diff_reports(base, down).regressed);
}

TEST(Diff, StructuralChangesAreFlagged) {
  const BenchReport base = sample_report();
  BenchReport cur = sample_report();
  cur.rows.pop_back();                       // row-b missing
  cur.add_row("row-new").metric("x", 1.0);   // new row
  const DiffResult res = diff_reports(base, cur);
  EXPECT_FALSE(res.structural.empty());
  EXPECT_EQ(res.exit_code(), 1);

  BenchReport other = sample_report();
  other.bench = "renamed";
  EXPECT_FALSE(diff_reports(base, other).structural.empty());
}

}  // namespace
}  // namespace morph::telemetry
