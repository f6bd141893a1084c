#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>

#include "gpu/config.hpp"

namespace morphbench {

Tracer::Scope::Scope(Tracer* t, const char* name) : t_(t) {
  if (t_ == nullptr || !t_->enabled_) return;
  index_ = static_cast<std::int64_t>(t_->spans_.size());
  const std::int64_t parent = t_->open_.empty() ? -1 : t_->open_.back();
  t_->spans_.push_back(Span{name, t_->now_ns(), 0, parent, t_->op_});
  t_->open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  t_->spans_[static_cast<std::size_t>(index_)].end_ns = t_->now_ns();
  t_->open_.pop_back();
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

double Tracer::total_s(const std::string& name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (name == s.name) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

std::uint64_t Tracer::count(const std::string& name) const {
  return static_cast<std::uint64_t>(
      std::count_if(spans_.begin(), spans_.end(),
                    [&](const Span& s) { return name == s.name; }));
}

bool Tracer::write_chrome(const std::string& path,
                          const std::string& facts_json) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"traceEvents\":[\n";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                  "\"span\":%zu,\"parent\":%lld}}%s\n",
                  s.name, static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                  static_cast<unsigned long long>(s.op), i,
                  static_cast<long long>(s.parent),
                  i + 1 < spans_.size() ? "," : "");
    f << buf;
  }
  f << "],\n\"displayTimeUnit\":\"ms\",\n\"otherData\":" << facts_json
    << "}\n";
  return static_cast<bool>(f);
}

double Samples::pct(double q) const {
  if (v_.empty()) return 0.0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const double rank = std::ceil(q * static_cast<double>(s.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(s.size() - 1, static_cast<std::size_t>(rank) - 1);
  return s[idx];
}

std::size_t Samples::beyond(double q) const {
  const double p = pct(q);
  return static_cast<std::size_t>(
      std::count_if(v_.begin(), v_.end(), [p](double v) { return v > p; }));
}

double Samples::mean() const {
  if (v_.empty()) return 0.0;
  double sum = 0.0;
  for (double v : v_) sum += v;
  return sum / static_cast<double>(v_.size());
}

bool Checks::expect(bool cond, const std::string& what) {
  ++attempted_;
  if (!cond) {
    if (failed_ < 8) std::cerr << "check failed: " << what << "\n";
    ++failed_;
  }
  return cond;
}

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> table = {
      // gpu: the SIMT simulator, timed around the application calls that launch.
      {"gpu.launches", "count", true},
      {"gpu.warp_steps", "count", true},
      {"gpu.host_us_per_launch", "us", false},
      {"gpu.host_ns_per_warp_step", "ns", false},
      {"gpu.hw2_speedup", "x", false},
      {"gpu.device_setup_us", "us", false},
      // cpu::ParallelRunner: the Galois baselines.
      {"galois.dmr_ms", "ms", false},
      // dmr
      {"dmr.serial_ms", "ms", false},
      {"dmr.gpu_ms", "ms", false},
      {"dmr.verify_ms", "ms", false},
      {"dmr.rounds", "count", true},
      {"dmr.commit_ratio", "ratio", true},
      // pta, through the served pta jobs
      {"pta.ns_per_pts", "ns", false},
      {"pta.iterations", "count", true},
      {"pta.pts_total", "count", true},
      {"pta.edges_added", "count", true},
      // serve: client, scheduler, executor, journal, protocol, sessions.
      {"serve.submit_us", "us", false},
      {"serve.queue_model_ms", "model-ms", false},
      {"serve.batch_occupancy", "ratio", false},
      {"serve.exec_ms.sp", "ms", false},
      {"serve.exec_ms.pta", "ms", false},
      {"serve.exec_ms.mst", "ms", false},
      {"serve.overhead_ms", "ms", false},
      {"serve.journal_records", "count", false},
      {"update_p50_ms", "ms", false},
      {"update_tail_ms", "ms", false},
      {"journal.append_us", "us", false},
      {"journal.sync_us", "us", false},
      {"journal.bytes_per_op", "B", false},
      {"protocol.encode_us", "us", false},
      {"protocol.decode_us", "us", false},
      {"scheduler.submit_us", "us", false},
      {"session.mst_apply_us", "us", false},
      {"session.pta_apply_us", "us", false},
      // the benchmark's own span recorder
      {"trace.overhead_pct", "%", false},
      {"trace.spans", "count", false},
  };
  return table;
}

double model_ms(double cycles) {
  return cycles / (morph::gpu::DeviceConfig{}.clock_ghz * 1e6);
}

double geomean_of(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : xs) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

}  // namespace morphbench
