// dmr-fig: a stream of Fig. 6-style rows.
//
// Each op takes one pre-generated mesh and runs the whole row: refine_serial
// (the Triangle stand-in), refine_multicore at T in {1,4,16,48} (Galois),
// and refine_gpu on a fresh device at host_workers=2. This is where the
// GPU simulator and the Galois reruns do most of their work, so simulator,
// cavity, runner and thread-pool changes show here.
#include <array>
#include <cmath>
#include <string>

#include "dmr/delaunay.hpp"
#include "dmr/quality.hpp"
#include "dmr/refine.hpp"
#include "harness.hpp"

namespace morphbench {
namespace {

using namespace morph;

// A pool of kMeshes seeded meshes whose sizes spread evenly over
// kMinTriangles..kMaxTriangles, visited in an order that keeps every prefix
// of the op stream size-balanced. Many distinct meshes, rather than a few
// size classes, keep the latency percentiles off the gaps between classes
// and average out how hard one seed's meshes happen to be. The upper end
// stays near 2k triangles so a run fits enough rows (~0.7 s each) for its
// tail percentile.
constexpr std::size_t kMeshes = 32;
constexpr std::size_t kMinTriangles = 1000;
constexpr std::size_t kMaxTriangles = 2100;
constexpr std::array<std::uint32_t, 4> kGaloisWidths = {1, 4, 16, 48};
constexpr std::uint32_t kHostWorkers = 2;
constexpr double kTailQ = 0.75;

/// Modeled figures of one row; identical on every op over the same mesh.
struct RowModel {
  double serial_cycles = 0;
  std::array<double, 4> galois_cycles{};
  double gpu_cycles = 0;
  std::uint64_t rounds = 0, processed = 0, aborted = 0;
  std::uint64_t launches = 0, warp_steps = 0, final_triangles = 0;

  bool operator==(const RowModel&) const = default;
};

struct Input {
  dmr::Mesh mesh;
  bool seen = false;
  RowModel ref;  ///< recorded on the first op over this mesh
};

class DmrFig final : public Workload {
 public:
  explicit DmrFig(const Options& opt) : seed_(opt.seed) {}

  void setup(RunCtx& ctx) override {
    for (std::size_t i = 0; i < kMeshes; ++i) {
      const std::size_t rank = (i * 13) % kMeshes;  // 13 is coprime to 32
      const std::size_t size =
          kMinTriangles + (kMaxTriangles - kMinTriangles) * rank / (kMeshes - 1);
      const std::uint64_t s = splitmix64(seed_ * 1000 + i);
      inputs_.push_back(Input{dmr::generate_input_mesh(size, s), false, {}});
    }
    op(ctx);  // warm-up; also records the first mesh's reference
    next_ = 0;
  }

  std::uint64_t op(RunCtx& ctx) override {
    auto root = ctx.tracer.span("dmr.op");
    Input& in = inputs_[next_];
    last_ = next_;
    next_ = (next_ + 1) % inputs_.size();
    const std::string tag = "dmr input " + std::to_string(last_);
    const auto t0 = Clock::now();
    RowModel row;

    {
      dmr::Mesh m = in.mesh;
      dmr::RefineStats st;
      {
        auto s = ctx.tracer.span("dmr.refine_serial");
        st = dmr::refine_serial(m);
      }
      row.serial_cycles = st.modeled_cycles;
      verify(ctx, m, tag + " serial");
    }
    for (std::size_t i = 0; i < kGaloisWidths.size(); ++i) {
      dmr::Mesh m = in.mesh;
      cpu::ParallelRunner runner({.workers = kGaloisWidths[i]});
      {
        auto s = ctx.tracer.span("galois.refine_multicore");
        dmr::refine_multicore(m, runner);
      }
      row.galois_cycles[i] = runner.stats().modeled_cycles;
      verify(ctx, m, tag + " galois-" + std::to_string(kGaloisWidths[i]));
    }
    {
      dmr::Mesh m = in.mesh;
      gpu::DeviceConfig cfg;
      cfg.host_workers = kHostWorkers;
      std::unique_ptr<gpu::Device> dev;
      {
        auto s = ctx.tracer.span("gpu.Device");
        dev = std::make_unique<gpu::Device>(cfg);
      }
      dmr::RefineStats st;
      {
        auto s = ctx.tracer.span("dmr.refine_gpu");
        st = dmr::refine_gpu(m, *dev);
      }
      row.gpu_cycles = st.modeled_cycles;
      row.rounds = st.rounds;
      row.processed = st.processed;
      row.aborted = st.aborted;
      row.final_triangles = st.final_triangles;
      row.launches = dev->stats().launches;
      row.warp_steps = dev->stats().warp_steps;
      verify(ctx, m, tag + " gpu");
    }
    ctx.latency_ms.add(seconds_since(t0) * 1e3);

    // Modeled numbers are a pure function of the mesh: every repeat of a row
    // must reproduce the first one exactly.
    if (!in.seen) {
      in.seen = true;
      in.ref = row;
    } else {
      ctx.checks.expect(row == in.ref, tag + ": modeled figures differ from "
                                             "the first run over this mesh");
    }
    if (ctx.traced_window) {
      traced_launches_ += row.launches;
      traced_warp_steps_ += row.warp_steps;
    }
    return 1;
  }

  /// refine_gpu again on the same mesh at host_workers=1: with the op's
  /// host_workers=2 run this gives gpu.hw2_speedup.
  void probe(RunCtx& ctx) override {
    dmr::Mesh m = inputs_[last_].mesh;
    gpu::DeviceConfig cfg;
    cfg.host_workers = 1;
    gpu::Device dev(cfg);
    dmr::RefineStats st;
    {
      auto s = ctx.tracer.span("dmr.refine_gpu.hw1");
      st = dmr::refine_gpu(m, dev);
    }
    ctx.checks.expect(st.modeled_cycles == inputs_[last_].ref.gpu_cycles,
                      "dmr input " + std::to_string(last_) +
                          ": modeled cycles differ between host_workers 1 "
                          "and 2");
  }

  std::uint64_t min_ops() const override { return inputs_.size(); }
  double tail_q() const override { return kTailQ; }

  void figures(const RunCtx& ctx, Figures* out) override {
    double gpu_ms = 0;
    std::vector<double> speedups;
    std::uint64_t launches = 0, warp_steps = 0, rounds = 0;
    std::uint64_t processed = 0, aborted = 0;
    for (const Input& in : inputs_) {
      if (!in.seen) continue;  // only after a hard stop
      gpu_ms += model_ms(in.ref.gpu_cycles);
      speedups.push_back(in.ref.galois_cycles.back() / in.ref.gpu_cycles);
      launches += in.ref.launches;
      warp_steps += in.ref.warp_steps;
      rounds += in.ref.rounds;
      processed += in.ref.processed;
      aborted += in.ref.aborted;
    }
    out->end_to_end = {
        {"gpu_model_ms", gpu_ms, "model-ms"},
        {"model_speedup_g48", geomean_of(speedups), "x"},
    };
    auto& l = out->layer;
    l["gpu.launches"] = static_cast<double>(launches);
    l["gpu.warp_steps"] = static_cast<double>(warp_steps);
    l["dmr.rounds"] = static_cast<double>(rounds);
    l["dmr.commit_ratio"] =
        processed + aborted > 0
            ? static_cast<double>(processed) / (processed + aborted)
            : 0.0;

    const Tracer& t = ctx.tracer;
    const double ops = static_cast<double>(t.count("dmr.op"));
    if (ops == 0) return;
    const double gpu_s = t.total_s("dmr.refine_gpu");
    l["dmr.serial_ms"] = t.total_s("dmr.refine_serial") / ops * 1e3;
    l["galois.dmr_ms"] = t.total_s("galois.refine_multicore") / ops * 1e3;
    l["dmr.gpu_ms"] = gpu_s / ops * 1e3;
    l["dmr.verify_ms"] = t.total_s("dmr.verify") / ops * 1e3;
    l["gpu.device_setup_us"] =
        t.total_s("gpu.Device") / static_cast<double>(t.count("gpu.Device")) *
        1e6;
    if (traced_launches_ > 0) {
      l["gpu.host_us_per_launch"] = gpu_s / traced_launches_ * 1e6;
    }
    if (traced_warp_steps_ > 0) {
      l["gpu.host_ns_per_warp_step"] = gpu_s / traced_warp_steps_ * 1e9;
    }
    if (gpu_s > 0) l["gpu.hw2_speedup"] = t.total_s("dmr.refine_gpu.hw1") / gpu_s;
  }

  void corrupt_reference() override {
    // The op after setup runs mesh 0 again, whose reference the warm-up
    // recorded.
    inputs_[0].ref.gpu_cycles += 1.0;
  }

  std::vector<std::pair<std::string, std::uint64_t>> knobs() const override {
    return {{"gpu_host_workers", kHostWorkers},
            {"generator_threads", 1},
            {"galois_virtual_workers_max", kGaloisWidths.back()}};
  }

 private:
  /// The refined mesh must be a valid triangulation of the unit square with
  /// no triangle left below the 30-degree bound.
  static void verify(RunCtx& ctx, dmr::Mesh& m, const std::string& what) {
    auto s = ctx.tracer.span("dmr.verify");
    std::string why;
    if (!ctx.checks.expect(m.validate(&why), what + ": invalid mesh: " + why)) {
      return;
    }
    const std::size_t bad = m.compute_all_bad(30.0);
    const double area = dmr::total_area(m);
    ctx.checks.expect(bad == 0 && std::abs(area - 1.0) < 1e-9,
                      what + ": " + std::to_string(bad) +
                          " bad triangles left, area " + std::to_string(area));
  }

  std::uint64_t seed_;
  std::vector<Input> inputs_;
  std::size_t next_ = 0;
  std::size_t last_ = 0;
  std::uint64_t traced_launches_ = 0;
  std::uint64_t traced_warp_steps_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_dmr_fig(const Options& opt) {
  return std::make_unique<DmrFig>(opt);
}

}  // namespace morphbench
