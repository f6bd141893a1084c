// Ablation (Sec. 7.3): conflict-resolution schemes on DMR.
//
// Compares per-element locking (mutual exclusion via atomics), the 2-phase
// race-and-check and the paper's 3-phase protocol on the same input: modeled
// time, abort ratio, and the atomics bill. The race phase is max-wins, so
// the 2-phase arm is already safe and its gap to 3-phase is the third
// phase's cost (core/conflict.hpp). Also sweeps the three global-barrier
// flavours.
#include "bench_common.hpp"
#include "dmr/delaunay.hpp"
#include "dmr/refine.hpp"

int run_bench(int argc, char** argv) {
  using namespace morph;
  bench::Bench bench(argc, argv,
                     "Ablation — conflict resolution schemes (Sec. 7.3)",
                     "locks pay atomics; 3-phase is safe and cheap",
                     {"triangles", "scale"});
  const std::size_t n =
      static_cast<std::size_t>(bench.args().get_positive_int("triangles",
                                                             50000)) /
      static_cast<std::size_t>(bench.args().get_positive_int("scale", 1));
  dmr::Mesh base = dmr::generate_input_mesh(n, 21);

  {
    Table t({"scheme", "model-ms", "rounds", "processed", "aborted",
             "abort-ratio", "atomics x1e3"});
    struct S {
      const char* name;
      core::ConflictScheme scheme;
    };
    const S schemes[] = {
        {"per-element locks", core::ConflictScheme::kLocks},
        {"2-phase race+check", core::ConflictScheme::kTwoPhaseRaceCheck},
        {"3-phase (paper)", core::ConflictScheme::kThreePhase},
    };
    for (const S& s : schemes) {
      dmr::Mesh m = base;
      gpu::Device dev(bench.device_config());
      dmr::RefineOptions opts;
      opts.scheme = s.scheme;
      const dmr::RefineStats st = dmr::refine_gpu(m, dev, opts);
      MORPH_CHECK(m.compute_all_bad(30.0) == 0);
      t.add_row({s.name, bench.fmt_ms(bench.model_ms(st.modeled_cycles)),
                 std::to_string(st.rounds), std::to_string(st.processed),
                 std::to_string(st.aborted), Table::num(st.abort_ratio(), 2),
                 Table::num(dev.stats().atomics / 1e3, 1)});

      auto& rep = bench.add_row(std::string("scheme/") + s.name);
      bench.add_device_metrics(rep, dev);
      rep.metric("rounds", static_cast<double>(st.rounds))
          .metric("processed", static_cast<double>(st.processed))
          .metric("aborted", static_cast<double>(st.aborted))
          .metric("abort_ratio", st.abort_ratio());
    }
    t.print(std::cout);
  }

  bench.section("Ablation — global barrier flavours (Sec. 7.3)",
                "naive atomic barrier loses badly at high thread counts");
  {
    Table t({"barrier", "model-ms", "barriers crossed"});
    struct B {
      const char* name;
      gpu::BarrierKind kind;
    };
    const B kinds[] = {
        {"naive atomic", gpu::BarrierKind::kNaiveAtomic},
        {"hierarchical", gpu::BarrierKind::kHierarchical},
        {"lock-free (Xiao-Feng + fences)", gpu::BarrierKind::kLockFree},
    };
    for (const B& b : kinds) {
      dmr::Mesh m = base;
      gpu::Device dev(bench.device_config());
      dmr::RefineOptions opts;
      opts.barrier = b.kind;
      dmr::refine_gpu(m, dev, opts);
      t.add_row({b.name,
                 bench.fmt_ms(bench.model_ms(dev.stats().modeled_cycles)),
                 std::to_string(dev.stats().barriers)});

      bench.add_device_metrics(
          bench.add_row(std::string("barrier/") + b.name), dev);
    }
    t.print(std::cout);
  }
  return bench.finish();
}

int main(int argc, char** argv) {
  return morph::bench::guarded_main([&] { return run_bench(argc, argv); });
}
