#!/usr/bin/env bash
# Tier-1 verification: the regular build (warnings as errors) + full test suite,
# lint, the MorphSan hazard-sanitizer smoke, then ThreadSanitizer and ASan+UBSan
# builds of the concurrency-sensitive suites (the gpu/core/dmr labels cover
# the worklists, the block-parallel Device, the conflict protocol, and the
# refinement drivers that exercise them under host_workers > 1).
#
# Usage: scripts/tier1.sh [build-dir] [tsan-build-dir] [asan-build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
TSAN_BUILD="${2:-build-tsan}"
ASAN_BUILD="${3:-build-asan}"
JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== tier 1: regular build (warnings are errors) + full ctest =="
cmake -B "$BUILD" -S . -DMORPH_WERROR=ON
cmake --build "$BUILD" -j "$JOBS"
ctest --test-dir "$BUILD" --output-on-failure -j "$JOBS"
LISTED="$(ctest --test-dir "$BUILD" -N)"
# A parameterized suite without a name generator registers each case under
# the raw bytes gtest prints for its parameter: names that change whenever
# the parameter type does, and that may hold uninitialized padding.
if grep -F -- '-byte object <' <<< "$LISTED"; then
  echo "ERROR: test names above print raw parameter bytes; give the suite" \
       "a name generator" >&2
  exit 1
fi
# Every example with a main() runs as ctest test example.<name> (see
# examples/CMakeLists.txt), so none can be built and never run.
for src in examples/*.cpp; do
  grep -q '^int main(' "$src" || continue
  name="$(basename "$src" .cpp)"
  if ! grep -qE ": example\.${name}\$" <<< "$LISTED"; then
    echo "ERROR: $src has a main() but no ctest entry example.$name" >&2
    exit 1
  fi
done

echo "== tier 1: lint (clang-tidy; skips when absent) =="
scripts/lint.sh "$BUILD"

echo "== tier 1: telemetry smoke (bench report determinism) =="
SMOKE="$(mktemp -d)"
trap 'rm -rf "$SMOKE"' EXIT
"$BUILD"/bench/fig6_dmr_runtime --scale=64 --json="$SMOKE/a.json" > /dev/null
"$BUILD"/bench/fig6_dmr_runtime --scale=64 --json="$SMOKE/b.json" > /dev/null
"$BUILD"/tools/morph-report diff "$SMOKE/a.json" "$SMOKE/b.json"

echo "== tier 1: fault campaign (deterministic injection + recovery) =="
# A canned campaign must (a) recover to a successful run and (b) produce
# bit-identical modeled metrics for serial and block-parallel execution —
# armed devices pin block order precisely so campaigns replay.
FAULTS='launch@2x2,arena@3x2,barrier@1'
"$BUILD"/bench/fig6_dmr_runtime --scale=64 --faults="$FAULTS" \
    --host-workers=1 --json="$SMOKE/f1.json" > /dev/null
"$BUILD"/bench/fig6_dmr_runtime --scale=64 --faults="$FAULTS" \
    --host-workers=4 --json="$SMOKE/f4.json" > /dev/null
"$BUILD"/tools/morph-report diff "$SMOKE/f1.json" "$SMOKE/f4.json"
"$BUILD"/bench/fig11_mst --scale=16 --faults="$FAULTS" \
    --host-workers=1 --json="$SMOKE/m1.json" > /dev/null
"$BUILD"/bench/fig11_mst --scale=16 --faults="$FAULTS" \
    --host-workers=4 --json="$SMOKE/m4.json" > /dev/null
"$BUILD"/tools/morph-report diff "$SMOKE/m1.json" "$SMOKE/m4.json"
# A malformed spec must fail loudly with the parse exit code (2).
if "$BUILD"/bench/fig11_mst --faults=bogus > /dev/null 2>&1; then
  echo "ERROR: malformed --faults spec was accepted" >&2
  exit 1
fi

echo "== tier 1: cross-worker byte-identity =="
# The block-parallel Device's contract: answers, modeled stats, and
# telemetry traces are byte-identical for any --host-workers value
# (block-order reduction, sequential commit phases, snapshot reads —
# DESIGN.md 6).
for spec in "fig6_dmr_runtime --scale=64" "fig9_sp --scale=400" "fig10_pta" \
            "fig11_mst --scale=16"; do
  set -- $spec
  name="$1"; shift
  "$BUILD/bench/$name" "$@" --host-workers=1 --json="$SMOKE/s1.json" > /dev/null
  "$BUILD/bench/$name" "$@" --host-workers=4 --json="$SMOKE/s4.json" > /dev/null
  "$BUILD"/tools/morph-report diff "$SMOKE/s1.json" "$SMOKE/s4.json"
done
"$BUILD"/bench/fig6_dmr_runtime --scale=64 --host-workers=1 \
    --trace="$SMOKE/t1.json" > /dev/null 2>&1
"$BUILD"/bench/fig6_dmr_runtime --scale=64 --host-workers=4 \
    --trace="$SMOKE/t4.json" > /dev/null 2>&1
cmp "$SMOKE/t1.json" "$SMOKE/t4.json"
# SP joined the byte-identity gate when its sweep moved to snapshot reads
# with a block-ordered max reduction: even the telemetry traces must match.
"$BUILD"/bench/fig9_sp --scale=400 --host-workers=1 \
    --trace="$SMOKE/sp1.json" > /dev/null 2>&1
"$BUILD"/bench/fig9_sp --scale=400 --host-workers=4 \
    --trace="$SMOKE/sp4.json" > /dev/null 2>&1
cmp "$SMOKE/sp1.json" "$SMOKE/sp4.json"

echo "== tier 1: hazard sanitizer (MorphSan clean paths + byte-identity) =="
# Every app must be hazard-clean under --sanitize=all at the default bench
# scales (exit 4 = findings), and attaching the sanitizer must not perturb
# a single modeled metric: the JSON reports diff clean against unsanitized
# runs (wall-clock metrics carry the diff tool's default tolerance).
# ablate_worklist feeds the worklist class through refine_gpu_datadriven's
# GlobalWorklist; one host worker, because the central queue's pop order
# depends on thread timing otherwise.
for spec in "fig6_dmr_runtime --scale=64" "fig9_sp --scale=400" "fig10_pta" \
            "fig11_mst --scale=16" \
            "ablate_worklist --triangles=10000 --host-workers=1"; do
  set -- $spec
  name="$1"; shift
  "$BUILD/bench/$name" "$@" --json="$SMOKE/plain.json" > /dev/null
  "$BUILD/bench/$name" "$@" --sanitize=all --json="$SMOKE/san.json" > /dev/null
  "$BUILD"/tools/morph-report diff "$SMOKE/plain.json" "$SMOKE/san.json"
done
# A bad class list must fail loudly with the parse exit code (2).
if "$BUILD"/bench/fig11_mst --sanitize=bogus > /dev/null 2>&1; then
  echo "ERROR: malformed --sanitize spec was accepted" >&2
  exit 1
fi

echo "== tier 1: job server (daemon smoke + serving determinism) =="
# The serving contract (docs/SERVER.md): for a fixed arrival order, per-job
# results and modeled serving stats are byte-identical across pool sizes and
# --host-workers, and identical to running the same admitted jobs one-shot.
SERVE_SOCK="$SMOKE/served.sock"
"$BUILD"/tools/morph-served --socket="$SERVE_SOCK" --pool=2 > "$SMOKE/served.log" 2>&1 &
SERVED_PID=$!
for _ in $(seq 1 100); do
  grep -q "listening on" "$SMOKE/served.log" 2>/dev/null && break
  sleep 0.1
done
grep -q "listening on" "$SMOKE/served.log" || {
  echo "ERROR: morph-served failed to start" >&2; cat "$SMOKE/served.log" >&2
  exit 1
}
# Mixed batch through the daemon (the client sends shutdown when done).
"$BUILD"/bench/serve_loadtest --connect="$SERVE_SOCK" --jobs=48 --clients=3 \
    --shutdown --jobs-json="$SMOKE/lt_daemon.json" > /dev/null
wait "$SERVED_PID"
# One-shot equivalence: same arrival order, no server — byte-identical.
"$BUILD"/bench/serve_loadtest --oneshot --jobs=48 --clients=3 \
    --jobs-json="$SMOKE/lt_oneshot.json" > /dev/null
cmp "$SMOKE/lt_daemon.json" "$SMOKE/lt_oneshot.json"
# Replay at two pool sizes (embedded server): per-job stats byte-identical.
"$BUILD"/bench/serve_loadtest --jobs=64 --clients=4 --pool=1 \
    --socket="$SMOKE/lt1.sock" --jobs-json="$SMOKE/lt_p1.json" > /dev/null
"$BUILD"/bench/serve_loadtest --jobs=64 --clients=4 --pool=3 \
    --socket="$SMOKE/lt3.sock" --jobs-json="$SMOKE/lt_p3.json" > /dev/null
cmp "$SMOKE/lt_p1.json" "$SMOKE/lt_p3.json"
# And across host workers, including the modeled serving report.
"$BUILD"/bench/serve_loadtest --jobs=64 --clients=4 --pool=2 --host-workers=4 \
    --socket="$SMOKE/lt4.sock" --jobs-json="$SMOKE/lt_hw4.json" \
    --json="$SMOKE/lt_hw4_rep.json" > /dev/null
"$BUILD"/bench/serve_loadtest --jobs=64 --clients=4 --pool=2 --host-workers=1 \
    --socket="$SMOKE/lt1b.sock" --jobs-json="$SMOKE/lt_hw1.json" \
    --json="$SMOKE/lt_hw1_rep.json" > /dev/null
cmp "$SMOKE/lt_hw1.json" "$SMOKE/lt_hw4.json"
"$BUILD"/tools/morph-report diff "$SMOKE/lt_hw1_rep.json" "$SMOKE/lt_hw4_rep.json"

echo "== tier 1: durability (crash campaign + graceful drain) =="
# Crash campaign (docs/SERVER.md, "Durability & operations"): SIGKILL the
# forked server after N replies, restart it on the same journal, reconnect
# and resubmit what went unanswered. At every kill point the merged per-job
# stats must be byte-identical to the uninterrupted one-shot run — recovery
# replays the journaled arrival sequence, and the arrival sequence decides
# everything else.
for kill_after in 3 12 40; do
  rm -f "$SMOKE/lt_crash.wal"
  "$BUILD"/bench/serve_loadtest --jobs=48 --clients=3 \
      --socket="$SMOKE/lt_crash.sock" --journal="$SMOKE/lt_crash.wal" \
      --crash-after="$kill_after" \
      --jobs-json="$SMOKE/lt_crash_$kill_after.json" > /dev/null
  cmp "$SMOKE/lt_oneshot.json" "$SMOKE/lt_crash_$kill_after.json"
done
# Graceful drain: SIGTERM finishes every admitted job, resets the journal
# to its 8-byte magic header, and exits 0 (set -e enforces the exit code).
"$BUILD"/tools/morph-served --socket="$SMOKE/drain.sock" \
    --journal="$SMOKE/drain.wal" > "$SMOKE/drain.log" 2>&1 &
DRAIN_PID=$!
for _ in $(seq 1 100); do
  grep -q "listening on" "$SMOKE/drain.log" 2>/dev/null && break
  sleep 0.1
done
grep -q "listening on" "$SMOKE/drain.log" || {
  echo "ERROR: morph-served (drain check) failed to start" >&2
  cat "$SMOKE/drain.log" >&2
  exit 1
}
"$BUILD"/bench/serve_loadtest --connect="$SMOKE/drain.sock" --jobs=8 \
    --clients=2 > /dev/null
kill -TERM "$DRAIN_PID"
wait "$DRAIN_PID"
grep -q "drained" "$SMOKE/drain.log" || {
  echo "ERROR: SIGTERM did not drain gracefully" >&2
  cat "$SMOKE/drain.log" >&2
  exit 1
}
if [[ "$(stat -c%s "$SMOKE/drain.wal")" -ne 8 ]]; then
  echo "ERROR: drain left a non-empty journal behind" >&2
  exit 1
fi

echo "== tier 1: incremental recompute (O(changes) + session durability) =="
# incremental_bench self-gates (exit 1 on failure): digest streams for the
# same update sequence are byte-identical across host-worker counts, the
# final state matches a from-scratch solve, and batch cost scales with the
# change set, not the graph (>= 100k-element inputs at the default scale —
# docs/SERVER.md, "Sessions").
"$BUILD"/bench/incremental_bench > /dev/null
# session_crash self-gates too: SIGKILL a session-serving child at several
# kill points (including mid-checkpoint-compaction), restart it on the same
# journal, and require every session reply — digests, outputs, exec-stats
# deltas, parked replays — byte-identical to an uninterrupted journal-less
# run.
"$BUILD"/bench/session_crash --socket="$SMOKE/sc.sock" \
    --journal="$SMOKE/sc.wal" > /dev/null

echo "== tier 1: perf (bench snapshot vs committed baseline) =="
# Full CI-sized bench sweep diffed against the committed snapshot. Modeled
# metrics are deterministic, so any drift is a real change: the default gate
# is tight, with a little slack on the aggregate cycle counts so a
# legitimately-moved metric points at the PR that moved it (regenerate the
# baseline with scripts/bench_snapshot.sh when the move is intentional).
BASELINE="BENCH_2026-10-20.json"
if [[ -f "$BASELINE" ]]; then
  scripts/bench_snapshot.sh "$BUILD" "$SMOKE/snapshot.json" > /dev/null
  "$BUILD"/tools/morph-report diff "$BASELINE" "$SMOKE/snapshot.json" \
      --threshold=0.02 \
      --threshold-modeled_cycles=0.05 \
      --threshold-model_ms=0.05 \
      --threshold-total_work=0.05 \
      --threshold-warp_steps=0.05
else
  echo "baseline $BASELINE missing; skipping perf gate" >&2
fi

if echo 'int main(){return 0;}' | g++ -x c++ -fsanitize=thread - -o /dev/null 2>/dev/null; then
  echo "== tier 1: TSan build + ctest -L 'gpu|core|dmr' =="
  cmake -B "$TSAN_BUILD" -S . -DMORPH_TSAN=ON
  cmake --build "$TSAN_BUILD" -j "$JOBS" --target test_gpu test_core test_dmr test_resilience test_sancheck test_sp test_pta test_serve test_incremental
  ctest --test-dir "$TSAN_BUILD" --output-on-failure -j "$JOBS" -L 'gpu|core|dmr'
else
  echo "== tier 1: libtsan not available; skipping TSan pass =="
fi

if echo 'int main(){return 0;}' | g++ -x c++ -fsanitize=address,undefined - -o /dev/null 2>/dev/null; then
  echo "== tier 1: ASan+UBSan build (simulator suite, serve parser, one bench) =="
  cmake -B "$ASAN_BUILD" -S . -DMORPH_ASAN=ON -DMORPH_UBSAN=ON
  cmake --build "$ASAN_BUILD" -j "$JOBS" --target test_gpu test_sancheck test_serve fig6_dmr_runtime
  # JobModel|Protocol|MalformedFrames: client-supplied numbers and frames
  # reach the JSON reader and the integer checks here.
  ctest --test-dir "$ASAN_BUILD" --output-on-failure -j "$JOBS" \
      -R 'test_gpu|Sanitize|Seeded|CleanApps|Reporting|JobModel|Protocol|MalformedFrames'
  "$ASAN_BUILD"/bench/fig6_dmr_runtime --scale=64 --sanitize=all > /dev/null
else
  echo "== tier 1: libasan/libubsan not available; skipping ASan+UBSan pass =="
fi

echo "tier 1 OK"
