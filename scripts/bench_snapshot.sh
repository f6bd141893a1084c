#!/usr/bin/env bash
# Runs every bench at fast (CI-sized) settings with --json and consolidates
# the reports into BENCH_<date>.json via `morph-report merge`. Check the
# output file in to track the modeled-performance trajectory of the repo;
# `morph-report diff BENCH_old.json BENCH_new.json` gates regressions.
#
# Usage: scripts/bench_snapshot.sh [build-dir] [out.json]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
OUT="${2:-BENCH_$(date +%F).json}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# bench -> fast arguments (micro_primitives is google-benchmark and has its
# own JSON output; it is not part of the snapshot). ablate_worklist runs on
# one host worker: its data-driven arm pops from one shared list, so with
# more workers its schedule (and every modeled metric of that row) depends
# on thread timing. The committed baselines were recorded on one worker.
benches=(
  "fig2_parallelism --scale=16"
  "fig6_dmr_runtime --scale=64"
  "fig8_dmr_ablation --scale=400"
  "fig9_sp --scale=400"
  "fig10_pta"
  "fig11_mst --scale=256"
  "ablate_conflict --scale=8"
  "ablate_memory --triangles=10000 --vars=2000 --cons=2500"
  "ablate_pushpull"
  "ablate_worklist --triangles=10000 --host-workers=1"
  "incremental_bench"
  "serve_loadtest --jobs=48 --clients=3 --pool=2 --deadline-every=7 --deadline-ms=0.5 --socket=/tmp/morph_snapshot_loadtest.sock"
  "session_crash --socket=/tmp/morph_snapshot_session.sock --journal=/tmp/morph_snapshot_session.wal"
)

reports=()
for spec in "${benches[@]}"; do
  set -- $spec
  name="$1"; shift
  echo "== $name $* =="
  # Fail loudly, naming the bench: a partial snapshot silently narrows the
  # perf gate, so a bench that dies must kill the whole run.
  status=0
  "$BUILD/bench/$name" "$@" --json="$TMP/$name.json" > /dev/null || status=$?
  if [[ "$status" -ne 0 ]]; then
    echo "ERROR: bench '$name' exited with status $status; no snapshot written" >&2
    exit "$status"
  fi
  if [[ ! -s "$TMP/$name.json" ]]; then
    echo "ERROR: bench '$name' produced no JSON report; no snapshot written" >&2
    exit 1
  fi
  reports+=("$TMP/$name.json")
done

"$BUILD"/tools/morph-report merge "$OUT" "${reports[@]}"
echo "snapshot written to $OUT"
