#!/usr/bin/env python3
"""Build and run the morphbench benchmark program.

    python3 morphbench/run.py --workload dmr-fig|serve-mixed \
        --seed N --seconds S --trace 0|1
    python3 morphbench/run.py --self-test

Run from the repository root. morphbench and the libraries under src/ are
built (Release) into $CARGO_TARGET_DIR/morphbench, default
.bench_build/morphbench; the first run builds, later runs only check that
the build is current. Build output goes to stderr, so the last line of
stdout is always morphbench's JSON result. With --trace 1 the Chrome trace
is written to <build dir>/traces/<workload>-seed<N>.json.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg, code=2):
    print("morphbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", "morphbench",
           "-j", jobs]
    if subprocess.call(cmd, stdout=sys.stderr) != 0:
        fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to " + HERE)

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(target, "morphbench")
    build(build_dir)
    scratch = os.path.relpath(os.path.join(build_dir, "run"))
    os.makedirs(scratch, exist_ok=True)

    exe = os.path.join(build_dir, "morphbench")
    argv = [exe, "--scratch", scratch]
    if args.self_test:
        argv.append("--self-test")
    else:
        argv += ["--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", repr(args.seconds), "--trace", args.trace]
        if args.trace == "1":
            traces = os.path.join(build_dir, "traces")
            os.makedirs(traces, exist_ok=True)
            argv += ["--trace-out", os.path.join(
                traces, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(exe, argv)


if __name__ == "__main__":
    main()
