#!/usr/bin/env python3
"""Summarise a morphbench Chrome trace by span name.

    python3 morphbench/trace_summary.py .bench_build/morphbench/traces/dmr-fig-seed1.json

For every span name it prints the number of spans, their summed duration
and their summed self time (duration minus what direct children cover, via
the `parent` index each span carries in `args`), sorted by self time.
"""
import json
import sys
from collections import defaultdict


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    with open(sys.argv[1]) as f:
        doc = json.load(f)
    spans = doc["traceEvents"]
    child_us = defaultdict(float)
    for s in spans:
        parent = s["args"]["parent"]
        if parent >= 0:
            child_us[parent] += s["dur"]
    count = defaultdict(int)
    total = defaultdict(float)
    self_us = defaultdict(float)
    for s in spans:
        name = s["name"]
        count[name] += 1
        total[name] += s["dur"]
        self_us[name] += s["dur"] - child_us[s["args"]["span"]]
    print("facts:", json.dumps(doc.get("otherData", {})))
    print("%-28s %8s %14s %14s" % ("span", "count", "total ms", "self ms"))
    for name in sorted(count, key=lambda n: -self_us[n]):
        print("%-28s %8d %14.3f %14.3f" %
              (name, count[name], total[name] / 1e3, self_us[name] / 1e3))


if __name__ == "__main__":
    main()
