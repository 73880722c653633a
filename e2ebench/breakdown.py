#!/usr/bin/env python3
"""Summarises a traced run's spans: time per layer call, self time, shares.

Usage:  python3 e2ebench/breakdown.py .bench_build/e2ebench/spans/<file>.json

A span's self time is its duration minus what its direct children cover.
Shares are of the enclosing top-level span kind: the measured phase
(bench.measured) or the serial fleet replay (bench.replay).
"""
import collections
import json
import sys


def main(path):
    with open(path) as f:
        doc = json.load(f)
    spans = doc["spans"]
    covered = collections.defaultdict(int)
    for s in spans:
        if s["parent"] >= 0:
            covered[s["parent"]] += s["end_ns"] - s["start_ns"]

    def root(i):
        while spans[i]["parent"] >= 0:
            i = spans[i]["parent"]
        return spans[i]["name"]

    total = collections.Counter()
    self_ns = collections.Counter()
    count = collections.Counter()
    top = collections.Counter()
    for i, s in enumerate(spans):
        key = (root(i), s["name"])
        dur = s["end_ns"] - s["start_ns"]
        total[key] += dur
        self_ns[key] += dur - covered[i]
        count[key] += 1
        if s["parent"] < 0:
            top[s["name"]] += dur

    print("env: %s" % json.dumps(doc["env"]))
    print("%-16s %-22s %8s %12s %12s %7s" %
          ("within", "span", "count", "total_ms", "self_ms", "self%"))
    for key in sorted(total, key=lambda k: (k[0], -total[k])):
        share = 100.0 * self_ns[key] / top[key[0]] if top[key[0]] else 0.0
        print("%-16s %-22s %8d %12.1f %12.1f %6.1f%%" %
              (key[0], key[1], count[key], total[key] / 1e6,
               self_ns[key] / 1e6, share))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
