#!/usr/bin/env python3
"""Fast self-test of the benchmark: every workload at a tiny size.

    python3 bench/selftest.py

For each workload it checks that a clean run has no failed operation, that
one planted wrong answer is reported as exactly one failed operation, and
that a traced run prints every per-layer metric named in BENCHMARK.json.
Exits 0 when all of that holds.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    layer_names = {m["name"] for m in spec["per_layer"]}
    e2e_names = {m["name"] for m in spec["end_to_end"]}
    ok = True
    for w in run.WORKLOADS:
        size = workloads.TINY[w]
        calls = len(workloads.inputs(w, size))
        clean = run.measure(w, 0, 0, False, size)
        planted = run.measure(w, 0, 0, False, size, plant=True)
        traced = run.measure(w, 0, 0, True, size)
        checks = {
            "clean run passes": clean["correct"] and clean["failed"] == 0
            and clean["attempted"] == calls,
            "end-to-end metrics": set(clean["metrics"]) == e2e_names,
            "planted answer fails": not planted["correct"] and planted["failed"] == 1,
            "per-layer metrics": set(traced["metrics"]) == layer_names,
        }
        for what, good in checks.items():
            print(f"{'PASS' if good else 'FAIL'} {w}: {what}")
            ok = ok and good
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
