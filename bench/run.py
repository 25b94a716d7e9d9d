#!/usr/bin/env python3
"""Benchmark of theta_selmer's four scans, timed per public call.

    python3 bench/run.py --workload survey --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; nothing needs building.  Each round
runs the workload's fixed input set once, in a fresh interpreter (child.py),
one call after another with jobs=1, and rounds repeat until --seconds is used
up.  Outputs are checked outside the timed region (workloads.bad_items).

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced rounds and prints the per-layer metrics, with trace.overhead_s.
The last line of stdout is one JSON object; a copy goes to bench/out/.
See README.md for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path[:0] = [SRC, HERE]  # the checks import the package in this process

import workloads  # noqa: E402

WORKLOADS = ("survey", "families", "oracle", "density")

# Percentile reported as op_tail_ms, over the inputs' median call times: the
# highest with at least 10 inputs beyond it.  density makes a single call per
# round, so its tail is the slowest round's call.
TAIL = {"survey": 0.998, "families": 0.985, "oracle": 0.95, "density": None}

# setup_s is the median of this many fresh imports; one import varies by
# up to 2x as the shared machine's speed moves, so few would not repeat
MIN_IMPORTS = 40
CHILD_TIMEOUT_S = 90

IMPORT_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import theta_selmer; print(time.perf_counter() - t); print(theta_selmer.__file__)"
)


class BenchError(Exception):
    pass


def _check_module(path: str) -> None:
    if not os.path.abspath(path).startswith(os.path.join(SRC, "theta_selmer") + os.sep):
        raise BenchError(f"imported theta_selmer from {path}, not from {SRC}")


def import_seconds() -> float:
    """Time of `import theta_selmer` inside a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_CODE, SRC], cwd=ROOT,
                         capture_output=True, text=True, timeout=60)
    if out.returncode != 0:
        raise BenchError(f"import failed: {out.stderr.strip()}")
    secs, path = out.stdout.split("\n")[:2]
    _check_module(path)
    return float(secs)


def one_round(workload: str, size, trace_file: str | None = None) -> dict:
    """Run one round in a fresh process and return its JSON report."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), workload, json.dumps(size)]
    if trace_file:
        cmd.append(trace_file)
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S)
    if out.returncode != 0:
        raise BenchError(f"{workload} round failed: {out.stderr.strip()[-2000:]}")
    report = json.loads(out.stdout.strip().split("\n")[-1])
    _check_module(report["module"])
    return report


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile of a non-empty list."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size=None, plant: bool = False) -> dict:
    """Run whole rounds for `seconds`, check them and return the result object.

    plant corrupts one answer of the first round before it is checked; the
    self-test uses it to show that a wrong answer counts as failed.
    """
    size = workloads.FULL[workload] if size is None else size
    items = workloads.inputs(workload, size)
    os.makedirs(OUT, exist_ok=True)
    trace_file = os.path.join(OUT, f"trace-{workload}-seed{seed}.json")
    plain, traced, imports = run_rounds(workload, size, seconds, trace_file if trace else None)
    attempted, failed, correct = count_failures(workload, size, items, plain + traced,
                                                seed, plant)
    metrics = per_layer(plain, traced) if trace else end_to_end(workload, plain, imports)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    name = f"result-{workload}-seed{seed}-trace{int(trace)}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump({**result, "rounds": len(plain), "traced_rounds": len(traced),
                   "wall_s": [r["wall_s"] for r in plain + traced],
                   "imports_s": imports}, fh)
    return result


def run_rounds(workload: str, size, seconds: float, trace_file: str | None):
    """Untraced rounds (alternating with traced ones when trace_file is
    given) until the next round would end after `seconds`; at least one of
    each kind.  Without tracing, fresh imports are timed between rounds,
    spread evenly over the run, MIN_IMPORTS in all."""
    import_seconds()  # untimed: byte-compiles the package on a fresh checkout
    plain, traced, imports = [], [], []
    start = time.perf_counter()
    longest = 0.0
    while True:
        want_traced = trace_file is not None and len(traced) < len(plain)
        t0 = time.perf_counter()
        rep = one_round(workload, size, trace_file if want_traced else None)
        (traced if want_traced else plain).append(rep)
        while not trace_file and len(imports) < MIN_IMPORTS and (
                len(imports) * seconds < MIN_IMPORTS * (time.perf_counter() - start)):
            imports.append(import_seconds())
        longest = max(longest, time.perf_counter() - t0)
        enough = plain and (traced or not trace_file)
        if enough and time.perf_counter() - start + longest > seconds:
            break
    while not trace_file and len(imports) < MIN_IMPORTS:
        imports.append(import_seconds())
    return plain, traced, imports


def count_failures(workload: str, size, items: list, rounds: list, seed: int,
                   plant: bool):
    """(attempted, failed, correct) over all rounds.

    The first round is the reference: its outputs are checked, and every
    round must repeat them.  A call that raised is failed; a wrong or
    differing answer is failed and also makes the run incorrect.
    """
    import theta_selmer

    _check_module(theta_selmer.__file__)
    ref = rounds[0]["outputs"]
    if plant:
        workloads.plant(workload, items, ref, seed)
    wrong = workloads.bad_items(workload, size, items, ref, seed)
    for i in sorted(wrong)[:3]:
        print(f"wrong: {workload} item {items[i]}: {ref[i]!r:.200}", file=sys.stderr)
    attempted = failed = 0
    correct = True
    for rep in rounds:
        raised = {int(i) for i in rep["errors"]}
        differs = {i for i, out in enumerate(rep["outputs"]) if out != ref[i]}
        bad = raised | wrong | differs
        attempted += len(items)
        failed += len(bad)
        correct = correct and not (bad - raised)
        for i in sorted(raised)[:3]:
            print(f"error: {workload} item {items[i]}: {rep['errors'][str(i)]}", file=sys.stderr)
    return attempted, failed, correct


def end_to_end(workload: str, plain: list, imports: list) -> dict:
    # each input's median over the rounds: a pause that hits one round at a
    # random call (a GC pass, a slow spell of the machine) does not reach the tail
    per_item = [statistics.median(r["durations"][i] for r in plain)
                for i in range(len(plain[0]["durations"]))]
    q = TAIL[workload]
    p50 = statistics.median(per_item)
    tail = max(r["durations"][0] for r in plain) if q is None else quantile(per_item, q)
    return {
        "setup_s": {"value": statistics.median(imports), "unit": "s"},
        "wall_s": {"value": statistics.median(r["wall_s"] for r in plain), "unit": "s"},
        "op_p50_ms": {"value": p50 * 1e3, "unit": "ms"},
        "op_tail_ms": {"value": tail * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": statistics.median(r["maxrss_kb"] for r in plain) / 1024,
                        "unit": "MB"},
    }


def per_layer(plain: list, traced: list) -> dict:
    from tracer import layer_metrics

    per_round = [layer_metrics(r["trace"]) for r in traced]
    out = {}
    for name in per_round[0]:
        # median_low: a count stays a whole number of one round
        value = statistics.median_low(m[name] for m in per_round)
        if name.endswith(".self_s"):
            unit = "s"
        elif name.endswith((".yield", ".attempts")):
            unit = "ratio"
        else:
            unit = "count"
        out[name] = {"value": value, "unit": unit}
    overhead = (statistics.median(r["wall_s"] for r in traced)
                - statistics.median(r["wall_s"] for r in plain))
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "theta_selmer", "__init__.py")):
        print(f"error: no theta_selmer package under {SRC}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
