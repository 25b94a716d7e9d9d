"""One round of one workload in a fresh interpreter; prints one JSON line.

    python3 bench/child.py WORKLOAD SIZE_JSON [TRACE_FILE]

The package is imported before the clock starts.  With TRACE_FILE the public
functions are wrapped (see tracer.py), the spans are written there, and the
per-layer summary is added to the output.  Run by run.py, not by hand.
"""

import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import theta_selmer  # noqa: E402,F401
import workloads  # noqa: E402


def peak_rss_kb() -> int:
    """Peak resident set of this process's own address space.

    ru_maxrss is not used where VmHWM exists: Linux carries the high-water
    mark of the address space replaced by exec into it, so a child spawned
    by run.py would report at least run.py's own peak.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    workload, size = sys.argv[1], json.loads(sys.argv[2])
    trace_file = sys.argv[3] if len(sys.argv) > 3 else None
    items = workloads.inputs(workload, size)
    tracer = None
    if trace_file:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    wall, durations, outputs, errors = workloads.run_round(workload, items, tracer)
    maxrss_kb = peak_rss_kb()
    result = {"wall_s": wall, "durations": durations, "outputs": outputs,
              "errors": errors, "maxrss_kb": maxrss_kb,
              "module": theta_selmer.__file__}
    if tracer:
        tracer.write(trace_file)
        result["trace"] = tracer.summary()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
