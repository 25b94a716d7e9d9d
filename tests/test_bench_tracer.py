"""The benchmark tracer wraps package functions by name, so a rename in the
package breaks `bench/run.py --trace 1` without failing any other test."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

_INSTALL = """
import importlib.util, inspect, sys
from theta_selmer import cassels
spec = importlib.util.spec_from_file_location("tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
# the tracer calls local_pairing_sum(curve, lines, bprimes, places, rng)
inspect.signature(cassels.local_pairing_sum).bind(None, None, None, None, None)
tracer.Tracer().install()
"""


def test_tracer_installs_in_a_fresh_interpreter():
    proc = subprocess.run([sys.executable, "-c", _INSTALL, str(ROOT / "bench" / "tracer.py")],
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
