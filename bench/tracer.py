"""Span tracing of theta_selmer's public functions, installed from outside.

Each wrapper replaces a function in its own module and in every theta_selmer
module that imported it by name.  A call records a span (name, start, end,
parent); hot leaves are only aggregated by (name, parent name), so a density
round with ~850k Hilbert symbols stays small.  Self time of a span is its
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

MODULES = ("arith", "gf2", "monsky", "classgroup", "descent", "cassels", "survey")

# layer metric prefix -> functions wrapped as spans ("module.qualname")
LAYERS = {
    "arith.factor": ("arith.factor_squarefree", "arith.is_squarefree", "arith.factorize"),
    "arith.hilbert": ("arith.hilbert_additive", "arith.legendre_additive"),
    "arith.sqrt": ("arith.sqrt_mod", "arith.sqrt_mod_prime_power"),
    "gf2.elim": ("gf2.rank", "gf2.kernel_basis", "gf2.solve"),
    "monsky.build": ("monsky.build_monsky",),
    "monsky.decode": ("monsky.decode_vector",),
    "classgroup.r4": ("classgroup.r4",),
    "descent.solvable": ("descent.locally_solvable",),
    "descent.local_point": ("descent.find_local_point",),
    "cassels.ternary": ("cassels.solve_ternary",),
    "cassels.local_sum": ("cassels.local_pairing_sum",),
    "survey": ("survey.analyze", "survey.scan_r4_density", "survey.rows_to_csv"),
}
# spans that belong to no reported layer but must not count as parent self time
EXTRA_SPANS = ("descent.find_real_point",)
# counted only: their time stays in the caller's self time
COUNTERS = ("gf2.BitMatrix.from_rows", "gf2.block_assemble", "descent.is_square_in_qp")
# spans kept whole; every other span is a hot leaf, aggregated only
FULL_SPANS = {
    "op", "survey.analyze", "survey.scan_r4_density", "survey.rows_to_csv",
    "monsky.build_monsky", "classgroup.r4", "cassels.solve_ternary",
    "cassels.local_pairing_sum", "descent.find_local_point",
    "descent.find_real_point",
}


class Tracer:
    def __init__(self):
        self.stack = [["root", -1, 0.0]]
        self.spans = []  # (id, name, parent id, start, end)
        self.agg = defaultdict(lambda: [0, 0.0, 0.0, 0])  # calls, total, self, errors
        self.counts = defaultdict(int)  # (name, parent name) -> calls

    def span(self, name: str, fn):
        full = name in FULL_SPANS
        stack, spans, agg = self.stack, self.spans, self.agg
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if full:
                sid = len(spans)
                spans.append(None)  # reserve the id; filled in on return
            # frame: name, id of the nearest whole span (itself or above), child seconds
            frame = [name, sid if full else parent[1], 0.0]
            stack.append(frame)
            failed = True
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                failed = False
                return out
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                parent[2] += dt
                rec = agg[(name, parent[0])]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[2]
                rec[3] += failed
                if full:
                    spans[sid] = (sid, name, parent[1], t0, t1)

        return wrapper

    def counter(self, name: str, fn):
        counts, stack = self.counts, self.stack

        def wrapper(*args, **kwargs):
            counts[(name, stack[-1][0])] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every traced function of theta_selmer's layer modules."""
        mods = {name: importlib.import_module("theta_selmer." + name) for name in MODULES}
        mods[""] = importlib.import_module("theta_selmer")
        names = [f for fs in LAYERS.values() for f in fs] + list(EXTRA_SPANS)
        for qual in names + list(COUNTERS):
            modname, _, attr = qual.partition(".")
            owner = mods[modname]
            if "." in attr:  # a staticmethod on a class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth].__func__
                setattr(cls, meth, staticmethod(self.counter(qual, orig)))
                continue
            orig = getattr(owner, attr)
            if qual in COUNTERS:
                wrapped = self.counter(qual, orig)
            else:
                wrapped = self.span(qual, orig)
            if qual == "cassels.local_pairing_sum":
                wrapped = self._count_places(wrapped)
            for mod in mods.values():
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)

    def _count_places(self, fn):
        """Count the places each local pairing sum runs over."""
        def wrapper(curve, lines, bprimes, places, rng=None):
            self.counts[("cassels.places", "")] += len(places)
            return fn(curve, lines, bprimes, places, rng)

        return wrapper

    def op(self, fn):
        """Run one benchmark operation inside a root span named "op"."""
        return self.span("op", fn)

    def summary(self) -> dict:
        """Totals by (name, parent name), as JSON-able lists."""
        return {
            "agg": [[n, p, *rec] for (n, p), rec in sorted(self.agg.items())],
            "counts": [[n, p, c] for (n, p), c in sorted(self.counts.items())],
        }

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"columns": ["id", "name", "parent", "start", "end"],
                       "spans": self.spans, **self.summary()}, fh)


def layer_metrics(summary: dict) -> dict:
    """Per-layer metrics of one traced round (trace.overhead_s aside)."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    errors = defaultdict(int)
    for name, _parent, n, _total, own, err in summary["agg"]:
        calls[name] += n
        self_s[name] += own
        errors[name] += err
    counts = defaultdict(int)
    for name, parent, n in summary["counts"]:
        counts[name] += n
        counts[(name, parent)] += n

    out = {}
    for layer, fns in LAYERS.items():
        out[f"{layer}.calls"] = sum(calls[f] for f in fns)
        out[f"{layer}.self_s"] = sum(self_s[f] for f in fns)
    # the pairing sum and the survey entry points report self time only
    del out["cassels.local_sum.calls"], out["survey.calls"]
    out["gf2.build.calls"] = counts["gf2.BitMatrix.from_rows"] + counts["gf2.block_assemble"]
    # nothing wrapped lies between find_local_point and its square tests
    tests = counts[("descent.is_square_in_qp", "descent.find_local_point")]
    points = calls["descent.find_local_point"] - errors["descent.find_local_point"]
    out["descent.square_tests"] = tests
    out["descent.local_point.yield"] = points / tests if tests else 0.0
    tries = calls["descent.find_local_point"] + calls["descent.find_real_point"]
    places = counts["cassels.places"]
    out["cassels.local_point.attempts"] = tries / places if places else 0.0
    return out
