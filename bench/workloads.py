"""The four workloads: their fixed inputs, one timed round, and the checks.

Inputs are fixed ranges built here with the benchmark's own sieve, so the
program under test receives only the generated integers.  The seed of a run
chooses which outputs get the expensive independent checks and the rng of the
re-certification check; it never changes the inputs.
"""

from __future__ import annotations

import random
import time

PI3, TWO_PI3 = "pi3", "2pi3"

# Full-size inputs: survey m <= 5000; families in [9e4, 1e5); oracle |n| <= 200;
# density |D| <= 2e5.  The self-test runs the same code at TINY sizes.
FULL = {"survey": 5000, "families": [90000, 100000], "oracle": 200, "density": 200000}
TINY = {"survey": 60, "families": [1000, 1600], "oracle": 30, "density": 3000}

# How many outputs each seeded check samples.
SAMPLE_ORACLE = 4      # survey / families rows re-derived by the descent oracle
SAMPLE_R4 = 24         # survey m / density D re-derived by reduced forms
SAMPLE_RECHOICE = 8    # families pairing calls re-certified with a seeded rng


# ---------------------------------------------------------------------------
# the benchmark's own arithmetic (shares no code with theta_selmer)
# ---------------------------------------------------------------------------


def spf_table(limit: int) -> list[int]:
    """Smallest prime factor of every k <= limit (spf[0] = 0, spf[1] = 1)."""
    spf = list(range(limit + 1))
    for p in range(2, int(limit**0.5) + 1):
        if spf[p] == p:
            for k in range(p * p, limit + 1, p):
                if spf[k] == k:
                    spf[k] = p
    return spf


def prime_factors(k: int, spf: list[int]) -> list[int]:
    """Prime factors of k with multiplicity, ascending."""
    out = []
    while k > 1:
        p = spf[k]
        out.append(p)
        k //= p
    return out


def is_squarefree(k: int, spf: list[int]) -> bool:
    ps = prime_factors(k, spf)
    return len(set(ps)) == len(ps)


def big_t(k: int, spf: list[int]) -> int:
    """Number of prime factors >= 5 of a squarefree k."""
    return sum(1 for p in prime_factors(k, spf) if p >= 5)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def inputs(workload: str, size) -> list:
    if workload == "survey":
        spf = spf_table(size)
        items = [[m, th] for m in range(1, size + 1) if is_squarefree(m, spf)
                 for th in (PI3, TWO_PI3)]
        return items + [["csv"]]
    if workload == "families":
        lo, hi = size
        spf = spf_table(hi)
        items = []
        for m in range(lo, hi):
            if not is_squarefree(m, spf):
                continue
            semiprime = len(prime_factors(m, spf)) == 2
            if m % 24 == 5 and semiprime:
                items.append([m, PI3])
            elif m % 24 == 11 and semiprime:
                items.append([m, TWO_PI3])
            elif m % 24 == 19:
                items.append([m, PI3])
        return items
    if workload == "oracle":
        spf = spf_table(size)
        return [[s * m] for m in range(1, size + 1) if is_squarefree(m, spf) for s in (1, -1)]
    if workload == "density":
        return [[size]]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# one timed round
# ---------------------------------------------------------------------------


def _op_factory(workload: str):
    """A function item -> compact JSON-able output, plus round state."""
    from theta_selmer import cassels, descent, monsky, survey
    from theta_selmer.arith import factor_squarefree

    if workload == "survey":
        rows = []

        def op(item):
            if item[0] == "csv":
                return survey.rows_to_csv(rows)
            row = survey.analyze(item[0], item[1], with_certificate=False)
            rows.append(row)
            return [row.n, row.t, row.s2, row.parity_ok, row.r4]

        return op
    if workload == "families":

        def op(item):
            cert = cassels.certify(item[0], item[1])
            return [cert.kind, cert.s2, "pairing" in cert.evidence]

        return op
    if workload == "oracle":

        def op(item):
            sf = factor_squarefree(item[0])
            return [monsky.selmer_rank(sf), descent.oracle_selmer_dimension(sf)]

        return op
    if workload == "density":

        def op(item):
            return [[r.size, r.counts] for r in survey.scan_r4_density(item[0])]

        return op
    raise ValueError(f"unknown workload {workload!r}")


def run_round(workload: str, items: list, tracer=None):
    """Call the public API once per item, one call after another.

    Returns (wall_s, per-item seconds, per-item output or None, errors).
    Outputs are collected but checked elsewhere, outside the timed region.
    With a tracer, each item runs inside a root span.
    """
    op = _op_factory(workload)
    if tracer is not None:
        op = tracer.op(op)
    clock = time.perf_counter
    durations = [0.0] * len(items)
    outputs = [None] * len(items)
    errors = {}
    start = clock()
    for i, item in enumerate(items):
        t0 = clock()
        try:
            outputs[i] = op(item)
        except Exception as exc:  # a failed operation, counted by the caller
            errors[i] = f"{type(exc).__name__}: {exc}"
        durations[i] = clock() - t0
    return clock() - start, durations, outputs, errors


# ---------------------------------------------------------------------------
# checks (outside the timed region)
# ---------------------------------------------------------------------------


def _fundamental_disc(m: int) -> int:
    """Discriminant of Q(sqrt(-m)) for squarefree m > 0."""
    return -m if (-m) % 4 == 1 else -4 * m


def _is_fundamental(D: int, spf: list[int]) -> bool:
    """Whether D is a fundamental discriminant, given the sieve up to |D|."""
    if D % 4 == 1:
        return is_squarefree(abs(D), spf)
    return D % 4 == 0 and (D // 4) % 4 in (2, 3) and is_squarefree(abs(D) // 4, spf)


def _sample(rng: random.Random, pool: list, k: int) -> list:
    return rng.sample(pool, min(k, len(pool)))


def _survey_samples(items: list, outputs: list, seed: int):
    """Seeded survey samples: rows with t <= 4 for the oracle, m for r4."""
    rng = random.Random(seed)
    rows = [i for i, it in enumerate(items) if it[0] != "csv" and outputs[i] is not None]
    small = [i for i in rows if outputs[i][1] <= 4]
    ms = sorted({items[i][0] for i in rows})
    return _sample(rng, small, SAMPLE_ORACLE), _sample(rng, ms, SAMPLE_R4)


def bad_items(workload: str, size, items: list, outputs: list, seed: int) -> set:
    """Indices whose output is missing or fails a check.

    Cheap checks cover every output; the seeded samples compare against a
    computation that does not share the code path under test.
    """
    bad = {i for i, out in enumerate(outputs) if out is None}
    checks = {"survey": _check_survey, "families": _check_families,
              "oracle": _check_oracle, "density": _check_density}
    return bad | checks[workload](size, items, outputs, seed)


def _check_survey(size, items, outputs, seed) -> set:
    from theta_selmer import classgroup, descent

    bad = set()
    spf = spf_table(size)
    rows = [i for i, it in enumerate(items) if it[0] != "csv" and outputs[i] is not None]
    for i in rows:
        m, th = items[i]
        n, t, s2, parity_ok, _ = outputs[i]
        if not parity_ok or s2 < 2 or n != (m if th == PI3 else -m) or t != big_t(m, spf):
            bad.add(i)
    oracle_rows, r4_ms = _survey_samples(items, outputs, seed)
    for i in oracle_rows:
        if descent.oracle_selmer_dimension(outputs[i][0]) != outputs[i][2]:
            bad.add(i)
    for m in r4_ms:
        want = classgroup.forms_class_group(_fundamental_disc(m)).r4
        bad.update(i for i in rows if items[i][0] == m and outputs[i][4] != want)
    csv_i = len(items) - 1
    if outputs[csv_i] is not None:
        lines = outputs[csv_i].split("\n")
        good = len(lines) == len(rows) + 2 and lines[-1] == "" and all(
            lines[k + 1].startswith(f"{outputs[i][0]},{items[i][1]},")
            for k, i in enumerate(rows)
        )
        if not good:
            bad.add(csv_i)
    return bad


def _check_families(size, items, outputs, seed) -> set:
    from theta_selmer import cassels, descent

    bad = set()
    rng = random.Random(seed)
    spf = spf_table(size[1])
    need_s2 = {cassels.KIND_S2EQ2: 2, cassels.KIND_THM71: 2,
               cassels.KIND_THM72: 2, cassels.KIND_CASSELS: 4}
    done = [i for i in range(len(items)) if outputs[i] is not None]
    for i in done:
        kind, s2, _ = outputs[i]
        if kind in need_s2:
            ok = s2 == need_s2[kind]
        elif kind == cassels.KIND_PARITY:
            ok = s2 % 2 == 1
        else:
            ok = kind == cassels.KIND_UNKNOWN and s2 % 2 == 0 and s2 >= 4
        if not ok:
            bad.add(i)
    small = [i for i in done if big_t(items[i][0], spf) <= 4]
    for i in _sample(rng, small, SAMPLE_ORACLE):
        m, th = items[i]
        if descent.oracle_selmer_dimension(m if th == PI3 else -m) != outputs[i][1]:
            bad.add(i)
    paired = [i for i in done if outputs[i][2]]
    for i in _sample(rng, paired, SAMPLE_RECHOICE):
        m, th = items[i]
        again = cassels.certify(m, th, rng=random.Random(rng.randrange(1 << 30)))
        if again.kind != outputs[i][0]:
            bad.add(i)
    return bad


def _check_oracle(size, items, outputs, seed) -> set:
    return {i for i, out in enumerate(outputs)
            if out is not None and (out[0] != out[1] or out[0] < 2)}


def _check_density(size, items, outputs, seed) -> set:
    """Each sign's r4 histogram must equal the one classgroup.r4 gives over
    the fundamental discriminants of the benchmark's own sieve; r4 factors
    through field_data there, not through the scan's sieve.  A seeded sample
    of those r4 values for D < 0 must equal r4 from reduced forms."""
    from theta_selmer import classgroup

    reports = outputs[0]
    if reports is None:
        return set()
    spf = spf_table(size)
    r4_of = {}
    want = {}
    for sign in (-1, 1):
        hist = {}
        for a in range(3, size + 1):
            D = sign * a
            if _is_fundamental(D, spf):
                r4_of[D] = classgroup.r4(D if D % 4 == 1 else D // 4)
                key = str(r4_of[D])
                hist[key] = hist.get(key, 0) + 1
        want[sign] = [sum(hist.values()), hist]
    ok = len(reports) == 4 and all(
        report == want[sign] for report, sign in zip(reports, (-1, -1, 1, 1))
    )
    negs = sorted(D for D in r4_of if D < 0)
    for D in _sample(random.Random(seed), negs, SAMPLE_R4):
        if r4_of[D] != classgroup.forms_class_group(D).r4:
            ok = False
    return set() if ok else {0}


def plant(workload: str, items: list, outputs: list, seed: int) -> int:
    """Corrupt one output that the seeded checks examine; return its index.

    Used by the self-test to show that a wrong answer is reported as a
    failed operation.
    """
    if workload == "survey":
        m = _survey_samples(items, outputs, seed)[1][0]
        i = next(i for i, it in enumerate(items) if it[0] == m)
        outputs[i][4] += 1
        return i
    if workload == "families":
        i = next(i for i, out in enumerate(outputs) if out[0] == "RankZero_S2eq2")
        outputs[i][1] = 4
        return i
    if workload == "oracle":
        outputs[0][1] += 2
        return 0
    if workload == "density":
        counts = outputs[0][0][1]  # D < 0: move one discriminant from r4 = 0 to 1
        counts["0"] -= 1
        counts["1"] = counts.get("1", 0) + 1
        return 0
    raise ValueError(f"unknown workload {workload!r}")
