"""Batch scans: parity verification, oracle equivalence, density reports,
certification rates.  Deterministic CSV/JSON output, optional process pool.
"""

from __future__ import annotations

import json
import math
import multiprocessing as mp
import os
from bisect import bisect_right
from collections import Counter
from dataclasses import asdict, dataclass

from . import cassels, classgroup, descent, gf2, monsky
from .arith import (
    SquarefreeInteger,
    factor_range,
    factor_squarefree,
    legendre_table,
    primes_up_to,
)

SCHEMA_VERSION = 1

CSV_FIELDS = (
    "n", "theta", "eta", "ntilde", "t", "residue24", "template", "s2",
    "parity_predicted", "parity_ok", "r4", "certificate_kind", "oracle_checked",
)


class OracleMismatch(Exception):
    """The descent oracle's Selmer dimension differs from s2."""


@dataclass(frozen=True)
class SurveyRow:
    n: int
    theta: str
    eta: int
    ntilde: int
    t: int
    residue24: int
    template: str
    s2: int
    parity_predicted: str
    parity_ok: bool
    r4: int
    certificate_kind: str
    oracle_checked: bool

    def csv_line(self) -> str:
        """The row in CSV_FIELDS order, bools as 0/1."""
        return (f"{self.n},{self.theta},{self.eta},{self.ntilde},{self.t},{self.residue24},"
                f"{self.template},{self.s2},{self.parity_predicted},{self.parity_ok:d},"
                f"{self.r4},{self.certificate_kind},{self.oracle_checked:d}")


@dataclass
class DensityReport:
    population: str
    size: int
    counts: dict
    fraction: float | None
    target: float | None
    tolerance: float | None
    passed: bool
    empty: bool = False

    def as_dict(self):
        return {"schema": SCHEMA_VERSION, **asdict(self)}


def analyze(m: SquarefreeInteger | int, theta: str, with_certificate: bool = True,
            with_oracle: bool = False) -> SurveyRow:
    """Everything the survey records about one (m, theta), read off the one
    analysis of (m, theta) that the certificate step reads too."""
    rec = cassels._Analysis.of(m, theta)
    m, sf, s2 = rec.m.value, rec.n, rec.s2
    predicted = monsky.predicted_parity(m, theta)
    parity_ok = ("even" if s2 % 2 == 0 else "odd") == predicted
    kind = ""
    if with_certificate:
        try:
            kind = cassels.certify(rec, theta).kind
        except cassels.ExcludedSmallN:
            kind = "excluded_small"
    oracle_checked = False
    if with_oracle and sf.t <= 4:
        dim = descent.oracle_selmer_dimension(sf)
        if dim != s2:
            raise OracleMismatch(f"oracle dimension {dim} != s2 {s2} at n={sf.value}")
        oracle_checked = True
    return SurveyRow(
        n=sf.value, theta=theta, eta=sf.eta, ntilde=sf.ntilde, t=sf.t,
        residue24=m % 24, template=rec.mm.template, s2=s2,
        parity_predicted=predicted, parity_ok=parity_ok, r4=rec.r4,
        certificate_kind=kind, oracle_checked=oracle_checked,
    )


# ---------------------------------------------------------------------------
# parallel map helper (ordering fixed by the input sequence)
# ---------------------------------------------------------------------------


def default_jobs() -> int:
    env = os.environ.get("THETA_SELMER_JOBS")
    if env:
        return max(1, int(env))
    return 1


def _pmap(fn, items, jobs):
    # more workers than cores only adds processes
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1 or len(items) < 4:
        return [fn(x) for x in items]
    with mp.Pool(jobs) as pool:
        return pool.map(fn, items, chunksize=max(1, len(items) // (8 * jobs)))


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------


def scan_parity(max_n: int, jobs: int = 1):
    """Both thetas for every squarefree m <= max_n; failures must be empty."""
    rows = survey_range(max_n, jobs=jobs)
    failures = [r for r in rows if not r.parity_ok]
    report = DensityReport(
        population=f"squarefree m <= {max_n}, both thetas",
        size=len(rows),
        counts={"checked": len(rows), "failures": len(failures)},
        fraction=(len(rows) - len(failures)) / len(rows) if rows else None,
        target=1.0,
        tolerance=0.0,
        passed=not failures,
        empty=not rows,
    )
    return report, failures, rows


def _oracle_one(sf: SquarefreeInteger):
    s2 = monsky.selmer_rank(sf)
    dim = descent.oracle_selmer_dimension(sf)
    return (sf.value, s2, dim)


def scan_oracle(max_n: int, jobs: int = 1):
    """Descent-oracle dimension vs Monsky rank for squarefree |n| <= max_n
    with t <= 4, the range the oracle's enumeration accepts."""
    items = [n for m in factor_range(max_n) if m.t <= 4 for n in (m, -m)]
    triples = _pmap(_oracle_one, items, jobs)
    failures = [
        {"n": n, "s2": s2, "oracle_dim": dim, "detail": diagnose_oracle_mismatch(n)}
        for (n, s2, dim) in triples
        if s2 != dim
    ]
    return failures, triples


def diagnose_oracle_mismatch(n: int):
    """Which candidate classes the two computations disagree on, and where."""
    sf = factor_squarefree(n)
    kernel = {v.bits for v in monsky.selmer_vectors(monsky.build_monsky(sf))}
    _, vectors = descent.selmer_group_oracle(sf, check_closure=False)
    out = []
    for bits in sorted(kernel ^ {v.bits for v in vectors}):
        lam = monsky.decode_vector(gf2.BitVector(2 * sf.t + 6, bits), sf)
        curve = descent.curve_for(sf, lam)
        places = [(str(pl), descent.locally_solvable(curve, pl)) for pl in descent.place_set(sf)]
        out.append({"lambda": [lam.b1, lam.b2], "in_kernel": bits in kernel,
                    "local_solvability": places})
    return out


_FK_CONST = math.prod(1 - 0.5**i for i in range(1, 64))


def fk_density(k: int, sign: int) -> float:
    """The classical asymptotic density of r4 = k by discriminant sign."""
    num = _FK_CONST
    if sign < 0:
        den = 2 ** (k * k) * math.prod((1 - 0.5**i) ** 2 for i in range(1, k + 1))
    else:
        den = (
            2 ** (k * (k + 1))
            * math.prod(1 - 0.5**i for i in range(1, k + 1))
            * math.prod(1 - 0.5**i for i in range(1, k + 2))
        )
    return num / den


def scan_r4_density(max_absD: int) -> list[DensityReport]:
    """Empirical r4 distribution over fundamental discriminants |D| <= bound.

    D runs over -m and m for squarefree m, with |D| = m when D = 1 mod 4 and
    4m otherwise; D = 1 is no field.  The m are walked depth first over
    products of odd primes: a node is P = p_1 ... p_k, ascending, and its
    children are m = P p and 2 P p for the primes p > p_k under the bound.
    R(-m) and R(m) depend on p only through its signature, p mod 8 and the
    bits [p/p_i] (the [p_i/p] follow by reciprocity), while whether P p is
    at most a quarter of the bound decides which signs give a |D| under it.
    So a node runs the Redei kernel once per signature, on one child of that
    signature, and counts the other children alike.  A child's bits are its
    parent's and one Euler-criterion pow modulo the newest prime.

    Targets are the pinned acceptance numbers (28.87% for D < 0 and 14.43%
    for D > 0 at k = 0, tolerance 1.5 points).  The k = 1 negative target
    comes from the displayed product formula.  A sign with no discriminant
    under the bound is reported empty, and passes, as in the other scans.
    """
    neg, pos = {}, {}
    quarter = max_absD // 4
    primes = primes_up_to(max_absD)[1:]  # the odd ones; freed on return

    def add(m, odd, table, n_neg, n_pos):
        for d, n, hist in ((-m, n_neg, neg), (m, n_pos, pos)):
            if n:
                rows = classgroup._redei_rows(d, odd, table)
                r = len(rows) - 1 - gf2.rank_rows(rows)
                hist[r] = hist.get(r, 0) + n

    def visit(P, odd, lo, sigs):
        # the children are p = primes[lo + i] <= bound / P, of signature sigs[i]
        hi = lo + len(sigs)
        ps = primes[lo:hi]
        keys = [s << 3 | p & 6 for s, p in zip(sigs, ps)]
        # 2 P p needs 8 P p <= bound; P p needs 4 P p <= bound for both signs
        even = Counter(keys[:bisect_right(primes, quarter // (2 * P), lo, hi) - lo])
        cut = bisect_right(primes, quarter // P, lo, hi) - lo
        small, large = Counter(keys[:cut]), Counter(keys[cut:])
        for key, p in dict(zip(keys, ps)).items():
            m, odd_m = P * p, odd + (p,)
            table = legendre_table(odd_m)
            add(2 * m, odd_m, table, even[key], even[key])
            # above the quarter only D = m = 1 mod 4 and D = -m = 1 mod 4 count
            rest = large[key]
            add(m, odd_m, table, small[key] + (rest if m & 2 else 0),
                small[key] + (0 if m & 2 else rest))
        k, limit = len(odd), max_absD // P
        for i, p in enumerate(ps):
            j = lo + i + 1
            top = bisect_right(primes, limit // p, j, hi)
            if top == j:
                break
            visit(P * p, odd + (p,), j, [s | (pow(q, p >> 1, p) != 1) << k
                                         for s, q in zip(sigs[i + 1:top - lo], primes[j:top])])

    # m = 1 (D = -4) and m = 2 (D = -8, 8) have no odd prime
    add(1, (), [], quarter >= 1, 0)
    add(2, (), [], quarter >= 2, quarter >= 2)
    visit(1, (), 0, [0] * len(primes))
    del visit  # a cycle through its own cell, which would hold primes until a gc
    counts = {-1: neg, 1: pos}
    reports = []
    for sign in (-1, 1):
        total = sum(counts[sign].values())
        for k, target in ((0, 0.288788 if sign < 0 else 0.144394),
                          (1, fk_density(1, sign))):
            frac = counts[sign].get(k, 0) / total if total else None
            reports.append(
                DensityReport(
                    population=f"fundamental {'D<0' if sign<0 else 'D>0'}, |D| <= {max_absD}, r4={k}",
                    size=total,
                    counts={str(kk): v for kk, v in sorted(counts[sign].items())},
                    fraction=frac,
                    target=target,
                    tolerance=0.015,
                    passed=total == 0 or abs(frac - target) <= 0.015,
                    empty=total == 0,
                )
            )
    return reports


def _cert_one(rec):
    return cassels.certify(rec, rec.theta).kind


# the scans of the F5 and F11 families, and the corollary scans, which take
# the r4(-m) = 0 members of their (m mod 24) classes at their theta
_FAMILY_SCANS = {"f5": cassels.FAMILY_F5, "f11": cassels.FAMILY_F11}
_COROLLARY_SCANS = {
    "cor15": ((3, 7, 15, 19), monsky.THETA_PI3),
    "cor16": ((2, 3, 6, 11, 14, 18), monsky.THETA_2PI3),
}


def scan_certification(family: str, max_n: int, jobs: int = 1) -> DensityReport:
    """Certified fraction over a family population.

    F5 / F11: semiprimes pq = 5 resp. 11 mod 24 (target >= 0.72 at 1e5);
    cor15 / cor16: the r4 = 0 corollary classes, where every member must
    get a RankZero_S2eq2 certificate.  Membership is read off the analysis
    of each m in the scan's residue classes, which certify then reads too.
    """
    fam = family.lower()
    member = _FAMILY_SCANS.get(fam)
    if member:
        items = list(cassels.family_members(member, max_n))
    elif fam in _COROLLARY_SCANS:
        residues, theta = _COROLLARY_SCANS[fam]
        recs = (cassels._Analysis.of(m, theta) for m in factor_range(max_n)
                if m.value % 24 in residues and m.value not in (2, 3, 6))
        items = [rec for rec in recs if rec.r4 == 0]
    else:
        raise ValueError(f"unknown family {family!r}")
    counts: dict[str, int] = {}
    for kind in _pmap(_cert_one, items, jobs):
        counts[kind] = counts.get(kind, 0) + 1
    size = len(items)
    if member:
        certified = sum(counts.get(k, 0) for k in cassels.CERTIFYING_KINDS)
        frac = certified / size if size else None
        return DensityReport(
            population=f"pq = {cassels.FAMILY_CLASS[member][1]} mod 24, pq <= {max_n}",
            size=size, counts=counts, fraction=frac,
            target=0.75, tolerance=0.03,
            passed=(size == 0) or frac >= 0.72, empty=size == 0,
        )
    good = counts.get(cassels.KIND_S2EQ2, 0)
    return DensityReport(
        population=f"{fam}: m = {residues} mod 24, r4(-m) = 0, m <= {max_n}",
        size=size, counts=counts,
        fraction=good / size if size else None,
        target=1.0, tolerance=0.0,
        passed=good == size, empty=size == 0,
    )


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def rows_to_csv(rows) -> str:
    header = ",".join(CSV_FIELDS)
    return "\n".join([header] + [r.csv_line() for r in rows]) + "\n"


def rows_to_json(rows) -> str:
    return json.dumps(
        {"schema": SCHEMA_VERSION, "rows": [asdict(r) for r in rows]},
        sort_keys=True,
    )


def survey_range(max_n: int, thetas=(monsky.THETA_PI3, monsky.THETA_2PI3),
                 jobs: int = 1, with_certificates: bool = False,
                 oracle_max: int = 0) -> list[SurveyRow]:
    """Rows ordered by ascending m, pi/3 before 2pi/3.

    Oracle cross-checks follow the sampling policy: every m up to
    min(oracle_max, 300), then one in fifty up to min(oracle_max, 1e4).
    """
    items = []
    for sf in factor_range(max_n):
        m = sf.value
        check = m <= min(oracle_max, 300) or (
            300 < m <= min(oracle_max, 10**4) and m % 50 == 19
        )
        for theta in thetas:
            items.append((sf, theta, with_certificates, check))
    return _pmap(_survey_one, items, jobs)


def _survey_one(args):
    m, theta, with_cert, with_oracle = args
    return analyze(m, theta, with_certificate=with_cert, with_oracle=with_oracle)
