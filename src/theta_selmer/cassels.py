"""Cassels pairing on Sel_2/torsion and non-congruence certificates.

Three certified families:

  F19: n = p_1...p_t = 19 mod 24 with r4(-n) = 1 (then s2 = 4); the
       pairing of Lambda0 = (d, 1) with the non-torsion generator is
       computed three ways (closed form, linear-system criterion, raw
       local sum) and all must agree.
  F5:  n = p q = 5 mod 24 (theta = pi/3); pairing <(1,p), (3^u q, 1)>.
  F11: n = p q = 11 mod 24 (theta = 2pi/3); pairing <(1,p), ((-1)^u q, 1)>.

Local pairing sums run over p | 24n and the real place, with contributions
sum_i [L_i(P), b_i']_p for tangent lines L_i of the three conics of
C_Lambda0 at rational points; the engine below picks its own local points
(deterministically, or randomised for the well-definedness tests), so the
value can be cross-checked against the closed forms instance by instance.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

from . import classgroup, descent, gf2, monsky
from .arith import (
    OO,
    SquarefreeInteger,
    ZeroArgument,
    factor_range,
    factor_squarefree,
    factorize,
    hilbert_additive,
    legendre_additive,
    legendre_table,
    split_valuation,
    sqrt_mod,
)
from .gf2 import BitVector
from .monsky import (
    THETA_2PI3,
    THETA_PI3,
    TwoCoverClass,
    curve_argument,
    encode_pair,
    squarefree_product,
    torsion_classes,
)

KIND_PARITY = "ParityOnly"
KIND_S2EQ2 = "RankZero_S2eq2"
KIND_CASSELS = "RankZero_Cassels"
KIND_THM71 = "CriterionMatch_Thm71"
KIND_THM72 = "CriterionMatch_Thm72"
KIND_UNKNOWN = "Unknown"
# the kinds that certify m non-theta-congruent
CERTIFYING_KINDS = (KIND_S2EQ2, KIND_CASSELS, KIND_THM71, KIND_THM72)

FAMILY_F19 = "F19"
FAMILY_F5 = "F5"
FAMILY_F11 = "F11"

# the (theta, m mod 24) class of each family; F5 and F11 also need m = p q
# with p = 1 mod 3 (split_pq), and F19 needs eta = 1 (m > 0) and r4(-m) = 1
FAMILY_CLASS = {FAMILY_F5: (THETA_PI3, 5), FAMILY_F11: (THETA_2PI3, 11),
                FAMILY_F19: (THETA_PI3, 19)}
_FAMILY_OF = {cls: family for family, cls in FAMILY_CLASS.items()}


class NotFound(Exception):
    def __init__(self, bound):
        self.bound = bound
        super().__init__(f"no ternary solution within |a|,|b| <= {bound}")


class Insoluble(NotFound):
    """The ternary form has no point over some completion of Q."""

    def __init__(self, f, g, place):
        Exception.__init__(self, f"{f} a^2 + {g} b^2 = c^2 has no point over Q_{place}")
        self.bound = 0


class HypothesisFailed(Exception):
    pass


class InternalDisagreement(AssertionError):
    """A check of the producer's own work failed, in every mode."""


class ExcludedSmallN(Exception):
    pass


# ---------------------------------------------------------------------------
# ternary forms
# ---------------------------------------------------------------------------

BOUND_SCHEDULE = tuple(64 * 2**k for k in range(15))


@dataclass(frozen=True)
class TernarySolution:
    a: int
    b: int
    c: int
    form_id: str
    flags: tuple[tuple[str, bool], ...]

    def as_dict(self):
        return {"a": self.a, "b": self.b, "c": self.c, "form": self.form_id,
                "flags": dict(self.flags)}


def transform(p: int, g: int, a: int, b: int, c: int):
    """The conic automorph for p a^2 + g b^2 = c^2, content cleared."""
    aa = (p - g) * a + 2 * g * b
    bb = (p - g) * b - 2 * p * a
    cc = (p + g) * c
    k = math.gcd(aa, bb, cc)
    return aa // k, bb // k, cc // k


def solve_ternary(form_id: str, params: tuple, rng: random.Random | None = None,
                  skip: int = 0) -> TernarySolution:
    """A primitive, family-normalised solution of the requested form.

    params is (d, n) for the F19 form, n an int or a SquarefreeInteger,
    and (p, q) for the other two.  skip > 0 (or an rng) picks later/random
    qualifying solutions, which the well-definedness tests use to confirm
    the pairing does not depend on the choice.
    """
    if form_id == "4c2=da2+(n/d)b2":
        return _search_f19(*params, skip, rng)
    if form_id in ("px2-qy2=z2", "px2+qy2=z2"):
        return _search_pq(*params, -1 if form_id == "px2-qy2=z2" else 1, skip, rng)
    raise ValueError(f"unknown form {form_id!r}")


_F19_FLAGS = (
    ("a_odd", True), ("b_odd", True), ("c_positive", True),
    ("a_1_mod_4", True), ("b_1_mod_4", True),
)
# from the fifth bound on, _search_pq settles for the last solution it has
_LATE_BOUNDS = frozenset(BOUND_SCHEDULE[4:])


def _search_f19(d: int, n: SquarefreeInteger | int, skip: int, rng) -> TernarySolution:
    """4 c^2 = d a^2 + (n/d) b^2 with a, b odd: the want-th such solution,
    or the last one within the first bound of BOUND_SCHEDULE that has any.
    An n already factored as a SquarefreeInteger is not factored again."""
    want = skip + (rng.randrange(4) if rng else 0) + 1
    found = []
    if isinstance(n, SquarefreeInteger):
        primes = [2] * n.has_two + [3] * n.has_three + list(n.odd_primes)
        n = n.value
    else:
        primes = [p for p, _ in factorize(n)]
    for s, sols in enumerate(_shells(d, n // d, primes), 1):
        for a, b, c in sols:
            if a % 2 and b % 2 and c % 2 == 0:
                # normalise: a = b = 1 mod 4 via sign flips, c > 0
                found.append((a if a % 4 == 1 else -a, b if b % 4 == 1 else -b, c // 2))
                if len(found) == want:
                    break
        if len(found) == want or (found and s in BOUND_SCHEDULE):
            return TernarySolution(*found[-1], form_id="4c2=da2+(n/d)b2", flags=_F19_FLAGS)
    raise NotFound(BOUND_SCHEDULE[-1])


def _search_pq(p: int, q: int, form_sign: int, skip: int, rng) -> TernarySolution:
    """Normalised solution of p a^2 + form_sign q b^2 = c^2.

    The first 6 want + 12 raw solutions are normalised; the want-th distinct
    result is returned, or else the last one once the search is past
    BOUND_SCHEDULE[4] (or out of raw solutions).
    """
    want = skip + (rng.randrange(4) if rng else 0) + 1
    budget = 6 * want + 12
    found = []
    for s, sols in enumerate(_shells(p, form_sign * q, (p, q)), 1):
        for a0, b0, c0 in sols[:budget]:
            cand = _normalise_pq(p, q, form_sign, a0, b0, c0)
            if cand is not None and cand not in found:
                found.append(cand)
                if len(found) == want:
                    break
        budget -= len(sols)
        if len(found) == want or (found and (budget <= 0 or s in _LATE_BOUNDS)):
            sol = found[-1]
            flags = _pq_flags(p, q, form_sign, *sol)
            form = "px2-qy2=z2" if form_sign < 0 else "px2+qy2=z2"
            return TernarySolution(*sol, form_id=form, flags=tuple(flags.items()))
        if budget <= 0:
            break
    raise NotFound(BOUND_SCHEDULE[-1])


def _shells(f: int, g: int, primes):
    """The primitive solutions of f a^2 + g b^2 = c^2 with a, b >= 1, as one
    list per shell s = max(a, b) = 1 .. BOUND_SCHEDULE[-1]: first (s, b) for
    b = 1 .. s, then (a, s) for a = 1 .. s - 1.

    f and g are squarefree and primes are the primes dividing f g.  Raises
    Insoluble before any shell if some completion has no point; otherwise
    f is a square mod every odd prime l | g.  In the half-shell where b
    varies, every solution has c = +-r s mod such an l, with r^2 = f mod l,
    so only those c are tried and b is read off c; likewise with f and g
    swapped where a varies.
    """
    for place in (OO, 2, *primes):
        if hilbert_additive(f, g, place):
            raise Insoluble(f, g, place)
    lf = max((l for l in primes if l > 2 and f % l == 0), default=1)
    lg = max((l for l in primes if l > 2 and g % l == 0), default=1)
    rf = sqrt_mod(g, lf) if g % lf else 0
    rg = sqrt_mod(f, lg) if f % lg else 0
    for s in range(1, BOUND_SCHEDULE[-1] + 1):
        yield ([(s, x, c) for x, c in _half_shell(f, g, lg, rg, s, s)]
               + [(x, s, c) for x, c in _half_shell(g, f, lf, rf, s, s - 1)])


def _half_shell(fixed: int, free: int, l: int, r: int, s: int, top: int):
    """(x, c) with fixed s^2 + free x^2 = c^2, c >= 0, 1 <= x <= top and
    gcd(x, s) = 1, by x; l | free and r^2 = fixed mod l."""
    base = fixed * s * s
    lo, hi = base + free, base + free * top * top
    if free < 0:
        lo, hi = hi, lo
    if hi < 0:
        return []
    # c^2 runs over [lo, hi] exactly as x^2 runs over [1, top^2]
    c_lo, c_hi = math.isqrt(lo - 1) + 1 if lo > 0 else 0, math.isqrt(hi)
    out = []
    for rho in {r * s % l, -r * s % l}:
        for c in range(c_lo + (rho - c_lo) % l, c_hi + 1, l):
            x2, rem = divmod(c * c - base, free)
            if rem == 0:
                x = math.isqrt(x2)
                if x * x == x2 and math.gcd(x, s) == 1:
                    out.append((x, c))
    out.sort()
    return out


def _pq_flags(p, q, form_sign, a, b, c):
    flags = {
        "a_odd": a % 2 == 1,
        "b_odd": b % 2 == 1,
        "c_even": c % 2 == 0,
        "a_1_mod_4": a % 4 == 1,
    }
    if form_sign < 0:
        flags["a_div_3"] = a % 3 == 0
        flags["c_1_mod_3"] = c % 3 == 1
    else:
        flags["c_div_3"] = c % 3 == 0
        flags["c_negative"] = c < 0
    return flags


def _normalise_pq(p, q, form_sign, a, b, c):
    """Push a raw solution into the family's congruence normal form."""
    for _ in range(6):
        if a % 2 and b % 2 and c % 2 == 0:
            if form_sign < 0 and a % 3 == 0:
                break
            if form_sign > 0 and a % 3 and b % 3:
                break
        a, b, c = transform(p, form_sign * q, abs(a), abs(b), abs(c))
        a, b, c = abs(a), abs(b), abs(c)
        if not (p * a * a + form_sign * q * b * b == c * c):
            raise InternalDisagreement("automorph failed to preserve the form")
    else:
        return None
    # sign normalisation
    a = a if a % 4 == 1 else -a
    if form_sign < 0:
        c = c if c % 3 == 1 else -c
        b = abs(b)
    else:
        c = -abs(c)
        b = abs(b)
    flags = _pq_flags(p, q, form_sign, a, b, c)
    core = ["a_odd", "b_odd", "c_even", "a_1_mod_4"]
    core.append("a_div_3" if form_sign < 0 else "c_div_3")
    if not all(flags[k] for k in core):
        return None
    return (a, b, c)


# ---------------------------------------------------------------------------
# tangent lines
# ---------------------------------------------------------------------------

# a line is a length-4 integer tuple of coefficients on (t, u1, u2, u3)


def tangent_from_point(quad, variables, point):
    """Tangent line of the conic at the point, as 4 coefficients on
    (t, u1, u2, u3); gcd-reduced."""
    grads = [2 * c * w for c, w in zip(quad, point)]
    g = math.gcd(*grads)
    grads = [x // g for x in grads]
    line = [0, 0, 0, 0]
    order = ("t", "u1", "u2", "u3")
    for var, coef in zip(variables, grads):
        line[order.index(var)] = coef
    return tuple(line)


def _check_tangency(quad, variables, point, line):
    """Check the point is on the conic quad, whose coefficients sit on the
    named variable triple, and the line is its tangent there, up to scaling."""
    if sum(c * w * w for c, w in zip(quad, point)):
        raise InternalDisagreement("point is not on the conic")
    tangent = tangent_from_point(quad, variables, point)
    k = math.gcd(*line)
    line = tuple(x // k for x in line)
    if line not in (tangent, tuple(-x for x in tangent)):
        raise InternalDisagreement("line is not tangent at the point")


def _tangents_f19(n: SquarefreeInteger, d: int, sol: TernarySolution):
    a, b, c = sol.a, sol.b, sol.c
    nd = n.value // d
    lines = (
        (2 * nd * b, 0, -a, -2 * c),
        (0, 1, 0, -1),
        (nd * b, 2 * c, -a, 0),
    )
    curve = descent.curve_for(n, TwoCoverClass(d, 1))
    _check_tangency(curve.h1, ("t", "u2", "u3"), (b, -2 * a * d, 4 * c), lines[0])
    _check_tangency(curve.h2, ("t", "u1", "u3"), (0, 1, 1), lines[1])
    _check_tangency(curve.h3, ("t", "u1", "u2"), (b, -2 * c, -a * d), lines[2])
    return curve, lines


def _tangents_pq(n: SquarefreeInteger, p: int, q: int, sol: TernarySolution):
    a, b, c = sol.a, sol.b, sol.c
    lines = (
        (0, 0, 1, -1),
        None,  # H2's line is never needed: b2' = 1 kills its terms
        (-n.sign * q * b, a, -c, 0),
    )
    curve = descent.curve_for(n, TwoCoverClass(1, p))
    _check_tangency(curve.h1, ("t", "u2", "u3"), (0, 1, 1), lines[0])
    _check_tangency(curve.h3, ("t", "u1", "u2"), (b, p * a, c), lines[2])
    return curve, lines


def conic_point(quad: tuple[int, int, int]) -> tuple[int, int, int]:
    """A primitive point with coordinates >= 0 on c0 x^2 + c1 y^2 + c2 z^2 = 0.

    With c_k of least size, -c_i c_k = f u^2 and -c_j c_k = g w^2 for f, g
    squarefree; the first solution of f a^2 + g b^2 = c^2 in the ternary stream
    gives x_i = a w c_k, x_j = b u c_k, x_k = c u w; f = 1 or g = 1 takes
    (1, 0, 1) or (0, 1, 1) without the stream.  Raises Insoluble if the
    conic has no point over some completion of Q, ZeroArgument if a
    coefficient is 0.
    """
    if 0 in quad:
        raise ZeroArgument(f"conic coefficients must be nonzero, got {quad}")
    primes = sorted({p for c in quad for p, _ in factorize(abs(c))})
    k = min(range(3), key=lambda x: abs(quad[x]))
    i, j = (x for x in range(3) if x != k)
    f, g, u, w = -quad[i] * quad[k], -quad[j] * quad[k], 1, 1
    for p in primes:
        while f % (p * p) == 0:
            f, u = f // (p * p), u * p
        while g % (p * p) == 0:
            g, w = g // (p * p), w * p
    # the stream yields only a, b >= 1, never the point (1, 0, 1) or (0, 1, 1)
    first = [[(1, 0, 1)]] if f == 1 else [[(0, 1, 1)]] if g == 1 else _shells(f, g, primes)
    for sols in first:
        for a, b, c in sols[:1]:
            pt = {i: a * w * quad[k], j: b * u * quad[k], k: c * u * w}
            h = math.gcd(*pt.values())
            return tuple(abs(pt[x]) // h for x in range(3))
    raise NotFound(BOUND_SCHEDULE[-1])


def torsion_pairing_checks(curve, lines, places, n_sf, rng=None):
    """<Lambda, Pi> for the torsion generators Pi; all must vanish."""
    if lines[1] is None:
        # the torsion classes have b2' != 1, so H2 needs a line too
        pt = conic_point(curve.h2)
        lines = (lines[0], tangent_from_point(curve.h2, ("t", "u1", "u3"), pt), lines[2])
    out = []
    for tv in torsion_classes(n_sf)[1:3]:
        tb3 = squarefree_product(tv.b1, tv.b2)
        value, _ = local_pairing_sum(curve, lines, (tv.b1, tv.b2, tb3), places, rng)
        out.append({"pi": [tv.b1, tv.b2], "pairing": value})
        if value != 0:
            raise InternalDisagreement(f"<Lambda, {tv}> = {value} != 0")
    return out


# ---------------------------------------------------------------------------
# local pairing sums
# ---------------------------------------------------------------------------


def _sign_quad(a, b, r):
    """Exact sign of a + b*sqrt(r) for rationals, r >= 0."""
    if b == 0 or r == 0:
        return (a > 0) - (a < 0)
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if sa == 0:
        return sb
    if sa == sb:
        return sa
    diff = a * a - b * b * r
    if diff == 0:
        return 0
    return sa if diff > 0 else sb


def _sign_two_radicals(a, b, r2, c, r1):
    """Exact sign of a + b*sqrt(r2) + c*sqrt(r1)."""
    if c == 0 or r1 == 0:
        return _sign_quad(a, b, r2)
    s1 = _sign_quad(a, b, r2)
    s2 = (c > 0) - (c < 0)
    if s1 == 0:
        return s2
    if s1 == s2:
        return s1
    d = _sign_quad(a * a + b * b * r2 - c * c * r1, 2 * a * b, r2)
    if d == 0:
        return 0
    return s1 if d > 0 else s2


def _real_sign(line, point, b1, b2):
    """Exact sign of a line at the scaled real point (b1 b2 t, b2 s2 sqrt(r2),
    b1 s1 sqrt(r1), b1 b2 u3), for a point (t, u3, r1, r2, s1, s2) of
    find_real_point.

    The value a + b sqrt(r2) + c sqrt(r1) is multiplied by the positive
    td*ud*r1d*r2d (t = tn/td, u3 = un/ud, r_i = r_in/r_id), which makes a, b
    and c integers and the radicands r_in*r_id, and keeps its sign.
    """
    ct, cu1, cu2, cu3 = line
    t, u3, r1, r2, s1, s2 = point
    tn, td = t.numerator, t.denominator
    un, ud = u3.numerator, u3.denominator
    r1n, r1d = r1.numerator, r1.denominator
    r2n, r2d = r2.numerator, r2.denominator
    tud = td * ud
    return _sign_two_radicals((ct * tn * ud + cu3 * un * td) * b1 * b2 * r1d * r2d,
                              cu1 * s2 * b2 * tud * r1d, r2n * r2d,
                              cu2 * s1 * b1 * tud * r2d, r1n * r1d)


def _real_contribution(curve, lines, bprimes, rng):
    """sum_i [L_i(P_oo), b_i']_oo with an exact real point."""
    for attempt in range(24):
        r = rng if rng is not None else (random.Random(11 + attempt) if attempt else None)
        point = descent.find_real_point(curve, r)
        total = 0
        terms = []
        ok = True
        for line, bp in zip(lines, bprimes):
            if line is None or bp == 1:
                terms.append(0)
                continue
            sgn = _real_sign(line, point, curve.lam.b1, curve.lam.b2)
            if sgn == 0:
                ok = False
                break
            term = 1 if (sgn < 0 and bp < 0) else 0
            terms.append(term)
            total ^= term
        if ok:
            return total, {"place": "oo", "point": [str(point[0]), str(point[1])],
                           "terms": terms}
    raise InternalDisagreement("no usable real point (all hit a tangent line)")


def _finite_contribution(curve, lines, bprimes, p: int, rng):
    margin = 3 if p == 2 else 1
    prec = 24 + 2 * margin
    wit = descent._finite_witness(curve, p)  # one chart search; retries redraw in its ball
    for attempt in range(24):
        r = rng if rng is not None else (random.Random(13 * p + attempt) if attempt else None)
        pt = descent.find_local_point(curve, p, prec, r, wit)
        pk = p**prec
        vals = []
        ok = True
        for line, bp in zip(lines, bprimes):
            if line is None or bp == 1:
                vals.append(None)
                continue
            x = sum(c * w for c, w in zip(line, pt)) % pk
            if x == 0 or split_valuation(x, p)[0] + margin + 2 > prec:
                ok = False
                break
            vals.append(x)
        if not ok:
            prec = min(prec * 2, 4096)
            continue
        total = 0
        terms = []
        for x, bp in zip(vals, bprimes):
            if x is None:
                terms.append(0)
                continue
            term = hilbert_additive(x, bp, p)
            terms.append(term)
            total ^= term
        return total, {"place": p, "point": list(pt), "prec": prec,
                       "L_values": vals, "terms": terms}
    raise InternalDisagreement(f"could not stabilise L-values at p={p}")


def local_pairing_sum(curve, lines, bprimes, places, rng=None):
    """The full Cassels local sum and its per-place transcript."""
    total = 0
    transcript = []
    for place in places:
        if place == OO:
            term, rec = _real_contribution(curve, lines, bprimes, rng)
        else:
            term, rec = _finite_contribution(curve, lines, bprimes, place, rng)
        total ^= term
        transcript.append(rec)
    return total, transcript


# ---------------------------------------------------------------------------
# one analysis per (m, theta)
# ---------------------------------------------------------------------------


def split_pq(m: SquarefreeInteger | int) -> tuple[int, int] | None:
    """(p, q) with m = p*q, p = 1 mod 3, for squarefree semiprime m."""
    sf = m if isinstance(m, SquarefreeInteger) else factor_squarefree(m)
    if sf.eta != 1 or sf.t != 2:
        return None
    p, q = sf.odd_primes
    if p % 3 != 1:
        p, q = q, p
    if p % 3 != 1:
        return None
    return p, q


@dataclass(frozen=True)
class _Analysis:
    """What certify, survey.analyze, the family pairings and the scans read
    about E_{m,theta}, each part built once: m factored, the signed curve
    argument n, M_n, s2, r4(-m), the split m = p q of split_pq and the
    certified family (m, theta) belongs to, if any.  Family membership is
    decided here and nowhere else.  table is the legendre_table of n's odd
    primes >= 5 that M_n was built from, which pairing_f19 reads again."""

    m: SquarefreeInteger
    theta: str
    n: SquarefreeInteger
    table: tuple[int, ...]
    mm: monsky.MonskyMatrix
    s2: int
    r4: int
    pq: tuple[int, int] | None
    family: str | None

    @classmethod
    def of(cls, m: SquarefreeInteger | int, theta: str) -> _Analysis:
        msf = m if isinstance(m, SquarefreeInteger) else factor_squarefree(m)
        sf = msf if curve_argument(msf.value, theta) == msf.value else -msf
        # one table over m's odd primes, 3 first, serves R(-m); M_n reads it
        # without the row and column of 3
        table = legendre_table(((3,) if msf.has_three else ()) + msf.odd_primes)
        m_table = tuple([r >> 1 for r in table[1:]] if msf.has_three else table)
        mm = monsky.build_monsky(sf, m_table)
        r4, pq = classgroup.r4(-msf, table), split_pq(msf)
        family = _FAMILY_OF.get((theta, msf.value % 24))
        member = msf.eta == 1 and r4 == 1 if family == FAMILY_F19 else pq is not None
        return cls(msf, theta, sf, m_table, mm, monsky.selmer_rank(mm), r4, pq,
                   family if member else None)


def family_members(family: str, max_n: int):
    """The analyses of the members m <= max_n of family, by ascending m."""
    if family not in FAMILY_CLASS:
        raise ValueError(f"unknown family {family!r}")
    theta, residue = FAMILY_CLASS[family]
    recs = (_Analysis.of(m, theta) for m in factor_range(max_n) if m.value % 24 == residue)
    return (rec for rec in recs if rec.family == family)


# ---------------------------------------------------------------------------
# F19 pairing
# ---------------------------------------------------------------------------


def _qform(row: BitVector, mat, col: BitVector) -> int:
    return row.dot(mat.mul_vec(col))


def _f19_mprime(blocks):
    a = blocks.a_matrix
    r1 = blocks.r_vec(-1)
    r3 = blocks.r_vec(3)
    upper_left = blocks.d_diag(-3) + gf2.outer_product(r1, r1) + gf2.outer_product(r3, r3)
    return gf2.block_assemble([[upper_left, a], [gf2.transpose(a), gf2.zeros(a.nrows, a.ncols)]])


def pairing_f19(n: SquarefreeInteger | int | _Analysis, rng: random.Random | None = None,
                ternary_skip: int = 0, with_torsion_checks: bool = False):
    """<Lambda0, Lambda1> for the n = 19 mod 24, r4(-n) = 1 family.

    Computed three ways (closed form, solvability criterion, local sum);
    InternalDisagreement if they differ.  Returns (value, evidence dict).
    n may be the analysis certify already holds for (n, pi/3).
    """
    rec = n if isinstance(n, _Analysis) else _Analysis.of(n, FAMILY_CLASS[FAMILY_F19][0])
    if rec.family != FAMILY_F19:
        raise HypothesisFailed("n = 19 mod 24 with r4(-n) = 1 required")
    sf, mm = rec.n, rec.mm
    n = sf.value
    if rec.s2 != 4:
        raise InternalDisagreement(f"s2 = {rec.s2} but the family forces s2 = 4")
    t = sf.t
    blocks = monsky.build_blocks(sf, rec.table)
    d_star, x1 = classgroup.splitting_divisor(blocks)

    # Lambda0 = (d, 1) must be a Selmer class
    if not monsky.in_selmer(mm, d_star, 1):
        raise InternalDisagreement("(d, 1) is not in the Monsky kernel")

    # pick the non-torsion generator Lambda1 and normalise it
    tors = monsky.torsion_vectors(sf)
    span = [tors[1], tors[2], encode_pair(d_star, 1, sf)]
    candidates = [v for v in monsky.selmer_vectors(mm) if not gf2.in_row_span(span, v)]
    if not candidates:
        raise InternalDisagreement("kernel has no class outside torsion + (d,1)")
    v = rng.choice(candidates) if rng else min(candidates, key=lambda w: w.bits)
    if v[0]:  # xi1 = 1: multiply by Pi0 = (-3, -n)
        v = v + tors[1]
    y2 = v.slice(6, 6 + t)
    x2 = v.slice(6 + t, 6 + 2 * t)
    if (blocks.r_vec(-3).dot(y2) + blocks.r_vec(-1).dot(x2)) % 2:
        v = v + tors[2]  # multiply by Pi1 = (n, 1): x2 += e
        x2 = v.slice(6 + t, 6 + 2 * t)
    if any(v[i] for i in (0, 1, 2, 3, 4)) or blocks.r_vec(-1).dot(y2):
        raise InternalDisagreement("normalisation failed")

    lam1 = monsky.decode_vector(v, sf)

    # ternary data; c is prime to n, as a prime of n dividing c would divide a and b
    sol = solve_ternary("4c2=da2+(n/d)b2", (d_star, sf), rng=rng, skip=ternary_skip)
    r_c = BitVector.from_bits(legendre_additive(sol.c, p) for p in sf.odd_primes)

    r1v = blocks.r_vec(-1)
    r2v = blocks.r_vec(2)
    r6v = blocks.r_vec(6)
    r3v = blocks.r_vec(3)
    core = blocks.d_diag(-2) + gf2.outer_product(r1v, r1v) + gf2.outer_product(r2v, r2v)

    # route (i): the closed form of the theorem
    val_closed = (
        _qform(x1, core, y2 + x2)
        + x1.dot(r6v) * y2.dot(r6v)
        + r_c.dot(y2)
    ) % 2
    # the first displayed closed form (informational, reported to selfcheck)
    first_core1 = blocks.d_diag(6) + gf2.outer_product(r1v, r2v) + gf2.outer_product(r2v, r3v)
    first_core2 = blocks.d_diag(2) + gf2.outer_product(r2v, r2v)
    val_first = (_qform(x1, first_core1, y2) + _qform(x1, first_core2, x2) + r_c.dot(y2)) % 2

    # route (ii): M' v' = v_c has no solution  <=>  pairing = 1
    mprime = _f19_mprime(blocks)
    vc_head = core + gf2.outer_product(r6v, r6v)
    v_c = vc_head.vec_mul(x1) + r_c
    v_c_full = v_c.concat(core.vec_mul(x1))
    ones = gf2.ones_vec(t)
    zt = gf2.zeros_vec(t)
    for probe in (ones.concat(zt), zt.concat(ones), zt.concat(x1)):
        if v_c_full.dot(probe):
            raise InternalDisagreement("v_c is not orthogonal to the known kernel of M'")
    val_system = 1 if gf2.solve(mprime, v_c_full) is None else 0
    direct = v_c_full.dot(y2.concat(x2))

    # the two linear-algebra routes are one identity; they must agree
    if not (val_closed == val_system == direct):
        raise InternalDisagreement(
            f"matrix routes disagree at n={n}: closed={val_closed} "
            f"system={val_system} direct={direct}"
        )

    # route (iii): the raw local sum -- the production value.  The matrix
    # closed form provably fails on part of the family: rational points on
    # C_(d,1) at n = 979 and n = 1771 force pairing 0 where the matrix
    # routes give 1.  Disagreement is reported as an erratum finding, not
    # an error.
    curve, lines = _tangents_f19(sf, d_star, sol)
    b1p, b2p = lam1.b1, lam1.b2
    b3p = squarefree_product(b1p, b2p)
    places = descent.place_set(sf)
    val_local, transcript = local_pairing_sum(curve, lines, (b1p, b2p, b3p), places, rng)

    evidence = {
        "n": n,
        "family": FAMILY_F19,
        "d_star": d_star,
        "x1": x1.entries(),
        "lambda0": [d_star, 1],
        "lambda1": [lam1.b1, lam1.b2],
        "ternary": sol.as_dict(),
        "routes": {
            "closed_form": val_closed,
            "linear_system": val_system,
            "local_sum": val_local,
            "first_closed_form": val_first,
        },
        "closed_form_agrees": val_closed == val_local,
        "d_class_mod8": sorted((d_star % 8, (n // d_star) % 8)),
        "local_transcript": transcript,
    }
    if with_torsion_checks:
        evidence["torsion_pairings"] = torsion_pairing_checks(curve, lines, places, sf, rng)
    return val_local, evidence


# ---------------------------------------------------------------------------
# pq families
# ---------------------------------------------------------------------------


def pairing_pq(p: int, q: int, family: str, rng: random.Random | None = None,
               ternary_skip: int = 0, _analysis: _Analysis | None = None):
    """<(1,p), (3^u q, 1)> resp. <(1,p), ((-1)^u q, 1)> for n = p q.

    Requires [p/q] = 0 (the [p/q] = 1 branch needs no pairing).  The value
    is the Cassels local sum, with the provable per-place identities
    asserted: the q-place contribution equals [beta*a/q], and the places
    oo, 3 and p contribute 0.  The literature criterion [beta/q] is also
    recorded; it differs from the true pairing in residue classes where
    [a/q] = 1 is forced or where q = 5 mod 8 adds a 2-adic term, and the
    discrepancy is reported rather than silently patched (see selfcheck).
    _analysis is the analysis certify already holds for (p q, theta).
    """
    if family not in (FAMILY_F5, FAMILY_F11):
        raise ValueError(f"unknown family {family!r}")
    rec = _analysis or _Analysis.of(p * q, FAMILY_CLASS[family][0])
    if rec.family != family:
        raise HypothesisFailed(f"{p} * {q} is not a member of {family}")
    # pq = 2 mod 3, so exactly one prime is 1 mod 3 and rec.pq puts it first
    p, q = rec.pq
    n = p * q
    form_sign = -1 if family == FAMILY_F5 else +1
    if legendre_additive(p, q) != 0:
        raise HypothesisFailed("[p/q] = 0 required for the pairing branch")

    u = legendre_additive(-1, p)
    form = "px2-qy2=z2" if form_sign < 0 else "px2+qy2=z2"
    # the solution is primitive, so q | a would force q | c and then q | b
    sol = solve_ternary(form, (p, q), rng=rng, skip=ternary_skip)
    a, c = sol.a, sol.c
    beta = (-c * pow(a, -1, q)) % q
    if beta * beta % q != p % q:
        raise InternalDisagreement("beta^2 != p mod q")
    beta_criterion = legendre_additive(beta, q)
    q_closed = legendre_additive(beta * a, q)

    # Second argument: the Selmer representative of shape (+-3^e q, 1).
    # The printed 3^u / (-1)^u recipes do not always land in Sel_2 (for
    # [-1/p] = 1 the F11 recipe misses), and pairing against a non-Selmer
    # class is not even well defined, so the sign is read off ker M_n.
    recipe_b1p = (3**u) * q if family == FAMILY_F5 else (-1) ** u * q
    shapes = (recipe_b1p, q, -q, 3 * q, -3 * q)
    b1p = next((b for b in shapes if monsky.in_selmer(rec.mm, b, 1)), None)
    if b1p is None:
        raise InternalDisagreement(f"no Selmer class of shape (3^e q, 1) at n={n}")
    curve, lines = _tangents_pq(rec.n, p, q, sol)
    if not monsky.in_selmer(rec.mm, 1, p):
        raise InternalDisagreement("(1, p) is not a Selmer class")
    places = [OO, 2, 3, p, q]
    val_local, transcript = local_pairing_sum(curve, lines, (b1p, 1, b1p), places, rng)
    parity = {place["place"]: sum(place["terms"]) & 1 for place in transcript}
    if parity[q] != q_closed:
        raise InternalDisagreement(
            f"q-place contribution {parity[q]} != [beta*a/q] = {q_closed} at n={n}"
        )
    for quiet in ("oo", 3, p) if family == FAMILY_F5 else (3, p):
        if parity[quiet]:
            raise InternalDisagreement(f"place {quiet} contributes {parity[quiet]} at n={n}")
    evidence = {
        "n": n,
        "family": family,
        "p": p,
        "q": q,
        "u": u,
        "lambda_prime": [b1p, 1],
        "recipe_lambda_prime": [recipe_b1p, 1],
        "ternary": sol.as_dict(),
        "beta": beta,
        "routes": {
            "local_sum": val_local,
            "q_place_closed_form": q_closed,
            "beta_criterion": beta_criterion,
        },
        "beta_criterion_agrees": beta_criterion == val_local,
        "local_transcript": transcript,
    }
    return val_local, evidence


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


@dataclass
class Certificate:
    m: int
    theta: str
    kind: str
    s2: int
    evidence: dict = field(default_factory=dict)

    @property
    def certifies_non_congruent(self) -> bool:
        return self.kind in CERTIFYING_KINDS

    def to_json(self) -> str:
        payload = {
            "schema": 1,
            "m": self.m,
            "theta": self.theta,
            "kind": self.kind,
            "s2": self.s2,
            "evidence": self.evidence,
        }
        return json.dumps(payload, sort_keys=True, default=str)


def certify(m: SquarefreeInteger | int | _Analysis, theta: str,
            rng: random.Random | None = None) -> Certificate:
    """Decide whether m is certified non-theta-congruent.

    Cascade: torsion-only Selmer group (s2 = 2), then the Cassels-pairing
    families, then parity-only information.  m may be already factored, or
    the analysis survey.analyze built for (m, theta).
    """
    rec = m if isinstance(m, _Analysis) else None
    value = rec.m.value if rec else m.value if isinstance(m, SquarefreeInteger) else m
    if value in (1, 2, 3, 6):
        raise ExcludedSmallN("the n | 6 cases are excluded from rank certificates")
    if value <= 0:
        raise ValueError("m must be a positive tiling-number candidate")
    if rec is None:
        rec = _Analysis.of(m, theta)
    elif rec.theta != theta:
        raise ValueError(f"the analysis is of theta {rec.theta!r}, not {theta!r}")
    m, s2, family, pq = value, rec.s2, rec.family, rec.pq
    evidence: dict = {
        "n": rec.n.value,
        "template": rec.mm.template,
        "s2": s2,
        "r4_minus_m": rec.r4,
        "parity_predicted": monsky.predicted_parity(m, theta),
    }
    if family:
        evidence["family"] = family

    if s2 == 2:
        # m = 11 mod 24 is also an r4 corollary class at 2pi/3, whose s2 = 2
        # members keep the generic label, so F11 never takes KIND_THM72
        if family == FAMILY_F5 and legendre_additive(*pq) == 1:
            evidence["criterion"] = "[p/q] = 1, Selmer group is torsion only"
            evidence["p"], evidence["q"] = pq
            return Certificate(m, theta, KIND_THM71, s2, evidence)
        return Certificate(m, theta, KIND_S2EQ2, s2, evidence)

    if family == FAMILY_F19:
        value, ev = pairing_f19(rec, rng=rng)
        evidence["pairing"] = ev
        if value == 1:
            evidence["sha"] = "(Z/2)^2"
            return Certificate(m, theta, KIND_CASSELS, s2, evidence)
        return Certificate(m, theta, KIND_UNKNOWN, s2, evidence)

    if family and legendre_additive(*pq) == 0:
        value, ev = pairing_pq(*pq, family, rng=rng, _analysis=rec)
        evidence["pairing"] = ev
        if value == 1:
            evidence["sha"] = "contains (Z/2)^2"
            return Certificate(m, theta, KIND_CASSELS, s2, evidence)
        return Certificate(m, theta, KIND_UNKNOWN, s2, evidence)

    kind = KIND_PARITY if s2 % 2 else KIND_UNKNOWN
    return Certificate(m, theta, kind, s2, evidence)
