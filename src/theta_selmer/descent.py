"""Brute-force 2-descent oracle for E_n: y^2 = x(x-n)(x+3n).

A candidate class Lambda = (b1, b2) gives the genus-one curve in P^3

    H1:  b2 u2^2 - b1 b2 u3^2 = (e2 - e1) t^2
    H2:  b1 u1^2 - b1 b2 u3^2 = e2 t^2          (e1 = n, e2 = -3n)
    H3:  b1 u1^2 - b2 u2^2   = e1 t^2

and Lambda lies in Sel_2(E_n) iff the curve has points over R and every
Q_p.  Only H1 and H2 are independent; both involve (t, u3) and a single
extra square, so a point over Q_p exists iff some (t : u3) in P^1(Q_p)
makes the two binary forms

    F1 = b2 (e2 - e1) t^2 + b1 b2^2 u3^2     (= (b2 u2)^2 on the curve)
    F2 = b1 e2 t^2       + b1^2 b2 u3^2      (= (b1 u1)^2 on the curve)

simultaneously squares (or zero) in Q_p.  That one-dimensional search is
decided rigorously: one value bound either fixes the square classes of
both forms on a residue class, or the class holds a p-adic root of one
form deep enough to fix the other's class there, or it is refined.  Any
residual ambiguity raises Undecided loudly instead of guessing.

The answer at a place v depends only on the classes of n, b1 and b2 in
Q_v^*/Q_v^*2: replacing b1 by b1 s^2 maps a point to one with u1, u3
scaled by s (and b2 by b2 s^2 scales u2, u3), and replacing n by n s^2
scales e1 and e2 by s^2, which t -> s t undoes; each is a
Q_v-isomorphism of C_Lambda.  So the enumeration decides each place once
per local class of (n, b1, b2), and every call shares the verdicts in one
table keyed by the place and the class of n.  At oo, 2 and 3, the places
every n has, that is at most 2*4 + 8*64 + 4*16 = 584 verdicts.  At an odd
p >= 5, which divides n once, n has 2 classes and (b1, b2) has 16, so each
prime adds at most 32.  The prime tables grow with the primes a process
meets, so at most _MAX_PRIME_TABLES = 4096 of them are held (65,536
verdicts); reaching the cap drops the prime tables and keeps those of oo,
2 and 3.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .arith import (
    OO,
    SquarefreeInteger,
    factor_squarefree,
    split_valuation,
    sqrt_mod_prime_power,
)
from .gf2 import BitVector
from .monsky import TwoCoverClass, basis_pairs, decode_vector, encode_pair, torsion_classes


class TooLarge(Exception):
    pass


class Undecided(Exception):
    def __init__(self, place, depth):
        self.place = place
        self.depth = depth
        super().__init__(f"local solvability undecided at place {place} (depth {depth})")


# ---------------------------------------------------------------------------
# curve data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadricIntersection:
    n: SquarefreeInteger
    lam: TwoCoverClass
    # quadric coefficients (coef_t, coef_a, coef_b) for  coef_t t^2 + ... = 0
    h1: tuple[int, int, int]  # variables (t, u2, u3)
    h2: tuple[int, int, int]  # variables (t, u1, u3)
    h3: tuple[int, int, int]  # variables (t, u1, u2)
    # binary test forms in (t, u3)
    f1: tuple[int, int]
    f2: tuple[int, int]


def _clear_content(coeffs: tuple[int, int, int]) -> tuple[int, int, int]:
    g = math.gcd(math.gcd(abs(coeffs[0]), abs(coeffs[1])), abs(coeffs[2]))
    return tuple(c // g for c in coeffs)  # type: ignore[return-value]


def curve_for(n: SquarefreeInteger | int, lam: TwoCoverClass) -> QuadricIntersection:
    """Integral model of C_Lambda with content 1 in each quadric."""
    if isinstance(n, int):
        n = factor_squarefree(n)
    encode_pair(lam.b1, lam.b2, n)  # raises monsky.UnsupportedPrime on bad support
    return _curve(n, lam)


def _curve(n: SquarefreeInteger, lam: TwoCoverClass) -> QuadricIntersection:
    """curve_for without the support check, for classes known to be valid."""
    e1 = n.value
    e2 = -3 * n.value
    b1, b2 = lam.b1, lam.b2
    h1 = _clear_content((-(e2 - e1), b2, -b1 * b2))
    h2 = _clear_content((-e2, b1, -b1 * b2))
    h3 = _clear_content((-e1, b1, -b2))
    f1 = (b2 * (e2 - e1), b1 * b2 * b2)
    f2 = (b1 * e2, b1 * b1 * b2)
    return QuadricIntersection(n, lam, h1, h2, h3, f1, f2)


def place_set(n: SquarefreeInteger) -> list:
    """All places where solvability is not automatic: oo, 2, 3 and p | n."""
    return [OO, 2, 3, *n.odd_primes]


# ---------------------------------------------------------------------------
# exact square classes in Q_p
# ---------------------------------------------------------------------------


def _is_qr(u: int, p: int) -> bool:
    """Whether the p-adic unit u is a square: u = 1 mod 8 at 2, Euler's
    criterion at an odd p."""
    if p == 2:
        return u % 8 == 1
    return pow(u, (p - 1) // 2, p) == 1


def is_square_in_qp(x: int, place) -> bool:
    """Exact square test for a nonzero integer in R or Q_p (0 counts)."""
    if x == 0:
        return True
    if place == OO:
        return x > 0
    p = place
    v, u = split_valuation(x, p)
    return v % 2 == 0 and _is_qr(u, p)


# ---------------------------------------------------------------------------
# the one-variable chart search
# ---------------------------------------------------------------------------

_SQUARE, _NONSQUARE, _ZERO, _UNKNOWN = range(4)


def _status(c: int, d: int, tau0: int, k: int, p: int, margin: int) -> int:
    """Square class of c*tau^2 + d on the residue class tau0 + p^k Z_p,
    by the generic value bound alone: the one test of a ball."""
    w = c * tau0 * tau0 + d
    if w == 0:
        return _ZERO
    v, u = split_valuation(w, p)
    vc = split_valuation(c, p)[0]
    if tau0 == 0:
        bound = 2 * k + vc
    else:
        bound = min(k + split_valuation(2 * c * tau0, p)[0], 2 * k + vc)
    if v + margin > bound:
        return _UNKNOWN
    return _SQUARE if v % 2 == 0 and _is_qr(u, p) else _NONSQUARE


def _zp_roots(c: int, d: int, p: int, prec: int) -> list[int]:
    """Roots of c tau^2 + d in Z_p, as residues mod p^prec."""
    vd, ud = split_valuation(d, p)
    vc, uc = split_valuation(c, p)
    w = vd - vc
    if w < 0 or w % 2:
        return []
    pk = p**prec
    u = (-ud * pow(uc, -1, pk)) % pk
    if not _is_qr(u, p):
        return []
    root = sqrt_mod_prime_power(u, p, prec)
    rho = (root * p ** (w // 2)) % pk
    return [rho, (-rho) % pk]


def _roots(cs, ds, co, do, p: int, prec: int, margin: int) -> list[tuple[int, int]]:
    """(rho, stable_at) for each Z_p root rho of cs tau^2 + ds, where the
    other form co tau^2 + do has a constant class on rho + p^k Z_p for every
    k >= stable_at, the class _status gives that ball."""
    out = []
    for rho in _zp_roots(cs, ds, p, prec):
        # the forms share no root: cs do = co ds only at n = 0, in either
        # chart, so a zero here is lost precision
        val = (co * rho * rho + do) % p**prec
        v = split_valuation(val, p)[0] if val else prec
        if v + margin > prec:
            raise Undecided(p, prec)
        out.append((rho, v + margin))
    return out


def _point_digits(c: int, d: int, tau0: int, k: int, p: int, root_digits: set[int]):
    """At an odd p, the digits j of the children tau0 + j p^k + p^(k+1) Z_p
    where c tau^2 + d can be a square, or None for all of them.  On the ball
    the form is p^v g(x) at tau0 + p^k x, g primitive, and a child j with
    g(j) != 0 mod p has the class of p^v g(j).  So for v odd only the roots
    of g mod p are left: a double root r, or simple roots, which lift by
    Hensel into root_digits (those of the form's Z_p roots); and for
    g = a (x - r)^2 with a a nonresidue only r."""
    step = p**k
    coeffs = (c * tau0 * tau0 + d, 2 * c * tau0 * step, c * step * step)
    v = min(split_valuation(a, p)[0] for a in coeffs if a)
    g0, g1, g2 = (a // p**v % p for a in coeffs)
    if g2 and (g1 * g1 - 4 * g0 * g2) % p == 0:  # g = g2 (x - r)^2 mod p
        return {-g1 * pow(2 * g2, -1, p) % p} if v % 2 or not _is_qr(g2, p) else None
    return root_digits if v % 2 else None


def _children(tau0: int, k: int, p: int, digits):
    """The balls tau0 + j p^k + p^(k+1) Z_p for j in digits, lazily."""
    step = p**k
    for j in digits:
        yield tau0 + j * step, k + 1


def _chart_point(c1, d1, c2, d2, p: int, seed_k: int):
    """A witness that both forms are squares-or-zero somewhere on p^seed_k Z_p,
    or None.

    The witness is (tau0, k, i):
      - i None, k an int: both forms have a constant square class on the
        ball tau0 + p^k Z_p, so every tau in it will do;
      - i None, k None: tau0 itself will do, and a form is zero there;
      - i = 0 or 1: form i has a root in tau0 + p^k Z_p at which the other
        form is a square or zero.

    Deterministic depth-first refinement over lazily generated child balls,
    those holding a root of a form first.  _status, the value bound, is the
    one test of a ball; a ball it leaves open is a root witness if it holds
    a root of an open form at k >= stable_at, and is split otherwise (at
    an odd p, into the children _point_digits leaves, not all p of them).
    """
    margin = 3 if p == 2 else 1
    prec = split_valuation(4 * c1 * d1 * c2 * d2, p)[0] + 8 * margin + 40
    max_depth = prec - margin - 6
    roots = None
    stack = [iter([(0, seed_k)])]
    while stack:
        ball = next(stack[-1], None)
        if ball is None:
            stack.pop()
            continue
        tau0, k = ball
        s1 = _status(c1, d1, tau0, k, p, margin)
        if s1 == _NONSQUARE:
            continue
        s2 = _status(c2, d2, tau0, k, p, margin)
        if s2 == _NONSQUARE:
            continue
        if _ZERO in (s1, s2) and is_square_in_qp(c1 * tau0 * tau0 + d1, p) \
                and is_square_in_qp(c2 * tau0 * tau0 + d2, p):
            return tau0, None, None
        if s1 == _SQUARE and s2 == _SQUARE:
            return tau0, k, None
        # An open form is read through its roots in the ball alone: off them
        # v(f(tau0)) = v(c) + v(tau0 - rho) + v(tau0 + rho), and a class that
        # this fixes on the ball is one _status's own bound has already fixed.
        if roots is None:
            roots = (_roots(c1, d1, c2, d2, p, prec, margin),
                     _roots(c2, d2, c1, d1, p, prec, margin))
        step = p**k
        near, only = set(), None
        for i, (c, d, s) in enumerate(((c1, d1, s1), (c2, d2, s2))):
            here = [(rho, st) for rho, st in roots[i] if (rho - tau0) % step == 0]
            # from stable_at on, _status has settled the other form with its
            # class at the root, a nonsquare skipped the ball, and so a root
            # in the ball is a witness; of two roots only the first is read
            if s != _SQUARE and here and k >= here[0][1]:
                return tau0, k, i
            digits = {(rho - tau0) // step % p for rho, _ in here}
            near |= digits
            if p > 2 and s != _SQUARE:
                keep = _point_digits(c, d, tau0, k, p, digits)
                if keep is not None:
                    only = keep if only is None else only & keep
        # an open form not settled by a root leaves the ball open: split it
        if k >= max_depth:
            raise Undecided(p, k)
        digits = (chain(sorted(near), (j for j in range(p) if j not in near)) if only is None
                  else sorted(near & only) + sorted(only - near))
        stack.append(_children(tau0, k, p, digits))
    return None


def _finite_witness(curve: QuadricIntersection, p: int):
    """(swapped, witness) for the first chart with a point, or None.

    The t-chart (tau : 1) is searched first, then (1 : sigma) with sigma in
    p Z_p (swapped); the witness is _chart_point's.
    """
    c1, d1 = curve.f1
    c2, d2 = curve.f2
    wit = _chart_point(c1, d1, c2, d2, p, 0)
    if wit is not None:
        return False, wit
    wit = _chart_point(d1, c1, d2, c2, p, 1)
    if wit is not None:
        return True, wit
    return None


# ---------------------------------------------------------------------------
# the real place
# ---------------------------------------------------------------------------


def _half_line(c: int, d: int):
    """{x >= 0 : c x + d >= 0} as (lo, hi) Fractions, hi=None for +oo."""
    if c > 0:
        lo = Fraction(-d, c)
        return (max(Fraction(0), lo), None)
    if c < 0:
        hi = Fraction(-d, c)
        if hi < 0:
            return None
        return (Fraction(0), hi)
    return (Fraction(0), None) if d >= 0 else None


def real_interval(curve: QuadricIntersection):
    """The set {x = (t/u3)^2 : F1 >= 0 and F2 >= 0} as an interval or None.

    x = None endpoint means unbounded; the point u3 = 0 corresponds to
    x = +oo and is allowed exactly when the interval is unbounded.
    """
    i1 = _half_line(*curve.f1)
    i2 = _half_line(*curve.f2)
    if i1 is None or i2 is None:
        return None
    lo = max(i1[0], i2[0])
    his = [h for h in (i1[1], i2[1]) if h is not None]
    hi = min(his) if len(his) == 2 else (his[0] if his else None)
    if hi is not None and lo > hi:
        return None
    return (lo, hi)


# ---------------------------------------------------------------------------
# public oracle operations
# ---------------------------------------------------------------------------


def locally_solvable(curve: QuadricIntersection, place) -> bool:
    """True iff C_Lambda has a point over the completion at the place."""
    if place == OO:
        return real_interval(curve) is not None
    return _finite_witness(curve, place) is not None


def everywhere_locally_solvable(curve: QuadricIntersection) -> bool:
    for place in place_set(curve.n):
        if not locally_solvable(curve, place):
            return False
    return True


def _local_class(b: int, place) -> int:
    """Additive bits of b in Q_v^*/Q_v^*2: the sign at oo, (v mod 2,
    non-residue) at an odd p, (v mod 2, eps, omega) at 2."""
    if place == OO:
        return int(b < 0)
    v, u = split_valuation(b, place)
    if place == 2:
        return (v & 1) | ((u - 1) >> 1 & 1) << 1 | ((u * u - 1) >> 3 & 1) << 2
    return (v & 1) | (not _is_qr(u, place)) << 1


# _XOR[c] translates every class key k to k ^ c
_XOR = [bytes(k ^ c for k in range(256)) for c in range(64)]

# Verdicts for every n: (place, class of n) -> {class key of (b1, b2):
# verdict}.  At oo, 2 and 3 at most 584 verdicts; at an odd p at most 32
# each, in at most _MAX_PRIME_TABLES tables (65,536 verdicts)
_SHARED: dict[tuple, dict[int, bool]] = {}
_SMALL_PLACES = (OO, 2, 3)
_MAX_PRIME_TABLES = 4096


def _verdicts(place, n_class: int) -> dict[int, bool]:
    """The shared verdict table of (place, class of n), made when new; a new
    prime table past the cap first drops every prime table held."""
    key = (place, n_class)
    table = _SHARED.get(key)
    if table is None:
        if place not in _SMALL_PLACES and len(_SHARED) >= _MAX_PRIME_TABLES:
            held = [k for k in _SHARED if k[0] not in _SMALL_PLACES]
            if len(held) >= _MAX_PRIME_TABLES:
                for k in held:
                    del _SHARED[k]
        table = _SHARED[key] = {}
    return table


def _class_table(n: SquarefreeInteger, place) -> bytes:
    """Local class key of (b1, b2) at the place for every candidate vector.

    Bit i of a vector multiplies (b1, b2) by monsky.basis_pairs(n)[i]; the
    key packs the class of b1 in its low three bits and that of b2 in the
    next three.  Each basis pair doubles the table: the vectors with bit i
    set are those without it, translated by the pair's key.
    """
    tab = b"\0"
    for g1, g2 in basis_pairs(n):
        tab += tab.translate(_XOR[_local_class(g1, place) | _local_class(g2, place) << 3])
    return tab


def selmer_group_oracle(n: SquarefreeInteger | int, check_closure: bool = True):
    """All of Sel_2(E_n) by enumerating every candidate (b1, b2).

    Returns (members, vectors): the everywhere-locally-solvable classes
    and their encodings.  Enumeration is 2^(2t+6) candidates, so t <= 4.
    Each place is decided once per local class of (n, b1, b2), on a
    candidate that reaches it, and the verdict is shared by later calls
    through the table of _verdicts.  A verdict that raises Undecided is
    not stored.
    """
    if isinstance(n, int):
        n = factor_squarefree(n)
    t = n.t
    if t > 4:
        raise TooLarge(f"oracle enumeration needs t <= 4, got t={t}")
    dim = 2 * t + 6
    local = [(place, _class_table(n, place), _verdicts(place, _local_class(n.value, place)))
             for place in place_set(n)]
    members: list[TwoCoverClass] = []
    vectors: list[BitVector] = []
    for bits in range(1 << dim):
        curve = None  # built on the first place whose class is new
        for place, tab, verdicts in local:
            key = tab[bits]
            if key not in verdicts:
                if curve is None:
                    curve = _curve(n, decode_vector(BitVector(dim, bits), n))
                verdicts[key] = locally_solvable(curve, place)
            if not verdicts[key]:
                break
        else:
            v = BitVector(dim, bits)
            members.append(decode_vector(v, n) if curve is None else curve.lam)
            vectors.append(v)
    if check_closure:
        got = {v.bits for v in vectors}
        for a in got:
            for b in got:
                if a ^ b not in got:
                    raise AssertionError(
                        f"oracle set not closed under the group law at n={n.value}"
                    )
        for tv in torsion_classes(n):
            if encode_pair(tv.b1, tv.b2, n).bits not in got:
                raise AssertionError(f"torsion class {tv} missing at n={n.value}")
    return members, vectors


def oracle_selmer_dimension(n: SquarefreeInteger | int) -> int:
    members, _ = selmer_group_oracle(n)
    size = len(members)
    if size & (size - 1):
        raise AssertionError(f"the oracle found {size} classes, not a power of 2")
    return size.bit_length() - 1


# ---------------------------------------------------------------------------
# local points (used by the Cassels pairing)
# ---------------------------------------------------------------------------


def padic_sqrt(a: int, p: int, prec: int) -> int:
    """x with x^2 = a mod p^(v(a)+prec), for a an exact square in Z_p."""
    if a == 0:
        return 0
    v, u = split_valuation(a, p)
    if v % 2 or not is_square_in_qp(a, p):
        raise ValueError(f"{a} is not a square in Q_{p}")
    pk = p**prec
    root = sqrt_mod_prime_power(u % pk, p, prec)
    return root * p ** (v // 2)


def find_local_point(
    curve: QuadricIntersection, p: int, prec: int, rng: random.Random | None = None,
    witness=None,
):
    """A point of C_Lambda(Q_p) scaled by b1 b2 to integer coordinates.

    Returns (T, U1, U2, U3): the coordinates of an actual point, exact
    mod p^prec.

    The point is read off the witness of the chart search behind
    locally_solvable.  On a witness ball, where both forms have a constant
    square class, (t : u3) is the ball's least residue tau0, or with rng a
    random point of the ball; the square roots are lifted with padic_sqrt.
    At a root of a form, the root is recomputed to precision and that
    form's u is 0.  With rng, the signs of the square roots are random too.

    witness is _finite_witness(curve, p), searched here when not given; it
    depends on neither prec nor rng, so a caller that retries passes the
    first one back.
    """
    wit = _finite_witness(curve, p) if witness is None else witness
    if wit is None:
        raise ValueError(f"no {p}-adic point on {curve.lam}")
    swapped, (tau, k, root_of) = wit
    c1, d1 = curve.f1
    c2, d2 = curve.f2
    if root_of is not None:
        c, d = (curve.f1, curve.f2)[root_of]
        # k is past the depth where the other form's class is stable, so
        # this precision also fixes that class at the recomputed root
        roots = _zp_roots(*((d, c) if swapped else (c, d)), p, max(prec, k) + 12)
        tau = next(rho for rho in roots if (rho - tau) % p**k == 0)
    elif k is not None and rng is not None:
        tau += p**k * rng.randrange(p * p)
    t, u3 = (1, tau) if swapped else (tau, 1)
    u2s = 0 if root_of == 0 else padic_sqrt(c1 * t * t + d1 * u3 * u3, p, prec + 4)
    u1s = 0 if root_of == 1 else padic_sqrt(c2 * t * t + d2 * u3 * u3, p, prec + 4)
    sgn1 = 1 if rng is None else rng.choice((1, -1))
    sgn2 = 1 if rng is None else rng.choice((1, -1))
    # b2*u2 = sqrt(F1), b1*u1 = sqrt(F2); scale everything by b1*b2
    b1, b2 = curve.lam.b1, curve.lam.b2
    pk = p**prec
    return b1 * b2 * t % pk, b2 * u1s * sgn2 % pk, b1 * u2s * sgn1 % pk, b1 * b2 * u3 % pk


def find_real_point(curve: QuadricIntersection, rng: random.Random | None = None):
    """A real point, as exact data (t, u3, R1, R2, s1, s2) with
    b2*u2 = s1*sqrt(R1) and b1*u1 = s2*sqrt(R2) for rationals R_i >= 0."""
    iv = real_interval(curve)
    if iv is None:
        raise ValueError("curve has no real point")
    lo, hi = iv
    if hi is not None and lo == hi:
        raise ValueError("degenerate real locus")  # impossible: forms not proportional
    if hi is None:
        x_target = lo + 1
    else:
        frac = Fraction(1, 2) if rng is None else Fraction(rng.randrange(1, 16), 16)
        x_target = lo + (hi - lo) * frac
    t, u3 = _rational_with_square_between(lo, hi, x_target)
    c1, d1 = curve.f1
    c2, d2 = curve.f2
    r1 = Fraction(c1) * t * t + Fraction(d1) * u3 * u3
    r2 = Fraction(c2) * t * t + Fraction(d2) * u3 * u3
    if r1 < 0 or r2 < 0:
        raise AssertionError("real point is off the cover")
    s1 = 1 if rng is None else rng.choice((1, -1))
    s2 = 1 if rng is None else rng.choice((1, -1))
    s3 = 1 if rng is None else rng.choice((1, -1))
    return (s3 * t, u3, r1, r2, s1, s2)


def _rational_with_square_between(lo, hi, x_target: Fraction):
    """(t, u3) rational with lo <= (t/u3)^2 <= hi, near x_target."""
    bits = 16
    while bits <= 4096:
        approx = _isqrt_fraction(x_target, bits)
        x = approx * approx
        if x >= lo and (hi is None or x <= hi):
            return (approx, Fraction(1))
        bits *= 2
    raise ValueError("could not hit the real interval with a rational square")


def _isqrt_fraction(x: Fraction, bits: int) -> Fraction:
    scale = 1 << bits
    num = x.numerator * scale * scale
    den = x.denominator
    return Fraction(math.isqrt(num // den), scale)
