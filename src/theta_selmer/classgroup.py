"""2-power ranks of (narrow) class groups of quadratic fields.

Production path: the Redei matrix of Hilbert symbols over the ramified
primes, whose corank gives the 4-rank; its entries are read off one
pairwise Legendre table by reciprocity and the product formula.
Independent oracle: enumeration of reduced binary quadratic forms under
Gauss composition (negative discriminants only), from which r2/r4/r8 are
read off the 2-Sylow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import gf2, monsky
from .arith import (
    SquarefreeInteger,
    factor_squarefree,
    factorize,
    is_squarefree,
    legendre_additive,
    legendre_table,
)
from .gf2 import BitMatrix, BitVector


class RankMismatch(Exception):
    pass


class MissingTernary(Exception):
    pass


class PositiveDiscriminant(Exception):
    pass


# ---------------------------------------------------------------------------
# Redei path
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadraticFieldData:
    d: int
    discriminant: int
    ramified_primes: tuple[int, ...]


def _odd_ramified(d: SquarefreeInteger | int) -> tuple[int, tuple[int, ...]]:
    """d as an int and its odd ramified primes (3 included), ascending."""
    sf = d if isinstance(d, SquarefreeInteger) else factor_squarefree(d)
    if sf.value == 1:
        raise ValueError("d = 1 is not a quadratic field")
    return sf.value, ((3,) if sf.has_three else ()) + sf.odd_primes


def field_data(d: SquarefreeInteger | int) -> QuadraticFieldData:
    """Fundamental data of Q(sqrt(d)) for squarefree d != 1."""
    d, odd = _odd_ramified(d)
    disc = d if d % 4 == 1 else 4 * d
    return QuadraticFieldData(d, disc, ((2,) if disc % 2 == 0 else ()) + odd)


def _redei_rows(d: int, odd: tuple[int, ...], table: list[int]) -> list[int]:
    """R(d) as packed rows from closed forms, with d = sign 2^a w and w odd.

    odd are d's odd ramified primes, table their legendre_table, read only.
    Odd rows: the table, omega(p_i) in the column of 2, and on the diagonal
    eps(p_i) [d > 0] + a omega(p_i) + sum_{k != i} [p_k/p_i] (product
    formula).  The row of 2, when 2 ramifies: [p_j, d]_2 = eps(p_j) eps(w)
    + a omega(p_j), and [2, d]_2 = omega(w).  eps and omega are read as the
    bit operations of arith.eps and arith.omega, written out here.
    """
    pos = d > 0
    rows = []
    if d % 4 == 1:
        for i, p in enumerate(odd):
            t = table[i]
            rows.append(t | ((p >> 1 & pos) ^ (t.bit_count() & 1)) << i)
        return rows
    a = 1 - (d & 1)
    w = d >> a
    ew = w >> 1 & 1
    top = (w + 2) >> 2 & 1
    rows.append(0)
    for i, p in enumerate(odd):
        t = table[i]
        e = p >> 1 & 1
        o = (p + 2) >> 2 & 1
        rows.append((t | ((e & pos) ^ (o & a) ^ (t.bit_count() & 1)) << i) << 1 | o)
        top |= ((e & ew) ^ (o & a)) << (i + 1)
    rows[0] = top
    return rows


def redei_matrix(d: SquarefreeInteger | int) -> BitMatrix:
    """R(d): entry (i, j) is the additive Hilbert symbol [p_j, d]_{p_i}."""
    d, odd = _odd_ramified(d)
    rows = _redei_rows(d, odd, legendre_table(odd))
    return BitMatrix(len(rows), len(rows), tuple(rows))


def r2(d: SquarefreeInteger | int) -> int:
    """Genus theory: 2-rank of the narrow class group is t_ram - 1."""
    return len(field_data(d).ramified_primes) - 1


def r4(d: SquarefreeInteger | int, table: list[int] | None = None) -> int:
    """4-rank of the narrow class group, r4 = t_ram - 1 - rank(R(d)).

    table is the legendre_table of d's odd ramified primes, 3 included,
    read only; it is built here when not given.
    """
    d, odd = _odd_ramified(d)
    rows = _redei_rows(d, odd, legendre_table(odd) if table is None else table)
    return len(rows) - 1 - gf2.rank_rows(rows)


def splitting_divisor(n: SquarefreeInteger | int | monsky.Blocks) -> tuple[int, BitVector]:
    """The divisor d* of ntilde giving the nontrivial class in Cl[2] & 2Cl.

    Requires eta(n) = 1 and r4(-n) = 1: then ker A is 2-dimensional with
    basis {x1, all-ones}; d* = prod p_i^{x1_i}, canonicalised to the
    lexicographically smaller of the two complementary representatives.
    n may be given as its Blocks, which are then not built again.
    """
    blocks = n if isinstance(n, monsky.Blocks) else monsky.build_blocks(n)
    n = blocks.n
    kern = gf2.kernel_basis(blocks.a_matrix)
    if len(kern) != 2:
        raise RankMismatch(f"ker A has dimension {len(kern)}, expected 2 (r4 = 1)")
    e = gf2.ones_vec(n.t)
    reps = {v.bits for v in kern} | {kern[0].bits ^ kern[1].bits}
    reps -= {0, e.bits}
    if not reps:
        raise RankMismatch("kernel is spanned by the all-ones vector alone")
    x1 = min(
        (BitVector(n.t, b) for b in reps for b in (b, b ^ e.bits)),
        key=lambda v: v.entries(),
    )
    d_star = 1
    for i, p in enumerate(n.odd_primes):
        if x1[i]:
            d_star *= p
    return d_star, x1


def r8_decision(n: SquarefreeInteger | int | monsky.Blocks, d_star: int, c: int) -> int:
    """r8 of Cl(Q(sqrt(-n))) under the r4 = 1 hypothesis.

    c must come from a primitive solution of 4c^2 = d* a^2 + (n/d*) b^2
    with gcd(c, n) = 1; then r8 = 0 iff A u = r_c has no solution.  n may
    be given as its Blocks, as for splitting_divisor.
    """
    blocks = n if isinstance(n, monsky.Blocks) else monsky.build_blocks(n)
    n = blocks.n
    if c == 0 or any(c % p == 0 for p in n.odd_primes):
        raise MissingTernary(f"c = {c} shares a factor with n or is missing")
    r_c = BitVector.from_bits(legendre_additive(c, p) for p in n.odd_primes)
    return 0 if gf2.solve(blocks.a_matrix, r_c) is None else 1


# ---------------------------------------------------------------------------
# reduced-forms oracle (negative discriminants)
# ---------------------------------------------------------------------------


def is_fundamental(D: int) -> bool:
    if D % 4 == 1:
        return is_squarefree(D)
    if D % 4 == 0:
        d = D // 4
        return d % 4 in (2, 3) and is_squarefree(d)
    return False


def _normalize(a: int, b: int, c: int) -> tuple[int, int, int]:
    if -a < b <= a:
        return a, b, c
    r = (a - b) // (2 * a)
    return a, b + 2 * r * a, a * r * r + b * r + c


def reduce_form(a: int, b: int, c: int) -> tuple[int, int, int]:
    """Canonical reduced representative (|b| <= a <= c, b >= 0 at ties)."""
    a, b, c = _normalize(a, b, c)
    while a > c or (a == c and b < 0):
        s = (c + b) // (2 * c)
        a, b, c = c, -b + 2 * s * c, c * s * s - b * s + a
    return a, b, c


def _solve_mod(a: int, b: int, m: int) -> tuple[int, int]:
    """x with a x = b (mod m); returns (x0, m/g) describing all solutions."""
    g = math.gcd(a, m)
    if b % g:
        raise ValueError("no solution")
    m_g = m // g
    x0 = (b // g) * pow(a // g, -1, m_g) % m_g if m_g > 1 else 0
    return x0, m_g


def compose(f1: tuple[int, int, int], f2: tuple[int, int, int]) -> tuple[int, int, int]:
    """Gauss composition of two forms of the same discriminant, reduced."""
    a1, b1, c1 = f1
    a2, b2, c2 = f2
    g = (b2 + b1) // 2
    h = (b2 - b1) // 2
    w = math.gcd(math.gcd(a1, a2), g)
    s = a1 // w
    t = a2 // w
    u = g // w
    k0, step = _solve_mod(t * u, h * u + s * c1, s * t)
    nn, _ = _solve_mod(t * step, h - t * k0, s)
    k = k0 + step * nn
    m = (t * u * k - h * u - s * c1) // (s * t)
    a3 = s * t
    b3 = w * u - (k * t + (t * k - h) // s * s)
    # b3 = j*u - (k*t + l*s) with l = (t*k - h) // s and j = w
    c3 = k * ((t * k - h) // s) - w * m
    return reduce_form(a3, b3, c3)


def principal_form(D: int) -> tuple[int, int, int]:
    k = D % 2
    return (1, k, (k * k - D) // 4)


def form_pow(f: tuple[int, int, int], e: int, D: int) -> tuple[int, int, int]:
    out = principal_form(D)
    base = f
    while e > 0:
        if e & 1:
            out = compose(out, base)
        base = compose(base, base)
        e >>= 1
    return out


def reduced_forms(D: int) -> list[tuple[int, int, int]]:
    """All reduced forms of discriminant D < 0 (the class group elements)."""
    if D >= 0:
        raise PositiveDiscriminant("forms oracle covers negative discriminants only")
    if D % 4 not in (0, 1):
        raise ValueError("not a discriminant")
    out = []
    amax = math.isqrt(-D // 3) if D < -3 else 1
    for a in range(1, amax + 1):
        for b in range(-a + 1 + (a + 1 - D) % 2, a + 1, 2):  # b = D mod 2
            num = b * b - D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if a == c and b < 0:
                continue
            if math.gcd(math.gcd(a, b), c) != 1:
                continue  # primitive forms only
            out.append((a, b, c))
    return sorted(out)


@dataclass(frozen=True)
class ClassGroupStructure:
    discriminant: int
    order: int
    r2: int
    r4: int
    r8: int

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        """Computed when read: it costs far more than the 2-power ranks."""
        return _invariant_factors(reduced_forms(self.discriminant), self.discriminant)


def forms_class_group(D: int) -> ClassGroupStructure:
    """Cl(D) for fundamental D < 0, by explicit composition of forms."""
    forms = reduced_forms(D)
    h = len(forms)
    square_of = {f: compose(f, f) for f in forms}
    squares = set(square_of.values())
    fourths = {square_of[f] for f in squares}
    ident = principal_form(D)
    torsion2 = {f for f, sq in square_of.items() if sq == ident}
    r2_ = (len(torsion2)).bit_length() - 1
    r4_ = len(squares & torsion2).bit_length() - 1
    r8_ = len(fourths & torsion2).bit_length() - 1
    return ClassGroupStructure(D, h, r2_, r4_, r8_)


def _invariant_factors(forms, D) -> tuple[int, ...]:
    """Invariant factors of the class group.

    Per prime q | h, |G[q^j]| determines the multiset of q-power cyclic
    factors; the prime-power factors are then zipped largest-with-largest.
    """
    h = len(forms)
    if h == 1:
        return ()
    ident = principal_form(D)
    primary: dict[int, list[int]] = {}
    for q, e_max in factorize(h):
        lam_prev = 0
        counts = []  # number of cyclic q-factors of order >= q^j
        for j in range(1, e_max + 1):
            lam = 0
            qj = q**j
            for f in forms:
                if form_pow(f, qj, D) == ident:
                    lam += 1
            lam_j = lam.bit_length() - 1 if q == 2 else round(math.log(lam, q))
            counts.append(lam_j - lam_prev)
            lam_prev = lam_j
            if lam == h or counts[-1] == 0:
                break
        factors_q = []
        for j, at_least in enumerate(counts, start=1):
            exactly = at_least - (counts[j] if j < len(counts) else 0)
            factors_q.extend([q**j] * exactly)
        primary[q] = sorted(factors_q, reverse=True)
    width = max(len(v) for v in primary.values())
    invariants = []
    for i in range(width):
        factor = 1
        for q, fs in primary.items():
            if i < len(fs):
                factor *= fs[i]
        invariants.append(factor)
    return tuple(sorted(invariants))
