"""Monsky matrices for the tiling-number curves y^2 = x(x+3n)(x-n).

The matrix M_n acts on vectors

    v = (xi1, xi2, xi3, gamma1, gamma2, gamma3, y_1..y_t, x_1..x_t)

encoding pairs (b1, b2) with b1 = (-1)^gamma1 2^gamma2 3^gamma3 prod p_i^{x_i}
and b2 = (-1)^xi1 2^xi2 3^xi3 prod p_i^{y_i}; ker M_n is in bijection with
the 2-Selmer group, and s2 = 2t + 6 - rank(M_n).

There is one matrix template per (eta, residue class of ntilde); the
sixteen scalar blocks below are declarative tables, one entry string per
matrix row, so each transcription can be audited cell by cell.  Symbol
tokens: m1 = [-1/ntilde], q2 = [2/ntilde], m3 = [-3/ntilde].  The tables
are compiled to bit masks once at import, and every row of M_n is packed
from them and from closed-form symbol vectors.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from . import gf2
from .arith import SquarefreeInteger, eps, factor_squarefree, legendre_table, omega
from .gf2 import BitMatrix, BitVector

THETA_PI3 = "pi3"
THETA_2PI3 = "2pi3"


class UnsupportedPrime(Exception):
    pass


# the template of each class: eta -> the ids for ntilde = 1, 3, 5, 7 mod 8
_TEMPLATE_OF = {
    1: ("A1", "A3", "A2", "A3"), 2: ("B1",) * 4,
    3: ("C3", "C1", "C3", "C2"), 6: ("D1",) * 4,
    -1: ("A6", "A4", "A6", "A5"), -2: ("B2",) * 4,
    -3: ("C4", "C6", "C5", "C6"), -6: ("D2",) * 4,
}

# scalar rows: six entry tokens, then the y-block and x-block vector tokens.
# Vector tokens name r_d rows: "r-1", "r2", "r-3", or "0".
_TEMPLATE_SCALAR_ROWS = {
    "A1": [
        ("1 0 0 1 0 0", "0", "0"),
        ("0 1 0 1 0 1", "0", "r-1"),
        ("0 0 0 0 1 0", "0", "0"),
        ("1 1 1 0 0 1", "r-1", "r2"),
        ("1 1 0 0 0 1+m3", "r-3", "0"),
        ("0 0 1 0 0 0", "0", "0"),
    ],
    "A2": [
        ("1 0 0 1 0 0", "0", "0"),
        ("0 0 0 0 1 0", "0", "0"),
        ("0 1 0 0 0 0", "0", "0"),
        ("0 0 0 1 0 1", "0", "r-1"),
        ("1 1 0 0 0 1+m3", "r-3", "0"),
        ("0 0 1 0 0 0", "0", "0"),
    ],
    "A3": [
        ("1 0 0 1 0 0", "0", "0"),
        ("0 1 0 0 0 0", "0", "0"),
        ("0 0 0 0 1 0", "0", "0"),
        ("1 0 1 0 0 0", "r-1", "0"),
        ("1 1 0 0 0 1+m3", "r-3", "0"),
        ("0 0 1 0 0 0", "0", "0"),
    ],
    "B1": [
        ("1 0 0 1 0 0", "0", "0"),
        ("0 0 0 1 m1 1", "0", "r-1"),
        ("0 1 0 0 q2 1", "0", "r2"),
        ("1 1 0 0 0 m3", "r-3", "0"),
        ("0 0 1 0 0 0", "0", "0"),
    ],
    "C1": [
        ("1 0 0 1 0 0", "0", "0"),
        ("0 1 0 1 0 1", "0", "r-1"),
        ("0 0 0 0 1 0", "0", "0"),
        ("1 1 1 0 0 1", "r-1", "r2"),
        ("1 1 1+m3 0 0 0", "r-3", "0"),
        ("0 0 1+m3 1 1 m3", "0", "r-3"),
    ],
    "C2": [
        ("1 0 0 1 0 0", "0", "0"),
        ("0 0 0 0 1 0", "0", "0"),
        ("0 1 0 0 0 0", "0", "0"),
        ("0 0 0 1 0 1", "0", "r-1"),
        ("1 1 1+m3 0 0 0", "r-3", "0"),
        ("0 0 1+m3 1 1 m3", "0", "r-3"),
    ],
    "C3": [
        ("1 0 0 1 0 0", "0", "0"),
        ("0 1 0 0 0 0", "0", "0"),
        ("0 0 0 0 1 0", "0", "0"),
        ("1 0 1 0 0 0", "r-1", "0"),
        ("1 1 1+m3 0 0 0", "r-3", "0"),
        ("0 0 1+m3 1 1 m3", "0", "r-3"),
    ],
    "D1": [
        ("1 0 0 1 0 0", "0", "0"),
        ("0 0 0 1 1+m1 1", "0", "r-1"),
        ("0 1 0 0 1+q2 1", "0", "r2"),
        ("1 1 m3 0 0 0", "r-3", "0"),
        ("0 0 m3 1 1 1+m3", "0", "r-3"),
    ],
    "A4": [
        ("1 0 0 0 0 0", "0", "0"),
        ("0 0 0 0 1 0", "0", "0"),
        ("0 1 0 0 0 0", "0", "0"),
        ("0 0 0 1 0 1", "0", "r-1"),
        ("1 1 0 0 0 m3", "r-3", "0"),
        ("0 0 1 0 0 0", "0", "0"),
    ],
    "A5": [
        ("1 0 0 0 0 0", "0", "0"),
        ("0 1 0 1 0 1", "0", "r-1"),
        ("0 0 0 0 1 0", "0", "0"),
        ("1 1 1 0 0 1", "r-1", "r2"),
        ("1 1 0 0 0 m3", "r-3", "0"),
        ("0 0 1 0 0 0", "0", "0"),
    ],
    "A6": [
        ("1 0 0 0 0 0", "0", "0"),
        ("0 1 0 0 0 0", "0", "0"),
        ("0 0 0 0 1 0", "0", "0"),
        ("1 0 1 0 0 0", "r-1", "0"),
        ("1 1 0 0 0 m3", "r-3", "0"),
        ("0 0 1 0 0 0", "0", "0"),
    ],
    "B2": [
        ("1 0 0 0 0 0", "0", "0"),
        ("0 0 0 1 1+m1 1", "0", "r-1"),
        ("0 1 0 0 q2 1", "0", "r2"),
        ("1 1 0 0 0 1+m3", "r-3", "0"),
        ("0 0 1 0 0 0", "0", "0"),
    ],
    "C4": [
        ("1 0 0 0 0 0", "0", "0"),
        ("0 0 0 0 1 0", "0", "0"),
        ("0 1 0 0 0 0", "0", "0"),
        ("0 0 0 1 0 1", "0", "r-1"),
        ("1 1 m3 0 0 0", "r-3", "0"),
        ("0 0 m3 1 1 1+m3", "0", "r-3"),
    ],
    "C5": [
        ("1 0 0 0 0 0", "0", "0"),
        ("0 1 0 1 0 1", "0", "r-1"),
        ("0 0 0 0 1 0", "0", "0"),
        ("1 1 1 0 0 1", "r-1", "r2"),
        ("1 1 m3 0 0 0", "r-3", "0"),
        ("0 0 m3 1 1 1+m3", "0", "r-3"),
    ],
    "C6": [
        ("1 0 0 0 0 0", "0", "0"),
        ("0 1 0 0 0 0", "0", "0"),
        ("0 0 0 0 1 0", "0", "0"),
        ("1 0 1 0 0 0", "r-1", "0"),
        ("1 1 m3 0 0 0", "r-3", "0"),
        ("0 0 m3 1 1 1+m3", "0", "r-3"),
    ],
    "D2": [
        ("1 0 0 0 0 0", "0", "0"),
        ("0 0 0 1 m1 1", "0", "r-1"),
        ("0 1 0 0 1+q2 1", "0", "r2"),
        ("1 1 1+m3 0 0 0", "r-3", "0"),
        ("0 0 1+m3 1 1 m3", "0", "r-3"),
    ],
}


def _compile_row(entries: str, y_tok: str, x_tok: str) -> tuple:
    """One scalar row as (const, m1 mask, q2 mask, m3 mask, y_tok, x_tok): its
    six entries are const, xored with the mask of each symbol that is 1."""
    bits = {"0": 0, "1": 0, "m1": 0, "q2": 0, "m3": 0}
    for j, tok in enumerate(entries.split()):
        for part in tok.split("+"):
            bits[part] ^= 1 << j
    return bits["1"], bits["m1"], bits["q2"], bits["m3"], y_tok, x_tok


_TEMPLATES = {
    name: tuple(_compile_row(*row) for row in rows)
    for name, rows in _TEMPLATE_SCALAR_ROWS.items()
}

# both block rows are uniform across templates once eta is known:
#   x-equations: [ O O O | r-1^T r2^T r3^T | D_{-3} | A + D_eta  ]
#   y-equations: [ r-1^T r2^T r3^T | O O O | A + D_{-eta} | O    ]
# (D_1 = diag of [1/p_i] is zero, so eta = +-1 degenerates correctly).


def select_template(n: SquarefreeInteger) -> str:
    """Template id from eta and the residue class of ntilde."""
    return _TEMPLATE_OF[n.eta][n.ntilde % 8 >> 1]


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Blocks:
    """The t x t Redei-type block A and the symbol vectors r_d it needs."""

    n: SquarefreeInteger
    a_matrix: BitMatrix
    r: dict  # d -> BitVector of [d/p_i]

    def r_vec(self, d: int) -> BitVector:
        return self.r[d]

    def d_diag(self, d: int) -> BitMatrix:
        return gf2.diag(self.r[d])


def _symbol_rows(primes) -> tuple[int, int, int]:
    """r_{-1}, r_2, r_{-3} packed (bit i = [d/p_i]) from closed forms in p:
    [-1/p] = eps(p), [2/p] = omega(p) and [-3/p] = [p = 2 mod 3]."""
    m1 = q2 = m3 = 0
    for i, p in enumerate(primes):
        m1 |= eps(p) << i
        q2 |= omega(p) << i
        m3 |= (p % 3 == 2) << i
    return m1, q2, m3


def _r_bits(d: int, m1: int, q2: int, m3: int) -> int:
    """r_d for d = +-2^a 3^b as an xor of r_{-1}, r_2, r_{-3}: 3 = -1 * -3."""
    b = d % 3 == 0
    return ((d < 0) ^ b) * m1 ^ (d % 2 == 0) * q2 ^ b * m3


def _a_rows(table: Sequence[int]) -> list[int]:
    """A with a_ij = [p_j/p_i] off-diagonal and a_ii their sum (row sums
    zero), as a new list: the legendre_table of the p_i is read only."""
    return [bits | (bits.bit_count() & 1) << i for i, bits in enumerate(table)]


def build_blocks(n: SquarefreeInteger | int, table: Sequence[int] | None = None) -> Blocks:
    """A and the eight r_d, d in {+-1, +-2, +-3, +-6}.

    table is as in build_monsky, built here when not given.
    """
    if isinstance(n, int):
        n = factor_squarefree(n)
    a_rows = _a_rows(legendre_table(n.odd_primes) if table is None else table)
    a = BitMatrix(n.t, n.t, tuple(a_rows))
    syms = _symbol_rows(n.odd_primes)
    r = {d: BitVector(n.t, _r_bits(d, *syms)) for d in (1, -1, 2, -2, 3, -3, 6, -6)}
    return Blocks(n, a, r)


# ---------------------------------------------------------------------------
# full matrix
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonskyMatrix:
    n: SquarefreeInteger
    template: str
    matrix: BitMatrix

    @property
    def t(self) -> int:
        return self.n.t


def build_monsky(n: SquarefreeInteger | int, table: Sequence[int] | None = None) -> MonskyMatrix:
    """The full Monsky matrix of E_n, rows normalised to the printed order.

    table is the legendre_table of n's odd primes >= 5, read only; it is
    built here when not given.
    """
    if isinstance(n, int):
        n = factor_squarefree(n)
    template = select_template(n)
    t = n.t
    m1, q2, m3 = _symbol_rows(n.odd_primes)
    # [d/ntilde] = sum of the [d/p_i], so zero for ntilde = 1
    k1, k2, k3 = m1.bit_count() & 1, q2.bit_count() & 1, m3.bit_count() & 1
    vecs = {"0": 0, "r-1": m1, "r2": q2, "r-3": m3}
    rows = [
        const ^ (k1 and mask1) ^ (k2 and mask2) ^ (k3 and mask3)
        | vecs[y_tok] << 6 | vecs[x_tok] << (6 + t)
        for const, mask1, mask2, mask3, y_tok, x_tok in _TEMPLATES[template]
    ]
    if t:
        r3 = m1 ^ m3
        r_eta, r_neg = _r_bits(n.eta, m1, q2, m3), _r_bits(-n.eta, m1, q2, m3)
        y_rows = []
        a_rows = _a_rows(legendre_table(n.odd_primes) if table is None else table)
        for i, a in enumerate(a_rows):
            head = (m1 >> i & 1) | (q2 >> i & 1) << 1 | (r3 >> i & 1) << 2  # r-1 r2 r3
            e = 1 << i
            rows.append(head << 3 | (m3 & e) << 6 | (a ^ (r_eta & e)) << (6 + t))
            y_rows.append(head | (a ^ (r_neg & e)) << 6)
        rows += y_rows  # the t x-equations, then the t y-equations
    return MonskyMatrix(n, template, BitMatrix(len(rows), 2 * t + 6, tuple(rows)))


# ---------------------------------------------------------------------------
# (b1, b2) <-> vector encoding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoCoverClass:
    """A pair (b1, b2) of squarefree integers supported on {-1,2,3} u p_i."""

    b1: int
    b2: int


def squarefree_product(a: int, b: int) -> int:
    """The squarefree part of a*b for squarefree a and b: the common primes
    cancel in pairs, so no factorisation is needed."""
    g = math.gcd(a, b)
    return (a // g) * (b // g)


def _encode_component(b: int, n: SquarefreeInteger) -> tuple[int, int, int, BitVector]:
    sign = 1 if b < 0 else 0
    m = abs(b)
    two = 0
    if m % 2 == 0:
        m //= 2
        two = 1
    three = 0
    if m % 3 == 0:
        m //= 3
        three = 1
    bits = 0
    for i, p in enumerate(n.odd_primes):
        if m % p == 0:
            m //= p
            bits |= 1 << i
    if m != 1:
        raise UnsupportedPrime(f"{b} has support outside -1,2,3,{n.odd_primes}")
    return sign, two, three, BitVector(n.t, bits)


def encode_pair(b1: int, b2: int, n: SquarefreeInteger) -> BitVector:
    """(b1, b2) -> (xi | gamma | y | x) in F2^{2t+6}."""
    g1, g2, g3, x = _encode_component(b1, n)
    s1, s2, s3, y = _encode_component(b2, n)
    head = BitVector.from_bits([s1, s2, s3, g1, g2, g3])
    return head.concat(y).concat(x)


def basis_pairs(n: SquarefreeInteger) -> list[tuple[int, int]]:
    """(b1, b2) of each basis vector of (xi | gamma | y | x)."""
    ps = n.odd_primes
    return [(1, -1), (1, 2), (1, 3), (-1, 1), (2, 1), (3, 1),
            *((1, p) for p in ps), *((p, 1) for p in ps)]


def decode_vector(v: BitVector, n: SquarefreeInteger) -> TwoCoverClass:
    if v.n != 2 * n.t + 6:
        raise gf2.DimensionMismatch
    b1 = b2 = 1
    for i, (g1, g2) in enumerate(basis_pairs(n)):
        if v.bits >> i & 1:
            b1 *= g1
            b2 *= g2
    return TwoCoverClass(b1, b2)


def torsion_classes(n: SquarefreeInteger) -> list[TwoCoverClass]:
    """Images of O, (0,0), (n,0), (-3n,0) under the descent map."""
    nv = n.value
    return [
        TwoCoverClass(1, 1),
        TwoCoverClass(-3, -nv),
        TwoCoverClass(nv, 1),
        TwoCoverClass(squarefree_product(-3, nv), -nv),
    ]


def torsion_vectors(n: SquarefreeInteger) -> list[BitVector]:
    return [encode_pair(c.b1, c.b2, n) for c in torsion_classes(n)]


# ---------------------------------------------------------------------------
# Selmer rank, kernel, parity
# ---------------------------------------------------------------------------


def selmer_rank(n: SquarefreeInteger | int | MonskyMatrix) -> int:
    """s2(E_n) = 2t + 6 - rank(M_n)."""
    m = n if isinstance(n, MonskyMatrix) else build_monsky(n)
    return 2 * m.t + 6 - gf2.rank(m.matrix)


def selmer_basis(n: SquarefreeInteger | int) -> list[TwoCoverClass]:
    """Kernel basis of M_n decoded to (b1, b2) pairs."""
    m = build_monsky(n)
    return [decode_vector(v, m.n) for v in gf2.kernel_basis(m.matrix)]


def in_selmer(mm: MonskyMatrix, b1: int, b2: int) -> bool:
    """Whether (b1, b2) lies in ker M_n, i.e. is a 2-Selmer class."""
    return mm.matrix.mul_vec(encode_pair(b1, b2, mm.n)).is_zero()


def selmer_vectors(mm: MonskyMatrix) -> list[BitVector]:
    """Every vector of ker M_n: the i-th is the sum of the kernel_basis
    vectors picked by the bits of i, so index 0 is the zero vector."""
    vectors = [BitVector(mm.matrix.ncols, 0)]
    for kv in gf2.kernel_basis(mm.matrix):
        vectors += [v + kv for v in vectors]
    return vectors


_EVEN_PI3 = {1, 2, 3, 5, 7, 9, 14, 15, 19}
_EVEN_2PI3 = {1, 2, 3, 6, 7, 11, 13, 14, 18}


def predicted_parity(m: int, theta: str) -> str:
    """Parity of s2(E_{m,theta}) from the residue of m mod 24."""
    if m <= 0:
        raise ValueError("parity table takes the positive tiling number")
    # curve_argument raises ValueError on an unknown theta
    table = _EVEN_PI3 if curve_argument(m, theta) > 0 else _EVEN_2PI3
    return "even" if m % 24 in table else "odd"


def curve_argument(m: int, theta: str) -> int:
    """E_{m,pi/3} = E_m and E_{m,2pi/3} = E_{-m}; map (m, theta) to signed n."""
    if theta == THETA_PI3:
        return m
    if theta == THETA_2PI3:
        return -m
    raise ValueError(f"unknown theta {theta!r}")
