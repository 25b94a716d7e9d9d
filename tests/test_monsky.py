import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from theta_selmer import gf2, monsky
from theta_selmer.arith import (
    factor_squarefree,
    is_squarefree,
    legendre_additive,
    sieve_primes,
)
from theta_selmer.gf2 import BitMatrix, BitVector
from theta_selmer.monsky import (
    THETA_2PI3,
    THETA_PI3,
    UnsupportedPrime,
    build_blocks,
    build_monsky,
    decode_vector,
    encode_pair,
    in_selmer,
    predicted_parity,
    selmer_basis,
    selmer_rank,
    select_template,
    selmer_vectors,
    torsion_vectors,
)


def test_select_template_examples():
    assert select_template(factor_squarefree(41)) == "A1"
    assert select_template(factor_squarefree(5)) == "A2"
    assert select_template(factor_squarefree(-10)) == "B2"


def test_select_template_all_classes():
    cases = {
        7: "A3", 2: "B1", 33: "C1", 21: "C2", 15: "C3", 6: "D1",
        -11: "A4", -7: "A5", -5: "A6", -2: "B2", -51: "C4", -15: "C5",
        -33: "C6", -6: "D2",
    }
    for n, want in cases.items():
        assert select_template(factor_squarefree(n)) == want, n


def test_build_blocks_empty():
    blocks = build_blocks(factor_squarefree(1))
    assert blocks.a_matrix.nrows == 0
    assert all(v.n == 0 for v in blocks.r.values())


def test_build_blocks_65():
    blocks = build_blocks(factor_squarefree(65))
    a = blocks.a_matrix
    assert a.entry(0, 1) == legendre_additive(13, 5) == 1
    assert a.entry(1, 0) == legendre_additive(5, 13)
    assert a.entry(0, 0) == a.entry(0, 1)
    assert a.entry(1, 1) == a.entry(1, 0)


def test_block_identities_range():
    # A + A^T = D_{-1} + r_{-1}^T r_{-1}, c(A) = 0, r(A) = (1+[-1/nt]) r_{-1}
    for m in range(1, 500):
        if not is_squarefree(m):
            continue
        sf = factor_squarefree(m)
        if sf.t == 0:
            continue
        blocks = build_blocks(sf)
        a = blocks.a_matrix
        r1 = blocks.r_vec(-1)
        lhs = a + gf2.transpose(a)
        rhs = gf2.diag(r1) + gf2.outer_product(r1, r1)
        assert lhs == rhs, m
        ones = gf2.ones_vec(sf.t)
        assert a.mul_vec(ones).is_zero(), m  # A e = 0: column sums vanish
        eps = sum(legendre_additive(-1, p) for p in sf.odd_primes) % 2
        want = BitVector(sf.t, 0) if eps else r1
        assert a.vec_mul(ones) == want, m


def test_monsky_n1_corner():
    mm = build_monsky(1)
    assert mm.template == "A1"
    assert (mm.matrix.nrows, mm.matrix.ncols) == (6, 6)
    assert mm.matrix.to_lists() == [
        [1, 0, 0, 1, 0, 0],
        [0, 1, 0, 1, 0, 1],
        [0, 0, 0, 0, 1, 0],
        [1, 1, 1, 0, 0, 1],
        [1, 1, 0, 0, 0, 1],
        [0, 0, 1, 0, 0, 0],
    ]


def test_monsky_n5_hand_transcription():
    # A2 at t=1 with [-3/5]=1, [-1/5]=0, [2/5]=1, [3/5]=1
    mm = build_monsky(5)
    assert mm.template == "A2"
    assert (mm.matrix.nrows, mm.matrix.ncols) == (8, 8)
    assert mm.matrix.to_lists() == [
        [1, 0, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 1, 0, 0],
        [1, 1, 0, 0, 0, 0, 1, 0],
        [0, 0, 1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 1, 1, 0],
        [0, 1, 1, 0, 0, 0, 0, 0],
    ]


def test_monsky_n2_b_template_shape():
    # B templates have 5 scalar rows + 2t; at t=0 that is 5 x 6
    mm = build_monsky(2)
    assert mm.template == "B1"
    assert (mm.matrix.nrows, mm.matrix.ncols) == (5, 6)


def _reference_monsky(n: int) -> BitMatrix:
    """M_n assembled the long way: every template entry parsed from its
    string, every r_d and a_ij from Euler's criterion, blocks from
    gf2.block_assemble."""
    sf = factor_squarefree(n)
    t, ps = sf.t, sf.odd_primes

    def r(d):
        return BitVector.from_bits(legendre_additive(d, p) for p in ps)

    def col(v):
        return BitMatrix(t, 1, tuple(v.entries()))

    syms = {"m1": r(-1).weight() & 1, "q2": r(2).weight() & 1, "m3": r(-3).weight() & 1}
    vecs = {"0": gf2.zeros_vec(t), "r-1": r(-1), "r2": r(2), "r-3": r(-3)}
    grid = []
    for entries, y_tok, x_tok in monsky._TEMPLATE_SCALAR_ROWS[select_template(sf)]:
        cells = [
            sum(syms[part] if part in syms else int(part) for part in tok.split("+")) & 1
            for tok in entries.split()
        ]
        grid.append([*cells, vecs[y_tok], vecs[x_tok]])
    if t:
        a_rows = []
        for i, p in enumerate(ps):
            row = [legendre_additive(q, p) if j != i else 0 for j, q in enumerate(ps)]
            row[i] = sum(row) & 1
            a_rows.append(row)
        a = BitMatrix.from_rows(a_rows)
        z1 = gf2.zeros(t, 1)
        heads = [col(r(-1)), col(r(2)), col(r(3))]
        grid.append([z1, z1, z1, *heads, gf2.diag(r(-3)), a + gf2.diag(r(sf.eta))])
        grid.append([*heads, z1, z1, z1, a + gf2.diag(r(-sf.eta)), gf2.zeros(t, t)])
    return gf2.block_assemble(grid)


def test_monsky_matches_reference_range():
    for m in range(1, 3001):
        if not is_squarefree(m):
            continue
        for n in (m, -m):
            assert build_monsky(n).matrix.rows == _reference_monsky(n).rows, n


_REFERENCE_PRIMES = [p for p in sieve_primes(4000) if p > 3]


@st.composite
def _curve_arguments(draw):
    """n = +-{1,2,3,6} times up to 8 distinct primes below 4000, |n| < 2^63."""
    n = draw(st.sampled_from([1, 2, 3, 6, -1, -2, -3, -6]))
    for p in draw(st.lists(st.sampled_from(_REFERENCE_PRIMES), max_size=8, unique=True)):
        if abs(n) * p >= 1 << 63:
            break
        n *= p
    return n


@settings(max_examples=300, deadline=None)
@given(_curve_arguments())
def test_monsky_matches_reference_sample(n):
    assert build_monsky(n).matrix.rows == _reference_monsky(n).rows


def test_selmer_rank_examples():
    assert selmer_rank(1) == 2
    assert selmer_rank(5) == 2
    assert selmer_rank(6) % 2 == 1


def test_selmer_basis_n5():
    basis = selmer_basis(5)
    got = {(c.b1, c.b2) for c in basis}
    span = set()
    for i in range(1 << len(basis)):
        b1, b2 = 1, 1
        for j, c in enumerate(basis):
            if (i >> j) & 1:
                b1 = monsky.squarefree_product(b1, c.b1)
                b2 = monsky.squarefree_product(b2, c.b2)
        span.add((b1, b2))
    assert span == {(1, 1), (-3, -5), (5, 1), (-15, -5)}


def test_selmer_basis_n1_contains_torsion():
    span = set()
    basis = selmer_basis(1)
    for i in range(1 << len(basis)):
        b1, b2 = 1, 1
        for j, c in enumerate(basis):
            if (i >> j) & 1:
                b1 = monsky.squarefree_product(b1, c.b1)
                b2 = monsky.squarefree_product(b2, c.b2)
        span.add((b1, b2))
    assert (-3, -1) in span


def test_encode_decode_roundtrip_exhaustive():
    for n in (5, 35, -65):
        sf = factor_squarefree(n)
        dim = 2 * sf.t + 6
        for bits in range(1 << dim):
            v = BitVector(dim, bits)
            assert encode_pair(*_pair(decode_vector(v, sf)), sf) == v


def _pair(cls):
    return cls.b1, cls.b2


def test_encode_examples():
    sf = factor_squarefree(5)
    assert encode_pair(1, 1, sf).is_zero()
    v = encode_pair(-3, -5, sf)
    # (xi1 xi2 xi3 g1 g2 g3 y1 x1) = (1,0,0,1,0,1,1,0)
    assert v.entries() == [1, 0, 0, 1, 0, 1, 1, 0]
    with pytest.raises(UnsupportedPrime):
        encode_pair(7, 1, sf)


def test_torsion_in_kernel_sample():
    for m in range(1, 400):
        if not is_squarefree(m):
            continue
        for n in (m, -m):
            sf = factor_squarefree(n)
            mm = build_monsky(sf)
            for v in torsion_vectors(sf):
                assert mm.matrix.mul_vec(v).is_zero(), n


def test_predicted_parity_examples():
    assert predicted_parity(19, THETA_PI3) == "even"
    assert predicted_parity(11, THETA_2PI3) == "even"
    assert predicted_parity(21, THETA_PI3) == "odd"


def test_predicted_parity_rejects_unknown_theta():
    # "pi/3" is not a theta of the package: it used to get the 2pi/3 answer
    for theta in ("pi/3", "bogus", ""):
        with pytest.raises(ValueError, match="unknown theta"):
            predicted_parity(5, theta)

def test_parity_against_rank_small():
    for m in range(1, 300):
        if not is_squarefree(m):
            continue
        for theta in (THETA_PI3, THETA_2PI3):
            s2 = selmer_rank(monsky.curve_argument(m, theta))
            want = predicted_parity(m, theta)
            assert ("even" if s2 % 2 == 0 else "odd") == want, (m, theta)


def test_s2_bounded_by_r4_for_eta1_classes():
    from theta_selmer import classgroup

    for m in range(7, 2000, 12):
        if m % 24 not in (7, 19) or not is_squarefree(m):
            continue
        sf = factor_squarefree(m)
        if sf.eta != 1:
            continue
        assert selmer_rank(sf) <= 2 + 2 * classgroup.r4(-m), m


def test_select_template_every_cell():
    # n = eta * ntilde with ntilde = 17, 11, 5, 7, one prime per class mod 8
    want = {
        (1, 1): "A1", (1, 3): "A3", (1, 5): "A2", (1, 7): "A3",
        (2, 1): "B1", (2, 3): "B1", (2, 5): "B1", (2, 7): "B1",
        (3, 1): "C3", (3, 3): "C1", (3, 5): "C3", (3, 7): "C2",
        (6, 1): "D1", (6, 3): "D1", (6, 5): "D1", (6, 7): "D1",
        (-1, 1): "A6", (-1, 3): "A4", (-1, 5): "A6", (-1, 7): "A5",
        (-2, 1): "B2", (-2, 3): "B2", (-2, 5): "B2", (-2, 7): "B2",
        (-3, 1): "C4", (-3, 3): "C6", (-3, 5): "C5", (-3, 7): "C6",
        (-6, 1): "D2", (-6, 3): "D2", (-6, 5): "D2", (-6, 7): "D2",
    }
    for (eta, cls), template in want.items():
        sf = factor_squarefree(eta * {1: 17, 3: 11, 5: 5, 7: 7}[cls])
        assert (sf.eta, sf.ntilde % 8) == (eta, cls)
        assert select_template(sf) == template, (eta, cls)


def test_selmer_vectors_walk_the_kernel_in_basis_bit_order():
    # |n| <= 200 has t <= 2, so brute force over all 2^(2t+6) <= 1,024 vectors
    for n in (s * m for m in range(1, 201) if is_squarefree(m) for s in (1, -1)):
        mm = build_monsky(n)
        dim = mm.matrix.ncols
        kernel = {bits for bits in range(1 << dim)
                  if mm.matrix.mul_vec(BitVector(dim, bits)).is_zero()}
        vectors = selmer_vectors(mm)
        assert len({v.bits for v in vectors}) == len(vectors) == 1 << selmer_rank(mm), n
        assert {v.bits for v in vectors} == kernel, n
        basis = gf2.kernel_basis(mm.matrix)
        for i, v in enumerate(vectors):
            want = 0
            for j, kv in enumerate(basis):
                if i >> j & 1:
                    want ^= kv.bits
            assert v == BitVector(dim, want), (n, i)
        for bits in range(1 << dim):
            lam = decode_vector(BitVector(dim, bits), mm.n)
            assert in_selmer(mm, lam.b1, lam.b2) == (bits in kernel), (n, bits)
