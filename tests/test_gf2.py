import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from theta_selmer import gf2
from theta_selmer.gf2 import (
    BitMatrix,
    BitVector,
    DimensionMismatch,
    RaggedLayout,
    block_assemble,
    diag,
    identity,
    kernel_basis,
    outer_product,
    rank,
    solve,
    transpose,
    zeros,
)


def random_matrix(rng, rows, cols):
    return BitMatrix(rows, cols, tuple(rng.randrange(1 << cols) for _ in range(rows)))


def naive_rank(m: BitMatrix) -> int:
    """Unpacked bit-by-bit elimination, the independent oracle."""
    a = [row[:] for row in m.to_lists()]
    rank_ = 0
    for col in range(m.ncols):
        piv = next((i for i in range(rank_, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[rank_], a[piv] = a[piv], a[rank_]
        for i in range(len(a)):
            if i != rank_ and a[i][col]:
                a[i] = [(x + y) % 2 for x, y in zip(a[i], a[rank_])]
        rank_ += 1
    return rank_


def test_rank_examples():
    assert rank(identity(3)) == 3
    assert rank(zeros(2, 3)) == 0


def test_rank_vs_naive_oracle():
    rng = random.Random(7)
    for _ in range(60):
        m = random_matrix(rng, 20, 20)
        assert rank(m) == naive_rank(m)


def product(left: BitMatrix, right: BitMatrix) -> BitMatrix:
    """left * right, row i being the xor of the rows of right that row i picks."""
    return BitMatrix(left.nrows, right.ncols,
                     tuple(right.vec_mul(left.row(i)).bits for i in range(left.nrows)))


def test_rank_of_structured_low_rank_matrices():
    # dense random matrices are almost always of full rank, so a row seldom
    # reduces to zero against the xor basis; these are rank-deficient on purpose
    rng = random.Random(13)
    for _ in range(300):
        r, k, c = rng.randrange(1, 16), rng.randrange(0, 8), rng.randrange(1, 16)
        low = product(random_matrix(rng, r, k), random_matrix(rng, k, c))
        rows = list(low.rows)
        dup = rows + [rng.choice(rows) for _ in range(rng.randrange(1, 6))]
        rng.shuffle(dup)
        lead = 1 << (c - 1)
        shared = [lead | rng.randrange(lead) for _ in range(rng.randrange(1, 6))]
        shared += [rng.choice(shared) ^ lead] + rows[:3]
        rng.shuffle(shared)
        for m in (low, BitMatrix(len(dup), c, tuple(dup)),
                  BitMatrix(len(shared), c, tuple(shared))):
            assert rank(m) == naive_rank(m)
            assert rank(m) + len(kernel_basis(m)) == c
        assert rank(low) <= k
        assert rank(BitMatrix(len(dup), c, tuple(dup))) == rank(low)


def test_kernel_examples():
    assert kernel_basis(identity(4)) == []
    basis = kernel_basis(zeros(2, 3))
    assert len(basis) == 3
    rng = random.Random(1)
    for _ in range(40):
        m = random_matrix(rng, rng.randrange(1, 12), rng.randrange(1, 12))
        for v in kernel_basis(m):
            assert m.mul_vec(v).is_zero()


def test_rank_nullity_and_transpose():
    rng = random.Random(5)
    for _ in range(200):
        r = rng.randrange(0, 20)
        c = rng.randrange(0, 20)
        m = BitMatrix(r, c, tuple(rng.randrange(1 << c) if c else 0 for _ in range(r)))
        assert rank(m) + len(kernel_basis(m)) == c
        assert rank(m) == rank(transpose(m))


def test_alternating_matrix_even_rank():
    # M = N + N^T has zero diagonal and even rank over GF(2)
    rng = random.Random(11)
    for _ in range(100):
        t = rng.randrange(1, 14)
        n = random_matrix(rng, t, t)
        m = n + transpose(n)
        assert all(m.entry(i, i) == 0 for i in range(t))
        assert rank(m) % 2 == 0


def test_solve_examples():
    v = BitVector.from_bits([1, 0, 1])
    assert solve(identity(3), v) == v
    assert solve(zeros(2, 2), BitVector.from_bits([1, 0])) is None
    rng = random.Random(3)
    for _ in range(60):
        m = random_matrix(rng, 9, 7)
        u0 = BitVector(7, rng.randrange(1 << 7))
        v = m.mul_vec(u0)
        u = solve(m, v)
        assert u is not None
        assert m.mul_vec(u) == v


def test_block_assemble_scalars():
    m = block_assemble([[1, 0], [1, 1]])
    assert m.to_lists() == [[1, 0], [1, 1]]


def test_block_assemble_identity_blocks():
    m = block_assemble([[identity(2), zeros(2, 3)], [zeros(3, 2), identity(3)]])
    assert m == identity(5)


def test_block_assemble_ragged():
    with pytest.raises(RaggedLayout):
        block_assemble([[identity(2), zeros(3, 1)]])


def test_block_roundtrip():
    rng = random.Random(9)
    for _ in range(30):
        a = random_matrix(rng, 2, 3)
        b = random_matrix(rng, 2, 4)
        c = random_matrix(rng, 5, 3)
        d = random_matrix(rng, 5, 4)
        m = block_assemble([[a, b], [c, d]])
        assert m.nrows == 7 and m.ncols == 7
        for i in range(7):
            for j in range(7):
                src = (
                    a if i < 2 and j < 3 else
                    b if i < 2 else
                    c if j < 3 else d
                )
                ii = i if i < 2 else i - 2
                jj = j if j < 3 else j - 3
                assert m.entry(i, j) == src.entry(ii, jj)


def test_vector_ops():
    u = BitVector.from_bits([1, 0, 1])
    v = BitVector.from_bits([1, 1, 0])
    assert (u + v).entries() == [0, 1, 1]
    assert u.dot(v) == 1
    assert u.concat(v).entries() == [1, 0, 1, 1, 1, 0]
    assert u.concat(v).slice(3, 6) == v
    assert diag(u).to_lists() == [[1, 0, 0], [0, 0, 0], [0, 0, 1]]
    assert outer_product(u, v).to_lists() == [[1, 1, 0], [0, 0, 0], [1, 1, 0]]


@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 2**36 - 1))
def test_empty_shapes_are_legal(r, c, seed):
    rng = random.Random(seed)
    m = BitMatrix(r, c, tuple(rng.randrange(1 << c) if c else 0 for _ in range(r)))
    assert rank(m) <= min(r, c)
    assert rank(m) + len(kernel_basis(m)) == c


def test_matrix_validation_rejects_bad_rows():
    with pytest.raises(ValueError):
        BitMatrix(2, 3, (1, -1))  # a negative row
    with pytest.raises(ValueError):
        BitMatrix(2, 3, (0b111, 0b1000))  # a bit at column ncols
    with pytest.raises(ValueError):
        BitMatrix(1, 0, (1,))
    with pytest.raises(DimensionMismatch):
        BitMatrix(3, 3, (1, 2))
    assert BitMatrix(2, 3, (0b111, 0)).rows == (0b111, 0)
    assert BitMatrix(0, 3, ()).nrows == 0
