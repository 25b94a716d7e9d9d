"""Dense bit-packed linear algebra over GF(2).

Rows are Python ints used as bitsets (bit j = column j), which is the
natural packed representation here: an int is already a word array, and
xor of rows is one opcode.  Everything is immutable; operations return
fresh objects.  Elimination always pivots left-to-right, top-to-bottom,
so ranks, kernels and solutions are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass


class DimensionMismatch(Exception):
    pass


class RaggedLayout(Exception):
    pass


@dataclass(frozen=True)
class BitVector:
    n: int
    bits: int = 0

    def __post_init__(self):
        if self.n < 0 or self.bits < 0 or self.bits >> self.n:
            raise ValueError("bits outside declared length")

    @staticmethod
    def from_bits(entries) -> "BitVector":
        entries = list(entries)
        word = 0
        for i, e in enumerate(entries):
            if e & 1:
                word |= 1 << i
        return BitVector(len(entries), word)

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(i)
        return (self.bits >> i) & 1

    def entries(self) -> list[int]:
        return [(self.bits >> i) & 1 for i in range(self.n)]

    def __add__(self, other: "BitVector") -> "BitVector":
        if self.n != other.n:
            raise DimensionMismatch
        return BitVector(self.n, self.bits ^ other.bits)

    def dot(self, other: "BitVector") -> int:
        if self.n != other.n:
            raise DimensionMismatch
        return (self.bits & other.bits).bit_count() & 1

    def weight(self) -> int:
        return self.bits.bit_count()

    def is_zero(self) -> bool:
        return self.bits == 0

    def concat(self, other: "BitVector") -> "BitVector":
        return BitVector(self.n + other.n, self.bits | (other.bits << self.n))

    def slice(self, start: int, stop: int) -> "BitVector":
        width = stop - start
        return BitVector(width, (self.bits >> start) & ((1 << width) - 1))


def zeros_vec(n: int) -> BitVector:
    return BitVector(n, 0)


def ones_vec(n: int) -> BitVector:
    return BitVector(n, (1 << n) - 1)


@dataclass(frozen=True)
class BitMatrix:
    nrows: int
    ncols: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if len(self.rows) != self.nrows:
            raise DimensionMismatch("row count mismatch")
        if self.rows and (min(self.rows) < 0 or max(self.rows) >> self.ncols):
            raise ValueError("row bits outside declared width")

    @staticmethod
    def from_rows(rows, ncols: int | None = None) -> "BitMatrix":
        rows = [list(r) for r in rows]
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise RaggedLayout("rows of unequal length")
        packed = tuple(sum((e & 1) << j for j, e in enumerate(r)) for r in rows)
        return BitMatrix(len(rows), ncols, packed)

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def row(self, i: int) -> BitVector:
        return BitVector(self.ncols, self.rows[i])

    def to_lists(self) -> list[list[int]]:
        return [[(r >> j) & 1 for j in range(self.ncols)] for r in self.rows]

    def __add__(self, other: "BitMatrix") -> "BitMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch
        return BitMatrix(
            self.nrows, self.ncols, tuple(a ^ b for a, b in zip(self.rows, other.rows))
        )

    def mul_vec(self, v: BitVector) -> BitVector:
        if v.n != self.ncols:
            raise DimensionMismatch
        bits = 0
        for i, r in enumerate(self.rows):
            bits |= ((r & v.bits).bit_count() & 1) << i
        return BitVector(self.nrows, bits)

    def vec_mul(self, v: BitVector) -> BitVector:
        """Row vector times matrix: v^T M."""
        if v.n != self.nrows:
            raise DimensionMismatch
        acc = 0
        for i in range(self.nrows):
            if (v.bits >> i) & 1:
                acc ^= self.rows[i]
        return BitVector(self.ncols, acc)


def zeros(nrows: int, ncols: int) -> BitMatrix:
    return BitMatrix(nrows, ncols, (0,) * nrows)


def identity(n: int) -> BitMatrix:
    return BitMatrix(n, n, tuple(1 << i for i in range(n)))


def diag(v: BitVector) -> BitMatrix:
    return BitMatrix(v.n, v.n, tuple(((v.bits >> i) & 1) << i for i in range(v.n)))


def transpose(m: BitMatrix) -> BitMatrix:
    cols = [0] * m.ncols
    for i, r in enumerate(m.rows):
        while r:
            j = (r & -r).bit_length() - 1
            cols[j] |= 1 << i
            r &= r - 1
    return BitMatrix(m.ncols, m.nrows, tuple(cols))


def outer_product(u: BitVector, v: BitVector) -> BitMatrix:
    """u^T v as a u.n x v.n matrix (rank <= 1)."""
    return BitMatrix(u.n, v.n, tuple(v.bits if (u.bits >> i) & 1 else 0 for i in range(u.n)))


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------


def _rref(rows: list[int], ncols: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column per rank row)."""
    work = list(rows)
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        sel = None
        for i in range(rank, len(work)):
            if (work[i] >> col) & 1:
                sel = i
                break
        if sel is None:
            continue
        work[rank], work[sel] = work[sel], work[rank]
        for i in range(len(work)):
            if i != rank and (work[i] >> col) & 1:
                work[i] ^= work[rank]
        pivots.append(col)
        rank += 1
    return work[: len(pivots)], pivots


def rank_rows(rows) -> int:
    """Rank of packed rows, from an XOR basis.

    r ^ b < r exactly when r has b's leading bit, and r ^= b clears it.  Each
    basis element lacks the leading bits of those before it, so one pass in
    order clears them all from r, and a nonzero r is independent.
    """
    basis: list[int] = []
    for r in rows:
        for b in basis:
            if r ^ b < r:
                r ^= b
        if r:
            basis.append(r)
    return len(basis)


def rank(m: BitMatrix) -> int:
    return rank_rows(m.rows)


def kernel_basis(m: BitMatrix) -> list[BitVector]:
    """Deterministic basis of {v : M v = 0}, one vector per free column."""
    rows, pivots = _rref(list(m.rows), m.ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(m.ncols):
        if free in pivot_set:
            continue
        bits = 1 << free
        for r, p in zip(rows, pivots):
            if (r >> free) & 1:
                bits |= 1 << p
        basis.append(BitVector(m.ncols, bits))
    return basis


def solve(m: BitMatrix, v: BitVector):
    """Some u with M u = v, or None if the system is inconsistent.

    Deterministic: free variables are set to zero.
    """
    if v.n != m.nrows:
        raise DimensionMismatch
    aug = [r | (((v.bits >> i) & 1) << m.ncols) for i, r in enumerate(m.rows)]
    rows, pivots = _rref(aug, m.ncols + 1)
    if pivots and pivots[-1] == m.ncols:
        return None
    bits = 0
    for r, p in zip(rows, pivots):
        if (r >> m.ncols) & 1:
            bits |= 1 << p
    return BitVector(m.ncols, bits)


def in_row_span(rows: list[BitVector], v: BitVector) -> bool:
    bits = [r.bits for r in rows]
    return rank_rows(bits) == rank_rows(bits + [v.bits])


# ---------------------------------------------------------------------------
# block assembly
# ---------------------------------------------------------------------------


def _cell_shape(cell) -> tuple[int, int]:
    if isinstance(cell, BitMatrix):
        return cell.nrows, cell.ncols
    if isinstance(cell, BitVector):
        return 1, cell.n
    if isinstance(cell, int):
        return 1, 1
    raise TypeError(f"bad cell {cell!r}")


def _cell_rows(cell) -> list[int]:
    if isinstance(cell, BitMatrix):
        return list(cell.rows)
    if isinstance(cell, BitVector):
        return [cell.bits]
    return [cell & 1]


def block_assemble(grid) -> BitMatrix:
    """Assemble a matrix from a grid of BitMatrix / BitVector / 0-1 cells.

    Vectors are 1 x t row blocks; a transposed t x 1 block is a BitMatrix.
    Cell dimensions must be consistent within each grid row and
    column; RaggedLayout otherwise.
    """
    if not grid:
        return zeros(0, 0)
    shapes = [[_cell_shape(c) for c in row] for row in grid]
    ncells = len(shapes[0])
    if any(len(r) != ncells for r in shapes):
        raise RaggedLayout("grid rows of unequal cell count")
    row_heights = []
    for r in shapes:
        hs = {h for h, _ in r}
        if len(hs) != 1:
            raise RaggedLayout("inconsistent heights within a grid row")
        row_heights.append(hs.pop())
    col_widths = []
    for j in range(ncells):
        ws = {shapes[i][j][1] for i in range(len(shapes))}
        if len(ws) != 1:
            raise RaggedLayout("inconsistent widths within a grid column")
        col_widths.append(ws.pop())
    out_rows: list[int] = []
    for grow, height in zip(grid, row_heights):
        parts = [_cell_rows(c) for c in grow]
        for i in range(height):
            bits = 0
            shift = 0
            for cell_rows, w in zip(parts, col_widths):
                bits |= cell_rows[i] << shift
                shift += w
            out_rows.append(bits)
    return BitMatrix(len(out_rows), sum(col_widths), tuple(out_rows))
