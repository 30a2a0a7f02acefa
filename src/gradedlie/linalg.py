"""Exact sparse linear algebra over the rationals.

Everything here is exact: Fractions at the interface, integers inside;
there is no floating point fallback anywhere.  Matrices are stored
row-wise as {column: value} dicts, which matches the constraint systems
this package produces: very many short rows over a modest number of
columns.

Elimination streams the rows in order, fraction-free, and stops as soon
as every column holds a pivot: at that point the kernel is zero, which is
exact, and no later row can change the reduced form.  The kernel check
in nullspace multiplies integer-scaled copies of each kernel vector
through integer-scaled copies of every row of the original matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence


class LinalgError(Exception):
    pass


class SparseMatrix:
    """Immutable-ish sparse rational matrix; zero entries are never stored."""

    __slots__ = ("rows", "cols", "_rows")

    def __init__(self, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise LinalgError("negative matrix dimensions")
        self.rows = rows
        self.cols = cols
        self._rows: list[dict[int, Fraction]] = [dict() for _ in range(rows)]
        if entries:
            for (r, c), v in entries.items():
                self._set(r, c, Fraction(v))

    @classmethod
    def from_rows(cls, cols: int, rows: Iterable[dict]) -> "SparseMatrix":
        rows = list(rows)
        m = cls(0, cols)
        m.rows = len(rows)
        for r, row in enumerate(rows):
            kept = {}
            for c, v in row.items():
                if not 0 <= c < cols:
                    raise LinalgError(f"entry ({r},{c}) outside {m.rows}x{cols}")
                if not isinstance(v, Fraction):
                    v = Fraction(v)
                if v:
                    kept[c] = v
            m._rows.append(kept)
        return m

    @classmethod
    def from_dense(cls, data: Sequence[Sequence]) -> "SparseMatrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        m = cls(rows, cols)
        for r, row in enumerate(data):
            if len(row) != cols:
                raise LinalgError("ragged dense input")
            for c, v in enumerate(row):
                m._set(r, c, Fraction(v))
        return m

    def _set(self, r: int, c: int, v: Fraction):
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise LinalgError(f"entry ({r},{c}) outside {self.rows}x{self.cols}")
        if v:
            self._rows[r][c] = v
        else:
            self._rows[r].pop(c, None)

    def row(self, r: int) -> dict[int, Fraction]:
        return dict(self._rows[r])

    @property
    def entries(self) -> dict[tuple[int, int], Fraction]:
        return {(r, c): v for r, row in enumerate(self._rows) for c, v in row.items()}

    @property
    def nnz(self) -> int:
        return sum(len(row) for row in self._rows)

    def mul_vec(self, v: Sequence[Fraction]) -> list[Fraction]:
        if len(v) != self.cols:
            raise LinalgError("vector length does not match column count")
        return [sum((coef * v[c] for c, coef in row.items()), Fraction(0))
                for row in self._rows]

    def to_dense(self) -> list[list[Fraction]]:
        return [[self._rows[r].get(c, Fraction(0)) for c in range(self.cols)]
                for r in range(self.rows)]

    def __eq__(self, other):
        return (isinstance(other, SparseMatrix) and self.rows == other.rows
                and self.cols == other.cols and self._rows == other._rows)

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


def _integers(row: dict[int, Fraction]) -> dict[int, int]:
    """The row scaled by the lcm of its denominators: same zeros, all ints."""
    den = lcm(*(q.denominator for q in row.values()))
    return {c: q.numerator * (den // q.denominator) for c, q in row.items()}


def _rref_rows(rows: list[dict[int, Fraction]], cols: int):
    """In-place reduced row echelon; returns list of (pivot_col, row_id).

    On return rows[row_id] holds each pivot row and every other slot is
    empty.  Slots are rebound, never mutated, so the caller may pass a
    shallow copy of a matrix's row list without copying its rows.

    Rows are streamed in order and turned into integers only when reached.
    Pivot rows are kept fully reduced as primitive integer rows, so each
    pivot column in an incoming row is eliminated once, by
    cross-multiplication.  What remains is divided by its content; its
    smallest column becomes a new pivot, which is then cleared from the
    pivot rows holding it.  Once every column holds a pivot the remaining
    rows can only reduce to zero, so the stream stops there.  The reduced
    row echelon form of a row space is unique, so the result does not
    depend on which rows were read.  Pivot rows are rescaled to leading-1
    Fractions on exit.
    """
    work: dict[int, dict[int, int]] = {}   # row id -> reduced integer row
    pivot_row: dict[int, int] = {}         # pivot column -> row id
    holders: dict[int, set[int]] = {}      # non-pivot column -> pivot row ids
    for rid, row in enumerate(rows):
        if len(pivot_row) == cols:
            break
        if not row:
            continue
        new = _integers(row)
        for col in [c for c in new if c in pivot_row]:
            _eliminate(new, work[pivot_row[col]], col)
        if not new:
            continue
        _divide_content(new)
        col = min(new)
        for c in new:
            if c != col:
                holders.setdefault(c, set()).add(rid)
        for other in holders.pop(col, ()):
            target = work[other]
            _eliminate(target, new, col)
            for c in new:
                if c in target:
                    holders[c].add(other)
                elif c != col:
                    holders[c].discard(other)
            _divide_content(target)
        work[rid] = new
        pivot_row[col] = rid

    pivots = sorted(pivot_row.items())
    reduced = {rid: {c: Fraction(v, work[rid][col]) for c, v in work[rid].items()}
               for col, rid in pivots}
    rows[:] = [reduced.get(rid, {}) for rid in range(len(rows))]
    return pivots


def _divide_content(row: dict[int, int]):
    """Make an integer row primitive: divide out the gcd of its entries."""
    g = gcd(*row.values())
    if g > 1:
        for c in row:
            row[c] //= g


def _eliminate(target: dict[int, int], pivot: dict[int, int], col: int):
    """target <- a*target - b*pivot, cancelling target's entry at col."""
    a, b = pivot[col], target.pop(col)
    g = gcd(a, b)
    a, b = a // g, b // g
    if a != 1:
        for c in target:
            target[c] *= a
    for c, v in pivot.items():
        if c == col:
            continue
        nv = target.get(c, 0) - b * v
        if nv:
            target[c] = nv
        else:
            target.pop(c, None)


def rref(m: SparseMatrix) -> tuple[SparseMatrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    rows = list(m._rows)
    pivots = _rref_rows(rows, m.cols)
    out = SparseMatrix(m.rows, m.cols)
    for pos, (_, rid) in enumerate(pivots):
        out._rows[pos] = rows[rid]
    return out, [col for col, _ in pivots]


def rank(m: SparseMatrix) -> int:
    return len(_rref_rows(list(m._rows), m.cols))


@dataclass
class VectorBasis:
    """A list of linearly independent dense rational vectors."""

    dimension: int
    vectors: list[tuple[Fraction, ...]]

    def __post_init__(self):
        for v in self.vectors:
            if len(v) != self.dimension:
                raise LinalgError("basis vector length mismatch")

    def __len__(self):
        return len(self.vectors)


def nullspace(m: SparseMatrix) -> VectorBasis:
    """Basis of the exact kernel {v : m v = 0}.

    Every returned vector is re-multiplied through every row of the
    original matrix as a hard postcondition, in integers: each vector and
    each row is scaled by the lcm of its denominators, which keeps zero
    residues zero.  A nonzero residue means a bug in the elimination, not
    bad data, hence the internal error.
    """
    reduced, pivot_cols = rref(m)
    pivot_set = set(pivot_cols)
    free_cols = [c for c in range(m.cols) if c not in pivot_set]
    vectors = []
    for f in free_cols:
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for row_pos, pcol in enumerate(pivot_cols):
            coef = reduced._rows[row_pos].get(f)
            if coef:
                v[pcol] = -coef
        vectors.append(tuple(v))
    if vectors:
        rows = [_integers(row) for row in m._rows if row]
        for v in vectors:
            w = _integers(dict(enumerate(v)))
            if any(sum(a * w[c] for c, a in row.items()) for row in rows):
                raise LinalgError("internal error: kernel vector fails verification")
    return VectorBasis(m.cols, vectors)


def project_basis(basis: VectorBasis, coords: Iterable[int]) -> VectorBasis:
    """Row-reduced basis of the projection onto the given coordinates."""
    cols = sorted(set(coords))
    for c in cols:
        if not (0 <= c < basis.dimension):
            raise LinalgError(f"coordinate {c} outside dimension {basis.dimension}")
    if not cols or not basis.vectors:
        return VectorBasis(len(cols), [])
    proj = SparseMatrix.from_rows(
        len(cols),
        [{i: vec[c] for i, c in enumerate(cols) if vec[c]} for vec in basis.vectors])
    reduced, pivots = rref(proj)
    vectors = [tuple(reduced._rows[i].get(c, Fraction(0)) for c in range(len(cols)))
               for i in range(len(pivots))]
    return VectorBasis(len(cols), vectors)
