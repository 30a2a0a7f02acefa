"""Exact sparse linear algebra over the rationals.

Everything here is exact: Fractions at the interface, integers inside;
there is no floating point fallback anywhere.  A matrix is stored row-wise:
each row is a {column: int} dict over one positive int denominator.  That
is how the constraint systems of this package arrive, very many short
integer rows over a common denominator and a modest number of columns.
The constructors are the only place rationals are converted.

Elimination streams the stored rows in order, fraction-free, and stops as
soon as every column holds a pivot: at that point the kernel is zero,
which is exact, and no later row can change the reduced form.  Each reduced
row is primitive, over its leading entry.  nullspace checks the integer
form of every kernel vector against every stored row of the input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence


class LinalgError(Exception):
    pass


class SparseMatrix:
    """Immutable-ish sparse rational matrix: row r is _rows[r] / _dens[r].

    Rows are {column: int} dicts that never store zeros; _dens are ints > 0.
    """

    __slots__ = ("rows", "cols", "_rows", "_dens")

    def __init__(self, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise LinalgError("negative matrix dimensions")
        self.rows = rows
        self.cols = cols
        self._rows: list[dict[int, int]] = [{} for _ in range(rows)]
        self._dens = [1] * rows
        if entries:
            for (r, c), v in entries.items():
                if not 0 <= r < rows:
                    raise LinalgError(f"entry ({r},{c}) outside {rows}x{cols}")
                self._rows[r][c] = v
            self._rows, self._dens = _normalised(self._rows, cols, None)

    @classmethod
    def from_rows(cls, cols: int, rows: Iterable[dict],
                  den: int | None = None) -> "SparseMatrix":
        """Matrix from {column: value} rows.

        With den, the values are ints and each stands for value / den; they
        are stored as they are.  Without it they are any rationals Fraction
        accepts, stored per row as ints over the lcm of their denominators.
        """
        if den is not None and den < 1:
            raise LinalgError("row denominator must be positive")
        rows = list(rows)
        m = cls(0, cols)
        m.rows = len(rows)
        m._rows, m._dens = _normalised(rows, cols, den)
        return m

    @classmethod
    def from_dense(cls, data: Sequence[Sequence]) -> "SparseMatrix":
        cols = len(data[0]) if data else 0
        if any(len(row) != cols for row in data):
            raise LinalgError("ragged dense input")
        return cls.from_rows(cols, [dict(enumerate(row)) for row in data])

    def row(self, r: int) -> dict[int, Fraction]:
        den = self._dens[r]
        return {c: Fraction(v, den) for c, v in self._rows[r].items()}

    @property
    def entries(self) -> dict[tuple[int, int], Fraction]:
        return {(r, c): Fraction(v, den)
                for r, (row, den) in enumerate(zip(self._rows, self._dens))
                for c, v in row.items()}

    @property
    def nnz(self) -> int:
        return sum(len(row) for row in self._rows)

    def mul_vec(self, v: Sequence[Fraction]) -> list[Fraction]:
        if len(v) != self.cols:
            raise LinalgError("vector length does not match column count")
        return [sum((a * v[c] for c, a in row.items()), Fraction(0)) / den
                for row, den in zip(self._rows, self._dens)]

    def to_dense(self) -> list[list[Fraction]]:
        return [[Fraction(row.get(c, 0), den) for c in range(self.cols)]
                for row, den in zip(self._rows, self._dens)]

    def __eq__(self, other):
        return (isinstance(other, SparseMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


def _normalised(rows: list[dict], cols: int, den: int | None):
    """Bound-checked int rows without zeros, and their denominators: int
    rows over a common den as they are, rationals over each row's lcm."""
    out, dens = [], []
    for r, row in enumerate(rows):
        kept = {}
        for c, v in row.items():
            if not 0 <= c < cols:
                raise LinalgError(f"entry ({r},{c}) outside {len(rows)}x{cols}")
            if den is None and not isinstance(v, Fraction):
                v = Fraction(v)
            if v:
                kept[c] = v
        if den is None:
            d = lcm(*(q.denominator for q in kept.values()))
            kept = {c: q.numerator * (d // q.denominator) for c, q in kept.items()}
            dens.append(d)
        out.append(kept)
    return out, dens if den is None else [den] * len(out)


def _rref_rows(rows: list[dict[int, int]], cols: int) -> list[tuple[int, dict[int, int]]]:
    """Reduced row echelon form of int rows: sorted (pivot column, row) pairs.

    Each returned row is primitive, positive at its pivot column and zero
    at every other pivot column; divided by its pivot entry it is the
    leading-1 row.  The input rows are read, never mutated.

    Rows are streamed in order and copied only when reached.  Pivot rows
    are kept fully reduced as primitive integer rows, so each pivot column
    in an incoming row is eliminated once, by cross-multiplication.  What
    remains is divided by its content; its smallest column becomes a new
    pivot, which is then cleared from the pivot rows holding it.  Once
    every column holds a pivot the remaining rows can only reduce to zero,
    so the stream stops there.  The reduced row echelon form of a row space
    is unique, so the result does not depend on which rows were read.
    """
    work: dict[int, dict[int, int]] = {}   # row id -> reduced integer row
    pivot_row: dict[int, int] = {}         # pivot column -> row id
    holders: dict[int, set[int]] = {}      # non-pivot column -> pivot row ids
    for rid, row in enumerate(rows):
        if len(pivot_row) == cols:
            break
        if not row:
            continue
        new = dict(row)
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

    pivots = [(col, work[rid]) for col, rid in sorted(pivot_row.items())]
    for col, row in pivots:
        if row[col] < 0:
            for c in row:
                row[c] = -row[c]
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
    pivots = _rref_rows(m._rows, m.cols)
    out = SparseMatrix(m.rows, m.cols)
    for pos, (col, row) in enumerate(pivots):
        out._rows[pos] = row
        out._dens[pos] = row[col]
    return out, [col for col, _ in pivots]


def rank(m: SparseMatrix) -> int:
    return len(_rref_rows(m._rows, m.cols))


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
    original matrix as a hard postcondition, in integers: the vector of a
    free column is scaled by the lcm of the denominators of the pivot rows
    holding that column, and checked against the stored int rows.  A
    nonzero residue means a bug in the elimination, not bad data, hence
    the internal error.
    """
    reduced, pivot_cols = rref(m)
    holding: dict[int, list] = {}  # column -> (pivot column, entry, den)
    for pcol, row, den in zip(pivot_cols, reduced._rows, reduced._dens):
        for c, a in row.items():
            holding.setdefault(c, []).append((pcol, a, den))
    checked = [row for row in m._rows if row]
    vectors = []
    for f in sorted(set(range(m.cols)) - set(pivot_cols)):
        terms = holding.get(f, ())
        scale = lcm(*(den for _, _, den in terms))
        v, w = [Fraction(0)] * m.cols, [0] * m.cols
        v[f], w[f] = Fraction(1), scale
        for pcol, a, den in terms:
            v[pcol], w[pcol] = Fraction(-a, den), -a * (scale // den)
        if any(sum(a * w[c] for c, a in row.items()) for row in checked):
            raise LinalgError("internal error: kernel vector fails verification")
        vectors.append(tuple(v))
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
    vectors = [tuple(row) for row in reduced.to_dense()[:len(pivots)]]
    return VectorBasis(len(cols), vectors)
