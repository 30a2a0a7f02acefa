"""Exact sparse linear algebra over the rationals.

Everything here is exact: Fractions at the interface, integers inside;
there is no floating point fallback anywhere.  A matrix is stored row-wise:
each row is a {column: int} dict over one positive int denominator.  That
is how the constraint systems of this package arrive, very many short
integer rows over a common denominator and a modest number of columns.
from_rows is the only place rationals are converted; from_stream builds
a matrix over a source of int rows, made only when something reads them.

Elimination streams the rows in order, fraction-free, pulling each from
the source as it is reached.  Once a run of rows as long as the column
count adds no pivot, or every column holds one, it stops eliminating and
checks each further row against the integer kernel of the pivot rows so
far; a row outside their span is eliminated and the kernel rebuilt.  With
every column pivotal that kernel is empty, which is an exact zero-kernel
certificate, and the stream stops: rows past that point are never made.
That is the only place reading stops early.  The reduced form is that of
full elimination, one row per pivot, each primitive over its leading
entry.  nullspace checks the integer form of every kernel vector against
every row of the input.  Anything else that looks at rows (rows, nnz,
entries, to_dense, ==, repr) reads the source to the end first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable


class LinalgError(Exception):
    pass


class SparseMatrix:
    """Immutable-ish sparse rational matrix: row r is _rows[r] / _dens[r].

    Rows are {column: int} dicts that never store zeros; _dens are ints > 0.
    A matrix built by from_stream also holds an unread row source: its rows
    over one denominator, stored as they are read.  Elimination reads them
    through _stream, which stops where rref stops; everything else that
    looks at rows reads the source to the end first.
    """

    __slots__ = ("cols", "_rows", "_dens", "_source", "_den")

    def __init__(self, cols: int):
        if cols < 0:
            raise LinalgError("negative matrix dimensions")
        self.cols = cols
        self._rows: list[dict[int, int]] = []
        self._dens: list[int] = []
        self._source = None
        self._den = 1

    @classmethod
    def from_rows(cls, cols: int, rows: Iterable[dict]) -> "SparseMatrix":
        """Matrix from {column: value} rows of any rationals Fraction
        accepts, stored per row as ints over the lcm of their denominators.
        Every column is bound-checked, and zero values are dropped."""
        m = cls(cols)
        rows = list(rows)
        used = set().union(*rows)
        if used and (min(used) < 0 or max(used) >= cols):
            r, c = next((r, c) for r, row in enumerate(rows) for c in row
                        if not 0 <= c < cols)
            raise LinalgError(f"entry ({r},{c}) outside {len(rows)}x{cols}")
        for row in rows:
            kept = {c: q for c, v in row.items()
                    if (q := v if isinstance(v, Fraction) else Fraction(v))}
            d = lcm(*(q.denominator for q in kept.values()))
            m._rows.append({c: q.numerator * (d // q.denominator)
                            for c, q in kept.items()})
            m._dens.append(d)
        return m

    @classmethod
    def from_stream(cls, cols: int, rows: Iterable[dict[int, int]],
                    den: int = 1) -> "SparseMatrix":
        """Matrix over int rows, each standing for row / den, read on demand.

        Nothing is checked per row: each must be a {column: nonzero int}
        dict with every column in range(cols), and is stored as it is.
        """
        if den < 1:
            raise LinalgError("row denominator must be positive")
        m = cls(cols)
        m._source = iter(rows)
        m._den = den
        return m

    def _stream(self):
        """Every int row in order: the stored ones, then the source's, each
        stored as it is read.  One reader at a time; a reader that stops
        early leaves the rest of the source unread."""
        yield from self._rows
        source = self._source
        if source is not None:
            rows, dens, den = self._rows, self._dens, self._den
            for row in source:
                rows.append(row)
                dens.append(den)
                yield row
            self._source = None

    def _read(self) -> tuple[list[dict[int, int]], list[int]]:
        """The int rows and their denominators, the source read to the end."""
        if self._source is not None:
            for _ in self._stream():
                pass
        return self._rows, self._dens

    @property
    def rows(self) -> int:
        return len(self._read()[0])

    @property
    def entries(self) -> dict[tuple[int, int], Fraction]:
        return {(r, c): Fraction(v, den)
                for r, (row, den) in enumerate(zip(*self._read()))
                for c, v in row.items()}

    @property
    def nnz(self) -> int:
        return sum(len(row) for row in self._read()[0])

    def to_dense(self) -> list[list[Fraction]]:
        return [[Fraction(row.get(c, 0), den) for c in range(self.cols)]
                for row, den in zip(*self._read())]

    def __eq__(self, other):
        return (isinstance(other, SparseMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


def _rref_rows(rows: Iterable[dict[int, int]], cols: int) -> list[tuple[int, dict[int, int]]]:
    """Reduced row echelon form of int rows: sorted (pivot column, row) pairs.

    Each returned row is primitive, positive at its pivot column and zero
    at every other pivot column; divided by its pivot entry it is the
    leading-1 row.  The input rows are read, never mutated.

    Rows are streamed in order and copied only when reached.  Pivot rows
    are kept fully reduced as primitive integer rows, so each pivot column
    in an incoming row is eliminated once, by cross-multiplication.  What
    remains is divided by its content; its smallest column becomes a new
    pivot, which is then cleared from the pivot rows holding it.

    Once `cols` consecutive rows have added no pivot, or every column holds
    one, the stream stops eliminating and starts checking: it builds the
    integer kernel of the pivot rows so far (the candidate kernel, which
    contains the true one) and multiplies each further row through it.  A
    row with every product zero lies in the span of the pivot rows and is
    skipped.  A row with a nonzero product is eliminated as above, which
    gives a new pivot, and the candidate kernel is rebuilt.  An empty
    candidate kernel (every column a pivot) fails no row, so the stream
    stops there, without pulling another row: the exact zero-kernel
    certificate.  A check costs one product per candidate kernel vector,
    so the switch must not fire while that kernel is still wide; witt's
    membership system at window 6 has a run of 908 redundant rows with 13
    candidate vectors left at 1,183 columns, and the `cols` rule keeps it
    eliminating.  Whichever rows are read, they span the row space of the
    whole input, whose reduced row echelon form is unique, so the result
    is that of full elimination.
    """
    pivots: dict[int, dict[int, int]] = {}  # pivot column -> reduced integer row
    holders: dict[int, set[int]] = {}       # non-pivot column -> pivot columns
    kernel: list | None = None              # candidate kernel, once checking
    idle = 0                                # consecutive rows that added no pivot
    for row in rows:
        if kernel is not None:
            if not _outside(row, kernel):
                continue
        elif not row:
            continue
        new = dict(row)
        for col in [c for c in new if c in pivots]:
            _eliminate(new, pivots[col], col)
        if not new:
            idle += 1
            if idle == cols:
                kernel = _kernel(pivots, cols)
            continue
        _divide_content(new)
        col = min(new)
        for c in new:
            if c != col:
                holders.setdefault(c, set()).add(col)
        for other in holders.pop(col, ()):
            target = pivots[other]
            _eliminate(target, new, col)
            for c in new:
                if c in target:
                    holders[c].add(other)
                elif c != col:
                    holders[c].discard(other)
            _divide_content(target)
        pivots[col] = new
        idle = 0
        if kernel is not None or len(pivots) == cols:
            kernel = _kernel(pivots, cols)
            if not kernel:
                break

    for col, row in pivots.items():
        if row[col] < 0:
            for c in row:
                row[c] = -row[c]
    return sorted(pivots.items())


def _kernel(pivots: dict[int, dict[int, int]], cols: int) -> list[tuple[int, list[int]]]:
    """Integer kernel basis of fully reduced pivot rows ({pivot column: row}).

    One (free column f, dense int vector w) pair per column without a
    pivot, in column order: w[f] is the lcm of the pivot entries of the
    rows holding f, and each such row with pivot p and entry a at f gets
    w[p] = -a * w[f] / row[p]; every other entry is 0.  Divided by w[f], w
    is the kernel vector with a 1 at f and 0 at every other free column.
    """
    free = [f for f in range(cols) if f not in pivots]
    if not free:
        return []
    holding: dict[int, list] = {}  # column -> (pivot column, entry, pivot entry)
    for pcol, row in pivots.items():
        lead = row[pcol]
        for c, a in row.items():
            if c != pcol:
                holding.setdefault(c, []).append((pcol, a, lead))
    kernel = []
    for f in free:
        terms = holding.get(f, ())
        scale = lcm(*(lead for _, _, lead in terms))
        w = [0] * cols
        w[f] = scale
        for pcol, a, lead in terms:
            w[pcol] = -a * (scale // lead)
        kernel.append((f, w))
    return kernel


def _outside(row: dict[int, int], kernel) -> bool:
    """Whether an int row has a nonzero product with some kernel vector,
    that is, lies outside the span of the rows whose kernel it is."""
    for _, w in kernel:
        product = 0
        for c, a in row.items():
            product += a * w[c]
        if product:
            return True
    return False


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
    """Reduced row echelon form and the list of pivot columns.

    The reduced matrix has one row per pivot, in pivot column order.
    Building or reading it reads none of m's rows that elimination left
    unread.
    """
    pivots = _rref_rows(m._stream(), m.cols)
    out = SparseMatrix(m.cols)
    out._rows = [row for _, row in pivots]
    out._dens = [row[col] for col, row in pivots]
    return out, [col for col, _ in pivots]


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

    The vectors are the integer kernel of the reduced rows, built by the
    helper elimination checks rows against, divided by their free-column
    entries.  Each is re-multiplied through every row of the input as a
    hard postcondition, in integers, which covers the rows elimination
    skipped as well as those it reduced.  A nonzero residue means a bug in
    the elimination, not bad data, hence the internal error.

    Rows of a streamed matrix are read only as far as elimination reads
    them.  Reading stops early only on the zero-kernel certificate, every
    column a pivot, and then there is no vector to check; a nonzero kernel
    reads every row, in elimination's check and again in the postcondition.
    """
    reduced, pivot_cols = rref(m)
    kernel = _kernel(dict(zip(pivot_cols, reduced._rows)), m.cols)
    if kernel:
        for row in m._stream():
            if _outside(row, kernel):
                raise LinalgError("internal error: kernel vector fails verification")
    zero = Fraction(0)
    vectors = [tuple(Fraction(x, w[f]) if x else zero for x in w) for f, w in kernel]
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
    reduced, _ = rref(proj)
    vectors = [tuple(row) for row in reduced.to_dense()]
    return VectorBasis(len(cols), vectors)
