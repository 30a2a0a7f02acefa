"""Exact sparse linear algebra over the rationals.

Everything here is exact: integers inside, no floating point anywhere.  A
matrix is stored row-wise: each row is a {column: int} dict over one
positive int denominator.  That is how the constraint systems of this
package arrive, very many short integer rows over a common denominator
and a modest number of columns.  Rationals become ints only in from_rows,
and Fractions are made only by entries.  A kernel vector is a dense int
vector standing for its span, so nothing divides one.  from_stream builds
a matrix over a source of int rows, made only when something reads them.

Elimination streams the rows in order, fraction-free, pulling each from
the source as it is reached, and stops reading by one rule (_rref_rows):
once every column holds a pivot, an exact zero-kernel certificate, or on
a candidate kernel that passes the kernel certificate a streamed matrix
may carry from whoever made its rows, a check that int vectors satisfy
every row, read or not, without reading any.  The candidate is built once
a run of rows that add no pivot is as long as it is wide; each further
row is then checked against it, and one outside its span is eliminated
and the candidate built again.  affine_certificate is the one such
certificate the package makes, for solver's systems and the recurrence
oracle's: each vector affine per column label, then zero on a small
sample of rows, which each caller proves is enough; extend_affine writes
a kernel that passes the same affine test out on a wider window.  The
reduced form is that of full elimination, one row per pivot, each
primitive over its leading entry.  nullspace returns the kernel
elimination stopped on as it is; any other kernel it builds from the
reduced rows and checks against every row of the input.
Anything else that looks at rows (rows, nnz, entries, ==, repr) reads
the source to the end first.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable


class LinalgError(Exception):
    pass


class SparseMatrix:
    """Immutable-ish sparse rational matrix: row r is _rows[r] / _dens[r].

    Rows are {column: int} dicts that never store zeros; _dens are ints > 0.
    A matrix built by from_stream also holds an unread row source: its rows
    over one denominator, stored as they are read, and maybe a kernel
    certificate.  Elimination reads them through _stream, which stops
    where rref stops; everything else that looks at rows reads the source
    to the end first.  _proved is the int kernel the last rref stopped on,
    empty or passed by the certificate, None when it read every row: rref
    hands it to nullspace, so the certificate is not tried twice.
    """

    __slots__ = ("cols", "_rows", "_dens", "_source", "_den", "_certify", "_proved")

    def __init__(self, cols: int):
        if cols < 0:
            raise LinalgError("negative matrix dimensions")
        self.cols = cols
        self._rows: list[dict[int, int]] = []
        self._dens: list[int] = []
        self._source = None
        self._den = 1
        self._certify = None
        self._proved = None

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
                    den: int = 1, certify=None) -> "SparseMatrix":
        """Matrix over int rows, each standing for row / den, read on demand.

        Nothing is checked per row: each must be a {column: nonzero int}
        dict with every column in range(cols), and is stored as it is.
        certify, if given, takes a list of (label, dense int vector) pairs
        and may return True only if every vector has a zero product with
        every row of the source; it reads no row.
        """
        if den < 1:
            raise LinalgError("row denominator must be positive")
        m = cls(cols)
        m._source = iter(rows)
        m._den = den
        m._certify = certify
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

    def __eq__(self, other):
        return (isinstance(other, SparseMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


def _rref_rows(rows: Iterable[dict[int, int]], cols: int, certify=None
               ) -> tuple[list[tuple[int, dict[int, int]]], list | None]:
    """Reduced row echelon form of int rows, sorted (pivot column, row)
    pairs, and the kernel it stopped on, or None if it read every row.

    Each returned row is primitive, positive at its pivot column and zero
    at every other pivot column; divided by its pivot entry it is the
    leading-1 row.  The input rows are read, never mutated.

    Rows are streamed in order and copied only when reached.  Pivot rows
    are kept fully reduced as primitive integer rows, so each pivot column
    in an incoming row is eliminated once, by cross-multiplication.  What
    remains is divided by its content; its smallest column becomes a new
    pivot, which is then cleared from each pivot row holding it, found by
    scanning the pivot rows.

    The candidate kernel is _kernel's integer kernel of the pivot rows so
    far, cols minus the number of pivots wide; it contains the true one.
    Once every column holds a pivot it is empty, so the stream stops there
    without pulling another row: the exact zero-kernel certificate.  Once
    a run of consecutive rows that add no pivot is as long as the candidate
    is wide, the candidate is built, and each further row is multiplied
    through it: one with every product zero lies in the span of the pivot
    rows and is skipped, and one with a nonzero product gives a new pivot,
    eliminated as above, and the candidate is built again.  Each candidate
    built is offered to certify (SparseMatrix.from_stream), if given; one
    it passes holds for every row, read or not, so it is the true kernel,
    and the stream stops on it.  Whichever rows are read span the row
    space of the whole input, whose reduced row echelon form is unique, so
    the result is that of full elimination.
    """
    pivots: dict[int, dict[int, int]] = {}  # pivot column -> reduced integer row
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
        if new:
            _divide_content(new)
            col = min(new)
            for target in pivots.values():
                if col in target:
                    _eliminate(target, new, col)
                    _divide_content(target)
            pivots[col] = new
            idle = 0
            if len(pivots) == cols:
                kernel = []
                break
            if kernel is None:
                continue
        else:
            # a checked row outside the candidate always gives a pivot, so
            # only eliminating reaches here
            idle += 1
            if idle < cols - len(pivots):
                continue
        kernel = _kernel(pivots, cols)
        if certify is not None and certify(kernel):
            break
    else:
        kernel = None

    for col, row in pivots.items():
        if row[col] < 0:
            for c in row:
                row[c] = -row[c]
    return sorted(pivots.items()), kernel


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


def affine_certificate(origins: list[int], window: int, sample) -> Callable:
    """A kernel certificate (see SparseMatrix.from_stream) for rows that,
    at vectors affine per column label, vanish once they vanish on sample.

    Each label owns the columns of indices -window..window, index 0 at its
    origin.  The check passes int vectors only if they are _affine on
    those labels and zero on every row of sample(), made once, on the
    first try whose vectors are all affine.  Why the sample is enough is
    the caller's to prove; a failure only means reading on.
    """
    rows = None

    def certify(kernel) -> bool:
        nonlocal rows
        if not _affine([w for _, w in kernel], origins, window):
            return False
        if rows is None:
            rows = list(sample())
        return not any(_outside(row, kernel) for row in rows)
    return certify


def _affine(vectors: list[list[int]], origins: list[int], window: int) -> bool:
    """Whether each int vector is w[c + i] = a + b*i, i in -window..window,
    on every label, c the label's origin column."""
    span = range(-window, window + 1)
    for w in vectors:
        for c in origins:
            a, b = w[c], w[c + 1] - w[c]
            if w[c - window:c + window + 1] != [a + b * i for i in span]:
                return False
    return True


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
    unread.  The kernel elimination stopped on is kept for nullspace.
    """
    pivots, m._proved = _rref_rows(m._stream(), m.cols, m._certify)
    out = SparseMatrix(m.cols)
    out._rows = [row for _, row in pivots]
    out._dens = [row[col] for col, row in pivots]
    return out, [col for col, _ in pivots]


class VectorBasis:
    """A list of linearly independent dense int vectors.  Only their span
    is meant: any nonzero multiple of a vector stands for the same one.
    Its len is the vector count, and it equals a basis with equal fields."""

    __slots__ = ("dimension", "vectors")

    def __init__(self, dimension: int, vectors: list[list[int]]):
        for v in vectors:
            if len(v) != dimension:
                raise LinalgError("basis vector length mismatch")
            if (bad := next((x for x in v if type(x) is not int), None)) is not None:
                raise LinalgError(f"basis vector entry {bad!r} is not an int")
        self.dimension, self.vectors = dimension, vectors

    def __len__(self):
        return len(self.vectors)

    def __eq__(self, other):
        return (isinstance(other, VectorBasis) and self.dimension == other.dimension
                and self.vectors == other.vectors)

    def __repr__(self):
        return f"VectorBasis(dimension={self.dimension!r}, vectors={self.vectors!r})"


def nullspace(m: SparseMatrix) -> VectorBasis:
    """Basis of the exact kernel {v : m v = 0}: _kernel's int vectors, the
    one at free column f scaled to a positive int there and 0 at every
    other free column.

    Where elimination stopped early, on the zero-kernel or the kernel
    certificate, that is the kernel it stopped on (m._proved), taken as it
    is, so a streamed matrix reads no further row.  Otherwise elimination
    has read every row; the kernel is built from the reduced rows, by the
    helper elimination checks rows against, and each vector is checked
    against every row of the input in integers, those elimination skipped
    as well as those it reduced, as a hard postcondition (verify_kernel
    makes the same check on a basis found some other way): a nonzero
    residue means a bug in the elimination, not bad data.
    """
    reduced, pivot_cols = rref(m)
    kernel = m._proved
    if kernel is None:
        kernel = _kernel(dict(zip(pivot_cols, reduced._rows)), m.cols)
        _verify(m, kernel)
    return VectorBasis(m.cols, [w for _, w in kernel])


def verify_kernel(m: SparseMatrix, basis: VectorBasis) -> VectorBasis:
    """basis, once its vectors pass m's kernel certificate before any row
    is read, or else multiply to zero through every row of m, as in
    nullspace's postcondition.  m is left as it was, but for rows read."""
    if basis.dimension != m.cols:
        raise LinalgError(f"basis of dimension {basis.dimension} for {m.cols} columns")
    kernel = list(enumerate(basis.vectors))
    if kernel and not (m._certify is not None and m._certify(kernel)):
        _verify(m, kernel)
    return basis


def _verify(m: SparseMatrix, kernel):
    """Multiply every row of m, read to the end, through each int vector w
    of the (label, w) pairs."""
    for row in m._stream():
        if _outside(row, kernel):
            raise LinalgError("internal error: kernel vector fails verification")


def extend_affine(basis: VectorBasis, origins: list[int], small: int,
                  window: int) -> VectorBasis | None:
    """basis's vectors, on labels of 2*small + 1 columns, index 0 at origins,
    written out label by label on 2*window + 1 by w[m] = w[0] + (w[1] -
    w[0])*m; None unless each is _affine on small, as affine_certificate
    demands.  That they span the wider window's kernel is the caller's."""
    if not _affine(basis.vectors, origins, small):
        return None
    span = range(-window, window + 1)
    return VectorBasis(len(origins) * len(span), [[w[c] + (w[c + 1] - w[c]) * m
                                                   for c in origins for m in span]
                                                  for w in basis.vectors])


def project_basis(basis: VectorBasis, coords: Iterable[int]) -> list[tuple[int, list[int]]]:
    """Row-reduced basis of the projection onto the given coordinates:
    rref's reduced rows w of the projected int vectors, dense, as (lead, w)
    pairs, lead the pivot entry, so w / lead is the leading-1 row."""
    cols = sorted(set(coords))
    for c in cols:
        if not (0 <= c < basis.dimension):
            raise LinalgError(f"coordinate {c} outside dimension {basis.dimension}")
    if not cols or not basis.vectors:
        return []
    proj = SparseMatrix(len(cols))
    proj._rows = [{i: x for i, c in enumerate(cols) if (x := vec[c])} for vec in basis.vectors]
    proj._dens = [1] * len(proj._rows)
    reduced, pivots = rref(proj)
    return [(row[col], [row.get(i, 0) for i in range(len(cols))])
            for col, row in zip(pivots, reduced._rows)]
