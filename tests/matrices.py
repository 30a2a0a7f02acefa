"""Matrix conveniences for the tests, built only on the public API of
gradedlie.linalg: SparseMatrix.from_rows, rows, entries and rref."""

from fractions import Fraction

from gradedlie.linalg import SparseMatrix, rref


def from_dense(data):
    """The matrix of equal-length dense rows of rationals."""
    cols = len(data[0]) if data else 0
    assert all(len(row) == cols for row in data), "ragged dense input"
    return SparseMatrix.from_rows(cols, [dict(enumerate(row)) for row in data])


def sparse_rows(m):
    """m's rows as {column: Fraction} dicts without zeros."""
    rows = [{} for _ in range(m.rows)]
    for (r, c), v in m.entries.items():
        rows[r][c] = v
    return rows


def mul_vec(m, v):
    """The product m v, one Fraction per row."""
    assert len(v) == m.cols, "vector length does not match column count"
    return [sum((a * v[c] for c, a in row.items()), Fraction(0))
            for row in sparse_rows(m)]


def rank(m):
    return len(rref(m)[1])
