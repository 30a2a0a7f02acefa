"""Exact sparse linear algebra: RREF, nullspaces, interior projections.

The property tests compare against a deliberately naive dense elimination
written inline, so the two implementations share no code.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gradedlie import linalg
from gradedlie.linalg import (LinalgError, SparseMatrix, VectorBasis,
                              nullspace, project_basis, rank,
                              rank_of_projection, rref)


def F(x):
    return Fraction(x)


# ---------------------------------------------------------------------------
# matrix container


def test_sparse_matrix_never_stores_zeros():
    m = SparseMatrix(2, 2, {(0, 0): 1, (0, 1): 0, (1, 1): F("1/2")})
    assert m.nnz == 2
    assert m.entries == {(0, 0): F(1), (1, 1): F("1/2")}
    assert m.row(0) == {0: F(1)}


def test_sparse_matrix_bounds_and_shape_checks():
    with pytest.raises(LinalgError):
        SparseMatrix(2, 2, {(2, 0): 1})
    with pytest.raises(LinalgError):
        SparseMatrix(-1, 2)
    with pytest.raises(LinalgError):
        SparseMatrix.from_dense([[1, 2], [3]])


def test_mul_vec_matches_hand_computation():
    m = SparseMatrix.from_dense([[1, 2], [3, 4]])
    assert m.mul_vec([F(1), F("1/2")]) == [F(2), F(5)]
    with pytest.raises(LinalgError):
        m.mul_vec([F(1)])


# ---------------------------------------------------------------------------
# rref and rank, frozen examples


def test_rref_normalizes_a_single_row():
    reduced, pivots = rref(SparseMatrix.from_dense([[2, -4]]))
    assert pivots == [0]
    assert reduced.row(0) == {0: F(1), 1: F(-2)}


def test_rref_collapses_duplicate_rows():
    m = SparseMatrix.from_dense([[1, 1], [1, 1]])
    assert rank(m) == 1
    assert nullspace(m).vectors == [(F(-1), F(1))]


def test_rref_of_invertible_matrix_is_identity():
    m = SparseMatrix.from_dense([[2, 0, 1], [1, 3, 0], [0, 1, 1]])
    reduced, pivots = rref(m)
    assert pivots == [0, 1, 2]
    assert reduced.to_dense() == [
        [F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(1)]]
    assert nullspace(m).vectors == []


def test_rref_handles_fractional_dependent_rows():
    m = SparseMatrix.from_dense([[F("1/2"), F("1/3")], [F("1/4"), F("1/6")]])
    assert rank(m) == 1
    assert nullspace(m).vectors == [(F("-2/3"), F(1))]


def test_rref_is_idempotent():
    m = SparseMatrix.from_dense([[0, 2, 4], [1, 1, 1], [1, 3, 5]])
    reduced, pivots = rref(m)
    again, pivots2 = rref(reduced)
    assert pivots2 == pivots
    assert again.to_dense()[:len(pivots)] == reduced.to_dense()[:len(pivots)]


def test_zero_matrix_has_full_nullspace():
    m = SparseMatrix(3, 2)
    assert rank(m) == 0
    assert nullspace(m).vectors == [(F(1), F(0)), (F(0), F(1))]


# ---------------------------------------------------------------------------
# independent dense oracle


def _dense_rref(data):
    """Textbook dense Gauss-Jordan, no pivot strategy, no sparsity.

    Returns every row of the reduced matrix (pivot rows first, in column
    order, then zero rows) and the list of pivot columns.
    """
    rows = [list(map(Fraction, r)) for r in data]
    cols = len(rows[0]) if rows else 0
    pivots = []
    for c in range(cols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def _dense_rank(data):
    return len(_dense_rref(data)[1])


small_fractions = st.builds(
    Fraction, st.integers(-6, 6), st.integers(1, 4))
dense_matrices = st.integers(1, 5).flatmap(
    lambda cols: st.lists(
        st.lists(small_fractions, min_size=cols, max_size=cols),
        min_size=1, max_size=6))


@given(dense_matrices)
def test_rank_agrees_with_dense_oracle(data):
    assert rank(SparseMatrix.from_dense(data)) == _dense_rank(data)


@given(dense_matrices)
def test_rank_nullity_theorem(data):
    m = SparseMatrix.from_dense(data)
    assert rank(m) + len(nullspace(m)) == m.cols


@given(dense_matrices)
def test_nullspace_vectors_satisfy_the_system(data):
    m = SparseMatrix.from_dense(data)
    for v in nullspace(m).vectors:
        assert not any(m.mul_vec(v))


@given(dense_matrices)
def test_rref_preserves_the_row_space_dimension(data):
    m = SparseMatrix.from_dense(data)
    reduced, pivots = rref(m)
    assert rank(reduced) == len(pivots) == rank(m)


nonzero_fractions = small_fractions.filter(bool)


@st.composite
def tall_full_rank_matrices(draw):
    """More rows than columns, with full column rank reached before the end."""
    cols = draw(st.integers(1, 5))
    triangle = [[Fraction(0)] * c + [draw(nonzero_fractions)]
                + draw(st.lists(small_fractions, min_size=cols - c - 1,
                                max_size=cols - c - 1))
                for c in range(cols)]
    extra = draw(st.lists(st.lists(small_fractions, min_size=cols, max_size=cols),
                          min_size=1, max_size=4))
    rows = draw(st.permutations(triangle + extra[:-1]))
    return rows + extra[-1:]


@st.composite
def late_left_pivot_matrices(draw):
    """An early row leads late; a later row brings a pivot to its left."""
    cols = draw(st.integers(2, 5))
    lead = draw(st.integers(1, cols - 1))
    first = ([Fraction(0)] * lead + [draw(nonzero_fractions)]
             + draw(st.lists(small_fractions, min_size=cols - lead - 1,
                             max_size=cols - lead - 1)))
    later = draw(st.lists(
        st.tuples(nonzero_fractions,
                  st.lists(small_fractions, min_size=cols - 1, max_size=cols - 1)
                  ).map(lambda t: [t[0]] + t[1]),
        min_size=1, max_size=4))
    return [first] + later


def _assert_rref_matches_oracle(data):
    m = SparseMatrix.from_dense(data)
    reduced, pivots = rref(m)
    want_rows, want_pivots = _dense_rref(data)
    assert pivots == want_pivots
    assert reduced.to_dense() == want_rows


@given(dense_matrices)
def test_rref_equals_dense_gauss_jordan(data):
    _assert_rref_matches_oracle(data)


@given(tall_full_rank_matrices())
def test_rref_equals_dense_gauss_jordan_on_tall_full_rank_input(data):
    assert _dense_rank(data) == len(data[0])
    _assert_rref_matches_oracle(data)


@given(late_left_pivot_matrices())
def test_rref_equals_dense_gauss_jordan_when_a_later_row_leads_left(data):
    _assert_rref_matches_oracle(data)


@given(dense_matrices)
def test_rref_and_nullspace_leave_their_input_unchanged(data):
    m = SparseMatrix.from_dense(data)
    before = [m.row(r) for r in range(m.rows)]
    rref(m)
    assert [m.row(r) for r in range(m.rows)] == before
    nullspace(m)
    assert [m.row(r) for r in range(m.rows)] == before
    assert m == SparseMatrix.from_dense(data)


# ---------------------------------------------------------------------------
# nullspace postcondition


@pytest.mark.parametrize("data", [
    # the corrupted kernel vector fails the first row
    [[0, 1, 2], [1, 0, 1], [1, 1, 3]],
    # ... and here only the last row of the original matrix exposes it
    [[1, 0, 1], [2, 0, 2], [0, 1, 2]],
])
def test_nullspace_postcondition_catches_a_corrupted_reduction(data, monkeypatch):
    original = linalg.rref

    def corrupted(m):
        reduced, pivots = original(m)
        reduced._rows[1][2] += 1
        return reduced, pivots

    monkeypatch.setattr(linalg, "rref", corrupted)
    with pytest.raises(LinalgError,
                       match="^internal error: kernel vector fails verification$"):
        nullspace(SparseMatrix.from_dense(data))


# ---------------------------------------------------------------------------
# projections


def test_projection_rank_and_basis():
    basis = VectorBasis(3, [(F(1), F(0), F(2)), (F(0), F(1), F(3))])
    assert rank_of_projection(basis, [0, 1]) == 2
    assert rank_of_projection(basis, [2]) == 1
    proj = project_basis(basis, [2])
    assert proj.dimension == 1
    assert proj.vectors == [(F(1),)]


def test_projection_is_row_reduced_and_canonical():
    basis = VectorBasis(3, [(F(2), F(2), F(1)), (F(0), F(2), F(1))])
    proj = project_basis(basis, [0, 1])
    # span{(2,2),(0,2)} is the whole plane; canonical basis is the identity
    assert proj.vectors == [(F(1), F(0)), (F(0), F(1))]


def test_projection_coordinate_bounds():
    basis = VectorBasis(2, [(F(1), F(0))])
    with pytest.raises(LinalgError):
        rank_of_projection(basis, [5])


def test_vector_basis_length_check():
    with pytest.raises(LinalgError):
        VectorBasis(2, [(F(1),)])
