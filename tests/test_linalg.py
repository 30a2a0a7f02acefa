"""Exact sparse linear algebra: RREF, nullspaces, interior projections.

The property tests compare against a deliberately naive dense elimination
written inline, so the two implementations share no code.
"""

from contextlib import contextmanager
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference_loops
from gradedlie import catalog, linalg, poisson, recurrences, solver
from gradedlie.core import GradingDegree
from gradedlie.linalg import (LinalgError, SparseMatrix, VectorBasis,
                              nullspace, project_basis, rref)
from matrices import from_dense, mul_vec, rank, sparse_rows


def F(x):
    return Fraction(x)


def _streamed(data):
    """The matrix of dense rows, streamed as int rows over one common
    denominator and made only as they are read, like solver.identity_rows'."""
    den = lcm(*(Fraction(v).denominator for row in data for v in row))
    cols = len(data[0]) if data else 0
    return SparseMatrix.from_stream(
        cols, ({c: int(Fraction(v) * den) for c, v in enumerate(row) if v}
               for row in data), den)


def _both(data):
    """The matrix of dense rows built from a list, then streamed."""
    return from_dense(data), _streamed(data)


# ---------------------------------------------------------------------------
# matrix container


def test_sparse_matrix_never_stores_zeros():
    m = SparseMatrix.from_rows(2, [{0: 1, 1: 0}, {1: F("1/2")}])
    assert m.nnz == 2
    assert m.entries == {(0, 0): F(1), (1, 1): F("1/2")}
    assert sparse_rows(m)[0] == {0: F(1)}


def test_from_rows_checks_columns_converts_and_drops_zeros():
    m = SparseMatrix.from_rows(3, [{0: 1, 2: F("1/2")}, {}, {1: 0, 2: "2/3"}])
    assert m.rows == 3 and m.cols == 3
    assert m.to_dense() == [[F(1), F(0), F("1/2")], [F(0)] * 3,
                            [F(0), F(0), F("2/3")]]
    assert all(type(v) is Fraction for v in m.entries.values())
    assert SparseMatrix.from_rows(2, [{0: "0", 1: F(0)}]).nnz == 0
    with pytest.raises(LinalgError, match=r"^entry \(1,3\) outside 2x3$"):
        SparseMatrix.from_rows(3, [{0: 1}, {0: 1, 3: 1}])
    with pytest.raises(LinalgError, match=r"^entry \(0,-1\) outside 1x3$"):
        SparseMatrix.from_rows(3, [{-1: 1, 2: 1}])
    # an out-of-range column is rejected even when its value is zero
    with pytest.raises(LinalgError):
        SparseMatrix.from_rows(3, [{3: 0}])


def test_constructor_error_texts():
    with pytest.raises(LinalgError, match="^negative matrix dimensions$"):
        SparseMatrix(-1)
    with pytest.raises(LinalgError, match="^negative matrix dimensions$"):
        SparseMatrix.from_rows(-1, [])
    with pytest.raises(LinalgError, match="^negative matrix dimensions$"):
        SparseMatrix.from_stream(-1, [])


# ---------------------------------------------------------------------------
# storage: int rows over positive int denominators, Fractions at the interface


def _assert_int_storage(m):
    # m.rows first: it reads a streamed matrix's source to the end
    assert m.rows == len(m._rows) == len(m._dens)
    assert all(type(d) is int and d > 0 for d in m._dens)
    assert all(type(v) is int and v for row in m._rows for v in row.values())


def _assert_fraction_interface(m):
    assert all(type(v) is Fraction for v in m.entries.values())
    assert all(type(v) is Fraction for row in m.to_dense() for v in row)


def test_every_constructor_stores_int_rows_and_hands_back_fractions():
    built = [
        SparseMatrix.from_rows(3, [{0: 1, 2: F("1/2")}, {1: "2/3"}]),
        SparseMatrix(2),
        from_dense([[1, F("-1/4")], [0, 3]]),
        SparseMatrix.from_stream(3, [{0: 2, 1: -3}, {}, {2: 5}], 6),
        SparseMatrix.from_rows(2, [{0: 1, 1: F("3/4")}, {1: "1/6"}]),
    ]
    for m in built:
        _assert_int_storage(m)
        _assert_fraction_interface(m)
    # a rational row is stored over the lcm of its denominators
    assert built[0]._rows[0] == {0: 2, 2: 1} and built[0]._dens[0] == 2
    assert built[3]._dens == [6, 6, 6]


def test_int_rows_over_a_denominator_equal_their_fraction_values():
    ints = SparseMatrix.from_stream(3, [{0: 4, 2: -2}, {1: 3}], 6)
    fracs = SparseMatrix.from_rows(3, [{0: F("2/3"), 2: F("-1/3")}, {1: F("1/2")}])
    assert ints == fracs and fracs == ints
    assert ints.entries == fracs.entries
    assert ints.to_dense() == fracs.to_dense()
    # equal values over another denominator
    assert ints == SparseMatrix.from_stream(3, [{0: 8, 2: -4}, {1: 6}], 12)
    # one value differs
    assert ints != SparseMatrix.from_stream(3, [{0: 4, 2: -2}, {1: 2}], 6)
    assert ints != SparseMatrix.from_rows(3, [{0: F("2/3"), 2: F("-1/3")}, {1: F("1/3")}])
    assert ints != SparseMatrix.from_stream(3, [{0: 4, 2: -2}, {1: 3, 2: 1}], 6)
    assert ints != SparseMatrix.from_stream(3, [{0: 4, 2: -2}], 6)


@pytest.mark.parametrize("delta", [F("1/2"), F(1), F("2/3")], ids=str)
def test_assembled_pgca_matrices_store_int_rows(delta):
    p = catalog.get("pgca")
    for degree in ((0, 0, 0), (1, 1, -1), (0, 1, 1)):
        m = solver.assemble(solver.HomogeneousSolveProblem(
            p, delta, GradingDegree(*degree), 4, 2))
        assert m.nnz
        _assert_int_storage(m)
        assert set(m._dens) == {p.scale * delta.denominator}


def test_membership_system_stores_int_rows():
    p = catalog.get("witt")
    m = poisson._membership_system(p, F("1/2"), 3)
    assert m.nnz
    _assert_int_storage(m)


def test_oracle_matrices_store_int_rows(monkeypatch):
    seen = []

    def capture(m):
        seen.append(m)
        return nullspace(m)

    monkeypatch.setattr(recurrences, "nullspace", capture)
    recurrences.solve_case((1, 1), 1, 8)
    recurrences.recurrence_kernel("e20", 2, 8)
    assert len(seen) == 2
    for m in seen:
        assert m.nnz
        _assert_int_storage(m)
    assert set(seen[0]._dens) == {1}


def test_mul_vec_matches_hand_computation():
    # the test helper that every kernel-membership check multiplies with
    m = from_dense([[1, 2], [3, 4]])
    assert mul_vec(m, [F(1), F("1/2")]) == [F(2), F(5)]
    with pytest.raises(AssertionError):
        mul_vec(m, [F(1)])


# ---------------------------------------------------------------------------
# rref and rank, frozen examples


def test_rref_normalizes_a_single_row():
    reduced, pivots = rref(from_dense([[2, -4]]))
    assert pivots == [0]
    assert sparse_rows(reduced) == [{0: F(1), 1: F(-2)}]


def test_rref_collapses_duplicate_rows():
    m = from_dense([[1, 1], [1, 1]])
    assert rank(m) == 1
    assert nullspace(m).vectors == [(F(-1), F(1))]


def test_rref_of_invertible_matrix_is_identity():
    m = from_dense([[2, 0, 1], [1, 3, 0], [0, 1, 1]])
    reduced, pivots = rref(m)
    assert pivots == [0, 1, 2]
    assert reduced.to_dense() == [
        [F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(1)]]
    assert nullspace(m).vectors == []


def test_rref_handles_fractional_dependent_rows():
    m = from_dense([[F("1/2"), F("1/3")], [F("1/4"), F("1/6")]])
    assert rank(m) == 1
    assert nullspace(m).vectors == [(F("-2/3"), F(1))]


def test_rref_is_idempotent():
    m = from_dense([[0, 2, 4], [1, 1, 1], [1, 3, 5]])
    reduced, pivots = rref(m)
    again, pivots2 = rref(reduced)
    assert pivots2 == pivots
    assert again.to_dense() == reduced.to_dense()


def test_zero_matrix_has_full_nullspace():
    m = SparseMatrix.from_rows(2, [{}] * 3)
    assert rank(m) == 0
    assert nullspace(m).vectors == [(F(1), F(0)), (F(0), F(1))]


# ---------------------------------------------------------------------------
# independent dense oracle


def _dense_rref(data):
    """Textbook dense Gauss-Jordan, no pivot strategy, no sparsity.

    Returns the pivot rows of the reduced matrix, in column order, and the
    list of pivot columns.
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
    return rows[:len(pivots)], pivots


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
    for m in _both(data):
        assert rank(m) == _dense_rank(data)


@given(dense_matrices)
def test_rank_nullity_theorem(data):
    for m in _both(data):
        assert rank(m) + len(nullspace(m)) == m.cols


@given(dense_matrices)
def test_nullspace_vectors_satisfy_the_system(data):
    for m in _both(data):
        for v in nullspace(m).vectors:
            assert not any(mul_vec(m, v))


@given(dense_matrices)
def test_rref_preserves_the_row_space_dimension(data):
    for m in _both(data):
        reduced, pivots = rref(m)
        assert reduced.rows == rank(reduced) == len(pivots) == rank(m)


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
    want_rows, want_pivots = _dense_rref(data)
    for m in _both(data):
        reduced, pivots = rref(m)
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
    for m in _both(data):
        before = m.to_dense()
        rref(m)
        assert m.to_dense() == before
        nullspace(m)
        assert m.to_dense() == before
        assert m == from_dense(data)


@given(dense_matrices)
def test_rref_rows_are_primitive_over_their_leading_entry(data):
    for m in _both(data):
        reduced, pivots = rref(m)
        _assert_int_storage(reduced)
        assert reduced.rows == len(pivots)
        for row, den, col in zip(reduced._rows, reduced._dens, pivots):
            assert min(row) == col
            assert row[col] == den
            assert gcd(*row.values()) == 1


# ---------------------------------------------------------------------------
# streamed rows: made only when read, and the same as a list's


@given(dense_matrices)
def test_a_streamed_matrix_reads_as_the_list_built_one(data):
    streamed = _streamed(data)
    den, cols = streamed._den, streamed.cols
    listed = SparseMatrix.from_stream(
        cols, [{c: int(Fraction(v) * den) for c, v in enumerate(row) if v}
               for row in data], den)
    assert streamed._rows == []
    assert streamed.rows == listed.rows == len(data)
    assert (streamed._rows, streamed._dens) == (listed._rows, listed._dens)
    assert streamed == listed == from_dense(data)
    assert repr(_streamed(data)) == repr(listed)


def _raising_after(data, prefix):
    """data's first `prefix` rows as a stream that raises if read further."""
    streamed = _streamed(data[:prefix])

    def rows():
        yield from streamed._source
        raise AssertionError("a row past the zero-kernel certificate was read")
    return SparseMatrix.from_stream(streamed.cols, rows(), streamed._den)


def _full_rank_prefix(data):
    """The length of the shortest prefix of data with full column rank."""
    return next(k for k in range(1, len(data) + 1)
                if _dense_rank(data[:k]) == len(data[0]))


@given(tall_full_rank_matrices())
def test_the_zero_kernel_certificate_stops_reading_rows(data):
    prefix = _full_rank_prefix(data)
    want_rows, want_pivots = _dense_rref(data)
    m = _raising_after(data, prefix)
    assert nullspace(m).vectors == []
    assert len(m._rows) == prefix
    # rref does not read past the prefix either, its rows are the pivot
    # rows of the whole matrix, and reading them reads no more of m
    m = _raising_after(data, prefix)
    reduced, pivots = rref(m)
    assert pivots == want_pivots
    assert reduced.to_dense() == want_rows
    assert reduced.entries == {(r, c): v for r, row in enumerate(want_rows)
                               for c, v in enumerate(row) if v}
    assert reduced.rows == len(pivots)
    assert len(m._rows) == prefix
    assert rank(_raising_after(data, prefix)) == len(data[0])


def test_a_row_source_is_not_read_past_the_certificate():
    def rows():
        yield {1: 2}
        yield {0: 1, 1: 1}
        raise AssertionError("read past the certificate")

    assert nullspace(SparseMatrix.from_stream(2, rows())).vectors == []
    reduced, pivots = rref(SparseMatrix.from_stream(2, rows(), 3))
    assert pivots == [0, 1]
    assert (reduced._rows, reduced._dens) == ([{0: 1}, {1: 1}], [1, 1])
    # the reduced matrix holds only the pivot rows, so reading all of it
    # reads none of the input's remaining rows
    assert reduced.rows == 2
    assert reduced.to_dense() == [[F(1), F(0)], [F(0), F(1)]]


def test_from_stream_checks_its_denominator():
    with pytest.raises(LinalgError, match="^row denominator must be positive$"):
        SparseMatrix.from_stream(3, [{0: 1}], 0)


# ---------------------------------------------------------------------------
# checking rows against the candidate kernel instead of eliminating them


@contextmanager
def _kernels_built():
    """Dimensions of the candidate kernels elimination builds, in order."""
    built = []
    original = linalg._kernel

    def record(pivots, cols):
        kernel = original(pivots, cols)
        built.append(len(kernel))
        return kernel

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_kernel", record)
        yield built


def _assert_rref_equals_full_elimination(m):
    """rref of m equals the eliminate-every-row loop; after the switch to
    checking, each resume adds one pivot and rebuilds the candidate kernel,
    and the one the last rows were checked against is the true kernel."""
    with _kernels_built() as built:
        reduced, pivots = rref(m)
    m.rows  # read what elimination left of a streamed matrix's source
    want = reference_loops.rref_rows(m._rows, m.cols)
    assert pivots == [col for col, _ in want]
    assert reduced._rows == [row for _, row in want]
    assert reduced._dens == [row[col] for col, row in want]
    assert all(before - after == 1 for before, after in zip(built, built[1:]))
    if built:
        assert built[-1] == m.cols - len(want)
    return built


def _catalog_builders():
    """Builders of every assembled catalog system at N = 6, delta in
    {1/2, 1} and |gamma| <= 1, then of witt's membership system at N = 6."""
    for key, delta, eps1, eps2, gamma in product(
            catalog.keys(), (F("1/2"), F(1)), (0, 1), (0, 1), (-1, 0, 1)):
        problem = solver.HomogeneousSolveProblem(
            catalog.get(key), delta, GradingDegree(eps1, eps2, gamma), 6, 3)
        yield lambda problem=problem: solver.assemble(problem)
    yield lambda: poisson._membership_system(catalog.get("witt"), F("1/2"), 6)


@contextmanager
def _built_from_lists():
    """SparseMatrix.from_stream handing its rows to from_rows as one list
    of rationals, so that from_rows bound-checks every row and drops its
    zeros."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SparseMatrix, "from_stream", classmethod(
            lambda cls, cols, rows, den=1: cls.from_rows(
                cols, [{c: Fraction(v, den) for c, v in row.items()} for row in rows])))
        yield


def test_rref_equals_full_elimination_on_every_catalog_system():
    switched = resumed = stopped = 0
    for build in _catalog_builders():
        m = build()
        with _built_from_lists():
            listed = build()
        assert listed._source is None
        probe = build()
        nullspace(probe)
        stopped += probe._source is not None
        built = _assert_rref_equals_full_elimination(m)
        # read to the end, the streamed rows are the listed ones: the same
        # values in the same order, with no zero stored
        _assert_int_storage(m)
        assert m == listed
        assert rref(m) == rref(listed)
        switched += bool(built and built[0])
        resumed += len([dim for dim in built[1:] if dim])
    # the stream did switch to checking, and resumed elimination, on the
    # catalog itself (pgca's delta = 1 degrees at gamma = 0), and it did
    # stop reading rows at the zero-kernel certificate
    assert switched and resumed and stopped


@st.composite
def resumed_matrices(draw):
    """Rows spanning a proper subspace, then at least `cols` nonzero rows of
    that span, then a row outside it, then a few arbitrary rows.

    Returns the rows and the dimension of that first span."""
    cols = draw(st.integers(2, 5))
    leads = sorted(draw(st.sets(st.integers(0, cols - 1),
                                min_size=1, max_size=cols - 1)))
    base = [[Fraction(0)] * c + [draw(nonzero_fractions)]
            + draw(st.lists(small_fractions, min_size=cols - c - 1,
                            max_size=cols - c - 1))
            for c in leads]

    def combination(coeffs):
        return [sum((k * row[c] for k, row in zip(coeffs, base)), Fraction(0))
                for c in range(cols)]

    coefficients = st.lists(st.integers(-3, 3), min_size=len(base),
                            max_size=len(base)).filter(any)
    redundant = [combination(k) for k in draw(st.lists(coefficients, min_size=cols,
                                                       max_size=cols + 3))]
    # nonzero at a column no base row leads, so outside the span of the base
    free = draw(st.sampled_from([c for c in range(cols) if c not in leads]))
    outside = combination(draw(st.lists(st.integers(-3, 3), min_size=len(base),
                                        max_size=len(base))))
    outside[free] += draw(nonzero_fractions)
    tail = draw(st.lists(st.lists(small_fractions, min_size=cols, max_size=cols),
                         max_size=3))
    return draw(st.permutations(base)) + redundant + [outside] + tail, len(base)


@given(resumed_matrices())
def test_rref_resumes_on_a_row_outside_the_checked_span(case):
    data, span = case
    cols = len(data[0])
    _assert_rref_matches_oracle(data)
    built = _assert_rref_equals_full_elimination(from_dense(data))
    assert _assert_rref_equals_full_elimination(_streamed(data)) == built
    # switched to checking after the redundant run, with the span's kernel,
    # and resumed on the outside row
    assert built[:2] == [cols - span, cols - span - 1]


def test_rref_checks_rather_than_eliminates_after_a_redundant_run():
    # counting from 0, rows 2-4 are combinations of rows 0 and 1, as many
    # as there are columns; row 5 leaves their span
    data = [[1, 1, 0], [0, 1, 1], [1, 2, 1], [2, 3, 1], [1, 0, -1], [0, 0, 1]]
    with _kernels_built() as built:
        _, pivots = rref(from_dense(data))
    assert built == [1, 0]
    assert pivots == [0, 1, 2]
    assert nullspace(from_dense(data)).vectors == []
    assert nullspace(from_dense(data[:5])).vectors == [(F(1), F(-1), F(1))]


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
        nullspace(from_dense(data))


# ---------------------------------------------------------------------------
# projections


def test_projection_rank_and_basis():
    basis = VectorBasis(3, [(F(1), F(0), F(2)), (F(0), F(1), F(3))])
    assert len(project_basis(basis, [0, 1])) == 2
    assert len(project_basis(basis, [2])) == 1
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
    with pytest.raises(LinalgError, match="coordinate 5 outside dimension 2"):
        project_basis(basis, [5])
    with pytest.raises(LinalgError, match="coordinate -1 outside dimension 2"):
        project_basis(basis, [-1, 0])
    # the bounds hold even when there is nothing to project
    with pytest.raises(LinalgError):
        project_basis(VectorBasis(2, []), [2])


def test_vector_basis_length_check():
    with pytest.raises(LinalgError):
        VectorBasis(2, [(F(1),)])
