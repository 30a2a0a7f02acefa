"""Exact sparse linear algebra: RREF, nullspaces, interior projections.

The property tests compare against a deliberately naive dense elimination
written inline, so the two implementations share no code.
"""

import re
from contextlib import contextmanager
from fractions import Fraction
from itertools import islice, product
from math import gcd, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference_loops
from gradedlie import catalog, linalg, poisson, recurrences, solver
from gradedlie.core import GradingDegree
from gradedlie.linalg import (LinalgError, SparseMatrix, VectorBasis,
                              nullspace, project_basis, rref, verify_kernel)
from matrices import dense, from_dense, mul_vec, rank, sparse_rows


def F(x):
    return Fraction(x)


def _streamed(data, certify=None):
    """The matrix of dense rows, streamed as int rows over one common
    denominator and made only as they are read, like solver.identity_rows'."""
    den = lcm(*(Fraction(v).denominator for row in data for v in row))
    cols = len(data[0]) if data else 0
    return SparseMatrix.from_stream(
        cols, ({c: int(Fraction(v) * den) for c, v in enumerate(row) if v}
               for row in data), den, certify)


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
    assert dense(m) == [[F(1), F(0), F("1/2")], [F(0)] * 3,
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
    assert all(type(v) is Fraction for row in dense(m) for v in row)


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
    assert dense(ints) == dense(fracs)
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


def test_membership_system_stores_int_rows(monkeypatch):
    # the product path's matrices: each solved degree's assembled rows, over
    # the presentation's denominator, and each shift's commutativity rows
    # over the kernel coordinates, over 1
    assembled, glued = [], []
    monkeypatch.setattr(poisson, "assemble",
                        lambda *args: assembled.append(solver.assemble(*args)) or assembled[-1])
    monkeypatch.setattr(poisson, "rref", lambda m: glued.append(m) or rref(m))
    poisson.classify_products(catalog.get("witt"), solver.VERDICT_NOT_SCALAR_ONLY, 3)
    assert len(assembled) > 1 and len(glued) > 1
    for m in assembled + glued:
        _assert_int_storage(m)
    assert {d for m in assembled for d in m._dens} == {2}
    assert {d for m in glued for d in m._dens} == {1}
    assert all(m.nnz for m in assembled) and any(m.nnz for m in glued)


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
    assert nullspace(m).vectors == [[-1, 1]]


def test_rref_of_invertible_matrix_is_identity():
    m = from_dense([[2, 0, 1], [1, 3, 0], [0, 1, 1]])
    reduced, pivots = rref(m)
    assert pivots == [0, 1, 2]
    assert dense(reduced) == [
        [F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(1)]]
    assert nullspace(m).vectors == []


def test_rref_handles_fractional_dependent_rows():
    m = from_dense([[F("1/2"), F("1/3")], [F("1/4"), F("1/6")]])
    assert rank(m) == 1
    # the reduced row (1/2, 1/3) is the primitive int row (3, 2), and the
    # kernel vector is the int vector (-2, 3), not (-2/3, 1)
    assert nullspace(m).vectors == [[-2, 3]]


def test_rref_is_idempotent():
    m = from_dense([[0, 2, 4], [1, 1, 1], [1, 3, 5]])
    reduced, pivots = rref(m)
    again, pivots2 = rref(reduced)
    assert pivots2 == pivots
    assert dense(again) == dense(reduced)


def test_zero_matrix_has_full_nullspace():
    m = SparseMatrix.from_rows(2, [{}] * 3)
    assert rank(m) == 0
    assert nullspace(m).vectors == [[1, 0], [0, 1]]


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
        assert dense(reduced) == want_rows


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
        before = dense(m)
        rref(m)
        assert dense(m) == before
        nullspace(m)
        assert dense(m) == before
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
    assert dense(reduced) == want_rows
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
    assert dense(reduced) == [[F(1), F(0)], [F(0), F(1)]]


def test_from_stream_checks_its_denominator():
    with pytest.raises(LinalgError, match="^row denominator must be positive$"):
        SparseMatrix.from_stream(3, [{0: 1}], 0)


# ---------------------------------------------------------------------------
# checking rows against the candidate kernel instead of eliminating them


@contextmanager
def _kernels_built():
    """The candidate kernels elimination builds, in order, as (rows read,
    width) pairs, and the list of rows the last stream read.  Each
    candidate is checked to be _kernel's basis of the reference loop's
    reduced form of the rows read so far, so a fresh one, as wide as the
    column count less their rank."""
    built, read = [], []
    kernel, stream = linalg._kernel, SparseMatrix._stream

    def reading(self):
        read.clear()
        for row in stream(self):
            read.append(row)
            yield row

    def build(pivots, cols):
        made = kernel(pivots, cols)
        assert made == kernel(dict(reference_loops.rref_rows(read, cols)), cols)
        built.append((len(read), len(made)))
        return made

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SparseMatrix, "_stream", reading)
        mp.setattr(linalg, "_kernel", build)
        yield built, read


def _adds_pivot(rows, cols):
    """For each int row, whether it adds a pivot to the rows before it, or
    None for an empty row, by one pass of forward elimination."""
    echelon = {}  # leading column -> row
    for row in rows:
        if not row:
            yield None
            continue
        new = dict(row)
        while new and (col := min(new)) in echelon:
            linalg._eliminate(new, echelon[col], col)
        if new:
            linalg._divide_content(new)
            echelon[min(new)] = new
        yield bool(new)


def _candidates_due(rows, cols):
    """Where the stopping rule builds candidate kernels over the rows read,
    as (rows read, width) pairs: once a run of rows that add no pivot is as
    long as the candidate is wide, from which on rows inside the candidate
    are skipped, and after each later pivot.  It is the same rule with a
    certificate or without; a passing certificate only ends the rows read.
    Empty rows are skipped, and a last pivot stops the stream."""
    built, rank, idle, checking = [], 0, 0, False
    for read, adds in enumerate(_adds_pivot(rows, cols), 1):
        if adds is None or checking and not adds:
            continue
        if adds:
            rank, idle = rank + 1, 0
            if rank == cols:
                break
            if checking:
                built.append((read, cols - rank))
            continue
        idle += 1
        if idle == cols - rank:
            built.append((read, cols - rank))
            checking = True
    return built


def _assert_rref_equals_full_elimination(m):
    """rref of m equals the eliminate-every-row loop, and builds a fresh
    candidate kernel exactly where the stopping rule is due to; a
    candidate the certificate passed is the last one built, on the last
    row read.  Returns the candidates built, as _kernels_built does."""
    with _kernels_built() as (built, read):
        reduced, pivots = rref(m)
    m.rows  # read what elimination left of a streamed matrix's source
    want = reference_loops.rref_rows(m._rows, m.cols)
    assert pivots == [col for col, _ in want]
    assert reduced._rows == [row for _, row in want]
    assert reduced._dens == [row[col] for col, row in want]
    assert read == m._rows[:len(read)]
    assert built == _candidates_due(read, m.cols)
    if m._proved:
        assert built[-1] == (len(read), len(m._proved))
    return built


def _catalog_builders():
    """Builders of every assembled catalog system at N = 6, delta in
    {1/2, 1} and |gamma| <= 1, then of each degree of witt's product path
    at N = 6, |gamma| <= 12, and of pgca's at N = 2, |gamma| <= 4, on
    inside layouts."""
    for key, delta, eps1, eps2, gamma in product(
            catalog.keys(), (F("1/2"), F(1)), (0, 1), (0, 1), (-1, 0, 1)):
        problem = solver.HomogeneousSolveProblem(
            catalog.get(key), delta, GradingDegree(eps1, eps2, gamma), 6, 3)
        yield lambda problem=problem: solver.assemble(problem)
    for gamma in range(-12, 13):
        problem = solver.HomogeneousSolveProblem(
            catalog.get("witt"), F("1/2"), GradingDegree(0, 0, gamma), 6, 0)
        yield lambda problem=problem: solver.assemble(
            problem, solver.unknown_layout(problem, inside=True))
    for eps1, eps2, gamma in product((0, 1), (0, 1), range(-4, 5)):
        problem = solver.HomogeneousSolveProblem(
            catalog.get("pgca"), F("1/2"), GradingDegree(eps1, eps2, gamma), 2, 0)
        yield lambda problem=problem: solver.assemble(
            problem, solver.unknown_layout(problem, inside=True))


@contextmanager
def _built_from_lists():
    """SparseMatrix.from_stream handing its rows to from_rows as one list
    of rationals, so that from_rows bound-checks every row and drops its
    zeros; a kernel certificate is dropped with the stream."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SparseMatrix, "from_stream", classmethod(
            lambda cls, cols, rows, den=1, certify=None: cls.from_rows(
                cols, [{c: Fraction(v, den) for c, v in row.items()} for row in rows])))
        yield


def test_rref_equals_full_elimination_on_every_catalog_system():
    resumed = retried = stopped = 0
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
        if m._certify is None:
            resumed += len(built) > 1
        else:
            retried += len(built) > 1 and bool(m._proved)
    # on the catalog itself, systems without a certificate did switch to
    # checking and resume elimination (pgca's product path at |gamma| = 4),
    # certified ones did switch to checking after a failed candidate and
    # stop on a rebuilt one (among them pgca's delta = 1 degrees at
    # gamma = 0), and reading did stop early
    assert resumed and retried and stopped


@st.composite
def resumed_matrices(draw):
    """Rows spanning a proper subspace, then at least as many nonzero rows of
    that span as its kernel is wide, then a row outside it, then a few
    arbitrary rows.

    Returns the rows, the dimension of that first span and the number of
    rows of it that follow."""
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
    redundant = [combination(k) for k in draw(st.lists(
        coefficients, min_size=cols - len(base), max_size=cols + 3))]
    # nonzero at a column no base row leads, so outside the span of the base
    free = draw(st.sampled_from([c for c in range(cols) if c not in leads]))
    outside = combination(draw(st.lists(st.integers(-3, 3), min_size=len(base),
                                        max_size=len(base))))
    outside[free] += draw(nonzero_fractions)
    tail = draw(st.lists(st.lists(small_fractions, min_size=cols, max_size=cols),
                         max_size=3))
    rows = draw(st.permutations(base)) + redundant + [outside] + tail
    return rows, len(base), len(redundant)


@given(resumed_matrices())
def test_rref_resumes_on_a_row_outside_the_checked_span(case):
    data, span, run = case
    cols = len(data[0])
    width = cols - span
    _assert_rref_matches_oracle(data)
    # with a kernel certificate, here one that never passes, and without
    # one, the span's kernel is built as soon as as many rows of the span
    # as it is wide have added no pivot, and the rest of the run is
    # checked against it; the outside row resumes elimination with a fresh
    # candidate, offered to the certificate like the first
    offered = []
    never = _streamed(data, lambda kernel: offered.append(len(kernel)) and False)
    built = _assert_rref_equals_full_elimination(never)
    assert built[0] == (span + width, width)
    assert built[1:2] == ([(span + run + 1, width - 1)] if width > 1 else [])
    assert offered == [dim for _, dim in built]
    assert _assert_rref_equals_full_elimination(from_dense(data)) == built
    assert _assert_rref_equals_full_elimination(_streamed(data)) == built


def test_rref_checks_rather_than_eliminates_after_a_redundant_run(monkeypatch):
    # counting from 1, rows 3 and 4 are combinations of rows 1 and 2, as
    # many as their kernel is wide, so checking starts there; rows 5-7 are
    # in their span, row 8 leaves it, row 9 is in the new span but not in
    # the first candidate's, and row 10 gives the last pivot, so row 11 is
    # never read
    data = [[1, 0, 0, 1], [0, 1, 0, 1], [1, 1, 0, 2], [1, -1, 0, 0], [2, 0, 0, 2],
            [0, 3, 0, 3], [2, 1, 0, 3], [0, 0, 1, 0], [1, 0, 1, 1], [0, 0, 0, 1],
            [1, 1, 1, 1]]
    checked, outside = [], linalg._outside

    def logged(row, kernel):
        checked.append(outside(row, kernel))
        return checked[-1]

    monkeypatch.setattr(linalg, "_outside", logged)
    with _kernels_built() as (built, read):
        _, pivots = rref(_raising_after(data, 10))
    assert pivots == [0, 1, 2, 3] and len(read) == 10
    # the candidate of width 2 is built after row 4, and rebuilt fresh,
    # of width 1, after row 8, so that row 9 is skipped as well as rows 5-7
    assert built == [(4, 2), (8, 1)]
    assert checked == [False, False, False, True, False, True]
    assert nullspace(from_dense(data[:9])).vectors == [[-1, -1, 0, 1]]


# ---------------------------------------------------------------------------
# a kernel certificate handed in with the row source


def _exact_certificate(data, calls=None):
    """A kernel certificate that is exact for the dense rows: it passes
    int vectors with a zero product with every one of them, and logs the
    number of vectors it is handed."""
    def certify(kernel):
        if calls is not None:
            calls.append(len(kernel))
        return all(sum(F(a) * x for a, x in zip(row, w)) == 0
                   for _, w in kernel for row in data)
    return certify


def _certified_then_raising(data, prefix, calls):
    """data's first `prefix` rows, streamed with an exact certificate, as a
    source that raises if read further."""
    streamed = _streamed(data)

    def rows():
        yield from islice(streamed._source, prefix)
        raise AssertionError("a row past the kernel certificate was read")
    return SparseMatrix.from_stream(streamed.cols, rows(), streamed._den,
                                    _exact_certificate(data, calls))


def test_a_passing_kernel_certificate_stops_reading_rows():
    # counting from 0: rows 2-5 and 7-8 are combinations of rows 0, 1 and
    # 6; after rows 2 and 3, as many idle rows as their kernel is wide, the
    # candidate kernel of dimension 2 is built and fails the certificate,
    # and rows 4 and 5 are checked against it; row 6 leaves the span, and
    # the candidate rebuilt on it passes, so rows 7 and 8 are never made
    data = [[1, 0, 0, 1], [0, 1, 0, 1], [1, 1, 0, 2], [1, -1, 0, 0], [2, 0, 0, 2],
            [0, 3, 0, 3], [0, 0, 1, 0], [1, 0, 1, 1], [0, 1, 1, 1]]
    want_rows, want_pivots = _dense_rref(data)
    calls = []
    m = _certified_then_raising(data, 7, calls)
    reduced, pivots = rref(m)
    assert (dense(reduced), pivots) == (want_rows, want_pivots)
    assert calls == [2, 1] and len(m._rows) == 7
    # nullspace takes the kernel elimination stopped on, which the
    # certificate has already passed, and neither rebuilds nor re-checks it
    calls.clear()
    m = _certified_then_raising(data, 7, calls)
    assert nullspace(m).vectors == [[-1, -1, 0, 1]]
    assert calls == [2, 1] and len(m._rows) == 7
    # verify_kernel tries it before reading any row, reads the rows only
    # when it fails, and stores nothing on the matrix
    m = _certified_then_raising(data, 0, calls)
    assert verify_kernel(m, VectorBasis(4, [[1, 1, 0, -1]]))
    assert m._rows == [] and m._proved is None
    with pytest.raises(AssertionError, match="past the kernel certificate"):
        verify_kernel(m, VectorBasis(4, [[1, 0, 0, 0]]))


def test_a_failed_candidate_switches_a_certified_system_to_checking(monkeypatch):
    # counting from 0, rows 0 and 1 pivot columns 0 and 2; rows 2 and 3 are
    # in their span, as many as the candidate is wide, so it is built
    # (width 2) and fails the certificate; rows 4 and 5 are checked and
    # skipped; row 6 leaves the span and the candidate rebuilt on it
    # (width 1) passes, so row 7, in the final span, is never made
    data = [[1, 1, 0, 0], [0, 0, 1, 1], [1, 1, 1, 1], [2, 2, -1, -1], [0, 0, 3, 3],
            [1, 1, 0, 0], [0, 1, 0, 0], [1, 0, 1, 1]]
    calls, checked, outside = [], [], linalg._outside

    def logged(row, kernel):
        checked.append(outside(row, kernel))
        return checked[-1]

    monkeypatch.setattr(linalg, "_outside", logged)
    m = _certified_then_raising(data, 7, calls)
    with _kernels_built() as (built, read):
        reduced, pivots = rref(m)
    assert built == [(4, 2), (7, 1)] and calls == [2, 1] and len(read) == 7
    assert checked == [False, False, True]
    want = reference_loops.rref_rows(m._rows, m.cols)
    assert pivots == [col for col, _ in want]
    assert reduced._rows == [row for _, row in want]
    assert want == reference_loops.rref_rows(_streamed(data)._read()[0], m.cols)
    assert nullspace(_certified_then_raising(data, 7, [])).vectors == [[0, 0, -1, 1]]


@given(st.one_of(dense_matrices, resumed_matrices().map(lambda case: case[0])))
def test_a_kernel_certificate_changes_no_result(data):
    # an exact certificate, and one that never passes, which falls back on
    # reading every row
    want_rref, want_kernel = rref(from_dense(data)), nullspace(from_dense(data))
    for certify, fails in ((_exact_certificate(data), False), (lambda kernel: False, True)):
        assert rref(_streamed(data, certify)) == want_rref
        m = _streamed(data, certify)
        assert nullspace(m) == want_kernel
        assert verify_kernel(m, want_kernel) is want_kernel
        if fails and want_kernel.vectors:
            assert len(m._rows) == len(data)


# ---------------------------------------------------------------------------
# the affine kernel certificate: affine per label, then a sample of rows

# two labels on the window N = 2, A on columns 0-4 and B on 5-9, so their
# m = 0 columns are 2 and 7; A = 1 + m and B = 2 hold on every sample row
_AFFINE = [-1, 0, 1, 2, 3] + [2] * 5
_SAMPLE = [{2: 2, 7: -1}, {1: 1, 3: 1, 7: -1}, {0: 1, 4: 1, 5: -1}]


def _affine_certificate(rows):
    """affine_certificate for the two labels over rows, and the list its
    sample calls are logged in."""
    built = []

    def sample():
        built.append(len(rows))
        return iter(rows)
    return linalg.affine_certificate([2, 7], 2, sample), built


@pytest.mark.parametrize("w", [
    # A is not affine, though it holds on the sample's first row alone
    [5, 0, 1, 0, 5] + [2] * 5,
    # A is, B is not
    [-1, 0, 1, 2, 3] + [2, 2, 2, 2, 3],
    # A = 1 + m on the window N = 1 only
    [0, 0, 1, 2, 0] + [2] * 5,
], ids=["a-wiggles", "b-wiggles", "a-edges"])
def test_a_vector_that_is_not_affine_fails_before_any_sample_row(w):
    certify, built = _affine_certificate(_SAMPLE[:1])
    assert certify([(0, w)]) is False
    assert certify([(0, _AFFINE), (1, w)]) is False
    assert built == []
    assert certify([(0, _AFFINE)]) is True and built == [1]


def test_an_affine_vector_that_misses_one_sample_row_fails():
    # B_0 - A_2 is 2 - 3
    certify, _ = _affine_certificate(_SAMPLE + [{4: 1, 7: -1}])
    assert certify([(0, _AFFINE)]) is False
    assert certify([(0, [2 * x for x in _AFFINE])]) is False
    certify, _ = _affine_certificate(_SAMPLE)
    assert certify([(0, _AFFINE), (1, [2 * x for x in _AFFINE])]) is True
    # B = 3 misses the first row
    assert certify([(0, _AFFINE[:5] + [3] * 5)]) is False


def test_the_sample_is_built_at_most_once():
    certify, built = _affine_certificate(_SAMPLE)
    tries = [[(0, _AFFINE)], [(0, [5, 0, 1, 0, 5] + [2] * 5)],
             [(0, _AFFINE[:5] + [3] * 5)], [(0, _AFFINE)]]
    assert [certify(kernel) for kernel in tries] == [True, False, False, True]
    assert built == [3]


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


@given(dense_matrices, st.data())
def test_verify_kernel_passes_the_kernel_and_fails_any_other_vector(data, choice):
    # the check nullspace makes, for a basis handed in; a kernel vector
    # plus a unit vector at a column some row uses is outside the kernel
    used = [c for c in range(len(data[0])) if any(row[c] for row in data)]
    for m in _both(data):
        kernel = nullspace(m)
        assert verify_kernel(m, kernel) is kernel
        if used:
            c = choice.draw(st.sampled_from(used))
            base = choice.draw(st.sampled_from(kernel.vectors or [[0] * m.cols]))
            bad = [v + (i == c) for i, v in enumerate(base)]
            with pytest.raises(LinalgError,
                               match="^internal error: kernel vector fails verification$"):
                verify_kernel(m, VectorBasis(m.cols, [bad]))


def test_verify_kernel_of_no_vector_reads_no_row():
    def rows():
        raise AssertionError("a row was read")
        yield

    m = SparseMatrix.from_stream(3, rows())
    assert verify_kernel(m, VectorBasis(3, [])).vectors == []
    with pytest.raises(LinalgError, match="^basis of dimension 2 for 3 columns$"):
        verify_kernel(m, VectorBasis(2, [[1, 0]]))


# ---------------------------------------------------------------------------
# projections


def test_projection_rank_and_basis():
    basis = VectorBasis(3, [[1, 0, 2], [0, 1, 3]])
    assert len(project_basis(basis, [0, 1])) == 2
    assert len(project_basis(basis, [2])) == 1
    assert project_basis(basis, [2]) == [(1, [1])]


def test_projection_is_row_reduced_and_canonical():
    basis = VectorBasis(3, [[2, 2, 1], [0, 2, 1]])
    proj = project_basis(basis, [0, 1])
    # span{(2,2),(0,2)} is the whole plane; canonical basis is the identity
    assert proj == [(1, [1, 0]), (1, [0, 1])]
    # (9, 6) is reduced to (3, 2), primitive over its pivot entry 3, so
    # the leading-1 row is (1, 2/3)
    assert project_basis(VectorBasis(2, [[9, 6]]), [0, 1]) == [(3, [3, 2])]
    # coordinates are taken in order, and the pivot entry is positive
    assert project_basis(VectorBasis(2, [[-3, 2]]), [1, 0]) == [(3, [3, -2])]


def test_projection_coordinate_bounds():
    basis = VectorBasis(2, [[1, 0]])
    with pytest.raises(LinalgError, match="coordinate 5 outside dimension 2"):
        project_basis(basis, [5])
    with pytest.raises(LinalgError, match="coordinate -1 outside dimension 2"):
        project_basis(basis, [-1, 0])
    # the bounds hold even when there is nothing to project
    with pytest.raises(LinalgError):
        project_basis(VectorBasis(2, []), [2])


def test_vector_basis_length_check():
    with pytest.raises(LinalgError):
        VectorBasis(2, [[1]])


@pytest.mark.parametrize("entry", [Fraction(1, 2), Fraction(1), 1.0, True])
def test_vector_basis_takes_only_int_entries(entry):
    # a rational basis would pass verify_kernel's products and then fail
    # as a TypeError inside project_basis; it fails here, by name
    with pytest.raises(LinalgError, match=f"^basis vector entry {re.escape(repr(entry))} "
                                          "is not an int$"):
        VectorBasis(2, [[0, entry]])
