"""Homogeneous delta-derivation solver: layouts, assembly, classification.

Frozen dimensions and classifications below were derived by hand from the
defining recurrences of each algebra and cross-checked at several window
sizes; the identity and ad L_0 membership facts are direct consequences of
the derivation identity itself.
"""

from fractions import Fraction

import pytest

import reference_loops
from gradedlie import catalog, linalg, solver
from gradedlie.core import (AlgebraPresentation, BasisElement, BasisKind,
                            GradingDegree)
from gradedlie.solver import (AmbiguousSectorError, HomogeneousSolveProblem,
                              SolveReport, SolverError, VERDICT_NOT_SCALAR_ONLY,
                              VERDICT_SCALAR_ONLY, WindowTooSmallError,
                              assemble, classify_interior, describe_values,
                              partner_kind, required_window, scan,
                              scan_verdict, solve_degree, unknown_layout)
from matrices import mul_vec, sparse_rows

PGCA = catalog.get("pgca")
WITT = catalog.get("witt")
VIRASORO = catalog.get("virasoro")
HALF = Fraction(1, 2)


def problem(p, delta, degree, window, interior=None):
    if interior is None:
        interior = window // 2
    return HomogeneousSolveProblem(p, delta, GradingDegree(*degree),
                                   window, interior)


# ---------------------------------------------------------------------------
# window sizing


@pytest.mark.parametrize("gamma,needed", [(0, 2), (1, 4), (-3, 8), (4, 10)])
def test_required_window_grows_with_the_shift(gamma, needed):
    assert required_window(gamma) == needed


def test_solve_degree_refuses_undersized_windows():
    with pytest.raises(WindowTooSmallError) as err:
        solve_degree(problem(PGCA, HALF, (0, 0, 3), 6))
    assert err.value.window == 6
    assert err.value.gamma == 3
    assert err.value.required == 8


def test_problem_validates_its_own_shape():
    with pytest.raises(SolverError):
        HomogeneousSolveProblem(PGCA, HALF, GradingDegree(0, 0, 0), 0, 0)
    with pytest.raises(SolverError):
        HomogeneousSolveProblem(PGCA, HALF, GradingDegree(0, 0, 0), 4, 5)


# ---------------------------------------------------------------------------
# partner kinds and layouts


@pytest.mark.parametrize("shift,expected", [
    ((0, 0), {"L": "L", "H": "H", "I": "I", "J": "J"}),
    ((1, 1), {"L": "H", "H": "L", "I": "J", "J": "I"}),
    ((0, 1), {"L": "I", "H": "J", "I": "L", "J": "H"}),
    ((1, 0), {"L": "J", "H": "I", "I": "H", "J": "L"}),
])
def test_pgca_partners_cover_all_four_sector_shifts(shift, expected):
    got = {k.name: partner_kind(PGCA, k, shift).name for k in PGCA.kinds}
    assert got == expected


def test_partner_of_a_central_kind_stays_central():
    C = VIRASORO.kind("C")
    assert partner_kind(VIRASORO, C, (0, 0)).name == "C"
    assert partner_kind(VIRASORO, VIRASORO.kind("L"), (0, 0)).name == "L"
    # no kind sits in the shifted sector
    assert partner_kind(VIRASORO, C, (0, 1)) is None


def test_two_noncentral_kinds_in_one_sector_are_rejected():
    twin = AlgebraPresentation(
        "twin", (BasisKind("A", (0, 0)), BasisKind("B", (0, 0))))
    with pytest.raises(AmbiguousSectorError):
        partner_kind(twin, twin.kind("A"), (0, 0))
    with pytest.raises(AmbiguousSectorError):
        solve_degree(problem(twin, HALF, (0, 0, 0), 4))


def test_layout_enumerates_kinds_in_declared_order():
    layout = unknown_layout(problem(PGCA, HALF, (0, 0, 1), 3))
    assert len(layout.columns) == 4 * 7
    assert layout.columns[:3] == [("L", -3), ("L", -2), ("L", -1)]
    assert layout.columns[7] == ("H", -3)
    assert layout.column_of("J", 3) == 27
    assert layout.column_of("J", 4) is None


def test_layout_skips_central_kinds_that_cannot_shift():
    # C_0 has no image slot at index 1, so it carries no unknown
    layout = unknown_layout(problem(VIRASORO, HALF, (0, 0, 1), 3))
    assert layout.columns == [("L", m) for m in range(-3, 4)]
    # at shift 0 the central unknown is exactly one column
    layout = unknown_layout(problem(VIRASORO, HALF, (0, 0, 0), 3))
    assert layout.columns == [("L", m) for m in range(-3, 4)] + [("C", 0)]


def test_unpartnered_sectors_yield_empty_layouts():
    layout = unknown_layout(problem(WITT, HALF, (0, 1, 0), 4))
    assert layout.columns == []


# ---------------------------------------------------------------------------
# assembled constraint rows


def _normalized_row_set(matrix):
    out = set()
    for row in sparse_rows(matrix):
        if not row:
            continue
        lead = row[min(row)]
        out.add(tuple(sorted((c, v / lead) for c, v in row.items())))
    return out


def test_assembled_rows_match_the_hand_written_identity_for_witt():
    # D[L_m, L_n] = (m-n) u_{m+n} L_{m+n}; the half-derivation identity
    # gives (m-n) u_{m+n} - (1/2)((m-n) u_m + (m-n) u_n) = 0 per pair
    prob = problem(WITT, HALF, (0, 0, 0), 3)
    layout = unknown_layout(prob)
    matrix = assemble(prob, layout)
    expected = set()
    for m in range(-3, 4):
        for n in range(m + 1, 4):
            if abs(m + n) > 3 or m == n:
                continue
            coeff = Fraction(m - n)
            acc = {}
            for c, v in ((layout.column_of("L", m + n), coeff),
                         (layout.column_of("L", m), -coeff / 2),
                         (layout.column_of("L", n), -coeff / 2)):
                acc[c] = acc.get(c, Fraction(0)) + v
            acc = {c: v for c, v in acc.items() if v}
            if acc:
                lead = acc[min(acc)]
                expected.add(tuple(sorted((c, v / lead) for c, v in acc.items())))
    assert _normalized_row_set(matrix) == expected


@pytest.mark.parametrize("key", catalog.keys())
def test_identity_map_is_a_half_derivation_everywhere(key):
    # [x, y] = (1/2)([x, y] + [x, y]) holds identically, so the all-ones
    # vector must lie in every (0,0,0) kernel at delta = 1/2
    p = catalog.get(key)
    prob = problem(p, HALF, (0, 0, 0), 6)
    layout = unknown_layout(prob)
    matrix = assemble(prob, layout)
    ones = [Fraction(1)] * len(layout.columns)
    assert not any(mul_vec(matrix, ones))


def test_ad_l0_is_a_one_derivation_but_not_a_half_derivation():
    # ad L_0 sends k_m to -m k_m; the Leibniz rule makes it a 1-derivation
    prob1 = problem(PGCA, Fraction(1), (0, 0, 0), 6)
    layout = unknown_layout(prob1)
    vec = [Fraction(-m) for (_, m) in layout.columns]
    assert not any(mul_vec(assemble(prob1, layout), vec))

    prob_half = problem(PGCA, HALF, (0, 0, 0), 6)
    layout_half = unknown_layout(prob_half)
    assert any(mul_vec(assemble(prob_half, layout_half), vec))


# ---------------------------------------------------------------------------
# solve_degree, frozen outcomes


def test_pgca_half_derivations_at_the_neutral_degree_are_scalar():
    report = solve_degree(problem(PGCA, HALF, (0, 0, 0), 8))
    assert report.classification == "scalar"
    assert (report.full_dim, report.interior_dim) == (1, 1)
    assert report.basis_summary == [{"L": "1", "H": "1", "I": "1", "J": "1"}]


@pytest.mark.parametrize("degree", [(0, 0, 1), (0, 0, -2), (1, 1, 0),
                                    (0, 1, 0), (1, 0, 1)])
def test_pgca_half_derivations_vanish_off_the_neutral_degree(degree):
    report = solve_degree(problem(PGCA, HALF, degree, 8))
    assert report.classification == "zero"
    assert report.full_dim == 0


def test_pgca_one_derivations_include_more_than_scalars():
    # at delta = 1 the space contains ad L_0 plus an I/J-only identity,
    # so the classification must move off "scalar"
    report = solve_degree(problem(PGCA, Fraction(1), (0, 0, 0), 8))
    assert report.classification == "nontrivial"
    assert report.interior_dim == 2


def test_witt_shift_maps_survive_as_constant_patterns():
    # u[L, m] = 1 solves the shifted recurrence for every gamma, so the
    # one-family algebra keeps a scalar-classified line at (0, 0, 2)
    report = solve_degree(problem(WITT, HALF, (0, 0, 2), 8))
    assert report.classification == "scalar"
    assert report.basis_summary == [{"L": "1"}]


def test_virasoro_central_rows_kill_the_shift_maps():
    report = solve_degree(problem(VIRASORO, HALF, (0, 0, 1), 8))
    assert report.classification == "zero"
    report = solve_degree(problem(VIRASORO, HALF, (0, 0, 0), 8))
    assert report.classification == "scalar"
    assert report.basis_summary == [{"L": "1", "C": "1"}]


def test_interior_dimension_is_stable_under_window_growth():
    small = solve_degree(problem(PGCA, HALF, (0, 0, 0), 8, 4))
    large = solve_degree(problem(PGCA, HALF, (0, 0, 0), 10, 4))
    assert (small.interior_dim, small.classification) == \
        (large.interior_dim, large.classification)


def test_report_json_shape():
    report = solve_degree(problem(WITT, HALF, (0, 0, 0), 4))
    data = report.to_json_dict()
    assert set(data) == {"degree", "full_dim", "interior_dim",
                         "classification", "basis"}
    assert data["degree"] == [0, 0, 0]
    assert data["basis"] == [{"L": "1"}]


# ---------------------------------------------------------------------------
# classification helpers


def test_classify_interior_distinguishes_the_three_shapes():
    keys = [("L", 0), ("H", 0)]
    one = Fraction(1)
    assert classify_interior(keys, ["L", "H"], []) == "zero"
    assert classify_interior(keys, ["L", "H"], [(one, one)]) == "scalar"
    # a constant pattern that misses a kind is not a scalar map
    assert classify_interior(keys, ["L", "H", "I"], [(one, one)]) == "nontrivial"
    assert classify_interior(keys, ["L", "H"], [(one, one + one)]) == "nontrivial"
    assert classify_interior(keys, ["L", "H"],
                             [(one, one), (one, -one)]) == "nontrivial"


def test_describe_values_compacts_common_patterns():
    F = Fraction
    assert describe_values({}) == "0"
    assert describe_values({1: F(5), 2: F(5)}) == "5"
    assert describe_values({0: F(0), 1: F(1), 2: F(2)}) == "m"
    assert describe_values({0: F(2), 1: F(3)}) == "2 + m"
    assert describe_values({0: F(1), 1: F(4)}) == "1 + 3*m"
    assert describe_values({0: F(0), 1: F(1), 2: F(4)}) == "0:0, 1:1, 2:4"


def _report(degree, classification):
    return SolveReport(GradingDegree(*degree),
                       full_dim=1 if classification != "zero" else 0,
                       interior_dim=1 if classification != "zero" else 0,
                       classification=classification, basis_summary=[])


def test_scan_verdict_requires_exactly_one_scalar_at_the_neutral_degree():
    assert scan_verdict([_report((0, 0, 0), "scalar"),
                         _report((0, 0, 1), "zero")]) == VERDICT_SCALAR_ONLY
    assert scan_verdict([_report((0, 0, 1), "scalar"),
                         _report((0, 0, 0), "zero")]) == VERDICT_NOT_SCALAR_ONLY
    assert scan_verdict([_report((0, 0, 0), "scalar"),
                         _report((0, 0, 1), "nontrivial")]) == VERDICT_NOT_SCALAR_ONLY
    assert scan_verdict([_report((0, 0, 0), "zero")]) == VERDICT_NOT_SCALAR_ONLY


# ---------------------------------------------------------------------------
# full scans


def test_pgca_scan_is_scalar_only():
    result = scan(PGCA, HALF, 1, 8)
    assert result.verdict == VERDICT_SCALAR_ONLY
    assert len(result.reports) == 12
    scalars = [r for r in result.reports if r.classification == "scalar"]
    assert [r.degree for r in scalars] == [GradingDegree(0, 0, 0)]


def test_virasoro_scan_is_scalar_only():
    result = scan(VIRASORO, HALF, 2, 8)
    assert result.verdict == VERDICT_SCALAR_ONLY


def test_abelian_scan_sees_every_index_shift():
    # with a zero bracket every degree-homogeneous map is a derivation,
    # but sector shifts have no partner kind and stay empty
    result = scan(catalog.get("abelian"), HALF, 1, 6)
    assert result.verdict == VERDICT_NOT_SCALAR_ONLY
    by_degree = {r.degree: r.classification for r in result.reports}
    for gamma in (-1, 0, 1):
        assert by_degree[GradingDegree(0, 0, gamma)] == "nontrivial"
        assert by_degree[GradingDegree(1, 1, gamma)] == "zero"


def test_scan_orders_degrees_lexicographically():
    result = scan(catalog.get("abelian"), HALF, 1, 6)
    degrees = [(r.degree.eps1, r.degree.eps2, r.degree.index)
               for r in result.reports]
    assert degrees == sorted(degrees)


def test_scan_rejects_undersized_windows_upfront():
    with pytest.raises(WindowTooSmallError):
        scan(PGCA, HALF, 4, 8)
    with pytest.raises(SolverError):
        scan(PGCA, HALF, -1, 8)


def test_scan_json_shape():
    result = scan(WITT, HALF, 0, 4)
    data = result.to_json_dict()
    assert set(data) == {"algebra", "delta", "window", "interior",
                         "reports", "verdict"}
    assert data["algebra"] == "witt"
    assert data["delta"] == "1/2"
    assert len(data["reports"]) == 4


# ---------------------------------------------------------------------------
# index reflection: theta(X_m) = s_X X_{-m}

# s_X per catalog algebra, 1 for the kinds not listed; virasoro's cocycle
# is odd, so C changes sign with L
REFLECTION_SIGNS = {"pgca": {"L": -1}, "witt": {"L": -1},
                    "virasoro": {"L": -1, "C": -1},
                    "heisenberg-virasoro": {"L": -1}, "abelian": {}}


def _reflection_signs(key):
    if key not in REFLECTION_SIGNS:
        pytest.skip(f"no index reflection known for {key}")
    return REFLECTION_SIGNS[key]


@pytest.mark.parametrize("key", catalog.keys())
def test_index_reflection_is_an_automorphism(key):
    # [theta x, theta y] = theta [x, y] for every pair in the N = 4 window
    signs = _reflection_signs(key)
    p = catalog.get(key)

    def sign(b):
        return signs.get(b.kind.name, 1)

    basis = p.basis_elements(4)
    for x in basis:
        for y in basis:
            mirrored = p.bracket_basis(BasisElement(x.kind, -x.index),
                                       BasisElement(y.kind, -y.index))
            lhs = {(b.kind.name, b.index): sign(x) * sign(y) * c
                   for b, c in mirrored.items()}
            rhs = {(b.kind.name, -b.index): sign(b) * c
                   for b, c in p.bracket_basis(x, y).items()}
            assert lhs == rhs, (x, y)


@pytest.mark.parametrize("key", catalog.keys())
@pytest.mark.parametrize("delta", [HALF, Fraction(1)], ids=str)
def test_reports_at_minus_gamma_mirror_those_at_gamma(key, delta):
    # theta maps the window and the interior onto themselves, so
    # D -> theta D theta^-1 carries the system of degree (eps, gamma) row
    # for row onto that of (eps, -gamma): a sign or offset slip in the
    # rows of one side shows as a mismatch
    _reflection_signs(key)
    reports = {r.degree: (r.full_dim, r.interior_dim, r.classification)
               for r in scan(catalog.get(key), delta, 3, 8).reports}
    assert len(reports) == 28
    for degree, facts in reports.items():
        mirror = GradingDegree(degree.eps1, degree.eps2, -degree.index)
        assert reports[mirror] == facts, degree


# ---------------------------------------------------------------------------
# layer boundaries


@pytest.mark.parametrize("delta,degree,projected", [
    (HALF, (0, 1, 0), False),         # certified: the kernel is zero
    (Fraction(1), (0, 0, 0), True),   # a degree with a kernel
])
def test_solve_degree_crosses_each_layer_once(delta, degree, projected,
                                              monkeypatch):
    # assemble -> nullspace -> rref are looked up as module globals, one
    # call each per degree; per-layer tracing wraps exactly these names.
    # Each call is logged with its nesting depth among the wrapped names.
    log = []
    depth = [0]

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            log.append((name, depth[0]))
            depth[0] += 1
            try:
                return original(*args, **kwargs)
            finally:
                depth[0] -= 1
        monkeypatch.setattr(module, name, wrapper)

    counted(solver, "assemble")
    counted(solver, "nullspace")
    counted(linalg, "rref")
    report = solve_degree(problem(PGCA, delta, degree, 6))
    want = [("assemble", 0), ("nullspace", 0), ("rref", 1)]
    if projected:
        # reporting reduces the nonzero kernel's interior projection
        want.append(("rref", 0))
    assert log == want
    assert (report.full_dim > 0) == projected


# ---------------------------------------------------------------------------
# streamed rows


def test_zero_kernel_degrees_stop_making_rows():
    # the half-scan at N = 6, |gamma| <= 1: elimination reaches the
    # zero-kernel certificate in every degree but (0, 0, 0), and the rows
    # past it are never made; the degree with a kernel reads all of them
    read = total = 0
    for degree in [(e1, e2, g) for e1 in (0, 1) for e2 in (0, 1) for g in (-1, 0, 1)]:
        matrix = assemble(problem(catalog.get("pgca"), HALF, degree, 6))
        kernel = linalg.nullspace(matrix)
        made = len(matrix._rows)
        if degree == (0, 0, 0):
            assert len(kernel) == 1 and made == matrix.rows
        else:
            assert len(kernel) == 0 and made < matrix.rows, degree
        read += made
        total += matrix.rows
    assert (read, total) == (1309, 10292)


def test_identity_rows_checks_each_map_once_before_any_row():
    # a column outside the matrix fails when the maps are handed over, not
    # when elimination reaches a row holding it; no bracket is evaluated
    p = catalog.get("witt")
    good = {(0, m): [(m + 2, (0, m))] for m in range(-2, 3)}
    bad = dict(good)
    bad[(0, 2)] = [(5, (0, 2))]
    with pytest.raises(SolverError, match="^image column 5 outside 5 columns$"):
        solver.identity_rows(p, HALF, [good, bad], 2, 5)
    assert not p._indexed
    matrix = solver.identity_rows(p, HALF, iter([good]), 2, 5)
    assert not p._indexed
    assert matrix.rows and p._indexed


# ---------------------------------------------------------------------------
# integer-keyed assembly against the Element-based reference


DELTAS = (HALF, Fraction(1), Fraction(2, 3), Fraction(-3, 5))


@pytest.mark.parametrize("key", catalog.keys() + ("lopsided",))
@pytest.mark.parametrize("delta", DELTAS, ids=str)
def test_assemble_equals_the_element_reference(key, delta):
    # same rows, in the same order, with the same exact values; pgca's
    # declared kind order (L, H, I, J) is not its sorted one, so the row
    # order within a pair is exercised too.  The lopsided presentation adds
    # several outputs per pair and central partners: Z and W map to
    # themselves at (0, 0, 0) and to each other at (0, 1, 0)
    p = reference_loops._lopsided() if key == "lopsided" else catalog.get(key)
    for degree in ((0, 0, 0), (0, 0, 1), (1, 1, -1), (0, 1, 1), (1, 0, 0), (0, 1, 0)):
        prob = problem(p, delta, degree, 6)
        assert assemble(prob) == reference_loops.assemble(prob), degree
