"""Homogeneous delta-derivation solver: layouts, assembly, classification.

Frozen dimensions and classifications below were derived by hand from the
defining recurrences of each algebra and cross-checked at several window
sizes; the identity and ad L_0 membership facts are direct consequences of
the derivation identity itself.
"""

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import reference_loops
from gradedlie import catalog, cli, linalg, poisson, solver
from gradedlie.core import (AlgebraPresentation, BasisElement, BasisKind,
                            BracketRule, BracketTerm, CentralTerm, CubicPoly, Element,
                            GradingDegree, affine, bracket, certify_presentation)
from gradedlie.solver import (HomogeneousSolveProblem, KindAutomorphism, SolveReport,
                              SolverError, VERDICT_NOT_SCALAR_ONLY, VERDICT_SCALAR_ONLY,
                              WindowTooSmallError, assemble, classify_interior,
                              describe_values, kernel_certificate, kind_automorphisms,
                              propagation_window, required_window, scan, scan_verdict,
                              solve_degree, unknown_layout)
from matrices import from_dense, mul_vec, rank, sparse_rows
from test_core import _brackets, _preserves, _presentations

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
# column families and layouts


def _families(p, degree):
    """The layout's families as label -> (source name, target name)."""
    layout = unknown_layout(problem(p, HALF, degree, 2))
    return {label: (x.name, t.name) for label, (x, t) in layout.families.items()}


@pytest.mark.parametrize("shift,expected", [
    ((0, 0), {"L": "L", "H": "H", "I": "I", "J": "J"}),
    ((1, 1), {"L": "H", "H": "L", "I": "J", "J": "I"}),
    ((0, 1), {"L": "I", "H": "J", "I": "L", "J": "H"}),
    ((1, 0), {"L": "J", "H": "I", "I": "H", "J": "L"}),
])
def test_pgca_partners_cover_all_four_sector_shifts(shift, expected):
    # one kind per sector, so each kind has one target and labels its
    # columns by its own name
    assert _families(PGCA, (*shift, 1)) == {k: (k, t) for k, t in expected.items()}


def test_partner_of_a_central_kind_stays_central():
    # C maps only to C; L maps to L and across to C, so those columns are
    # labelled L and L>C
    assert _families(VIRASORO, (0, 0, 0)) == {
        "L": ("L", "L"), "L>C": ("L", "C"), "C": ("C", "C")}
    # no kind sits in the shifted sector
    assert _families(VIRASORO, (0, 1, 0)) == {}


# kinds L (witt), A (no bracket) and a central C, all in sector (0, 0)
_GAP_L, _GAP_A, _GAP_C = (BasisKind(name, (0, 0)) for name in "LAC")
CENTRAL_GAP = AlgebraPresentation(
    "central-gap", (_GAP_L, _GAP_A, _GAP_C),
    (BracketRule(_GAP_L, _GAP_L, (BracketTerm(_GAP_L, affine(cm=1, cn=-1)),)),),
    central=("C",))


def test_a_central_source_into_a_non_central_kind_gives_a_derivation():
    # D(C_0) = A_0, zero elsewhere: D[x, y] = [Dx, y] + [x, Dy] on N = 4
    c0, a0 = BasisElement(_GAP_C, 0), BasisElement(_GAP_A, 0)

    def d(x):
        return Element({a0: c for b, c in x.items() if b == c0})

    basis = [Element.basis(b) for b in CENTRAL_GAP.basis_elements(4)]
    for x in basis:
        for y in basis:
            assert d(bracket(CENTRAL_GAP, x, y)) == (
                bracket(CENTRAL_GAP, d(x), y) + bracket(CENTRAL_GAP, x, d(y)))
    assert d(basis[-1]) == Element.basis(a0)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a central source keeps only central targets (ROADMAP item 6)")
def test_a_central_source_may_map_into_a_non_central_kind():
    # the derivation D(C_0) = A_0 above must lie in the kernel of (0,0,0)
    # at delta = 1, yet the layout gives C only the label C: its labels
    # are A, A>C, A>L, C, L, L>A and L>C, with no C>A column to hold D
    prob = problem(CENTRAL_GAP, Fraction(1), (0, 0, 0), 4)
    layout = unknown_layout(prob)
    assert ("C>A", 0) in layout.index
    vec = [0] * len(layout.columns)
    vec[layout.index["C>A", 0]] = 1
    kernel = linalg.nullspace(assemble(prob, layout))
    assert rank(from_dense(kernel.vectors + [vec])) == len(kernel)


def test_two_noncentral_kinds_in_one_sector_map_into_each_other():
    twin = AlgebraPresentation(
        "twin", (BasisKind("A", (0, 0)), BasisKind("B", (0, 0))))
    assert _families(twin, (0, 0, 1)) == {
        "A": ("A", "A"), "A>B": ("A", "B"), "B>A": ("B", "A"), "B": ("B", "B")}
    layout = unknown_layout(problem(twin, HALF, (0, 0, 1), 2))
    assert layout.columns == [(label, m) for label in ("A", "A>B", "B>A", "B")
                              for m in range(-2, 3)]
    # D(A_0) = u[A, 0] A_1 + u[A>B, 0] B_1
    assert layout.images[0, 0] == [(2, (0, 1)), (7, (1, 1))]
    # with a zero bracket every map of the degree is a derivation
    report = solve_degree(problem(twin, HALF, (0, 0, 0), 4))
    assert (report.full_dim, report.interior_dim) == (4 * 9, 4 * 5)
    assert report.classification == "nontrivial"
    assert all(set(v) == {"A", "A>B", "B>A", "B"} for v in report.basis_summary)


def test_layout_enumerates_kinds_in_declared_order():
    layout = unknown_layout(problem(PGCA, HALF, (0, 0, 1), 3))
    assert len(layout.columns) == 4 * 7
    assert layout.columns[:3] == [("L", -3), ("L", -2), ("L", -1)]
    assert layout.columns[7] == ("H", -3)
    assert layout.index[("J", 3)] == 27
    assert ("J", 4) not in layout.index


def test_layout_skips_central_kinds_that_cannot_shift():
    # C_0 has no image slot at index 1, so it carries no unknown; C_0 is
    # the image slot of L_{-1} only
    layout = unknown_layout(problem(VIRASORO, HALF, (0, 0, 1), 3))
    assert layout.columns == [("L", m) for m in range(-3, 4)] + [("L>C", -1)]
    # at shift 0 each unknown into C_0 is exactly one column
    layout = unknown_layout(problem(VIRASORO, HALF, (0, 0, 0), 3))
    assert layout.columns == [("L", m) for m in range(-3, 4)] + [("L>C", 0), ("C", 0)]


def test_unpartnered_sectors_yield_empty_layouts():
    layout = unknown_layout(problem(WITT, HALF, (0, 1, 0), 4))
    assert layout.columns == [] and layout.images == {}


@pytest.mark.parametrize("key", catalog.keys())
def test_the_layout_holds_the_image_map_assembly_and_the_certificate_read(
        key, monkeypatch):
    # D(X_m) = sum of u[X>T, m] * T_{m+gamma}, written out from the columns
    # and families, keyed by (kind position, index); virasoro's C_0 maps to
    # itself at gamma = 0 and has no column elsewhere, and L_{-gamma} maps
    # to L_0 and C_0 in sector (0, 0)
    p = catalog.get(key)
    position = {k.name: i for i, k in enumerate(p.kinds)}
    seen = []
    reference = solver._identity_rows
    monkeypatch.setattr(solver, "_identity_rows",
                        lambda *args: seen.append(args[2:4]) or reference(*args))
    for degree in product((0, 1), (0, 1), (-1, 0, 1)):
        prob = problem(p, HALF, degree, 4)
        layout = unknown_layout(prob)
        images = {}
        for col, (label, m) in enumerate(layout.columns):
            x, t = layout.families[label]
            images.setdefault((position[x.name], m), []).append(
                (col, (position[t.name], m + degree[2])))
        assert layout.images == images, degree
        if key == "virasoro":
            assert ((position["C"], 0) in layout.images) == (degree == (0, 0, 0))
            assert len(layout.images.get((position["L"], -degree[2]), ())) == \
                2 * (degree[:2] == (0, 0))
        # assembly and the certificate's sample, made on its first
        # affine candidate, read that same map
        seen.clear()
        assemble(prob, layout)
        certify = kernel_certificate(prob, layout)
        if certify is not None:
            assert certify([(0, [0] * len(layout.columns))])
        assert [(images is layout.images, window) for images, window in seen] \
            == [(True, 4)] + [(True, 1)] * (certify is not None), degree


@pytest.mark.parametrize("key", catalog.keys())
def test_an_inside_layout_has_a_column_per_pair_with_both_ends_in_the_window(key):
    # the product path's columns of z.-, z.w = sum over t of q[{z, w}, t] t:
    # one per in-window w and in-window t of degree deg w + the degree, a
    # central w included; virasoro's C_0 maps to L_gamma under C>L, where
    # the scan's layout keeps it central
    p = catalog.get(key)
    elements = p.basis_elements(3)
    for degree in product((0, 1), (0, 1), range(-7, 8)):
        prob = problem(p, HALF, degree, 3, 0)
        layout = unknown_layout(prob, inside=True)
        pairs = [(BasisElement(x, m), BasisElement(t, m + degree[2]))
                 for label, m in layout.columns for x, t in [layout.families[label]]]
        assert sorted(pairs) == sorted(
            (w, t) for w in elements for t in elements if t.index == w.index + degree[2]
            and t.kind.z2 == ((w.kind.z2[0] + degree[0]) % 2, (w.kind.z2[1] + degree[1]) % 2))
        if key == "virasoro":
            assert (("C>L", 0) in layout.index) == (degree[:2] == (0, 0) and abs(degree[2]) <= 3)
            assert "C>L" not in unknown_layout(prob).families


@pytest.mark.parametrize("key", catalog.keys())
def test_the_layout_asks_only_central_kinds_which_indices_exist(key, monkeypatch):
    # a kind that is not central owns every index and a central one only
    # 0, so no kind is asked at any index, and the columns are those that
    # asking every kind at every index gives, in the same order
    p = catalog.get(key)
    asked, exists = [], AlgebraPresentation.element_exists
    monkeypatch.setattr(AlgebraPresentation, "element_exists",
                        lambda self, kind, m: asked.append(kind) or exists(self, kind, m))
    for degree, inside in product(product((0, 1), (0, 1), range(-4, 5)), (False, True)):
        prob = problem(p, HALF, degree, 3, 0)
        layout = unknown_layout(prob, inside)
        gamma = degree[2]
        assert layout.columns == [
            (label, m) for label, (x, t) in layout.families.items() for m in range(-3, 4)
            if exists(p, x, m) and exists(p, t, m + gamma) and (not inside or abs(m + gamma) <= 3)]
    assert asked == []


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
            for c, v in ((layout.index[("L", m + n)], coeff),
                         (layout.index[("L", m)], -coeff / 2),
                         (layout.index[("L", n)], -coeff / 2)):
                acc[c] = acc.get(c, Fraction(0)) + v
            acc = {c: v for c, v in acc.items() if v}
            if acc:
                lead = acc[min(acc)]
                expected.add(tuple(sorted((c, v / lead) for c, v in acc.items())))
    assert _normalized_row_set(matrix) == expected


@pytest.mark.parametrize("key", catalog.keys())
def test_identity_map_is_a_half_derivation_everywhere(key):
    # [x, y] = (1/2)([x, y] + [x, y]) holds identically, so the identity,
    # 1 on each kind's own columns and 0 on its X>T columns, must lie in
    # every (0,0,0) kernel at delta = 1/2
    p = catalog.get(key)
    prob = problem(p, HALF, (0, 0, 0), 6)
    layout = unknown_layout(prob)
    matrix = assemble(prob, layout)
    identity = [Fraction(x == t)
                for x, t in (layout.families[k] for k, _ in layout.columns)]
    assert any(identity) and not any(mul_vec(matrix, identity))


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
    assert report.basis_summary == [{"L": "1", "C": "1", "L>C": "0"}]


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
    assert classify_interior(keys, ["L", "H"], []) == "zero"
    assert classify_interior(keys, ["L", "H"], [(1, 1)]) == "scalar"
    # a row stands for itself over its pivot entry, here 3
    assert classify_interior(keys, ["L", "H"], [(3, 3)]) == "scalar"
    # a constant pattern that misses a kind is not a scalar map
    assert classify_interior(keys, ["L", "H", "I"], [(1, 1)]) == "nontrivial"
    assert classify_interior(keys, ["L", "H"], [(1, 2)]) == "nontrivial"
    assert classify_interior(keys, ["L", "H"], [(3, 2)]) == "nontrivial"
    assert classify_interior(keys, ["L", "H"], [(1, 1), (1, -1)]) == "nontrivial"
    # an X>T column must be 0, and is not one of the kinds' own columns
    cross = keys + [("L>H", 0)]
    assert classify_interior(cross, ["L", "H"], [(1, 1, 0)]) == "scalar"
    assert classify_interior(cross, ["L", "H"], [(2, 2, 0)]) == "scalar"
    assert classify_interior(cross, ["L", "H"], [(1, 1, 1)]) == "nontrivial"
    assert classify_interior([("L", 0), ("L>H", 0)], ["L", "H"], [(1, 0)]) == "nontrivial"


def test_describe_values_compacts_common_patterns():
    assert describe_values({}) == "0"
    assert describe_values({1: 5, 2: 5}) == "5"
    assert describe_values({0: 0, 1: 1, 2: 2}) == "m"
    assert describe_values({0: 2, 1: 3}) == "2 + m"
    assert describe_values({0: 1, 1: 4}) == "1 + 3*m"
    assert describe_values({0: 0, 1: 1, 2: 4}) == "0:0, 1:1, 2:4"
    # each value is the int over the row's pivot entry
    assert describe_values({0: 0, 1: 0}, 3) == "0"
    assert describe_values({1: -1, 2: -1}, 3) == "-1/3"
    assert describe_values({0: 0, 1: 1, 2: 2}, 2) == "1/2*m"
    assert describe_values({0: 1, 1: 4}, 3) == "1/3 + m"
    assert describe_values({0: -1, 1: 1, 2: 3}, 3) == "-1/3 + 2/3*m"
    assert describe_values({-1: 3, 1: -1}, 2) == "1/2 + -1*m"
    assert describe_values({0: 0, 1: 1, 2: 4}, 2) == "0:0, 1:1/2, 2:2"


_LABELS = ("L", "H", "I", "J", "L>H", "H>L", "I>J", "J>I", "L>C", "J>C")


def _values(draw, shape, ms, q):
    """One label's values at ms: zero, constant, affine in m, or free."""
    if shape == "zero":
        return [0] * len(ms)
    if shape == "free":
        return [draw(q) for _ in ms]
    a, b = draw(q), draw(q) if shape == "affine" else 0
    return [a + b * m for m in ms]


@st.composite
def interior_reports(draw):
    """A kernel of int vectors on a layout of several labels, X>T
    ones among them, each on a run of indices; kinds, some without a
    column or with none in the interior; and an interior."""
    window = draw(st.integers(1, 4))
    labels = draw(st.lists(st.sampled_from(_LABELS), min_size=1, max_size=6, unique=True))
    kinds = draw(st.lists(st.sampled_from(_LABELS[:4]), min_size=1, max_size=4, unique=True))
    runs = {}
    for label in labels:
        lo = draw(st.integers(-window, window))
        runs[label] = range(lo, draw(st.integers(lo, window)) + 1)
    keys = [(label, m) for label in labels for m in runs[label]]
    q = st.integers(-12, 12)
    vectors = []
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            # a scalar map on the kinds' own columns, scaled
            s = draw(q.filter(bool))
            vectors.append([s if k in kinds else 0 for k, _ in keys])
            continue
        shapes = {label: draw(st.sampled_from(["zero", "constant", "affine", "free"]))
                  for label in labels}
        vector = []
        for label in labels:
            vector += _values(draw, shapes[label], runs[label], q)
        vectors.append(vector)
    return (linalg.VectorBasis(len(keys), vectors), keys, kinds,
            draw(st.integers(0, window)))


@given(interior_reports())
def test_the_int_report_equals_the_fraction_report(case):
    kernel, keys, kinds, interior = case
    degree = GradingDegree(0, 1, -1)
    assert solver.report_from_kernel(kernel, keys, kinds, degree, interior) == \
        reference_loops.report_from_kernel(kernel, keys, kinds, degree, interior)


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
    # but sector shifts have no target kind and stay empty
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


def test_known_solutions_lie_in_the_scan_kernels():
    # every inner derivation ad Y is a derivation and the identity a
    # 1/2-derivation, so on each degree's layout columns, the L>C ones
    # carrying virasoro's central term, each lies in the kernel a Mirror
    # with no propagation window takes on the window 8, solved or
    # mirrored, at |gamma| <= 2: 39 ad Y that are not zero (pgca 20, witt
    # 5, virasoro 5, heisenberg-virasoro 9) and 5 identities
    witnesses = 0
    for key, delta in product(catalog.keys(), (Fraction(1), HALF)):
        p = catalog.get(key)
        mirror = solver.Mirror(kind_automorphisms(p), None)
        for degree in product((0, 1), (0, 1), range(-2, 3)):
            prob = problem(p, delta, degree, 8)
            layout = unknown_layout(prob)
            kernel = mirror.kernel(prob.degree, layout, lambda: assemble(prob, layout))
            pairs = [(layout.families[label], m) for label, m in layout.columns]
            if delta == 1:
                gamma = degree[2]
                found = [[dict(p.bracket_basis(BasisElement(y, gamma), BasisElement(x, m))
                               .items()).get(BasisElement(t, m + gamma), 0)
                          for (x, t), m in pairs]
                         for y in p.kinds if y.z2 == degree[:2] and p.element_exists(y, gamma)]
            else:
                found = [[int(x == t) for (x, t), _ in pairs]] * (degree == (0, 0, 0))
            for w in filter(any, found):
                witnesses += 1
                assert rank(from_dense(kernel.vectors + [w])) == len(kernel), (key, delta, degree)
    assert witnesses == 44


# ---------------------------------------------------------------------------
# kind automorphisms g(X_m) = s_X perm[X]_{flip*m}

_ID = {(a, b): (a, b) for a in (0, 1) for b in (0, 1)}
_SWAP = {(a, b): (b, a) for a in (0, 1) for b in (0, 1)}


def _theta(names, minus=()):
    """theta(X_m) = s_X X_{-m}, s_X = -1 for the kinds in minus."""
    return KindAutomorphism({x: x for x in names}, {x: -1 if x in minus else 1 for x in names},
                            -1, _ID)


# the group per catalog algebra, the identity left out: theta, whose sign
# is -1 on L (virasoro's cocycle is odd, so C changes sign with L), and for
# pgca sigma: I <-> J, H -> -H, which swaps the Z2 sectors (0, 1) and
# (1, 0), as [H, I] = J and [H, J] = -I need s_H s_I s_J = -1, and theta
# sigma
_PGCA_SWAP = {"L": "L", "H": "H", "I": "J", "J": "I"}
GROUPS = {
    "pgca": [_theta("LHIJ", "L"),
             KindAutomorphism(_PGCA_SWAP, {"L": 1, "H": -1, "I": 1, "J": 1}, 1, _SWAP),
             KindAutomorphism(_PGCA_SWAP, {"L": -1, "H": -1, "I": 1, "J": 1}, -1, _SWAP)],
    "witt": [_theta("L", "L")],
    "virasoro": [_theta("LC", "LC")],
    "heisenberg-virasoro": [_theta("LI", "L")],
    "abelian": [_theta("A")],
}


@pytest.mark.parametrize("key", catalog.keys())
def test_core_finds_the_hand_derived_reflection_signs(key):
    assert kind_automorphisms(catalog.get(key)) == GROUPS[key]


@pytest.mark.parametrize("key", catalog.keys())
def test_index_reflection_is_an_automorphism(key):
    # [g x, g y] = g [x, y] for every pair in the N = 4 window, for every
    # element scan mirrors by
    p = catalog.get(key)
    brackets = _brackets(p, 4)
    assert all(_preserves(p, brackets, g) for g in kind_automorphisms(p))


def _direct_solves_agree(p, delta, gamma_max, window):
    """Every report of scan equals solve_degree on the same problem with no
    mirror, compared as JSON; the count of direct solves scan made."""
    direct = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "nullspace",
                      lambda matrix: direct.append(1) or linalg.nullspace(matrix))
        result = scan(p, delta, gamma_max, window)
    for r in result.reports:
        prob = problem(p, delta, tuple(r.degree), window)
        assert r.to_json_dict() == solve_degree(prob).to_json_dict(), r.degree
    return len(direct)


@pytest.mark.parametrize("key", catalog.keys())
@pytest.mark.parametrize("delta", [HALF, Fraction(1)], ids=str)
def test_reports_at_minus_gamma_mirror_those_at_gamma(key, delta):
    # scan hands each degree g D g^-1 for the kernel of the first degree of
    # its orbit and eliminates nothing there, so a sign or offset slip in
    # the mirror shows as a mismatch with the degree solved directly: the
    # 4 gamma <= 0 degrees of each sector, and for pgca none of sector
    # (1, 0), which sigma and theta sigma take from (0, 1)
    direct = 12 if key == "pgca" else 16
    assert _direct_solves_agree(catalog.get(key), delta, 3, 8) == direct


def _ints_only(kernel):
    return all(type(x) is int for vec in kernel.vectors for x in vec)


@pytest.mark.parametrize("delta", [HALF, Fraction(1)], ids=str)
def test_scan_hands_the_report_int_kernels(delta, monkeypatch):
    # linalg's kernel vectors are ints from elimination to the report, in
    # the degrees scan eliminates and in those Mirror takes as g's image;
    # pgca's derivations and witt's shift maps give nonzero ones of each
    eliminated, reported, report = [], [], solver.report_from_kernel
    monkeypatch.setattr(solver, "nullspace",
                        lambda m: eliminated.append(linalg.nullspace(m)) or eliminated[-1])
    monkeypatch.setattr(solver, "report_from_kernel",
                        lambda kernel, *args: reported.append(kernel) or report(kernel, *args))
    for key in catalog.keys():
        scan(catalog.get(key), delta, 2, 6)
    assert all(map(_ints_only, reported))
    solved = {id(kernel) for kernel in eliminated}
    assert any(len(k) and id(k) in solved for k in reported)
    assert any(len(k) and id(k) not in solved for k in reported)


# Witt and its intermediate-series module, [L_m, I_n] = -(n + 1/2) I_{m+n}:
# a Lie algebra at every index, but -(n + 1/2) is neither even nor odd
_L, _I = BasisKind("L", (0, 0)), BasisKind("I", (0, 1))
WITT_MODULE = AlgebraPresentation("witt-module", (_L, _I), (
    BracketRule(_L, _L, (BracketTerm(_L, affine(cm=1, cn=-1)),)),
    BracketRule(_L, _I, (BracketTerm(_I, affine(c0=Fraction(-1, 2), cn=-1)),))))


@pytest.mark.parametrize("delta", [HALF, Fraction(1)], ids=str)
def test_a_presentation_without_reflection_solves_every_degree(delta):
    assert certify_presentation(WITT_MODULE)
    assert kind_automorphisms(WITT_MODULE) == []
    assert _direct_solves_agree(WITT_MODULE, delta, 2, 8) == 20


@pytest.mark.parametrize("flip", ["L", "H", "I", "J"])
def test_a_wrong_reflection_fails_loudly(flip, monkeypatch, capsys):
    # a sign that is not an automorphism's, on theta and then on sigma,
    # mirrors kernel vectors that fail their own rows, and the check raises
    # before any report is printed.  At delta = 1/2 every mirrored pgca
    # kernel is zero, so no row is checked and a wrong theta would pass
    # silently; the table certificate guards it there.  The true group's
    # images pass, so the raise is the wrong sign's, and a mirror that drops
    # every sign raises on the true group too
    command = ["solve", "--algebra", "pgca", "--delta", "1", "--gamma-max", "2",
               "--window", "6", "--format", "json"]
    assert cli.main(command) == 0 and capsys.readouterr().out
    group = kind_automorphisms(PGCA)
    for wrong in range(2):
        g = group[wrong]
        bad = KindAutomorphism(g.perm, dict(g.signs, **{flip: -g.signs[flip]}), g.flip,
                               g.sectors)
        monkeypatch.setattr(solver, "kind_automorphisms",
                            lambda p: group[:wrong] + [bad] + group[wrong + 1:])
        with pytest.raises(linalg.LinalgError,
                           match="^internal error: kernel vector fails verification$"):
            cli.main(command)
        assert capsys.readouterr().out == "", wrong


# witt plus a kind A in L's sector that brackets to zero with everything
_A0 = BasisKind("A", (0, 0))
WITT_BESIDE_ABELIAN = AlgebraPresentation("witt-beside-abelian", (_L, _A0), (
    BracketRule(_L, _L, (BracketTerm(_L, affine(cm=1, cn=-1)),)),))


def test_a_wrong_automorphism_fails_loudly_on_the_product_path(monkeypatch):
    # classify_products takes a mirrored degree's kernel as g's image of
    # its partner's and checks it against the degree's own rows.  A wrong
    # sign does not show there on these fixtures: every nonzero kernel
    # vector of a mirrored degree is one coefficient A_m -> A_{m+gamma},
    # which a flipped s_L leaves alone and a flipped s_A multiplies by
    # s_A s_A = 1 (tests/test_poisson.py checks the signs of the image
    # itself).  g exchanging L and A is no automorphism, and sends
    # A_m -> A_{m+gamma} to L_-m -> L_{-m-gamma}, which fails the rows
    (theta,) = kind_automorphisms(WITT_BESIDE_ABELIAN)
    bad = theta._replace(perm={"L": "A", "A": "L"})
    monkeypatch.setattr(poisson, "kind_automorphisms", lambda p: [bad])
    with pytest.raises(linalg.LinalgError,
                       match="^internal error: kernel vector fails verification$"):
        poisson.classify_products(WITT_BESIDE_ABELIAN, VERDICT_NOT_SCALAR_ONLY, 1)


def test_a_presentation_without_automorphisms_eliminates_every_membership_shift(
        monkeypatch):
    # with no automorphism every degree is the first of its orbit: all 18
    # with columns at N = 2 are eliminated, and the commutative products
    # glued from their kernels are the whole window's
    assert kind_automorphisms(WITT_MODULE) == []
    eliminated = []
    monkeypatch.setattr(solver, "nullspace",
                        lambda matrix: eliminated.append(1) or linalg.nullspace(matrix))
    result = poisson.classify_products(WITT_MODULE, VERDICT_NOT_SCALAR_ONLY, 2)
    solved = [d for d in product((0, 1), (0, 1), range(-4, 5))
              if unknown_layout(problem(WITT_MODULE, HALF, d, 2, 0), inside=True).columns]
    assert len(eliminated) == len(solved) == 18
    whole = reference_loops.membership_system(WITT_MODULE, HALF, 2)
    assert result.solution_dim == len(linalg.nullspace(whole))


# ---------------------------------------------------------------------------
# layer boundaries


# the solved degree whose kernel each mirrored degree takes
_MIRRORED_FROM = {(0, 1, 1): (0, 1, -1), (0, 0, 1): (0, 0, -1), (1, 0, 0): (0, 1, 0)}


@pytest.mark.parametrize("delta,degree,projected", [
    (HALF, (0, 1, 0), False),         # certified: the kernel is zero
    (Fraction(1), (0, 0, 0), True),   # a degree with a kernel
    # after the solved degree of its orbit: g's image of its kernel
    (HALF, (0, 1, 1), False),         # a zero kernel mirrored by theta
    (Fraction(1), (0, 0, 1), True),   # a nonzero kernel mirrored by theta
    (Fraction(1), (1, 0, 0), True),   # a nonzero kernel mirrored by sigma
])
def test_solve_degree_crosses_each_layer_once(delta, degree, projected,
                                              monkeypatch):
    # assemble -> nullspace -> rref are looked up as module globals, one
    # call each per degree; per-layer tracing wraps exactly these names.
    # Each call is logged with its nesting depth among the wrapped names.
    # A mirrored degree assembles its rows to check g's image against
    # them, and eliminates nothing
    mirror = solver.Mirror(kind_automorphisms(PGCA), propagation_window(PGCA))
    mirrored = degree in _MIRRORED_FROM
    if mirrored:
        solve_degree(problem(PGCA, delta, _MIRRORED_FROM[degree], 6), mirror)
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
    report = solve_degree(problem(PGCA, delta, degree, 6), mirror)
    want = [("assemble", 0)]
    if not mirrored:
        want += [("nullspace", 0), ("rref", 1)]
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
    # past it are never made; the degree with a kernel stops where the
    # kernel certificate passes the identity, after 54 of its 668 rows.
    # Boundary-first rows reach full rank sooner: 640 rows are read, where
    # the declared order read 749
    read = total = 0
    for degree in [(e1, e2, g) for e1 in (0, 1) for e2 in (0, 1) for g in (-1, 0, 1)]:
        matrix = assemble(problem(catalog.get("pgca"), HALF, degree, 6))
        kernel = linalg.nullspace(matrix)
        made = len(matrix._rows)
        assert len(kernel) == (degree == (0, 0, 0)) and made < matrix.rows, degree
        read += made
        total += matrix.rows
    assert (read, total) == (640, 10292)


def test_nonzero_kernel_degrees_stop_making_rows(monkeypatch):
    # pgca's derivations at N = 6, |gamma| <= 1: every degree has a kernel,
    # affine in m per kind, so each solved degree stops reading where the
    # kernel certificate passes it and each mirrored one (gamma = 1, and
    # sector (1, 0), which sigma and theta sigma take from (0, 1)) is
    # certified without a row.  Each degree is solved on the propagation
    # window 2, not on 6 (509 of 10,240 rows read there), and elimination
    # switches to checking once a run of idle rows reaches the candidate
    # kernel's width, offering each candidate it builds to the
    # certificate: 184 of the 1,468 rows are read, 54 of them at (0, 0, 0)
    made = []
    monkeypatch.setattr(solver, "assemble",
                        lambda *args: made.append(assemble(*args)) or made[-1])
    result = scan(PGCA, Fraction(1), 1, 6)
    read = [len(matrix._rows) for matrix in made]
    for report, matrix, rows in zip(result.reports, made, read, strict=True):
        d = report.degree
        assert report.full_dim > 0
        assert rows == 0 if d.index == 1 or (d.eps1, d.eps2) == (1, 0) else 0 < rows < matrix.rows
    # every degree's four labels own the 5 indices of the window 2
    assert {matrix.cols for matrix in made} == {4 * 5}
    assert (sum(read), sum(matrix.rows for matrix in made)) == (184, 1468)
    assert read[1] == 54


def test_each_kernel_is_certified_once(monkeypatch):
    # pgca's derivations at N = 6, |gamma| <= 1, each degree solved on the
    # propagation window 2: elimination tries the certificate 18 times over
    # the 6 solved degrees, and nullspace takes the kernel it passed without
    # trying it again, nor does the extension to the window 6, which tests
    # the kernel's shape alone; each of the 6 mirrored degrees (gamma = 1,
    # and sector (1, 0)) tries g's image once, in verify_kernel.  The first
    # candidate is built once a run of idle rows is as long as it is wide,
    # and then one after each pivot that a checked row outside it gives, so
    # (0, 0, 0) tries candidates of widths 8, 7, 6, 5, 4, 3 and 2, and
    # (1, 1, 0) of widths 4, 3, 2 and 1; a candidate that is not affine
    # fails on the affine check, before any sample row is made
    calls, where = [], ["elimination"]
    certificate, verify = solver.kernel_certificate, solver.verify_kernel

    def counting(prob, layout):
        certify = certificate(prob, layout)

        def counted(kernel):
            passed = certify(kernel)
            calls.append((where[0], prob.degree, passed, len(kernel)))
            return passed
        return counted

    def mirrored(matrix, basis):
        where[0] = "mirrored"
        try:
            return verify(matrix, basis)
        finally:
            where[0] = "elimination"

    monkeypatch.setattr(solver, "kernel_certificate", counting)
    monkeypatch.setattr(solver, "verify_kernel", mirrored)
    scan(PGCA, Fraction(1), 1, 6)
    assert [w for w, _, _, _ in calls].count("elimination") == 18
    assert [width for w, d, _, width in calls
            if w == "elimination" and tuple(d) == (0, 0, 0)] == [8, 7, 6, 5, 4, 3, 2]
    assert [width for w, d, _, width in calls
            if w == "elimination" and tuple(d) == (1, 1, 0)] == [4, 3, 2, 1]
    assert [(tuple(d), passed) for w, d, passed, _ in calls if w == "mirrored"] == [
        ((0, 0, 1), True), ((0, 1, 1), True), ((1, 0, -1), True), ((1, 0, 0), True),
        ((1, 0, 1), True), ((1, 1, 1), True)]
    passes = [d for _, d, passed, _ in calls if passed]
    assert len(passes) == len(set(passes)) == 12


def test_identity_rows_checks_each_map_once_before_any_row():
    # a column outside the matrix fails when the map is handed over, not
    # when elimination reaches a row holding it; no bracket is evaluated,
    # nor for a map with no key in the window, which gives no rows
    p = catalog.get("witt")
    good = {(0, m): [(m + 2, (0, m))] for m in range(-2, 3)}
    bad = dict(good)
    bad[(0, 2)] = [(5, (0, 2))]
    with pytest.raises(SolverError, match="^image column 5 outside 5 columns$"):
        solver.identity_rows(p, HALF, bad, 2, 5)
    assert not p._indexed
    assert not solver.identity_rows(p, HALF, {(0, 3): [(0, (0, 3))]}, 2, 5).rows
    matrix = solver.identity_rows(p, HALF, good, 2, 5)
    assert not p._indexed
    assert matrix.rows and p._indexed


@pytest.mark.parametrize("key", catalog.keys() + ("lopsided", "witt-module", "not-skew"))
@pytest.mark.parametrize("delta", (HALF, Fraction(1), Fraction(-3, 5)), ids=str)
def test_boundary_first_assembly_moves_rows_but_keeps_them(key, delta):
    # assembly visits source elements by decreasing |index|, but evaluates
    # each pair in declared orientation, so its rows, read to the end, are
    # the declared order's, each as often; on a table that is not skew
    # the pair in the other orientation would give other rows
    p = _presentation(key)
    moved = 0
    for degree in product((0, 1), (0, 1), (-1, 0, 1)):
        prob = problem(p, delta, degree, 4)
        declared = reference_loops.identity_rows(p, delta, unknown_layout(prob).images, 4)
        rows = sparse_rows(assemble(prob))
        assert Counter(map(_frozen, rows)) == Counter(map(_frozen, declared)), degree
        moved += rows != declared
    assert moved > 0 or key == "abelian"


def _frozen(row):
    return frozenset(row.items())


# ---------------------------------------------------------------------------
# kernel certificate: affine kernel vectors checked on the rows of the window N = 1

WITT_PLUS_ABELIAN = reference_loops.WITT_PLUS_ABELIAN


# one kind with [A_m, A_n] = (1 + m - n) A_{m+n}: no central kind, but a
# same-kind table that is not skew, so the certificate's sample of rows on
# the window N = 1 does not decide the rows at m < n
_S = BasisKind("A", (0, 0))
NOT_SKEW = AlgebraPresentation("not-skew", (_S,), (
    BracketRule(_S, _S, (BracketTerm(_S, affine(c0=1, cm=1, cn=-1)),)),))


_TEST_PRESENTATIONS = {"witt-module": WITT_MODULE, "witt+abelian": WITT_PLUS_ABELIAN,
                       "not-skew": NOT_SKEW}


def _presentation(key):
    if key == "lopsided":
        return reference_loops._lopsided()
    return _TEST_PRESENTATIONS.get(key) or catalog.get(key)


def _unread(prob):
    """prob's matrix without its kernel certificate, read as before it."""
    matrix = assemble(prob)
    matrix._certify = None
    return matrix


def _rows_hold(matrix, vec):
    return not any(mul_vec(matrix, vec))


@pytest.mark.parametrize("key", catalog.keys() + ("lopsided", "witt-module", "not-skew"))
@pytest.mark.parametrize("delta", (HALF, Fraction(1), Fraction(2, 3)), ids=str)
def test_certified_kernels_equal_those_of_full_reading(key, delta):
    # at these sizes every nonzero kernel of a presentation without a
    # central kind is certified before its rows run out, except abelian's,
    # which has no rows and kernel vectors that are not affine, and
    # not-skew's, which gets no certificate
    p = _presentation(key)
    nonzero = certified = 0
    for window, degree in product((4, 6), product((0, 1), (0, 1), (-1, 0, 1))):
        prob = problem(p, delta, degree, window)
        matrix, unread = assemble(prob), _unread(prob)
        assert (matrix._certify is None) == (bool(p.central) or key == "not-skew")
        kernel = linalg.nullspace(matrix)
        assert kernel == linalg.nullspace(unread), (window, degree)
        assert linalg.rref(assemble(prob)) == linalg.rref(_unread(prob)), (window, degree)
        nonzero += len(kernel) > 0
        certified += len(kernel) > 0 and len(matrix._rows) < unread.rows
    assert certified == (0 if p.central or key in ("abelian", "not-skew") else nonzero)


def test_a_changed_candidate_fails_the_certificate():
    prob = problem(PGCA, Fraction(1), (0, 0, 0), 6)
    layout = unknown_layout(prob)
    certify = kernel_certificate(prob, layout)
    unread = _unread(prob)
    kernel = linalg.nullspace(unread)
    assert len(kernel) == 2 and certify(list(enumerate(kernel.vectors)))
    cols = len(layout.columns)
    for vec, c in product(kernel.vectors, range(cols)):
        changed = [v + (i == c) for i, v in enumerate(vec)]
        assert not certify([(0, changed)]), c
        with pytest.raises(linalg.LinalgError,
                           match="^internal error: kernel vector fails verification$"):
            linalg.verify_kernel(assemble(prob), linalg.VectorBasis(cols, [changed]))
    # fed only changed candidates, the certificate never passes, and
    # elimination reads every row and finds the kernel all the same
    matrix = assemble(prob)
    matrix._certify = lambda kernel: certify([(f, [w[0] + 1] + w[1:]) for f, w in kernel])
    assert linalg.nullspace(matrix) == kernel
    assert len(matrix._rows) == unread.rows


@pytest.mark.parametrize("key", ("pgca", "witt", "heisenberg-virasoro", "witt-module"))
@pytest.mark.parametrize("delta", (HALF, Fraction(1), Fraction(2, 3)), ids=str)
def test_an_affine_candidate_passes_exactly_when_every_row_holds(key, delta):
    # each kernel vector, and zero, with the constant 1 or m added on one
    # kind's columns: still affine, so the certificate decides, and it
    # must agree with the rows
    p = _presentation(key)
    for degree in ((0, 0, 0), (0, 0, 1), (0, 1, -1)):
        prob = problem(p, delta, degree, 6)
        layout = unknown_layout(prob)
        certify = kernel_certificate(prob, layout)
        unread = _unread(prob)
        kernel = linalg.nullspace(unread).vectors
        outcomes = set()
        for vec, kind, slope in product(kernel + [[0] * len(layout.columns)],
                                        [k.name for k in p.kinds], (0, 1)):
            changed = [v + (slope * m if slope else 1) * (k == kind)
                       for v, (k, m) in zip(vec, layout.columns)]
            passed = certify([(0, changed)])
            assert passed == _rows_hold(unread, changed), (degree, kind, slope)
            outcomes.add(passed)
        assert False in outcomes or not layout.columns, degree


def test_a_kernel_that_is_not_affine_reads_every_row():
    prob = problem(WITT_PLUS_ABELIAN, HALF, (0, 0, 0), 4)
    matrix = assemble(prob)
    kernel = linalg.nullspace(matrix)
    # the identity on L, and each u[A, m] alone
    assert len(kernel) == 1 + 9
    assert len(matrix._rows) == matrix.rows > 0
    assert kernel == linalg.nullspace(_unread(prob))
    assert not matrix._certify(list(enumerate(kernel.vectors)))


def test_an_inside_layout_is_certified_only_where_each_label_owns_the_window():
    # the product path's witt degrees at N = 6: an inside layout's label
    # owns all 13 columns only at gamma = 0, as affine_certificate assumes,
    # and there it is the scan's layout; its kernel, the identity, is
    # passed by the certificate after 13 of the 60 rows
    for gamma in range(-12, 13):
        prob = problem(WITT, HALF, (0, 0, gamma), 6, 0)
        layout = unknown_layout(prob, inside=True)
        assert (kernel_certificate(prob, layout) is None) == (gamma != 0), gamma
    prob = problem(WITT, HALF, (0, 0, 0), 6, 0)
    layout = unknown_layout(prob, inside=True)
    assert layout.columns == unknown_layout(prob).columns
    matrix = assemble(prob, layout)
    assert linalg.nullspace(matrix).vectors == [[1] * 13]
    assert (len(matrix._rows), matrix.rows) == (13, 60)


@pytest.mark.parametrize("key", ["virasoro", "lopsided"])
def test_a_presentation_with_a_central_kind_reads_every_row(key):
    prob = problem(_presentation(key), Fraction(1), (0, 0, 0), 6)
    assert kernel_certificate(prob, unknown_layout(prob)) is None
    matrix = assemble(prob)
    assert len(linalg.nullspace(matrix)) > 0
    assert len(matrix._rows) == matrix.rows


def test_a_same_kind_table_that_is_not_skew_reads_every_row():
    prob = problem(NOT_SKEW, HALF, (0, 0, 0), 4)
    layout = unknown_layout(prob)
    # u[A, m] = m - 1 holds on every row of the window N = 1, and not on
    # every row of the window N = 4
    line = [m - 1 for _, m in layout.columns]
    sample = solver.identity_rows(NOT_SKEW, HALF, layout.images, 1, len(layout.columns))
    assert sample.rows and _rows_hold(sample, line)
    assert not _rows_hold(_unread(prob), line)
    assert kernel_certificate(prob, layout) is None
    matrix = assemble(prob)
    kernel = linalg.nullspace(matrix)
    assert len(kernel) > 0 and len(matrix._rows) == matrix.rows
    assert kernel == linalg.nullspace(_unread(prob))


def _is_affine(layout, vec):
    """Whether vec is affine in m on each kind's columns."""
    by_kind = {}
    for v, (k, _) in zip(vec, layout.columns):
        by_kind.setdefault(k, []).append(v)
    return all(len({b - a for a, b in zip(vs, vs[1:])}) <= 1 for vs in by_kind.values())


@st.composite
def _certificate_cases(draw):
    """A problem without central kinds and a vector on its columns: a
    combination of kernel vectors, plus maybe an affine vector per kind,
    plus maybe one changed entry."""
    key = draw(st.sampled_from(("pgca", "witt", "heisenberg-virasoro", "witt-module",
                                "witt+abelian")))
    delta = draw(st.sampled_from((HALF, Fraction(1), Fraction(2, 3), Fraction(0),
                                  Fraction(-3, 5))))
    degree = (draw(st.integers(0, 1)), draw(st.integers(0, 1)), draw(st.integers(-2, 2)))
    prob = problem(_presentation(key), delta, degree,
                   draw(st.integers(required_window(degree[2]), 6)))
    layout = unknown_layout(prob)
    kernel = linalg.nullspace(_unread(prob)).vectors
    small = st.integers(-2, 2)
    vec = [sum(k * v[i] for k, v in zip(draw(st.lists(small, min_size=len(kernel),
                                                      max_size=len(kernel))), kernel))
           for i in range(len(layout.columns))]
    if draw(st.booleans()):
        lines = {k.name: (draw(small), draw(small)) for k in prob.presentation.kinds}
        vec = [v + lines[k][0] + lines[k][1] * m for v, (k, m) in zip(vec, layout.columns)]
    if layout.columns and draw(st.booleans()):
        vec[draw(st.integers(0, len(vec) - 1))] += draw(st.sampled_from((-1, 1)))
    return prob, layout, vec


@given(_certificate_cases())
def test_the_certificate_passes_only_vectors_every_row_holds_for(case):
    # and it passes every affine one: for a vector affine per kind, each
    # family of rows is one polynomial of degree at most 2 in (m, n), so it
    # holds on the whole window once it holds at the 7 index pairs of the
    # window N = 1 (for A = B, where only m < n gives a row, at (-1, 0) and
    # (0, 1), these presentations' same-kind tables being skew)
    prob, layout, vec = case
    passed = kernel_certificate(prob, layout)([(0, vec)])
    assert passed == (_rows_hold(_unread(prob), vec) and _is_affine(layout, vec))


# ---------------------------------------------------------------------------
# integer-keyed assembly against the Element-based reference


DELTAS = (HALF, Fraction(1), Fraction(2, 3), Fraction(-3, 5))


@pytest.mark.parametrize("key", catalog.keys() + ("lopsided",))
@pytest.mark.parametrize("delta", DELTAS, ids=str)
def test_assemble_equals_the_element_reference(key, delta):
    # same rows, in the same order, with the same exact values; pgca's
    # declared kind order (L, H, I, J) is not its sorted one, so the row
    # order within a pair is exercised too.  The lopsided presentation adds
    # several outputs per pair and cross columns: Z and W map to themselves
    # at (0, 0, 0) and to each other at (0, 1, 0), A to A and Z and B to B
    # and W at (0, 0, 0), A to B and W and B to A and Z at (0, 1, 0);
    # virasoro's L maps to L and C in sector (0, 0)
    p = reference_loops._lopsided() if key == "lopsided" else catalog.get(key)
    for degree in ((0, 0, 0), (0, 0, 1), (1, 1, -1), (0, 1, 1), (1, 0, 0), (0, 1, 0)):
        prob = problem(p, delta, degree, 6)
        assert assemble(prob) == reference_loops.assemble(prob), degree


# ---------------------------------------------------------------------------
# virasoro's derivations ad L_gamma: L_{-gamma} maps across to C_0


@cache
def _virasoro_derivation_scan():
    return scan(VIRASORO, Fraction(1), 4, 12)


@pytest.mark.parametrize("gamma", [-4, -3, -2, 2, 3, 4])
def test_virasoro_derivation_scan_spans_ad_l_gamma(gamma):
    # ad L_gamma sends L_m to (gamma - m) L_{m+gamma}, plus
    # (gamma^3 - gamma)/12 C_0 at m = -gamma, through the bracket alone
    L, C = VIRASORO.kind("L"), VIRASORO.kind("C")

    def ad(x):
        return bracket(VIRASORO, BasisElement(L, gamma), x)

    def coeff(element, b):
        return dict(element.items()).get(b, Fraction(0))

    result = _virasoro_derivation_scan()
    basis = VIRASORO.basis_elements(result.window)
    for i, x in enumerate(basis):
        for y in basis[i + 1:]:
            if abs(x.index + y.index) <= result.window:
                assert ad(bracket(VIRASORO, x, y)) == \
                    bracket(VIRASORO, ad(x), y) + bracket(VIRASORO, x, ad(y)), (x, y)
    cross = coeff(ad(BasisElement(L, -gamma)), BasisElement(C, 0))
    assert cross == Fraction(gamma ** 3 - gamma, 12) != 0
    # the report's one vector is reduced, 1 at its first column L_{-interior}
    span = range(-result.interior, result.interior + 1)
    own = {m: coeff(ad(BasisElement(L, m)), BasisElement(L, m + gamma)) for m in span}
    scale = own[-result.interior]
    report, = [r for r in result.reports if r.degree == GradingDegree(0, 0, gamma)]
    assert (report.interior_dim, report.classification) == (1, "nontrivial")
    assert report.basis_summary == [{
        "L": reference_loops.describe_values({m: v / scale for m, v in own.items()}),
        "L>C": reference_loops.describe_values({-gamma: cross / scale}), "C": "0"}]


def test_an_x_t_label_is_summarised_only_with_an_interior_column():
    # ad L_4 on N = 10 with interior 3: its L>C column sits at m = -4
    report = solve_degree(problem(VIRASORO, Fraction(1), (0, 0, 4), 10, 3))
    assert report.interior_dim == 1 and report.full_dim == 1
    assert set(report.basis_summary[0]) == {"L", "C"}


# ---------------------------------------------------------------------------
# randomised: scan against a full reading of every degree

# two non-central kinds in one sector: witt A and a current B with
# [A_m, B_n] = -n B_{m+n}
_SA, _SB = BasisKind("A", (0, 0)), BasisKind("B", (0, 0))
SHARED_SECTOR = AlgebraPresentation("shared-sector", (_SA, _SB), (
    BracketRule(_SA, _SA, (BracketTerm(_SA, affine(cm=1, cn=-1)),)),
    BracketRule(_SA, _SB, (BracketTerm(_SB, affine(cn=-1)),))))

# [L_m, L_n] = (n - m) L_{m+n} and [L_m, A_n] = (1 + n) A_{m+n}: 1 + n has
# both parities, so there is no theta and every degree is solved directly
_FA = BasisKind("A", (0, 1))
NO_THETA = AlgebraPresentation("no-theta", (_L, _FA), (
    BracketRule(_L, _L, (BracketTerm(_L, affine(cm=-1, cn=1)),)),
    BracketRule(_L, _FA, (BracketTerm(_FA, affine(c0=1, cn=1)),))))

# heisenberg-virasoro with the cocycle m^2 Z_0 on [L_m, I_{-m}]: ad I_gamma
# sends L_m to gamma I_{m+gamma}, and L_{-gamma} to gamma I_0 - gamma^2 Z_0,
# one kernel vector on the columns L>I and L>Z, which theta maps with the
# signs s_L s_I = 1 and s_L s_Z = -1
_Z = BasisKind("Z", (0, 1))
HV_CENTRAL = AlgebraPresentation("hv-central", (_L, _I, _Z), (
    BracketRule(_L, _L, (BracketTerm(_L, affine(cm=1, cn=-1)),)),
    BracketRule(_L, _I, (BracketTerm(_I, affine(cn=-1)),),
                (CentralTerm(_Z, CubicPoly(c2=Fraction(1))),))), central=("Z",))

# witt L and [L_m, X_n] = -(n + 1) X_{m+n} for X = P in sector (0, 1) and
# Q in (1, 0): n + 1 has both parities, so there is no theta, but sigma
# swaps P and Q, so sector (1, 0) takes sigma's image of the kernels of
# (0, 1), which at delta = 1 hold ad P_gamma
_P, _Q = BasisKind("P", (0, 1)), BasisKind("Q", (1, 0))
SIGMA_ONLY = AlgebraPresentation("sigma-only", (_L, _P, _Q), (
    BracketRule(_L, _L, (BracketTerm(_L, affine(cm=1, cn=-1)),)),
    BracketRule(_L, _P, (BracketTerm(_P, affine(c0=-1, cn=-1)),)),
    BracketRule(_L, _Q, (BracketTerm(_Q, affine(c0=-1, cn=-1)),))))


# witt with [L_m, L_n] = (n - m) L_{m+n} and the intermediate series
# [L_m, A_n] = (m + n - 3) A_{m+n}: [L_m, A_{3-m}] = 0 for every m, so A_3 is
# no bracket, and at delta = 0 the map sending A_3 to A_{3+gamma} (or to
# L_{3+gamma}) and every other element to 0 lies in the kernel of each
# window N >= 3.  The propagator L's coefficient on A_n at L_1 and at L_-1,
# n - 2 and n - 4, has the integer roots 2 and 4, so W = 5: no window
# smaller than 3 sees that map, and the window 5's kernel holds it, which
# is not affine, so the degree is solved on N
_RA = BasisKind("A", (0, 1))
ROOT_FOUR = AlgebraPresentation("root-four", (_L, _RA), (
    BracketRule(_L, _L, (BracketTerm(_L, affine(cm=-1, cn=1)),)),
    BracketRule(_L, _RA, (BracketTerm(_RA, affine(c0=-3, cm=1, cn=1)),))))


@settings(max_examples=50)
@given(_presentations(), st.sampled_from((HALF, Fraction(1), Fraction(2, 3),
                                          Fraction(0), Fraction(-1))))
@example(SHARED_SECTOR, HALF)
@example(SHARED_SECTOR, Fraction(1))
@example(NO_THETA, Fraction(1))
@example(HV_CENTRAL, Fraction(1))
@example(SIGMA_ONLY, Fraction(1))
@example(ROOT_FOUR, Fraction(0))
def test_scan_equals_a_full_reading_of_every_degree(p, delta):
    # every fast path (the kernel certificate, the mirror of each orbit's
    # first degree by theta, sigma or any other automorphism found, the
    # early stop) against the rows of each degree, none skipped but by a
    # zero candidate kernel, on the certified draws
    assume(certify_presentation(p))
    result = scan(p, delta, 2, 6)
    kinds = [k.name for k in p.kinds]
    direct = []
    for report in result.reports:
        layout = unknown_layout(problem(p, delta, tuple(report.degree), 6))
        matrix = solver.identity_rows(p, delta, layout.images, 6, len(layout.columns))
        direct.append(solver.report_from_kernel(linalg.nullspace(matrix), layout.columns,
                                                kinds, report.degree, result.interior))
        assert report.to_json_dict() == direct[-1].to_json_dict(), report.degree
    assert result.verdict == scan_verdict(direct)


# ---------------------------------------------------------------------------
# the propagation window: each degree decided on W, its kernel extended to N

# witt and two kinds A, B with [L_m, A_n] = [L_m, B_n] = -n B_{m+n}: a Lie
# algebra, but [L_{+-1}, X_m] reaches B from both, and nothing reaches A
_NA, _NB = BasisKind("A", (0, 0)), BasisKind("B", (0, 0))
NOT_ONTO = AlgebraPresentation("not-onto", (_L, _NA, _NB), (
    BracketRule(_L, _L, (BracketTerm(_L, affine(cm=1, cn=-1)),)),
    BracketRule(_L, _NA, (BracketTerm(_NB, affine(cn=-1)),)),
    BracketRule(_L, _NB, (BracketTerm(_NB, affine(cn=-1)),))))

# witt and [L_m, A_n] = (1 - m) A_{m+n}, no Lie algebra: [L_1, A_n] = 0 at
# every n, so L_1 carries nothing outward on A
DEAD_AT_ONE = AlgebraPresentation("dead-at-one", (_L, _RA), (
    BracketRule(_L, _L, (BracketTerm(_L, affine(cm=1, cn=-1)),)),
    BracketRule(_L, _RA, (BracketTerm(_RA, affine(c0=1, cm=-1)),))))


@pytest.mark.parametrize("p,bound", [
    (PGCA, 2), (WITT, 2), (catalog.get("heisenberg-virasoro"), 2), (WITT_MODULE, 2),
    (SHARED_SECTOR, 2), (NO_THETA, 2), (SIGMA_ONLY, 2), (ROOT_FOUR, 5),
    (VIRASORO, None), (HV_CENTRAL, None), (catalog.get("abelian"), None),
    (WITT_PLUS_ABELIAN, None), (NOT_SKEW, None), (NOT_ONTO, None), (DEAD_AT_ONE, None)],
    ids=lambda v: getattr(v, "name", v))
def test_the_propagation_window_is_read_from_the_tables(p, bound):
    # L (shared-sector's A) propagates: [L_{+-1}, X_m] has one target kind,
    # each kind is one, and the coefficient vanishes only at m = +-1 for
    # X = L, where (L_1, L_1) is no row anyway, at m = 0 (pgca's H,
    # heisenberg-virasoro's I), at m = -1 (no-theta's and sigma-only's
    # 1 + m) or nowhere (witt-module's -(m + 1/2)).  virasoro and
    # hv-central have a central kind, abelian no bracket, witt+abelian a
    # kind that nothing reaches, not-skew a same-kind table that is not
    # skew, not-onto two kinds sent to one, and dead-at-one a coefficient
    # that vanishes at every m
    assert propagation_window(p) == bound


def _windows(monkeypatch):
    """The window of each problem assembled from now on, in order."""
    windows = []
    monkeypatch.setattr(solver, "assemble",
                        lambda prob, *args: windows.append(prob.window) or assemble(prob, *args))
    return windows


def _whole_kernel(p, delta, degree, window):
    """degree's kernel on window, every row read, and its layout's columns."""
    layout = unknown_layout(problem(p, delta, tuple(degree), window))
    matrix = solver.identity_rows(p, delta, layout.images, window, len(layout.columns))
    return linalg.nullspace(matrix), layout.columns


def test_a_root_beyond_two_widens_the_window_or_falls_back(monkeypatch):
    assert certify_presentation(ROOT_FOUR) and kind_automorphisms(ROOT_FOUR) == []
    windows = _windows(monkeypatch)
    # at delta = 1/2 each kernel is zero or certified, so each degree is
    # assembled once, on min(W, N)
    for window in (4, 5, 6):
        windows.clear()
        scan(ROOT_FOUR, HALF, 1, window)
        assert windows == [min(window, 5)] * 12, window
    # at delta = 0 the window 5 holds the map on A_3, so the certificate
    # fails it and sectors (0, 0) and (0, 1) are solved on N as well;
    # sectors (1, 0) and (1, 1) have no columns.  The window 6's interior 3
    # shows the map
    windows.clear()
    result = scan(ROOT_FOUR, Fraction(0), 1, 6)
    assert windows == [5, 6] * 6 + [5] * 6
    assert [(r.full_dim, r.interior_dim) for r in result.reports] == [(1, 1)] * 6 + [(0, 0)] * 6
    for report in result.reports:
        kernel, columns = _whole_kernel(ROOT_FOUR, Fraction(0), report.degree, 6)
        assert report == solver.report_from_kernel(kernel, columns, ["L", "A"], report.degree, 3)


@pytest.mark.parametrize("p", [PGCA, WITT, catalog.get("heisenberg-virasoro")],
                         ids=lambda p: p.name)
def test_an_affine_kernel_read_in_full_is_extended_without_solving_n(p, monkeypatch):
    # a certificate that passes nothing makes elimination read every row
    # of the window 2, and verify_kernel every row of a mirrored degree;
    # extension reads only the kernel's shape, so each nonzero kernel is
    # still extended, no degree is assembled on N = 8, and each report is
    # the full reading of N's rows
    windows = _windows(monkeypatch)
    made, offered, certificate = [], [], solver.kernel_certificate
    monkeypatch.setattr(solver, "kernel_certificate", lambda prob, layout: made.append(
        certificate(prob, layout)) or (lambda kernel: offered.append(len(kernel)) and False))
    result = scan(p, Fraction(1), 2, 8)
    assert windows == [2] * 20 and all(made) and offered
    extended = 0
    for r in result.reports:
        kernel, columns = _whole_kernel(p, Fraction(1), r.degree, 8)
        assert r == solver.report_from_kernel(kernel, columns, [k.name for k in p.kinds],
                                              r.degree, 4), r.degree
        extended += bool(kernel)
    assert extended


@settings(max_examples=25)
@given(_presentations())
@example(ROOT_FOUR)
def test_a_kernel_that_is_not_affine_is_solved_on_n(p):
    # at delta = 0, a degree decided on W < N whose kernel is not affine
    # per label (root-four's map on A_3) is assembled again on N, and only
    # such a degree; every report is the full reading of N's rows
    assume(certify_presentation(p))
    windows, tried = [], []
    extend = solver.extend_affine
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "assemble", lambda prob, *args:
                      windows.append(prob.window) or assemble(prob, *args))
        patch.setattr(solver, "extend_affine", lambda *args:
                      tried.append(extend(*args)) or tried[-1])
        result = scan(p, Fraction(0), 1, 6)
    bound = propagation_window(p)
    assert windows.count(6) == (12 if bound is None or bound >= 6
                                else sum(extended is None for extended in tried))
    if p is ROOT_FOUR:
        assert tried == [None] * 6
    for r in result.reports:
        kernel, columns = _whole_kernel(p, Fraction(0), r.degree, 6)
        assert r == solver.report_from_kernel(kernel, columns, [k.name for k in p.kinds],
                                              r.degree, 3), r.degree


@pytest.mark.parametrize("key", ["abelian", "virasoro", "not-skew"])
def test_a_presentation_without_a_bound_solves_each_degree_on_its_window(key, monkeypatch):
    windows = _windows(monkeypatch)
    scan(_presentation(key), HALF, 1, 6)
    assert windows == [6] * 12


def test_a_scan_reads_the_propagation_window_once(monkeypatch):
    # the scan's Mirror keeps it for all 36 degrees; solve_degree without
    # a mirror reads it on each call
    calls = []
    monkeypatch.setattr(solver, "propagation_window",
                        lambda p: calls.append(p) or propagation_window(p))
    scan(PGCA, Fraction(1), 4, 16)
    assert len(calls) == 1 and calls[0] is PGCA
    for degree in ((0, 0, 0), (0, 0, 1)):
        solve_degree(problem(PGCA, HALF, degree, 8))
    assert len(calls) == 3


@pytest.mark.parametrize("p", [PGCA, WITT, catalog.get("heisenberg-virasoro"), WITT_MODULE,
                               SHARED_SECTOR, SIGMA_ONLY], ids=lambda p: p.name)
@pytest.mark.parametrize("delta", [HALF, Fraction(1)], ids=str)
def test_an_extended_kernel_spans_the_kernel_of_the_whole_window(p, delta, monkeypatch):
    # the report gets each nonzero kernel on the columns of the window 8,
    # extended from the window 2 or mirrored there: it spans the kernel of
    # the window 8's rows read in full, not only its interior projection
    windows, seen, report = _windows(monkeypatch), [], solver.report_from_kernel
    monkeypatch.setattr(solver, "report_from_kernel",
                        lambda kernel, columns, *args:
                        seen.append((kernel, columns)) or report(kernel, columns, *args))
    result = scan(p, delta, 2, 8)
    assert windows == [2] * 20
    extended = 0
    for r, (kernel, columns) in zip(result.reports, seen, strict=True):
        whole, whole_columns = _whole_kernel(p, delta, r.degree, 8)
        assert len(kernel) == len(whole), r.degree
        if whole:
            assert columns == whole_columns
            assert rank(from_dense(kernel.vectors + whole.vectors)) == len(whole), r.degree
            extended += 1
    assert extended > 0


@pytest.mark.parametrize("delta", [Fraction(2), Fraction(-1), Fraction(1, 3), Fraction(-1, 2),
                                   Fraction(3, 4), Fraction(0)], ids=str)
def test_off_one_and_one_half_only_abelian_has_delta_derivations(delta):
    # the catalog at N = 10, |gamma| <= 3: every degree of pgca, witt,
    # virasoro and heisenberg-virasoro has a zero kernel, decided on the
    # window 2 but for virasoro, and abelian's 7 degrees of sector (0, 0)
    # each hold every map A_m -> c_m A_{m+gamma}, 2N + 1 = 21, 147 in all
    # (which delta admit nonzero delta-derivations: Filippov, on prime Lie
    # algebras)
    for key in catalog.keys():
        result = scan(catalog.get(key), delta, 3, 10)
        dims = {tuple(r.degree): r.full_dim for r in result.reports if r.full_dim}
        assert dims == ({(0, 0, g): 21 for g in range(-3, 4)} if key == "abelian" else {}), key
