"""Windowed product tables, axiom checks, and product classification.

The brute-force comparisons embedded here rebuild the relevant linear
systems from scratch on dense matrices, independent of the module under
test.
"""

import random
from itertools import product
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings

import reference_loops
from gradedlie import catalog, poisson, solver
from gradedlie.core import (AlgebraPresentation, BasisElement, BasisKind,
                            BracketRule, BracketTerm, Element, GradingDegree, affine,
                            certify_presentation)
from gradedlie.linalg import (SparseMatrix, VectorBasis, nullspace, project_basis, rref,
                              verify_kernel)
from gradedlie.poisson import (AxiomReport, ProductError, ProductTable,
                               TP_NONTRIVIAL_POSSIBLE, TP_TRIVIAL, _shift_dims,
                               check_axioms, classify_products)
from gradedlie.solver import (VERDICT_NOT_SCALAR_ONLY, VERDICT_SCALAR_ONLY,
                              HomogeneousSolveProblem, assemble, identity_rows,
                              kind_automorphisms, scan, unknown_layout)
from matrices import from_dense, sparse_rows
from test_core import _presentations

PGCA = catalog.get("pgca")
WITT = catalog.get("witt")
ABELIAN = catalog.get("abelian")
HALF = Fraction(1, 2)


def el(p, kind_name, index):
    return BasisElement(p.kind(kind_name), index)


# witt plus two kinds that bracket to zero, P in sector (0, 1) and Q in
# (1, 0): besides theta, sigma (P <-> Q) swaps the two sectors, so
# membership shifts with nonzero kernels and rows are mirrored across them
_L, _P, _Q = BasisKind("L", (0, 0)), BasisKind("P", (0, 1)), BasisKind("Q", (1, 0))
WITT_PLUS_PAIR = AlgebraPresentation("witt+pair", (_L, _P, _Q), (
    BracketRule(_L, _L, (BracketTerm(_L, affine(cm=1, cn=-1)),)),))

# witt+pair and R in sector (1, 1), brackets zero too: P, Q and R may be
# permuted at will, so the degrees of sectors (1, 0) and (1, 1), whose
# maps between the three kinds are free, take nonzero kernels from (0, 1)
_R = BasisKind("R", (1, 1))
WITT_PLUS_THREE = AlgebraPresentation("witt+three", (_L, _P, _Q, _R), (
    BracketRule(_L, _L, (BracketTerm(_L, affine(cm=1, cn=-1)),)),))

_TEST_PRESENTATIONS = {"lopsided": reference_loops._lopsided(),
                       "witt+abelian": reference_loops.WITT_PLUS_ABELIAN,
                       "witt+pair": WITT_PLUS_PAIR}


def two_point_abelian():
    return AlgebraPresentation(
        "ab2", (BasisKind("A", (0, 0)), BasisKind("B", (0, 0))),
        central=("A", "B"))


# ---------------------------------------------------------------------------
# product tables


def test_table_is_commutative_by_construction():
    t = ProductTable(WITT, 2)
    x, y = el(WITT, "L", 1), el(WITT, "L", -1)
    t.set(x, y, Element.basis(el(WITT, "L", 0)))
    assert t.get(y, x) == Element.basis(el(WITT, "L", 0))
    assert t.get(x, x) == Element.zero()


def test_table_rejects_out_of_window_pairs_and_targets():
    t = ProductTable(WITT, 2)
    with pytest.raises(ProductError):
        t.set(el(WITT, "L", 3), el(WITT, "L", 0), Element.zero())
    with pytest.raises(ProductError):
        t.set(el(WITT, "L", 1), el(WITT, "L", 0),
              Element.basis(el(WITT, "L", 3)))


def test_off_window_lookups_are_undefined_not_zero():
    t = ProductTable(WITT, 2)
    assert t.get(el(WITT, "L", 3), el(WITT, "L", 0)) is None
    assert t.multiply(Element.basis(el(WITT, "L", 3)),
                      Element.basis(el(WITT, "L", 0))) is None


def test_setting_zero_clears_an_entry():
    t = ProductTable(WITT, 1)
    x = el(WITT, "L", 0)
    t.set(x, x, Element.basis(x).scale(2))
    assert not t.is_zero
    t.set(x, x, Element.zero())
    assert t.is_zero


def test_multiply_is_bilinear():
    t = ProductTable(ABELIAN, 1)
    a0, a1 = el(ABELIAN, "A", 0), el(ABELIAN, "A", 1)
    t.set(a0, a0, Element.basis(a1))
    lhs = t.multiply(Element.basis(a0).scale(3), Element.basis(a0).scale(2))
    assert lhs == Element.basis(a1).scale(6)


# ---------------------------------------------------------------------------
# axiom checks


def test_zero_product_satisfies_all_axioms():
    report = check_axioms(ProductTable(PGCA, 2))
    assert report.passed
    assert report.triples_checked > 0
    assert "PASS" in report.describe()


def test_boundary_triples_are_skipped_and_counted():
    # on the one-family algebra with window 2 the pairs {L_1, L_2} and
    # {L_-2, L_-1} bracket out of the window; each skips one compatibility
    # check per choice of z, giving 10 skipped out of 150
    report = check_axioms(ProductTable(WITT, 2))
    assert report.passed
    assert (report.triples_checked, report.triples_skipped) == (150, 10)


def test_idempotent_basis_product_is_associative_and_compatible():
    t = ProductTable(ABELIAN, 1)
    a0 = el(ABELIAN, "A", 0)
    t.set(a0, a0, Element.basis(a0))
    assert check_axioms(t).passed


def test_associativity_violations_are_reported():
    # with A_0.A_0 = A_1 and A_0.A_1 = A_0, the triple (A_0, A_0, A_1)
    # fails: (A_0.A_0).A_1 = A_1.A_1 = 0 but A_0.(A_0.A_1) = A_0.A_0 = A_1
    t = ProductTable(ABELIAN, 1)
    a0, a1 = el(ABELIAN, "A", 0), el(ABELIAN, "A", 1)
    t.set(a0, a0, Element.basis(a1))
    t.set(a0, a1, Element.basis(a0))
    report = check_axioms(t)
    assert not report.passed
    assert "associativity" in report.violation
    assert "FAIL" in report.describe()


def test_compatibility_violations_are_reported():
    # L_0 . L_0 = L_0 breaks 2 z.[x, y] = [z.x, y] + [x, z.y] at
    # (x, y, z) = (L_1, L_0, L_0): the left side is zero but the right
    # side contains [L_1, L_0] = L_1
    t = ProductTable(WITT, 1)
    l0 = el(WITT, "L", 0)
    t.set(l0, l0, Element.basis(l0))
    report = check_axioms(t)
    assert not report.passed
    assert "compatibility" in report.violation


# ---------------------------------------------------------------------------
# classification, scalar path


def test_scalar_path_forces_the_zero_product():
    result = classify_products(PGCA, VERDICT_SCALAR_ONLY, 4)
    assert result.verdict == TP_TRIVIAL
    assert result.solution_dim == 0
    assert result.path == "scalar-functional"
    assert result.basis_count == len(PGCA.basis_elements(4))


def test_scalar_path_brute_force_comparison():
    # independent dense check: c(x) y = c(y) x for basis x != y reads as
    # the pair of rows c(x) = 0, c(y) = 0; any window with two or more
    # elements forces c = 0
    basis = WITT.basis_elements(3)
    n = len(basis)
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            row_x = [Fraction(0)] * n
            row_x[i] = Fraction(1)
            row_y = [Fraction(0)] * n
            row_y[j] = Fraction(1)
            rows.extend([row_x, row_y])
    brute = len(nullspace(from_dense(rows)))
    result = classify_products(WITT, VERDICT_SCALAR_ONLY, 3)
    assert result.solution_dim == brute == 0


def test_single_element_window_admits_any_scalar():
    # with one basis vector commutativity imposes nothing
    result = classify_products(WITT, VERDICT_SCALAR_ONLY, 0)
    assert result.verdict == TP_NONTRIVIAL_POSSIBLE
    assert result.solution_dim == 1


# ---------------------------------------------------------------------------
# classification, membership path


def test_zero_bracket_leaves_products_unconstrained():
    p = two_point_abelian()
    result = classify_products(p, VERDICT_NOT_SCALAR_ONLY, 4)
    assert result.path == "derivation-membership"
    assert result.verdict == TP_NONTRIVIAL_POSSIBLE
    # 3 unordered pairs on 2 elements, each free to hit 2 targets
    assert result.solution_dim == 6


def test_membership_solutions_exist_as_explicit_tables():
    p = two_point_abelian()
    t = ProductTable(p, 4)
    a = BasisElement(p.kind("A"), 0)
    b = BasisElement(p.kind("B"), 0)
    t.set(a, a, Element.basis(b))
    assert check_axioms(t).passed


def test_one_family_membership_is_windowed_trivial():
    # shift products L_a . L_b = L_{a+b+g} solve the compatibility law on
    # the whole algebra but never restrict to a finite window: near the
    # boundary the truncated table breaks some in-window constraint, so
    # the windowed system only contains zero
    result = classify_products(WITT, VERDICT_NOT_SCALAR_ONLY, 4)
    assert result.verdict == TP_TRIVIAL
    assert result.solution_dim == 0
    assert result.path == "derivation-membership"


@pytest.mark.parametrize("window", range(1, 9))
def test_pgca_membership_agrees_with_the_scalar_shortcut(window):
    # the general path checks the scalar path independently: every
    # 1/2-derivation of pgca is scalar, so it too admits only zero, on
    # every window up to the 8 that tp-classify runs at in test_acceptance
    result = classify_products(PGCA, VERDICT_NOT_SCALAR_ONLY, window)
    assert result.path == "derivation-membership"
    assert result.verdict == TP_TRIVIAL
    assert result.solution_dim == 0


def test_classify_rejects_an_unknown_verdict():
    # anything but the two verdict strings, a ScanResult included, would
    # otherwise fall through to the membership path unnoticed
    for verdict in ("scalar_only", None, scan(PGCA, HALF, 1, 8)):
        with pytest.raises(ProductError, match="unknown derivation verdict"):
            classify_products(PGCA, verdict, 1)


@pytest.mark.parametrize("verdict", [VERDICT_SCALAR_ONLY, VERDICT_NOT_SCALAR_ONLY])
def test_classify_rejects_a_negative_window(verdict):
    with pytest.raises(ProductError, match="non-negative"):
        classify_products(WITT, verdict, -1)


def test_classification_json_shape():
    data = classify_products(WITT, VERDICT_SCALAR_ONLY, 2).to_json_dict()
    assert set(data) == {"algebra", "window", "verdict", "solution_dim",
                         "path", "basis_count", "derivation_verdict"}


# ---------------------------------------------------------------------------
# integer-keyed membership rows against the Element-based reference


def _column_shifts(p, window):
    """The product shift of each column of the reference's whole-window
    membership system: column pi * width + t is q[{x, y}, basis[t]] for the
    pi-th pair x <= y in basis order, of shift deg t - deg x - deg y."""
    basis = p.basis_elements(window)
    return [((t.kind.z2[0] - x.kind.z2[0] - y.kind.z2[0]) % 2,
             (t.kind.z2[1] - x.kind.z2[1] - y.kind.z2[1]) % 2,
             t.index - x.index - y.index)
            for i, x in enumerate(basis) for y in basis[i:] for t in basis]


@pytest.mark.parametrize("key", catalog.keys() + ("lopsided",))
@pytest.mark.parametrize("delta", [HALF, Fraction(1), Fraction(2, 3), Fraction(-3, 5)],
                         ids=str)
def test_membership_system_equals_the_element_reference(key, delta, monkeypatch):
    # the reference builds the whole-window system; each of its rows reads
    # unknowns of one product shift, and each shift's dimension is the
    # deficiency of its columns there.  The rows of z are the delta
    # identity rows of z.- at every delta, so the gluing is checked at
    # four, with poisson's 1/2 set to each; pgca at N=3 is a 248,668-row
    # system, too large for a unit test, so it runs at N=1; the lopsided
    # presentation has five kinds, so it runs at N=2
    if key == "lopsided":
        p, window = reference_loops._lopsided(), 2
    else:
        p, window = catalog.get(key), {"pgca": 1}.get(key, 3)
    columns = {}
    for c, shift in enumerate(_column_shifts(p, window)):
        columns.setdefault(shift, []).append(c)
    where = {c: (shift, i) for shift, cols in columns.items() for i, c in enumerate(cols)}
    reference = reference_loops.membership_system(p, delta, window)
    assert reference.cols == len(where)
    rows = {shift: [] for shift in columns}
    for row in sparse_rows(reference):
        (shift,) = {where[c][0] for c in row}
        rows[shift].append({where[c][1]: v for c, v in row.items()})
    monkeypatch.setattr(poisson, "HALF", delta)
    dims = _shift_dims(p, window)
    assert set(dims) <= set(columns)
    assert {shift: dims.get(shift, 0) for shift in columns} == {
        shift: len(cols) - len(rref(SparseMatrix.from_rows(len(cols), rows[shift]))[1])
        for shift, cols in columns.items()}


@pytest.mark.parametrize("key", catalog.keys() + tuple(_TEST_PRESENTATIONS))
@pytest.mark.parametrize("window", [0, 1, 2])
def test_membership_dimension_equals_the_whole_window_kernel(key, window):
    # the shifts' dimensions sum to the kernel of the whole-window system;
    # abelian's are nonzero, so the sum is tested, and witt+abelian's and
    # witt+pair's nonzero degree kernels, with rows, are also taken from a
    # partner degree by theta, and by sigma for witt+pair.  At N = 0
    # virasoro's answer is 6, where keeping C_0's products central, the
    # scan's rule, would give 5
    p = _TEST_PRESENTATIONS.get(key) or catalog.get(key)
    whole = reference_loops.membership_system(p, HALF, window)
    result = classify_products(p, VERDICT_NOT_SCALAR_ONLY, window)
    assert result.solution_dim == len(nullspace(whole))



@settings(max_examples=20)
@given(_presentations())
def test_a_drawn_algebra_with_shift_half_derivations_classifies_as_the_whole_window(p):
    # the path the catalog takes only for witt and abelian, on certified
    # draws whose half-derivation scan is not scalar-only: the product
    # shifts' dimensions, glued from degree kernels found with every fast
    # path, sum to the kernel of the Element reference's whole-window
    # system, every row read; its
    # rank is enough, as building and checking a kernel of up to 2,176
    # vectors would take most of the test's time
    assume(certify_presentation(p))
    verdict = scan(p, HALF, 2, 6).verdict
    assume(verdict == VERDICT_NOT_SCALAR_ONLY)
    for window in (1, 2):
        whole = reference_loops.membership_system(p, HALF, window)
        result = classify_products(p, verdict, window)
        assert result.solution_dim == whole.cols - len(rref(whole)[1]), window


@pytest.mark.parametrize("key", catalog.keys() + tuple(_TEST_PRESENTATIONS) + ("witt+three",))
def test_each_degree_kernel_equals_a_full_reading_of_its_rows(key):
    # the product path takes a later degree of each orbit as g's image of
    # its partner's kernel, and stops reading rows at a certificate; each
    # equals, as a span, the kernel of the degree's own rows, every row
    # read, and a degree left out has a zero kernel
    p = {"witt+three": WITT_PLUS_THREE}.get(key) or _TEST_PRESENTATIONS.get(key) or catalog.get(key)
    kernels = poisson._degree_kernels(p, 2)
    for degree in product((0, 1), (0, 1), range(-4, 5)):
        layout = unknown_layout(HomogeneousSolveProblem(p, HALF, GradingDegree(*degree), 2, 0),
                                inside=True)
        cols = len(layout.columns)
        direct = nullspace(identity_rows(p, HALF, layout.images, 2, cols))
        held = kernels.get(degree, (None, []))[1]
        assert project_basis(VectorBasis(cols, held), range(cols)) == project_basis(
            direct, range(cols)), degree


def test_witt_membership_certifies_its_zero_kernel_from_early_rows():
    # the 25 degrees of z.- with columns at N = 6, |gamma| <= 12, none wider
    # than 13 columns; each zero kernel is certified once the rows read
    # reach full rank, and gamma = 0's kernel, the identity, where the
    # kernel certificate passes it after 13 rows: 195 of the 1,064 rows are
    # made
    matrices = []
    for gamma in range(-12, 13):
        problem = HomogeneousSolveProblem(WITT, HALF, GradingDegree(0, 0, gamma), 6, 0)
        matrices.append(assemble(problem, unknown_layout(problem, inside=True)))
    assert [len(nullspace(m)) for m in matrices] == [0] * 12 + [1] + [0] * 12
    assert sum(m.cols for m in matrices) == 169
    assert max(m.cols for m in matrices) == 13
    assert sum(len(m._rows) for m in matrices) == 195
    assert sum(m.rows for m in matrices) == 1064


def _classify_counting(monkeypatch, p, window):
    """classify_products' membership path, and the counts of shifts it
    eliminated, of mirrored kernels it checked, and of rows it made."""
    eliminated, checked, built = [], [], []
    monkeypatch.setattr(solver, "nullspace",
                        lambda m: eliminated.append(m) or nullspace(m))
    monkeypatch.setattr(solver, "verify_kernel",
                        lambda m, basis: checked.append(m) or verify_kernel(m, basis))
    monkeypatch.setattr(poisson, "assemble",
                        lambda *args: built.append(assemble(*args)) or built[-1])
    result = classify_products(p, VERDICT_NOT_SCALAR_ONLY, window)
    return result, len(eliminated), len(checked), sum(len(m._rows) for m in built)


def test_witt_membership_solves_one_shift_per_orbit(monkeypatch):
    # theta maps the degree gamma onto -gamma: of the 25 degrees above, 13
    # are eliminated and 12 take their partner's zero kernel with no matrix
    # built, so 109 of the 195 rows read there are made
    result, eliminated, checked, rows = _classify_counting(monkeypatch, WITT, 6)
    assert result.solution_dim == 0
    assert (eliminated, 25 - eliminated, checked, rows) == (13, 12, 0, 109)


def test_sigma_mirrors_nonzero_membership_kernels_across_sectors(monkeypatch):
    # theta, sigma and theta sigma: each orbit of degrees (eps, gamma) is
    # (A eps, +-gamma), A the identity or the swap of sectors (0, 1) and
    # (1, 0).  On witt+pair at N = 1, 9 of the 20 degrees with columns are
    # eliminated; sigma gives sector (1, 0) the zero kernels of (0, 1), and
    # theta gives gamma = 1, 2 in sectors (0, 0) and (1, 1) nonzero ones,
    # checked against their own rows.  On witt+three, where P, Q and R are
    # permuted at will, 6 are eliminated and the other 14 check a nonzero
    # kernel, 10 of them in sectors (1, 0) and (1, 1), taken from (0, 1)
    assert [(g.perm["P"], g.flip) for g in kind_automorphisms(WITT_PLUS_PAIR)] == [
        ("P", -1), ("Q", 1), ("Q", -1)]
    result, eliminated, checked, rows = _classify_counting(monkeypatch, WITT_PLUS_PAIR, 1)
    assert (result.solution_dim, eliminated, checked, rows) == (126, 9, 4, 21)
    result, eliminated, checked, rows = _classify_counting(monkeypatch, WITT_PLUS_THREE, 1)
    assert (result.solution_dim, eliminated, checked, rows) == (405, 6, 14, 78)
    whole = reference_loops.membership_system(WITT_PLUS_THREE, HALF, 1)
    assert result.solution_dim == len(nullspace(whole))


def test_classify_products_counts_int_kernels(monkeypatch):
    # every kernel the membership path counts, eliminated or g's image of
    # a partner's, holds only ints; witt+pair has nonzero ones of each
    counted = []  # (eliminated, kernel) per degree
    kernel = solver.Mirror.kernel

    def recording(mirror, *args):
        solved = len(mirror.kernels)
        out = kernel(mirror, *args)
        counted.append((len(mirror.kernels) > solved, out))
        return out

    monkeypatch.setattr(solver.Mirror, "kernel", recording)
    classify_products(WITT, VERDICT_NOT_SCALAR_ONLY, 6)
    classify_products(WITT_PLUS_PAIR, VERDICT_NOT_SCALAR_ONLY, 1)
    assert len(counted) == 25 + 20
    assert all(type(x) is int for _, k in counted for vec in k.vectors for x in vec)
    assert {solved for solved, k in counted if len(k)} == {True, False}


def _moved(p, g, e, inverse=False):
    """g(e), or g^-1(e), for g(X_m) = s_X perm[X]_{flip*m}, through Element
    arithmetic."""
    perm = {y: x for x, y in g.perm.items()} if inverse else g.perm
    out = Element.zero()
    for b, c in e.items():
        kind = perm[b.kind.name]
        sign = g.signs[kind if inverse else b.kind.name]
        out = out + Element.basis(BasisElement(p.kind(kind), g.flip * b.index), c * sign)
    return out


@pytest.mark.parametrize("window", [1, 2])
def test_a_mirrored_shift_checks_g_of_its_partner_product(window, monkeypatch):
    # every eliminated degree of z.- is handed two drawn vectors in place
    # of its kernel, so each mirrored degree checks g's image of them, g the
    # first automorphism that maps a solved degree there: as maps,
    # D' = g D g^-1, taken through Element arithmetic; theta, sigma and
    # theta sigma are each used, and theta's s_L = -1 and sigma's P <-> Q
    # both show in the image, which a dropped sign or a misplaced index
    # would change
    p, rng = WITT_PLUS_PAIR, random.Random(window)
    calls = []  # per degree with columns: (degree, layout, eliminated, vectors)
    kernel = solver.Mirror.kernel

    def recording(mirror, degree, layout, matrix):
        solved = len(mirror.kernels)
        out = kernel(mirror, degree, layout, matrix)
        calls.append((degree, layout, len(mirror.kernels) > solved, out.vectors))
        return out

    monkeypatch.setattr(solver.Mirror, "kernel", recording)
    monkeypatch.setattr(solver, "nullspace", lambda matrix: VectorBasis(matrix.cols, [
        [rng.randint(-9, 9) for _ in range(matrix.cols)] for _ in range(2)]))
    monkeypatch.setattr(solver, "verify_kernel", lambda matrix, basis: basis)
    classify_products(p, VERDICT_NOT_SCALAR_ONLY, window)

    def arrows(degree, layout):
        return [(BasisElement(x, m), BasisElement(t, m + degree.index))
                for label, m in layout.columns for x, t in [layout.families[label]]]

    solved = {}  # degree -> each drawn vector as D: basis element -> Element
    for degree, layout, eliminated, vectors in calls:
        if eliminated:
            solved[degree] = [{} for _ in vectors]
            for images, vec in zip(solved[degree], vectors):
                for (x, t), c in zip(arrows(degree, layout), vec):
                    images[x] = images.get(x, Element.zero()) + Element.basis(t, c)
    used = set()
    for degree, layout, eliminated, vectors in calls:
        if eliminated:
            continue
        g, partner = next((g, d) for g in kind_automorphisms(p) for e, im in g.sectors.items()
                          if im == degree[:2] and (d := GradingDegree(*e, g.flip * degree.index))
                          in solved)
        used.add((g.perm["P"], g.flip))
        images = []
        for maps in solved[partner]:
            moved = {x: Element.zero() for x, _ in arrows(degree, layout)}
            for x in moved:
                for b, c in _moved(p, g, Element.basis(x), True).items():
                    moved[x] = moved[x] + _moved(p, g, maps.get(b, Element.zero())).scale(c)
            images.append([dict(moved[x].items()).get(t, 0) for x, t in arrows(degree, layout)])
        assert [list(v) for v in vectors] == images, degree
    assert used == {("P", -1), ("Q", 1), ("Q", -1)}
