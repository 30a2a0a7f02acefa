"""Windowed product tables, axiom checks, and product classification.

The brute-force comparisons embedded here rebuild the relevant linear
systems from scratch on dense matrices, independent of the module under
test.
"""

from fractions import Fraction

import pytest

import reference_loops
from gradedlie import catalog
from gradedlie.core import (AlgebraPresentation, BasisElement, BasisKind,
                            Element)
from gradedlie.linalg import nullspace
from gradedlie.poisson import (AxiomReport, ProductError, ProductTable,
                               TP_NONTRIVIAL_POSSIBLE, TP_TRIVIAL,
                               _membership_system, check_axioms,
                               classify_products)
from gradedlie.solver import (VERDICT_NOT_SCALAR_ONLY, VERDICT_SCALAR_ONLY,
                              scan)
from matrices import from_dense

PGCA = catalog.get("pgca")
WITT = catalog.get("witt")
ABELIAN = catalog.get("abelian")
HALF = Fraction(1, 2)


def el(p, kind_name, index):
    return BasisElement(p.kind(kind_name), index)


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


def test_classify_accepts_a_scan_result_directly():
    scan_result = scan(PGCA, HALF, 1, 8)
    result = classify_products(PGCA, scan_result, 4)
    assert result.derivation_verdict == VERDICT_SCALAR_ONLY
    assert result.path == "scalar-functional"
    assert result.verdict == TP_TRIVIAL


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


@pytest.mark.parametrize("key", [k for k in catalog.keys() if k != "pgca"] + ["lopsided"])
@pytest.mark.parametrize("delta", [HALF, Fraction(1), Fraction(2, 3), Fraction(-3, 5)],
                         ids=str)
def test_membership_system_equals_the_element_reference(key, delta):
    # pgca at N=3 is a 248,668-row system, too large for a unit test; the
    # lopsided presentation has five kinds, so it runs at N=2
    if key == "lopsided":
        p, window = reference_loops._lopsided(), 2
    else:
        p, window = catalog.get(key), 3
    matrix = _membership_system(p, delta, window)
    assert matrix == reference_loops.membership_system(p, delta, window)
