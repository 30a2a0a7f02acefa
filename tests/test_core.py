"""Bracket arithmetic, elements, and windowed structure validation.

Expected bracket values below are expanded by hand from the defining
relations of each catalog algebra.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gradedlie import catalog
from gradedlie.core import (AffinePoly, AlgebraPresentation, BasisElement,
                            BasisKind, BracketRule, BracketTerm, CentralTerm,
                            CubicPoly, Element, GradingDegree,
                            PresentationError, affine, bracket, degree_of,
                            format_rational, parse_rational,
                            validate_presentation)

PGCA = catalog.get("pgca")
VIRASORO = catalog.get("virasoro")


def el(p, kind_name, index):
    return BasisElement(p.kind(kind_name), index)


# ---------------------------------------------------------------------------
# rational parsing


@pytest.mark.parametrize("text,value", [
    ("3", Fraction(3)),
    ("-7/2", Fraction(-7, 2)),
    ("+4/6", Fraction(2, 3)),
    ("0", Fraction(0)),
    (5, Fraction(5)),
])
def test_parse_rational_accepts_integers_and_ratios(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize("bad", ["1.5", "1e3", "", "one", "1/0", "2/", "/3",
                                 "1 / 2", True, 1.5, None])
def test_parse_rational_rejects_non_rationals(bad):
    with pytest.raises(PresentationError):
        parse_rational(bad)


def test_format_rational_round_trips():
    for q in (Fraction(0), Fraction(5), Fraction(-7, 2), Fraction(2, 3)):
        assert parse_rational(format_rational(q)) == q


# ---------------------------------------------------------------------------
# grading degrees


def test_grading_degree_addition_is_mod_two_in_the_torsion_part():
    assert (GradingDegree(1, 1, 2) + GradingDegree(0, 1, -3)
            == GradingDegree(1, 0, -1))
    assert (GradingDegree(1, 0, 4) + GradingDegree(1, 0, -4)
            == GradingDegree(0, 0, 0))


@pytest.mark.parametrize("kind,index,expected", [
    ("L", 5, (0, 0, 5)),
    ("H", -2, (1, 1, -2)),
    ("I", 0, (0, 1, 0)),
    ("J", 3, (1, 0, 3)),
])
def test_degree_of_basis_elements(kind, index, expected):
    d = degree_of(el(PGCA, kind, index))
    assert (d.eps1, d.eps2, d.index) == expected


# ---------------------------------------------------------------------------
# elements


def test_element_arithmetic_drops_zero_terms():
    x = Element.basis(el(PGCA, "L", 1))
    y = Element.basis(el(PGCA, "L", 2))
    z = x.scale(2) + y - x - x - y
    assert z == Element.zero()
    assert z.is_zero
    assert (x + y).coefficient(el(PGCA, "L", 1)) == 1
    assert (x + y).coefficient(el(PGCA, "H", 1)) == 0
    assert set((x.scale(3) - y).support()) == {el(PGCA, "L", 1), el(PGCA, "L", 2)}


def test_element_equality_and_hash_are_value_based():
    a = Element.basis(el(PGCA, "I", 4)).scale(Fraction(2, 3))
    b = Element.basis(el(PGCA, "I", 4)).scale(Fraction(4, 6))
    assert a == b
    assert hash(a) == hash(b)


# ---------------------------------------------------------------------------
# brackets, hand-expanded


@pytest.mark.parametrize("x,y,expected", [
    (("L", 2), ("L", -1), [(("L", 1), 3)]),      # (m-n) = 3
    (("L", 2), ("H", -1), [(("H", 1), 1)]),      # -n = 1
    (("L", 1), ("I", 4), [(("I", 5), -3)]),      # (m-n) = -3
    (("L", 2), ("J", -2), [(("J", 0), 4)]),      # (m-n) = 4
    (("H", 1), ("I", 2), [(("J", 3), 1)]),
    (("H", 1), ("J", 2), [(("I", 3), -1)]),
    (("H", 1), ("H", 2), []),
    (("I", 1), ("J", 2), []),
    (("I", -3), ("I", 3), []),
    (("L", 4), ("L", 4), []),
])
def test_pgca_brackets_match_hand_expansion(x, y, expected):
    got = PGCA.bracket_basis(el(PGCA, *x), el(PGCA, *y))
    want = Element.zero()
    for (kind, index), coeff in expected:
        want = want + Element.basis(el(PGCA, kind, index)).scale(coeff)
    assert got == want


def test_virasoro_central_charge_fires_only_at_opposite_indices():
    # cocycle value (m^3 - m)/12 at m = 2 is 1/2
    got = VIRASORO.bracket_basis(el(VIRASORO, "L", 2), el(VIRASORO, "L", -2))
    assert got.coefficient(el(VIRASORO, "L", 0)) == 4
    assert got.coefficient(el(VIRASORO, "C", 0)) == Fraction(1, 2)
    # at m = 1 the cocycle vanishes
    got = VIRASORO.bracket_basis(el(VIRASORO, "L", 1), el(VIRASORO, "L", -1))
    assert got == Element.basis(el(VIRASORO, "L", 0)).scale(2)
    # central elements bracket to zero
    assert VIRASORO.bracket_basis(el(VIRASORO, "C", 0), el(VIRASORO, "L", 3)).is_zero


def test_bracket_is_bilinear_on_elements():
    p = PGCA
    x = (Element.basis(el(p, "L", 1)).scale(2)
         + Element.basis(el(p, "H", -1)).scale(Fraction(1, 3)))
    y = Element.basis(el(p, "I", 2))
    direct = bracket(p, x, y)
    split = (bracket(p, Element.basis(el(p, "L", 1)), y).scale(2)
             + bracket(p, Element.basis(el(p, "H", -1)), y).scale(Fraction(1, 3)))
    assert direct == split


PGCA_ELEMENTS = st.tuples(st.sampled_from("LHIJ"), st.integers(-5, 5))


@given(PGCA_ELEMENTS, PGCA_ELEMENTS)
def test_bracket_is_skew_symmetric(a, b):
    x, y = el(PGCA, *a), el(PGCA, *b)
    assert PGCA.bracket_basis(x, y) + PGCA.bracket_basis(y, x) == Element.zero()


@given(PGCA_ELEMENTS, PGCA_ELEMENTS)
def test_bracket_output_degree_is_the_sum_of_input_degrees(a, b):
    x, y = el(PGCA, *a), el(PGCA, *b)
    expected = degree_of(x) + degree_of(y)
    for t, _ in PGCA.bracket_basis(x, y).items():
        assert degree_of(t) == expected


@given(PGCA_ELEMENTS, PGCA_ELEMENTS, PGCA_ELEMENTS)
def test_jacobi_identity_holds_on_sampled_triples(a, b, c):
    x, y, z = (el(PGCA, *t) for t in (a, b, c))
    xe, ye, ze = (Element.basis(t) for t in (x, y, z))
    jac = (bracket(PGCA, bracket(PGCA, xe, ye), ze)
           + bracket(PGCA, bracket(PGCA, ye, ze), xe)
           + bracket(PGCA, bracket(PGCA, ze, xe), ye))
    assert jac == Element.zero()


def test_warm_bracket_cache_still_rejects_foreign_elements():
    p = catalog.get("virasoro")
    for x in p.basis_elements(4):
        for y in p.basis_elements(4):
            p.bracket_basis(x, y)
    impostor = BasisElement(BasisKind("L", (1, 0)), 1)
    with pytest.raises(PresentationError, match="does not belong"):
        p.bracket_basis(impostor, el(p, "L", 2))
    with pytest.raises(PresentationError, match="does not belong"):
        p.bracket_basis(el(p, "L", 2), impostor)
    with pytest.raises(PresentationError, match="only has index 0"):
        p.bracket_basis(el(p, "C", 1), el(p, "L", -1))
    with pytest.raises(PresentationError, match="only has index 0"):
        p.bracket_basis(el(p, "L", -1), el(p, "C", 1))


@pytest.mark.parametrize("key,pairs", [
    ("virasoro", [(("L", 2), ("L", -2)), (("L", 3), ("L", -3)),
                  (("L", 0), ("L", 0)), (("L", 5), ("L", 1)),
                  (("C", 0), ("L", 3))]),
    ("pgca", [(("L", 2), ("H", -1)), (("H", 1), ("I", 2)),
              (("H", 1), ("J", 2)), (("L", 1), ("I", 4)),
              (("I", -3), ("I", 3))]),
])
def test_warm_and_fresh_presentations_return_equal_brackets(key, pairs):
    # both argument orders, so a cache that forgot the order would show; the
    # virasoro pairs at m + n = 0 carry the central term C_0
    warm = catalog.get(key)
    for x, y in pairs:
        for a, b in ((x, y), (y, x)):
            warm.bracket_basis(el(warm, *a), el(warm, *b))
    for x, y in pairs:
        for a, b in ((x, y), (y, x)):
            fresh = catalog.get(key)
            got = warm.bracket_basis(el(warm, *a), el(warm, *b))
            assert got == fresh.bracket_basis(el(fresh, *a), el(fresh, *b))


# ---------------------------------------------------------------------------
# coefficient polynomials


def test_affine_poly_reversal_swaps_arguments_and_negates():
    poly = affine(c0=1, cm=2, cn=-3)
    rev = poly.reversed()
    for m, n in ((0, 0), (2, -1), (-4, 5)):
        assert rev(n, m) == -poly(m, n)


def test_cubic_poly_reversal_matches_odd_cocycle_symmetry():
    poly = CubicPoly(c0=Fraction(1), c1=Fraction(2), c2=Fraction(3), c3=Fraction(4))
    rev = poly.reversed()
    for m in (-3, 0, 2):
        assert rev(-m) == -poly(m)


# ---------------------------------------------------------------------------
# presentation construction guards


def test_bracket_rule_rejects_grading_incompatible_target():
    L = BasisKind("L", (0, 0))
    H = BasisKind("H", (1, 1))
    I = BasisKind("I", (0, 1))
    with pytest.raises(PresentationError):
        BracketRule(L, H, (BracketTerm(I, affine(c0=1)),))


def test_presentation_rejects_duplicate_kinds_and_rules():
    L = BasisKind("L", (0, 0))
    with pytest.raises(PresentationError):
        AlgebraPresentation("bad", (L, BasisKind("L", (0, 0))))
    rule = BracketRule(L, L, (BracketTerm(L, affine(cm=1, cn=-1)),))
    with pytest.raises(PresentationError):
        AlgebraPresentation("bad", (L,), (rule, rule))


def test_presentation_rejects_undeclared_central_kind():
    L = BasisKind("L", (0, 0))
    with pytest.raises(PresentationError):
        AlgebraPresentation("bad", (L,), central=("C",))


def test_presentation_rejects_an_ordinary_term_targeting_a_central_kind():
    # a central kind has only C_0, so it may appear only as a central term
    L = BasisKind("L", (0, 0))
    C = BasisKind("C", (0, 0))
    rule = BracketRule(L, L, (BracketTerm(L, affine(cm=1, cn=-1)),
                              BracketTerm(C, affine(cm=1, cn=-1))))
    with pytest.raises(PresentationError,
                       match=r"rule \[L,L\]: ordinary term targets central kind 'C'"):
        AlgebraPresentation("bad", (L, C), (rule,), central=("C",))


def test_unknown_kind_lookup_lists_the_available_kinds():
    with pytest.raises(PresentationError, match="L, H, I, J"):
        PGCA.kind("X")


def test_central_kinds_only_carry_index_zero():
    assert VIRASORO.element_exists(VIRASORO.kind("C"), 0)
    assert not VIRASORO.element_exists(VIRASORO.kind("C"), 1)
    assert VIRASORO.element_exists(VIRASORO.kind("L"), 37)
    names = [(b.kind.name, b.index) for b in VIRASORO.basis_elements(1)]
    assert names == [("L", -1), ("L", 0), ("L", 1), ("C", 0)]


# ---------------------------------------------------------------------------
# windowed validation


def _names(elements):
    return [(b.kind.name, b.index) for b in elements]


def test_validate_passes_on_pgca():
    report = validate_presentation(PGCA, 3)
    assert report.passed
    # 28 basis elements: every ordered pair, every increasing triple
    assert (report.pairs_checked, report.triples_checked) == (784, 3276)
    assert "PASS" in report.describe()


def test_validate_rejects_tiny_windows():
    with pytest.raises(ValueError):
        validate_presentation(PGCA, 1)


def _pgca_with_coeff(left, right, coeff_fields):
    data = catalog.to_dict(PGCA)
    for rule in data["brackets"]:
        if rule["left"] == left and rule["right"] == right:
            rule["terms"][0]["coeff"] = coeff_fields
    return catalog.from_dict(data)


def test_validate_catches_a_sign_error_via_jacobi():
    # flipping [L, I] to -(m-n) I breaks Jacobi on (L, L, I) triples with
    # residual -2(m-n)(m+n-k) I_{m+n+k}
    broken = _pgca_with_coeff("L", "I", {"cm": "-1", "cn": "1"})
    report = validate_presentation(broken, 3)
    assert not report.passed
    assert report.check == "jacobi"
    # the first failing triple in enumeration order, and the counts so far
    assert _names(report.witnesses) == [("L", -3), ("L", -2), ("I", -3)]
    assert report.detail == "jacobiator = 4*I_-8"
    assert (report.pairs_checked, report.triples_checked) == (784, 13)
    assert "FAIL" in report.describe()


def test_validate_accepts_the_opposite_rotation_orientation():
    # negating [H, J] yields a genuinely different but still valid algebra
    flipped = _pgca_with_coeff("H", "J", {"c0": "1"})
    assert validate_presentation(flipped, 3).passed


def test_validate_catches_nonzero_self_bracket():
    L = BasisKind("L", (0, 0))
    bad = AlgebraPresentation(
        "bad", (L,), (BracketRule(L, L, (BracketTerm(L, affine(c0=1)),)),))
    report = validate_presentation(bad, 2)
    assert not report.passed
    assert report.check == "skew-symmetry"
    assert _names(report.witnesses) == [("L", -2), ("L", -2)]
    assert report.detail == "[L_-2,L_-2] + [L_-2,L_-2] = 2*L_-4"


def test_validate_reports_a_grading_violation():
    data = catalog.to_dict(catalog.get("witt"))
    data["brackets"][0]["terms"][0]["offset"] = 1
    report = validate_presentation(catalog.from_dict(data), 2)
    assert not report.passed
    assert report.check == "grading"
    assert _names(report.witnesses) == [("L", -2), ("L", -1)]
    assert report.detail == ("[L_-2,L_-1] contains L_-2 of degree (0,0,-2), "
                             "expected (0,0,-3)")
    assert (report.pairs_checked, report.triples_checked) == (1, 0)


def test_validate_passes_every_catalog_entry():
    for key in catalog.keys():
        assert validate_presentation(catalog.get(key), 3).passed, key
