"""Bracket arithmetic, elements, and windowed structure validation.

Expected bracket values below are expanded by hand from the defining
relations of each catalog algebra.
"""

import json
from contextlib import contextmanager
from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_loops import _lopsided

from gradedlie import catalog, core, solver
from gradedlie.cli import EXIT_OK, main
from gradedlie.core import (_CENTRAL_SKEW_POINTS, _JACOBI_POINTS, _PLANE_POINTS,
                            _SKEW_POINTS, AffinePoly, AlgebraPresentation, BasisElement,
                            BasisKind, BracketRule, BracketTerm, CentralTerm,
                            CubicPoly, Element, GradingDegree,
                            PresentationError, affine, bracket,
                            certify_presentation, enumerate_window,
                            format_rational, parse_rational,
                            validate_presentation)
from gradedlie.linalg import SparseMatrix, rref
from gradedlie.solver import KindAutomorphism, kind_automorphisms

PGCA = catalog.get("pgca")
VIRASORO = catalog.get("virasoro")


def el(p, kind_name, index):
    return BasisElement(p.kind(kind_name), index)


def _support(x):
    """The basis elements x has a nonzero coefficient on."""
    return {b for b, _ in x.items()}


def _coefficient(x, b):
    """The coefficient of the basis element b in x."""
    return dict(x.items()).get(b, Fraction(0))


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
                                 "1 / 2", "\u0663", "\uff13/\uff14", "1/\uff12",
                                 True, 1.5, None])
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
    d = el(PGCA, kind, index).degree
    assert (d.eps1, d.eps2, d.index) == expected


# ---------------------------------------------------------------------------
# elements


def test_element_arithmetic_drops_zero_terms():
    x = Element.basis(el(PGCA, "L", 1))
    y = Element.basis(el(PGCA, "L", 2))
    z = x.scale(2) + y - x - x - y
    assert z == Element.zero()
    assert z.is_zero
    assert _coefficient(x + y, el(PGCA, "L", 1)) == 1
    assert _coefficient(x + y, el(PGCA, "H", 1)) == 0
    assert _support(x.scale(3) - y) == {el(PGCA, "L", 1), el(PGCA, "L", 2)}


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
    assert _coefficient(got, el(VIRASORO, "L", 0)) == 4
    assert _coefficient(got, el(VIRASORO, "C", 0)) == Fraction(1, 2)
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
    expected = x.degree + y.degree
    for t, _ in PGCA.bracket_basis(x, y).items():
        assert t.degree == expected


@given(PGCA_ELEMENTS, PGCA_ELEMENTS, PGCA_ELEMENTS)
def test_jacobi_identity_holds_on_sampled_triples(a, b, c):
    x, y, z = (el(PGCA, *t) for t in (a, b, c))
    xe, ye, ze = (Element.basis(t) for t in (x, y, z))
    jac = (bracket(PGCA, bracket(PGCA, xe, ye), ze)
           + bracket(PGCA, bracket(PGCA, ye, ze), xe)
           + bracket(PGCA, bracket(PGCA, ze, xe), ye))
    assert jac == Element.zero()


HV = catalog.get("heisenberg-virasoro")


def _indexed_as_element(p, x, y):
    """bracket_indexed(x, y) divided back by p.scale, as an Element."""
    got = p.bracket_indexed(p.kind_order(x.kind), x.index, p.kind_order(y.kind), y.index)
    return Element({BasisElement(p.kinds[a], i): Fraction(v, p.scale)
                    for (a, i), v in got})


def test_warm_bracket_cache_still_rejects_foreign_elements():
    # the enumeration fills the integer memo for every pair on the window
    p = catalog.get("virasoro")
    assert enumerate_window(p, 4).passed
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
            _indexed_as_element(warm, el(warm, *a), el(warm, *b))
    for x, y in pairs:
        for a, b in ((x, y), (y, x)):
            fresh = catalog.get(key)
            got = _indexed_as_element(warm, el(warm, *a), el(warm, *b))
            assert got == fresh.bracket_basis(el(fresh, *a), el(fresh, *b))


@given(st.sampled_from([PGCA, VIRASORO, HV]), st.data())
def test_bracket_indexed_scaled_back_equals_bracket_basis(p, data):
    ka, kb = data.draw(st.lists(st.sampled_from(p.kinds), min_size=2, max_size=2))
    m = data.draw(st.integers(-8, 8))
    # half the draws sit on m + n = 0, where central terms fire
    n = -m if data.draw(st.booleans()) else data.draw(st.integers(-8, 8))
    x = BasisElement(ka, 0 if p.is_central(ka) else m)
    y = BasisElement(kb, 0 if p.is_central(kb) else n)
    want = p.bracket_basis(x, y)
    assert _indexed_as_element(p, x, y) == want
    # a memo hit returns the stored tuple, whose terms keep Element order
    key = (p.kind_order(x.kind), x.index, p.kind_order(y.kind), y.index)
    got = p.bracket_indexed(*key)
    assert p.bracket_indexed(*key) is got
    assert [b for b, _ in want.items()] == [BasisElement(p.kinds[a], i)
                                            for (a, i), _ in got]


def _affine_at(c, m, n):
    """The AffinePoly c0 + cm*m + cn*n at (m, n)."""
    return c.c0 + c.cm * m + c.cn * n


def _cubic_at(c, m):
    """The CubicPoly c0 + c1*m + c2*m^2 + c3*m^3 at m."""
    return c.c0 + c.c1 * m + c.c2 * m ** 2 + c.c3 * m ** 3


def _reference_bracket(p, x, y):
    """[x, y] straight from p.rules in Fractions, independent of bracket_basis.

    A stored rule is evaluated as it is; the other orientation of a two-kind
    rule is the negated swapped evaluation; a same-kind rule is evaluated as
    stored in both orders.
    """
    for rule in p.rules:
        if (rule.left, rule.right) == (x.kind, y.kind):
            sign, m, n = 1, x.index, y.index
            break
        if (rule.left, rule.right) == (y.kind, x.kind):
            sign, m, n = -1, y.index, x.index
            break
    else:
        return Element.zero()
    out = Element.zero()
    for t in rule.terms:
        out = out + Element.basis(BasisElement(t.target, m + n),
                                  sign * _affine_at(t.coeff, m, n))
    if m + n == 0:
        for t in rule.central_terms:
            out = out + Element.basis(BasisElement(t.target, 0),
                                      sign * _cubic_at(t.coeff, m))
    return out


_REFERENCE_PAIRS = [(p, ka, kb)
                    for p in [catalog.get(key) for key in catalog.keys()] + [_lopsided()]
                    for ka in p.kinds for kb in p.kinds]


@pytest.mark.parametrize("p,ka,kb", _REFERENCE_PAIRS,
                         ids=[f"{p.name}-{ka.name}{kb.name}" for p, ka, kb in _REFERENCE_PAIRS])
@settings(max_examples=25)
@given(st.data())
def test_bracket_basis_equals_the_rules_evaluated_in_fractions(p, ka, kb, data):
    m = data.draw(st.integers(-8, 8))
    # half the draws sit on m + n = 0, where central terms fire
    n = -m if data.draw(st.booleans()) else data.draw(st.integers(-8, 8))
    x = BasisElement(ka, 0 if p.is_central(ka) else m)
    y = BasisElement(kb, 0 if p.is_central(kb) else n)
    want = _reference_bracket(p, x, y)
    assert p.bracket_basis(x, y) == want
    assert _indexed_as_element(p, x, y) == want


def test_the_lopsided_presentation_reaches_every_table_path():
    p = _lopsided()
    A, B, D, W = (el(p, k, i) for k, i in (("A", 2), ("B", -2), ("D", 1), ("W", 0)))
    assert p.scale == 420
    assert [(r.left.name, r.right.name) for r in p.rules] == [
        ("A", "A"), ("A", "B"), ("A", "D"), ("B", "B")]
    # [A_2, A_2] = (1/3 + 4 - 2/5) A_4: not skew; no central term at m + n = 4
    assert p.bracket_basis(A, A) == Element.basis(el(p, "A", 4), Fraction(59, 15))
    # [B_-2, B_-2]: the m and -n terms cancel, (3/4 - 1) A_-4 is left
    assert p.bracket_basis(B, B) == Element.basis(el(p, "A", -4), Fraction(-1, 4))
    # [B_-2, A_2] = -[A_2, B_-2] = -(-1 - 4/3 - 5/2) B_0 - (1/6 + 1 + 8/3 - 8/5) W_0
    assert p.bracket_basis(B, A) == (Element.basis(el(p, "B", 0), Fraction(29, 6))
                                     + Element.basis(W, Fraction(-67, 30)))
    # [D_1, A_2] is the rule as written, stored reversed: (2 + 1/4 - 6) D_3
    assert p.bracket_basis(D, A) == Element.basis(el(p, "D", 3), Fraction(-15, 4))
    assert p.bracket_basis(W, A).is_zero


@contextmanager
def _counted_bracket_basis():
    """Count AlgebraPresentation.bracket_basis calls, patched on the class
    as the benchmark tracer patches it, and restore the original after."""
    original = AlgebraPresentation.bracket_basis
    calls = [0]

    def counted(presentation, x, y):
        calls[0] += 1
        return original(presentation, x, y)

    AlgebraPresentation.bracket_basis = counted
    try:
        yield calls
    finally:
        AlgebraPresentation.bracket_basis = original


def test_every_memo_miss_calls_bracket_basis_once():
    # the tracer's core.bracket_basis.calls counts memo fills through this
    # method, so no evaluator may fill bracket_indexed without calling it
    original = AlgebraPresentation.bracket_basis
    p = catalog.get("pgca")
    with _counted_bracket_basis() as calls:
        # each degree is solved on pgca's propagation window 2, its rows
        # streamed into elimination, so the 5 zero-kernel degrees solved
        # directly stop evaluating brackets at the zero-kernel certificate
        # and (0, 0, 0) where the kernel certificate passes its candidate
        # kernel; the 6 others, at gamma = 1 and in sector (1, 0), take the
        # image of a solved degree's kernel under theta, sigma or theta
        # sigma, which is zero or certified without a row, and evaluate
        # none: 181 of the 526 brackets a full assembly of every row on the
        # window 2 evaluates (400 of 2550 when solved on the window 6).
        # (0, 0, 0) fills 47 of them, for its rows and for the certificate,
        # which checks its candidate against that degree's rows on the
        # window N = 1
        solver.scan(p, Fraction(1, 2), 1, 6)
        assert calls[0] == len(p._indexed) == 181
        solver.scan(p, Fraction(1, 2), 1, 6)
        assert calls[0] == 181
    # validate decides with the certificate, whose points fill 108 entries;
    # enumerating the window N = 4 fills 2356
    with _counted_bracket_basis() as calls:
        assert validate_presentation(catalog.get("pgca"), 4).passed
    assert calls[0] == 108
    with _counted_bracket_basis() as calls:
        assert enumerate_window(catalog.get("pgca"), 4).passed
    assert calls[0] == 2356
    assert AlgebraPresentation.bracket_basis is original


@pytest.mark.parametrize("shift", [(0, 1), (1, 0), (1, 1)], ids=str)
def test_a_partnerless_sector_assembles_without_a_bracket(shift):
    # witt has one kind, of Z2 degree (0, 0), so these sectors have no
    # unknowns; every row entry is a column of D, so assemble evaluates no
    # bracket at all, not even D[x, y]'s
    p = catalog.get("witt")
    for gamma in (-1, 0, 1):
        problem = solver.HomogeneousSolveProblem(p, Fraction(1, 2),
                                                 GradingDegree(*shift, gamma), 6, 3)
        with _counted_bracket_basis() as calls:
            matrix = solver.assemble(problem)
        assert calls[0] == 0 and not p._indexed
        assert (matrix.rows, matrix.cols) == (0, 0)


def test_virasoro_cocycle_is_scaled_to_an_integer():
    p = catalog.get("virasoro")
    assert p.scale == 12
    # [L_2, L_-2] = 4 L_0 + (8 - 2)/12 C_0
    assert p.bracket_indexed(0, 2, 0, -2) == (((0, 0), 48), ((1, 0), 6))
    assert (PGCA.scale, HV.scale) == (1, 1)


def test_scale_is_the_lcm_of_every_rule_denominator():
    data = catalog.to_dict(catalog.get("virasoro"))
    data["brackets"][0]["terms"][0]["coeff"] = {"c0": "1/10", "cm": "1", "cn": "-1"}
    assert catalog.from_dict(data).scale == 60


def test_bracket_indexed_integrality_check_fires():
    p = catalog.get("virasoro")
    p.scale = 1
    with pytest.raises(ArithmeticError, match="internal error"):
        p.bracket_indexed(0, 2, 0, -2)
    # nothing was stored, so the check fires again
    with pytest.raises(ArithmeticError, match="internal error"):
        p.bracket_indexed(0, 2, 0, -2)


def test_bracket_indexed_rejects_missing_elements_every_time():
    p = catalog.get("virasoro")
    for _ in range(2):
        with pytest.raises(PresentationError, match="only has index 0"):
            p.bracket_indexed(1, 1, 0, -1)


# ---------------------------------------------------------------------------
# repeated targets


@pytest.mark.parametrize("key,field,terms", [
    # [L_m, L_n] = (m - n) L_{m+n} written as m/2 L + (m/2 - n) L, with a
    # pair 1/3 L - 1/3 L that cancels to zero in between
    ("pgca", "terms", [{"kind": "L", "coeff": {"cm": "1/2"}},
                       {"kind": "L", "coeff": {"c0": "1/3"}},
                       {"kind": "L", "coeff": {"cm": "1/2", "cn": "-1"}},
                       {"kind": "L", "coeff": {"c0": "-1/3"}}]),
    # the cocycle (m^3 - m)/12 C_0 written as two central terms on C
    ("virasoro", "central_terms", [{"kind": "C", "coeff": {"c3": "1/12"}},
                                   {"kind": "C", "coeff": {"c1": "-1/12"}}]),
], ids=["pgca", "virasoro"])
def test_terms_sharing_a_target_are_summed(key, field, terms, tmp_path, capsys):
    merged_data = catalog.to_dict(catalog.get(key))
    split_data = catalog.to_dict(catalog.get(key))
    split_data["brackets"][0][field] = terms
    merged, split = catalog.from_dict(merged_data), catalog.from_dict(split_data)
    assert split.rules != merged.rules
    assert (split.scale, split._tables) == (merged.scale, merged._tables)
    basis = merged.basis_elements(3)
    for x in basis:
        for y in basis:
            assert split.bracket_basis(x, y) == merged.bracket_basis(x, y)
            key4 = (merged.kind_order(x.kind), x.index, merged.kind_order(y.kind), y.index)
            assert split.bracket_indexed(*key4) == merged.bracket_indexed(*key4)
    assert certify_presentation(split) is certify_presentation(merged) is True
    outputs = []
    for name, data in (("merged", merged_data), ("split", split_data)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        assert main(["solve", "--algebra", str(path), "--window", "6",
                     "--gamma-max", "1", "--format", "json"]) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# coefficient polynomials


def test_affine_poly_reversal_swaps_arguments_and_negates():
    poly = affine(c0=1, cm=2, cn=-3)
    rev = poly.reversed()
    for m, n in ((0, 0), (2, -1), (-4, 5)):
        assert _affine_at(rev, n, m) == -_affine_at(poly, m, n)


def test_cubic_poly_reversal_matches_odd_cocycle_symmetry():
    poly = CubicPoly(c0=Fraction(1), c1=Fraction(2), c2=Fraction(3), c3=Fraction(4))
    rev = poly.reversed()
    for m in (-3, 0, 2):
        assert _cubic_at(rev, -m) == -_cubic_at(poly, m)


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


def test_presentation_rejects_a_kind_name_holding_a_label_separator():
    # the solver labels a column family X>T, which must not name a kind
    with pytest.raises(PresentationError, match=r"^kind name 'A>B' contains '>'"):
        AlgebraPresentation("bad", (BasisKind("A", (0, 0)), BasisKind("A>B", (0, 0))))


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


_L, _C = BasisKind("L", (0, 0)), BasisKind("C", (0, 0))
_CUBIC = CubicPoly(c1=Fraction(1))


@pytest.mark.parametrize("rule,named", [
    (BracketRule(_L, _C, (BracketTerm(_L, affine(c0=1)),)), r"\[L,C\]: central kind 'C'"),
    (BracketRule(_C, _L, (BracketTerm(_L, affine(c0=1)),)), r"\[C,L\]: central kind 'C'"),
    (BracketRule(_C, _C, (BracketTerm(_L, affine(c0=1)),)), r"\[C,C\]: central kind 'C'"),
    (BracketRule(_L, _C, (), (CentralTerm(_C, _CUBIC),)), r"\[L,C\]: central kind 'C'"),
], ids=["right", "left", "both", "central-terms-only"])
def test_presentation_rejects_a_central_kind_as_a_bracket_argument(rule, named):
    # a central kind brackets trivially; solver.unknown_layout relies on it
    # to keep the targets of a central source central
    with pytest.raises(PresentationError, match=named + " is a bracket argument"):
        AlgebraPresentation("bad", (_L, _C), (rule,), central=("C",))


def test_presentation_accepts_an_empty_rule_on_a_central_kind():
    # nothing is stored for a rule with no terms, or with all-zero ones
    for terms in ((), (BracketTerm(_L, affine()),)):
        p = AlgebraPresentation("virasoro-like", (_L, _C),
                                (BracketRule(_L, _C, terms),), central=("C",))
        assert p.rules == () and certify_presentation(p)


@pytest.mark.parametrize("kinds,rule,central,match", [
    ((_L,), BracketRule(_L, _L, (BracketTerm(BasisKind("X", (0, 0)), affine(c0=1)),)),
     (), r"rule \[L,L\]: term targets kind 'X' not declared in 'bad'"),
    # the declared B has Z2 degree (0, 1); a B of degree (0, 0) is another kind
    ((_L, BasisKind("B", (0, 1))),
     BracketRule(_L, _L, (BracketTerm(BasisKind("B", (0, 0)), affine(c0=1)),)),
     (), r"rule \[L,L\]: term targets kind 'B' not declared"),
    ((_L,), BracketRule(_L, _L, (), (CentralTerm(_C, _CUBIC),)),
     (), r"rule \[L,L\]: term targets kind 'C' not declared"),
    ((_L, BasisKind("C", (0, 1))), BracketRule(_L, _L, (), (CentralTerm(_C, _CUBIC),)),
     ("C",), r"rule \[L,L\]: term targets kind 'C' not declared"),
    ((_L, _C), BracketRule(_L, _L, (), (CentralTerm(_L, _CUBIC),)),
     ("C",), r"rule \[L,L\]: central term targets non-central kind 'L'"),
    ((_L, _C), BracketRule(_L, _L, (), (CentralTerm(_C, _CUBIC),)),
     (), r"rule \[L,L\]: central term targets non-central kind 'C'"),
], ids=["undeclared", "same-name-other-degree", "central-undeclared",
        "central-same-name-other-degree", "central-on-an-ordinary-kind",
        "central-on-an-undeclared-centre"])
def test_presentation_rejects_a_term_target_it_does_not_declare(kinds, rule, central,
                                                                match):
    # caught at construction, before any bracket is evaluated
    with pytest.raises(PresentationError, match=match):
        AlgebraPresentation("bad", kinds, (rule,), central=central)


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
    with pytest.raises(PresentationError,
                       match="^validation window must be at least 2$"):
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


def test_validate_reports_a_rational_skew_residue():
    # the constant 1/3 survives in [x, x], so the residue keeps its denominator
    data = catalog.to_dict(catalog.get("witt"))
    data["brackets"][0]["terms"][0]["coeff"] = {"c0": "1/3", "cm": "1", "cn": "-1"}
    report = validate_presentation(catalog.from_dict(data), 3)
    assert report.describe() == ("witt: FAIL [skew-symmetry] at (L_-3, L_-3): "
                                 "[L_-3,L_-3] + [L_-3,L_-3] = 2/3*L_-6")
    assert (report.pairs_checked, report.triples_checked) == (0, 0)


def test_validate_reports_a_rational_jacobiator():
    # [H, I] = (2/3 + m/5) J: the jacobiator is a product of two rational
    # coefficients, so its denominator is not the rules' own
    broken = _pgca_with_coeff("H", "I", {"c0": "2/3", "cm": "1/5"})
    report = validate_presentation(broken, 3)
    assert report.describe() == ("pgca: FAIL [jacobi] at (L_-3, H_-3, I_-3): "
                                 "jacobiator = 9/5*J_-9")
    assert (report.pairs_checked, report.triples_checked) == (784, 148)


def test_validate_passes_every_catalog_entry():
    for key in catalog.keys():
        assert validate_presentation(catalog.get(key), 3).passed, key


# ---------------------------------------------------------------------------
# certificate for all indices

_SMALL = st.sampled_from([Fraction(0)] * 3 + [Fraction(v) for v in (1, -1, 2)]
                         + [Fraction(1, 2), Fraction(-1, 3)])


def _swap_a_two_kind_table(p):
    """Overwrite one orientation of a two-kind rule's tables with the other.

    The constructor always builds them as negatives of each other, and the
    evaluator reads the tables, not the rules; so this stands for a table
    compiler that got the reversal wrong, which the certificate, reading the
    same tables through bracket_indexed, must catch by itself.  That memo
    keeps what it has read, so a table is edited before any bracket of p is
    evaluated, here and in _edit_table.
    """
    a, b = next((a, b) for a, b in p._tables if a != b)
    p._tables[b, a] = p._tables[a, b]
    return p


def _edit_table(p, key, tables):
    """p with the tables of kind positions key replaced; see
    _swap_a_two_kind_table."""
    p._tables[key] = tables
    return p


@st.composite
def _presentations(draw):
    """1-3 kinds plus an optional central kind Z, in any of the four Z2
    sectors, with sparse rational affine rules (a same-kind rule
    skew-shaped half the time, so that a good share are Lie algebras),
    central cubics with m^2 and m^3 terms, a rule given in either
    orientation, and rarely a swapped two-kind table.  Z is never a bracket
    argument: the constructor rejects that.  A quarter of the draws are a
    Lie algebra without theta instead: [L_m, L_n] = (n - m) L_{m+n} and the
    intermediate series [L_m, A_n] = (a + b*m + n) A_{m+n} with a != 0,
    which is neither even nor odd in (m, n).  Another quarter are shaped
    like pgca, whose sigma swaps I and J: see _swapped."""
    z2 = st.sampled_from([(0, 0), (0, 1), (1, 0), (1, 1)])
    branch = draw(st.integers(0, 3))
    if branch == 1:
        return _swapped(draw)
    if not branch:
        L, A = BasisKind("L", (0, 0)), BasisKind("A", draw(z2))
        a, b = draw(_SMALL.filter(bool)), draw(_SMALL)
        module = BracketRule(L, A, (BracketTerm(A, affine(c0=a, cm=b, cn=1)),))
        return AlgebraPresentation("module", (L, A), (
            BracketRule(L, L, (BracketTerm(L, affine(cm=-1, cn=1)),)),
            module.reversed() if draw(st.booleans()) else module))
    kinds = [BasisKind(name, draw(z2)) for name in "ABD"[:draw(st.integers(1, 3))]]
    central = [BasisKind("Z", draw(z2))] if draw(st.booleans()) else []
    rules = []
    for i, x in enumerate(kinds):
        for y in kinds[i:]:
            if not draw(st.booleans()):
                continue
            want = ((x.z2[0] + y.z2[0]) % 2, (x.z2[1] + y.z2[1]) % 2)
            terms, targets = [], [k for k in kinds if k.z2 == want]
            for t in draw(st.lists(st.sampled_from(targets), max_size=2)) if targets else ():
                c0, cm, cn = draw(_SMALL), draw(_SMALL), draw(_SMALL)
                if x == y and draw(st.booleans()):
                    c0, cn = Fraction(0), -cm
                terms.append(BracketTerm(t, AffinePoly(c0, cm, cn)))
            cubics = []
            for z in central:
                if z.z2 == want and draw(st.booleans()):
                    k = [draw(_SMALL) for _ in range(4)]
                    if x == y and draw(st.booleans()):
                        k[0] = k[2] = Fraction(0)
                    cubics.append(CentralTerm(z, CubicPoly(*k)))
            rule = BracketRule(x, y, tuple(terms), tuple(cubics))
            rules.append(rule.reversed() if draw(st.booleans()) else rule)
    p = AlgebraPresentation("drawn", kinds + central, rules,
                            central=[z.name for z in central])
    if any(a != b for a, b in p._tables) and not draw(st.integers(0, 9)):
        _swap_a_two_kind_table(p)
    return p


def _swapped(draw):
    """A Lie algebra with a kind swap, in a drawn kind order: witt L, kinds P
    and Q in two nonzero Z2 sectors that an automorphism A of Z2 x Z2 swaps,
    each with the same intermediate series [L_m, X_n] = -(n + a + b*m) X_{m+n}
    (no theta when a != 0), and half the time a kind H in the third sector,
    with [L_m, H_n] = -n H_{m+n}, rotating them with opposite signs:
    [H, P] = r Q and [H, Q] = -r P.  P <-> Q, H -> -H is an automorphism."""
    nonzero = [(0, 1), (1, 0), (1, 1)]
    fixed = draw(st.sampled_from(nonzero))
    zp, zq = [z for z in nonzero if z != fixed]
    L, P, Q, H = (BasisKind("L", (0, 0)), BasisKind("P", zp), BasisKind("Q", zq),
                  BasisKind("H", fixed))
    series = affine(c0=-draw(_SMALL), cm=-draw(_SMALL), cn=-1)
    kinds = [L, P, Q]
    rules = [BracketRule(L, L, (BracketTerm(L, affine(cm=1, cn=-1)),)),
             BracketRule(L, P, (BracketTerm(P, series),)),
             BracketRule(L, Q, (BracketTerm(Q, series),))]
    if draw(st.booleans()):
        r = draw(_SMALL.filter(bool))
        kinds.append(H)
        rules += [BracketRule(L, H, (BracketTerm(H, affine(cn=-1)),)),
                  BracketRule(H, P, (BracketTerm(Q, affine(c0=r)),)),
                  BracketRule(H, Q, (BracketTerm(P, affine(c0=-r)),))]
    return AlgebraPresentation("swapped", draw(st.permutations(kinds)), rules)


def _fixture(kinds, rules, central=()):
    return AlgebraPresentation("fixture", kinds, rules, central=central)


_A, _B, _D = BasisKind("A", (0, 0)), BasisKind("B", (0, 0)), BasisKind("D", (0, 0))
_Z, _I = BasisKind("Z", (0, 0)), BasisKind("I", (0, 1))
_WITT_RULE = BracketRule(_A, _A, (BracketTerm(_A, affine(cm=1, cn=-1)),))
_HV_RULES = (_WITT_RULE, BracketRule(_A, _I, (BracketTerm(_I, affine(cn=-1)),)))


@settings(max_examples=150)
@given(_presentations())
# heisenberg-virasoro with [I_m, I_n] = m^3 Z_0 (Jacobi fails on the central
# plane only) and with the cocycle m Z_0 (a Lie algebra)
@example(_fixture((_A, _I, _Z), _HV_RULES + (
    BracketRule(_I, _I, (), (CentralTerm(_Z, CubicPoly(c3=Fraction(1))),)),), ("Z",)))
@example(_fixture((_A, _I, _Z), _HV_RULES + (
    BracketRule(_I, _I, (), (CentralTerm(_Z, CubicPoly(c1=Fraction(1))),)),), ("Z",)))
# [A, B] = D with D acting trivially, its reversed table swapped: only
# cross-kind skew-symmetry fails
@example(_swap_a_two_kind_table(_fixture((_A, _B, _D), [
    BracketRule(_A, _B, (BracketTerm(_D, affine(c0=1)),))])))
# [A_m, B_-m] = (1 + m + m^2 + m^3) Z_0: a Lie algebra for any cubic
@example(_fixture((_A, _B, _Z), [BracketRule(_A, _B, (), (
    CentralTerm(_Z, CubicPoly(*map(Fraction, (1, 1, 1, 1)))),))], ("Z",)))
# [A_m, B_-m] = m^3 Z_0 with [B_n, A_-n] read as n Z_0: the skew residue
# m^3 - m vanishes at m = -1, 0, 1 and first fails at m = 2
@example(_edit_table(_fixture((_A, _B, _Z), [BracketRule(_A, _B, (), (
    CentralTerm(_Z, CubicPoly(c3=Fraction(1))),))], ("Z",)), (1, 0), ({}, {2: (0, 1, 0, 0)})))
def test_certificate_agrees_with_the_windowed_check(p):
    # each identity is a polynomial that the certificate's points determine
    # (test_each_point_set_determines_its_polynomials), and every point lies
    # in the window N = 4: an identity that fails at a point fails there,
    # and one that holds at every point holds at every index
    assert certify_presentation(p) == enumerate_window(p, 4).passed


@settings(max_examples=150)
@given(_presentations())
def test_validate_reports_what_the_enumeration_reports(p):
    # a certified pass reports the enumeration's counts without enumerating,
    # and a rejected presentation gets the enumeration's report itself
    for window in (2, 3, 4):
        assert validate_presentation(p, window) == enumerate_window(p, window)


def test_validate_enumerates_only_to_name_a_witness(monkeypatch):
    # a certificate that rejects witt stands for a bug in it: below N = 4 the
    # window may hold no witness, from N = 4 on it must
    monkeypatch.setattr(core, "certify_presentation", lambda p: False)
    calls = []

    def counted(p, window):
        calls.append(window)
        return enumerate_window(p, window)

    monkeypatch.setattr(core, "enumerate_window", counted)
    witt = catalog.get("witt")
    assert validate_presentation(witt, 3) == enumerate_window(witt, 3)
    with pytest.raises(RuntimeError, match=r"^internal error: the certificate rejects "
                                           r"'witt', but the window N = 4 finds no witness$"):
        validate_presentation(witt, 4)
    assert calls == [3, 4]


def _rank_of_monomials(points, variables, degree):
    """Rank of the matrix of every monomial of total degree <= degree in
    the given number of variables, evaluated at each point."""
    monomials = [e for e in product(range(degree + 1), repeat=variables) if sum(e) <= degree]
    rows = [{j: prod(v ** k for v, k in zip(point, e)) for j, e in enumerate(monomials)}
            for point in points]
    return len(rref(SparseMatrix.from_rows(len(monomials), rows))[1])


def test_each_point_set_determines_its_polynomials():
    # a rank equal to the number of monomials means the only polynomial of
    # that degree vanishing at every point is zero; and every point lies in
    # the window that names the witness of a file load rejects
    points = _SKEW_POINTS + _CENTRAL_SKEW_POINTS + _JACOBI_POINTS + _PLANE_POINTS
    assert max(abs(i) for point in points for i in point) <= catalog.LOAD_VALIDATION_WINDOW
    assert all(m + n == 0 for m, n in _CENTRAL_SKEW_POINTS)
    assert all(x + y + z == 0 for x, y, z in _PLANE_POINTS)
    on_the_line = [(m,) for m, n in _SKEW_POINTS + _CENTRAL_SKEW_POINTS if m + n == 0]
    assert _rank_of_monomials(_SKEW_POINTS, 2, 1) == 3
    assert _rank_of_monomials(on_the_line, 1, 3) == 4
    assert _rank_of_monomials(_JACOBI_POINTS, 3, 2) == 10
    assert _rank_of_monomials([(x, y) for x, y, _ in _PLANE_POINTS], 2, 4) == 15


# ---------------------------------------------------------------------------
# kind automorphisms g(X_m) = s_X perm[X]_{flip*m}

_IDENTITY = {(a, b): (a, b) for a in (0, 1) for b in (0, 1)}


def _image(p, g, b):
    """g(b) of a basis element b as (sign, basis element)."""
    return g.signs[b.kind.name], BasisElement(p.kind(g.perm[b.kind.name]), g.flip * b.index)


def _preserves(p, brackets, g):
    """Whether [g x, g y] = g [x, y] for every pair in brackets, a
    {(x, y): [x, y]} table closed under g."""
    for (x, y), xy in brackets.items():
        (sx, gx), (sy, gy) = _image(p, g, x), _image(p, g, y)
        images = [_image(p, g, b) + (c,) for b, c in xy.items()]
        if ({b: sx * sy * c for b, c in brackets[gx, gy].items()}
                != {gb: s * c for s, gb, c in images}):
            return False
    return True


def _brackets(p, window):
    basis = p.basis_elements(window)
    return {(x, y): p.bracket_basis(x, y) for x in basis for y in basis}


_INT = st.integers(-2, 2).map(Fraction)
_PARITY = st.sampled_from(["even", "odd", "both"])


@st.composite
def _parity_presentations(draw):
    """1-4 kinds, the last one central half the time, with small int
    coefficients: each term and central cubic even, odd or both in the
    indices, so theta is found about as often as not.  Rules need not be
    Lie algebras: an automorphism only has to preserve the table."""
    z2 = st.sampled_from([(0, 0), (0, 1)])
    kinds = [BasisKind(name, draw(z2)) for name in "ABDE"[:draw(st.integers(1, 4))]]
    central = kinds[-1:] if len(kinds) > 1 and draw(st.booleans()) else []
    acting = kinds[:len(kinds) - len(central)]
    rules = []
    for i, x in enumerate(acting):
        for y in acting[i:]:
            want = ((x.z2[0] + y.z2[0]) % 2, (x.z2[1] + y.z2[1]) % 2)
            terms, cubics = [], []
            for t in acting:
                if t.z2 == want and draw(st.booleans()):
                    c0, cm, cn, parity = draw(_INT), draw(_INT), draw(_INT), draw(_PARITY)
                    if parity == "even":
                        cm = cn = Fraction(0)
                    elif parity == "odd":
                        c0 = Fraction(0)
                    terms.append(BracketTerm(t, AffinePoly(c0, cm, cn)))
            for z in central:
                if z.z2 == want and draw(st.booleans()):
                    k, parity = [draw(_INT) for _ in range(4)], draw(_PARITY)
                    if parity != "both":
                        k[parity == "even"::2] = [Fraction(0)] * 2
                    cubics.append(CentralTerm(z, CubicPoly(*k)))
            rules.append(BracketRule(x, y, tuple(terms), tuple(cubics)))
    return AlgebraPresentation("drawn", kinds, rules, central=[z.name for z in central])


@settings(max_examples=100)
@given(_parity_presentations())
# Witt with the intermediate-series module [L_m, I_n] = -(n + 1/2) I_{m+n}:
# a term both even and odd, so no signs
@example(_fixture((_A, _I), (_WITT_RULE, BracketRule(
    _A, _I, (BracketTerm(_I, affine(c0=Fraction(-1, 2), cn=-1)),)))))
# [A_m, B_n] = D_{m+n} with an odd cocycle [A_m, A_-m] = m^3 Z_0: s_A = s_Z
@example(_fixture((_A, _B, _D, _Z), (
    BracketRule(_A, _B, (BracketTerm(_D, affine(c0=1)),)),
    BracketRule(_A, _A, (), (CentralTerm(_Z, CubicPoly(c3=Fraction(1))),))), ("Z",)))
# s_A s_B s_D = -1 read first, then s_B = -1: the first equation's row
# must be reduced by the second to give s_A = +1
@example(_fixture((_A, _B, _D), (
    BracketRule(_A, _B, (BracketTerm(_D, affine(cm=1)),)),
    BracketRule(_B, _B, (BracketTerm(_B, affine(cm=1, cn=-1)),)))))
def test_index_reflection_is_exact_on_the_window(p):
    # every automorphism found preserves every bracket on the N = 3 window;
    # without theta among them, no sign vector makes theta do so there,
    # let alone at every index
    brackets = _brackets(p, 3)
    group = kind_automorphisms(p)
    assert all(_preserves(p, brackets, g) for g in group)
    names = [k.name for k in p.kinds]
    identity = dict(zip(names, names))
    if not any(g.perm == identity and g.flip == -1 for g in group):
        assert not any(_preserves(p, brackets, KindAutomorphism(
            identity, dict(zip(names, v)), -1, _IDENTITY))
            for v in product((1, -1), repeat=len(names)))


@settings(max_examples=100)
@given(_presentations())
def test_every_automorphism_found_preserves_the_bracket_of_a_drawn_algebra(p):
    # Lie algebras or not, tables swapped or not: each element preserves
    # each bracket of the window N = 4, and every kind-swapped draw has one
    # that moves a sector
    brackets = _brackets(p, 4)
    group = kind_automorphisms(p)
    assert all(_preserves(p, brackets, g) for g in group)
    if p.name == "swapped":
        assert any(g.sectors != _IDENTITY for g in group)


def test_a_changed_rotation_coefficient_loses_sigma():
    # [H, J] = -2 I: pgca's theta stays, but sigma would need [H, J] = +-I
    group = kind_automorphisms(_pgca_with_coeff("H", "J", {"c0": "-2"}))
    assert [(g.perm, g.signs, g.flip, g.sectors) for g in group] == [
        ({"L": "L", "H": "H", "I": "I", "J": "J"}, {"L": -1, "H": 1, "I": 1, "J": 1}, -1,
         _IDENTITY)]
