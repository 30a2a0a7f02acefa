"""The tuple-based value types keep the behaviour of plain field records.

Each value type is a tuple of its fields, in the order listed in FIELDS
below: it hashes as that plain tuple, the three ordered ones sort as it,
and its repr is Name(field=value, ...).  Set iteration orders, sorted
output and every message built from a repr depend on these facts, so the
field names and orders are pinned here literally.  The validation each
type does on construction raises the same errors with the same messages.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from gradedlie import catalog
from gradedlie.core import (AffinePoly, BasisElement, BasisKind, BracketRule,
                            BracketTerm, CentralTerm, CubicPoly, GradingDegree,
                            PresentationError)
from gradedlie.recurrences import RECURRENCES, Recurrence
from gradedlie.solver import HomogeneousSolveProblem, SolverError

FIELDS = {
    GradingDegree: ("eps1", "eps2", "index"),
    BasisKind: ("name", "z2"),
    BasisElement: ("kind", "index"),
    AffinePoly: ("c0", "cm", "cn"),
    CubicPoly: ("c0", "c1", "c2", "c3"),
    BracketTerm: ("target", "coeff"),
    CentralTerm: ("target", "coeff"),
    BracketRule: ("left", "right", "terms", "central_terms"),
    HomogeneousSolveProblem: ("presentation", "delta", "degree", "window", "interior"),
    Recurrence: ("tag", "families", "rows", "full"),
}

Z2 = [(0, 0), (0, 1), (1, 0), (1, 1)]
BIT = st.integers(0, 1)
FRACTIONS = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6))

DEGREES = st.builds(GradingDegree, BIT, BIT, st.integers(-20, 20))
KINDS = st.builds(BasisKind, st.sampled_from(["L", "H", "I", "J", "X>"]),
                  st.sampled_from(Z2))
ELEMENTS = st.builds(BasisElement, KINDS, st.integers(-20, 20))
AFFINES = st.builds(AffinePoly, FRACTIONS, FRACTIONS, FRACTIONS)
CUBICS = st.builds(CubicPoly, FRACTIONS, FRACTIONS, FRACTIONS, FRACTIONS)
BRACKET_TERMS = st.builds(BracketTerm, KINDS, AFFINES)
CENTRAL_TERMS = st.builds(CentralTerm, KINDS, CUBICS)


@st.composite
def rules(draw):
    """A rule whose every target carries the sum of its arguments' degrees."""
    left, right = draw(KINDS), draw(KINDS)
    want = ((left.z2[0] + right.z2[0]) % 2, (left.z2[1] + right.z2[1]) % 2)
    target = st.builds(BasisKind, st.sampled_from(["L", "C"]), st.just(want))
    terms = draw(st.lists(st.builds(BracketTerm, target, AFFINES), max_size=3))
    central = draw(st.lists(st.builds(CentralTerm, target, CUBICS), max_size=2))
    return BracketRule(left, right, tuple(terms), tuple(central))


PRESENTATIONS = [catalog.get(key) for key in catalog.keys()]


@st.composite
def problems(draw):
    window = draw(st.integers(1, 12))
    return HomogeneousSolveProblem(draw(st.sampled_from(PRESENTATIONS)), draw(FRACTIONS),
                                   draw(DEGREES), window, draw(st.integers(0, window)))


VALUES = st.one_of(DEGREES, KINDS, ELEMENTS, AFFINES, CUBICS, BRACKET_TERMS,
                   CENTRAL_TERMS, rules(), problems(),
                   st.sampled_from(list(RECURRENCES.values())))


def _fields(x) -> tuple:
    return tuple(getattr(x, name) for name in FIELDS[type(x)])


def test_every_value_type_is_pinned():
    assert all(cls._fields == names for cls, names in FIELDS.items())


@given(VALUES)
def test_repr_names_every_field_in_order(x):
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(FIELDS[type(x)], _fields(x)))
    assert repr(x) == f"{type(x).__name__}({shown})"


@given(VALUES)
def test_equality_is_that_of_the_field_tuple(x):
    same = type(x)(*_fields(x))
    assert same == x and not same != x
    assert tuple(x) == _fields(x)


@given(st.one_of(DEGREES, KINDS, ELEMENTS, AFFINES, CUBICS, BRACKET_TERMS,
                 CENTRAL_TERMS, rules(), st.sampled_from(list(RECURRENCES.values()))))
def test_hash_is_that_of_the_field_tuple(x):
    assert hash(x) == hash(_fields(x))


def test_a_problem_is_unhashable_as_its_presentation_is():
    problem = HomogeneousSolveProblem(PRESENTATIONS[0], Fraction(1, 2),
                                      GradingDegree(0, 0, 0), 4, 2)
    with pytest.raises(TypeError):
        hash(problem)


@pytest.mark.parametrize("values", [DEGREES, KINDS, ELEMENTS],
                         ids=["degree", "kind", "element"])
@given(data=st.data())
def test_sorting_follows_the_field_tuples(values, data):
    xs = data.draw(st.lists(values, max_size=12))
    assert sorted(xs) == sorted(xs, key=_fields)
    assert [_fields(x) for x in sorted(xs)] == sorted(_fields(x) for x in xs)


@given(st.integers(-3, 3).filter(lambda e: e not in (0, 1)), BIT, st.integers(-9, 9))
def test_a_bad_z2_component_raises_as_before(bad, bit, index):
    for eps in ((bad, bit), (bit, bad)):
        with pytest.raises(PresentationError) as err:
            GradingDegree(*eps, index)
        assert str(err.value) == f"Z2 components must be 0 or 1: ({eps[0]},{eps[1]},{index})"


@given(st.tuples(st.integers(-2, 3), st.integers(-2, 3)).filter(lambda z: z not in Z2))
def test_a_bad_kind_degree_raises_as_before(z2):
    with pytest.raises(PresentationError) as err:
        BasisKind("X", z2)
    assert str(err.value) == f"bad Z2 x Z2 degree for kind 'X': {z2}"


@given(KINDS, KINDS, st.sampled_from(Z2), st.booleans())
def test_a_wrong_sector_target_raises_as_before(left, right, z2, central):
    want = ((left.z2[0] + right.z2[0]) % 2, (left.z2[1] + right.z2[1]) % 2)
    assume(z2 != want)
    target = BasisKind("T", z2)
    term = CentralTerm(target, CubicPoly()) if central else BracketTerm(target, AffinePoly())
    with pytest.raises(PresentationError) as err:
        BracketRule(left, right, () if central else (term,), (term,) if central else ())
    assert str(err.value) == (f"rule [{left.name},{right.name}]: "
                              f"{'central ' if central else ''}target T has Z2 degree "
                              f"{z2}, expected {want}")


@given(rules())
def test_a_rule_drops_its_zero_terms(rule):
    assert all(not t.coeff.is_zero for t in rule.terms + rule.central_terms)
    zero = BracketRule(rule.left, rule.right, rule.terms + tuple(
        BracketTerm(t.target, AffinePoly()) for t in rule.terms), rule.central_terms)
    assert zero == rule


@given(st.integers(-5, 0), st.integers(0, 3))
def test_a_nonpositive_window_raises_as_before(window, interior):
    with pytest.raises(SolverError) as err:
        HomogeneousSolveProblem(PRESENTATIONS[0], 1, GradingDegree(0, 0, 0), window, interior)
    assert str(err.value) == "window must be positive"


@given(st.integers(1, 12), st.integers(-20, 20))
def test_an_interior_outside_the_window_raises_as_before(window, interior):
    if 0 <= interior <= window:
        problem = HomogeneousSolveProblem(PRESENTATIONS[0], 1, GradingDegree(0, 0, 0),
                                          window, interior)
        assert problem.delta == 1 and type(problem.delta) is Fraction
        return
    with pytest.raises(SolverError) as err:
        HomogeneousSolveProblem(PRESENTATIONS[0], 1, GradingDegree(0, 0, 0), window, interior)
    assert str(err.value) == "interior must lie inside the window"
