"""The tuple-based value types keep the behaviour of plain field records.

Each value type is a tuple of its fields, in the order listed in FIELDS
below: it hashes as that plain tuple, the three ordered ones sort as it,
and its repr is Name(field=value, ...).  Set iteration orders, sorted
output and every message built from a repr depend on these facts, so the
field names and orders are pinned here literally.  The validation each
type does on construction raises the same errors with the same messages.

The results (RESULT_FIELDS) are tuples of their fields too, each built
once by the one function that makes it: no field can be assigned, those
whose fields all hash hash as their field tuple, and their JSON and text
forms are pinned on small inputs.  VectorBasis stays a class, equal
field-wise, its len the vector count.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from gradedlie import catalog
from gradedlie.core import (AffinePoly, BasisElement, BasisKind, BracketRule,
                            BracketTerm, CentralTerm, CubicPoly, Element, GradingDegree,
                            PresentationError, ValidationReport, enumerate_window,
                            validate_presentation)
from gradedlie.linalg import VectorBasis
from gradedlie.poisson import (AxiomReport, ProductTable, TPClassification, check_axioms,
                               classify_products)
from gradedlie.recurrences import (RECURRENCES, LemmaCheck, LemmaCheckReport, Recurrence,
                                   check_lemma_conclusions)
from gradedlie.solver import (HomogeneousSolveProblem, ScanResult, SolveReport, SolverError,
                              UnknownLayout, scan, solve_degree, unknown_layout)

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
    Recurrence: ("tag", "families", "rows", "terms"),
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


# ---------------------------------------------------------------------------
# results

RESULT_FIELDS = {
    ValidationReport: ("presentation", "window", "passed", "pairs_checked",
                       "triples_checked", "check", "witnesses", "detail"),
    AxiomReport: ("passed", "window", "triples_checked", "triples_skipped", "violation",
                  "witnesses"),
    UnknownLayout: ("columns", "families", "images", "index"),
    SolveReport: ("degree", "full_dim", "interior_dim", "classification", "basis_summary"),
    ScanResult: ("algebra", "delta", "window", "interior", "reports", "verdict"),
    TPClassification: ("algebra", "window", "verdict", "solution_dim", "path", "basis_count",
                       "derivation_verdict"),
    LemmaCheck: ("tag", "gamma", "expected", "interior_dim", "classification", "passed"),
    LemmaCheckReport: ("window", "interior", "checks"),
}

# the results none of whose fields holds a list or a dict
HASHABLE = (ValidationReport, AxiomReport, TPClassification, LemmaCheck)

WITT, ABELIAN, PGCA = (catalog.get(key) for key in ("witt", "abelian", "pgca"))
WITT_DEGREE_1 = HomogeneousSolveProblem(WITT, Fraction(1, 2), GradingDegree(0, 0, 1), 4, 2)


def _flipped_pgca():
    """pgca with [L, I] negated, which breaks Jacobi."""
    data = catalog.to_dict(PGCA)
    rule = next(r for r in data["brackets"] if (r["left"], r["right"]) == ("L", "I"))
    rule["terms"][0]["coeff"] = {"cm": "-1", "cn": "1"}
    return catalog.from_dict(data)


def _product_table(p, pairs):
    table = ProductTable(p, 1)
    for (x, i), (y, j), (t, k) in pairs:
        table.set(BasisElement(p.kind(x), i), BasisElement(p.kind(y), j),
                  Element.basis(BasisElement(p.kind(t), k)))
    return table


LEMMAS = check_lemma_conclusions(8)

# (id, result) from each type's maker, passing and failing where it can fail
RESULTS = [
    ("validation-pass", validate_presentation(WITT, 2)),
    ("validation-fail", enumerate_window(_flipped_pgca(), 2)),
    ("axioms-pass", check_axioms(ProductTable(WITT, 1))),
    ("axioms-associativity", check_axioms(_product_table(
        ABELIAN, [(("A", 0), ("A", 0), ("A", 1)), (("A", 0), ("A", 1), ("A", 0))]))),
    ("axioms-compatibility", check_axioms(_product_table(
        WITT, [(("L", 0), ("L", 0), ("L", 0))]))),
    ("layout", unknown_layout(WITT_DEGREE_1)),
    ("solve", solve_degree(WITT_DEGREE_1)),
    ("scan", scan(WITT, Fraction(1, 2), 0, 2)),
    ("products", classify_products(PGCA, "scalar-only", 1)),
    ("lemma", LEMMAS.checks[0]),
    ("lemmas", LEMMAS),
]
RESULT_IDS = [name for name, _ in RESULTS]
RESULT_VALUES = [x for _, x in RESULTS]


def _result_fields(x) -> tuple:
    return tuple(getattr(x, name) for name in RESULT_FIELDS[type(x)])


def test_every_result_type_is_pinned_and_made():
    assert all(cls._fields == names for cls, names in RESULT_FIELDS.items())
    assert {type(x) for x in RESULT_VALUES} == set(RESULT_FIELDS)


@pytest.mark.parametrize("x", RESULT_VALUES, ids=RESULT_IDS)
def test_a_result_repr_names_every_field_in_order(x):
    shown = ", ".join(f"{name}={value!r}"
                      for name, value in zip(RESULT_FIELDS[type(x)], _result_fields(x)))
    assert repr(x) == f"{type(x).__name__}({shown})"


@pytest.mark.parametrize("x", RESULT_VALUES, ids=RESULT_IDS)
def test_a_result_equals_its_field_tuple(x):
    same = type(x)(*_result_fields(x))
    assert same == x and not same != x
    assert tuple(x) == _result_fields(x)
    if type(x) in HASHABLE:
        assert hash(x) == hash(_result_fields(x))
    else:
        with pytest.raises(TypeError):
            hash(x)


@pytest.mark.parametrize("x", RESULT_VALUES, ids=RESULT_IDS)
def test_no_result_field_can_be_assigned(x):
    for name in RESULT_FIELDS[type(x)] + ("extra",):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
    assert x == type(x)(*_result_fields(x))


def test_result_json_and_text_forms_are_unchanged():
    results = dict(RESULTS)
    assert results["validation-pass"].describe() == "witt: PASS (window=2, 25 pairs, 10 triples)"
    assert results["validation-fail"].describe() == (
        "pgca: FAIL [jacobi] at (L_-2, L_-1, I_-2): jacobiator = 2*I_-5")
    fail = results["validation-fail"]
    assert (fail.pairs_checked, fail.triples_checked) == (400, 9)
    assert results["axioms-pass"].describe() == (
        "PASS (window=1, 36 triples, 0 skipped at the boundary)")
    assert results["axioms-associativity"].describe() == (
        "FAIL at (A_0, A_0, A_1): associativity: (A_0.A_0).A_1 = 0 but A_0.(A_0.A_1) = A_1")
    assert results["axioms-associativity"].triples_checked == 13
    assert results["axioms-compatibility"].describe() == (
        "FAIL at (L_-1, L_0, L_0): compatibility: 2 L_0.[L_-1,L_0] = 0 but "
        "[L_0.L_-1,L_0] + [L_-1,L_0.L_0] = -L_-1")
    assert results["axioms-compatibility"].triples_checked == 23
    layout = results["layout"]
    assert layout.columns == [("L", m) for m in range(-4, 5)]
    assert layout.index == {key: i for i, key in enumerate(layout.columns)}
    assert results["solve"].to_json_dict() == {
        "degree": [0, 0, 1], "full_dim": 1, "interior_dim": 1,
        "classification": "scalar", "basis": [{"L": "1"}]}
    zero = {"full_dim": 0, "interior_dim": 0, "classification": "zero", "basis": []}
    assert results["scan"].to_json_dict() == {
        "algebra": "witt", "delta": "1/2", "window": 2, "interior": 1,
        "reports": [{"degree": [0, 0, 0], "full_dim": 1, "interior_dim": 1,
                     "classification": "scalar", "basis": [{"L": "1"}]}]
                   + [{"degree": [*eps, 0], **zero} for eps in ((0, 1), (1, 0), (1, 1))],
        "verdict": "scalar-only"}
    assert results["products"].to_json_dict() == {
        "algebra": "pgca", "window": 1, "verdict": "trivial", "solution_dim": 0,
        "path": "scalar-functional", "basis_count": 12, "derivation_verdict": "scalar-only"}
    data = results["lemmas"].to_json_dict()
    assert (data["window"], data["interior"], data["all_passed"], len(data["results"])) == (
        8, 4, True, 35)
    assert data["results"][0] == {"equation": "e1", "gamma": -3, "expected": "constants",
                                  "interior_dim": 1, "classification": "scalar",
                                  "passed": True}


def test_a_vector_basis_compares_field_wise_and_counts_its_vectors():
    basis = VectorBasis(3, [[1, 0, 2], [0, 1, 3]])
    assert basis == VectorBasis(3, [[1, 0, 2], [0, 1, 3]])
    assert basis != VectorBasis(3, [[1, 0, 2]])
    assert VectorBasis(2, []) != VectorBasis(3, [])
    assert basis != (3, [[1, 0, 2], [0, 1, 3]])
    assert repr(basis) == "VectorBasis(dimension=3, vectors=[[1, 0, 2], [0, 1, 3]])"
    assert len(basis) == 2 and basis
    assert len(VectorBasis(3, [])) == 0 and not VectorBasis(3, [])
    with pytest.raises(TypeError):
        hash(basis)
