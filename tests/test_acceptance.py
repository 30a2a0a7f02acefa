"""End-to-end acceptance checks for the full toolkit.

Each test states one headline fact about the windowed computations and
verifies it through the public interfaces, mostly at the full working
window (N, M) = (16, 6).  Everything is exact rational arithmetic; there
are no tolerances anywhere.

The one-family algebra ``witt`` has a half-derivation at every degree
shift: the map D(L_m) = L_{m+g} satisfies
D[L_m, L_n] = 1/2 ([D L_m, L_n] + [L_m, D L_n]) because
2(m-n) = (m+g-n) + (m-n-g).  ``test_one_family_scan_is_scalar_only`` keeps
the name it got when the question "is the one-family scan scalar-only?"
was asked; the answer is no, and the test asserts those shift lines and
checks the identity itself through the bracket, independently of the
solver.
"""

import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from gradedlie import catalog
from gradedlie.cli import EXIT_OK, main
from gradedlie.core import (BasisElement, Element, GradingDegree, bracket,
                            validate_presentation)
from gradedlie.recurrences import check_lemma_conclusions, solve_case
from gradedlie.solver import (HomogeneousSolveProblem, VERDICT_NOT_SCALAR_ONLY,
                              VERDICT_SCALAR_ONLY, assemble, scan,
                              solve_degree, unknown_layout)
from matrices import mul_vec
from test_recurrences import _generic_interior_basis, _oracle_interior_basis

PGCA = catalog.get("pgca")
HALF = Fraction(1, 2)
GOLDEN = Path(__file__).parent / "goldens" / "pgca_half_scan.json"
WINDOW = 16
INTERIOR = 6

ALL_DEGREES = [(e1, e2, g)
               for e1 in (0, 1) for e2 in (0, 1) for g in range(-4, 5)]


def test_pgca_half_derivation_scan_is_scalar_only_at_full_window(tmp_path):
    """The flagship scan: one scalar line at (0,0,0), nothing else, fast.

    Its output is also frozen byte for byte in goldens/pgca_half_scan.json;
    35 of its 36 degrees stop reading constraint rows at the zero-kernel
    certificate, so the golden pins what that early stop reports.
    """
    target = tmp_path / "scan.json"
    started = time.monotonic()
    code = main(["solve", "--algebra", "pgca", "--delta", "1/2",
                 "--gamma-max", "4", "--window", str(WINDOW),
                 "--format", "json", "--output", str(target)])
    elapsed = time.monotonic() - started

    assert code == EXIT_OK
    assert target.read_bytes() == GOLDEN.read_bytes()
    data = json.loads(target.read_text())
    assert data["verdict"] == "scalar-only"
    assert len(data["reports"]) == 36

    by_degree = {tuple(r["degree"]): r for r in data["reports"]}
    neutral = by_degree[(0, 0, 0)]
    assert neutral["classification"] == "scalar"
    assert neutral["interior_dim"] == 1
    for degree in ALL_DEGREES:
        if degree != (0, 0, 0):
            assert by_degree[degree]["classification"] == "zero", degree
            assert by_degree[degree]["interior_dim"] == 0, degree

    assert elapsed < 30, f"scan took {elapsed:.1f}s"


def test_pgca_products_are_trivial(tmp_path):
    """No nonzero commutative product is compatible with the bracket."""
    target = tmp_path / "tp.json"
    code = main(["tp-classify", "--algebra", "pgca", "--window", "8",
                 "--format", "json", "--output", str(target)])
    assert code == EXIT_OK
    data = json.loads(target.read_text())
    assert data["verdict"] == "trivial"
    assert data["solution_dim"] == 0


def test_recurrence_lemma_conclusions_hold_at_window_twelve():
    """Constants for the neutral recurrence, zero for the four decays."""
    report = check_lemma_conclusions(12)
    failures = [(c.tag, c.gamma, c.classification)
                for c in report.checks if not c.passed]
    assert report.all_passed, failures


@pytest.mark.parametrize("degree", ALL_DEGREES)
def test_oracle_and_generic_solver_agree_at_full_window(degree):
    """Hand-coded recurrences and mechanical assembly give the same answer.

    Not just the same dimension and verdict: the same column layout and
    the same reduced interior basis vectors.
    """
    eps1, eps2, gamma = degree
    generic = solve_degree(HomogeneousSolveProblem(
        PGCA, HALF, GradingDegree(eps1, eps2, gamma), WINDOW, INTERIOR))
    oracle = solve_case((eps1, eps2), gamma, WINDOW, INTERIOR)
    assert generic.interior_dim == oracle.interior_dim
    assert generic.classification == oracle.classification

    layout_g, basis_g = _generic_interior_basis((eps1, eps2), gamma,
                                                WINDOW, INTERIOR)
    layout_o, basis_o = _oracle_interior_basis((eps1, eps2), gamma,
                                               WINDOW, INTERIOR)
    assert layout_g == layout_o
    assert basis_g.vectors == basis_o.vectors
    assert len(basis_g) == generic.interior_dim


@pytest.mark.parametrize("key", catalog.keys())
def test_every_catalog_algebra_validates_at_window_six(key):
    """Grading, skew-symmetry and Jacobi hold on every in-window tuple."""
    report = validate_presentation(catalog.get(key), 6)
    assert report.passed, report.describe()


def test_delta_values_are_distinguished_not_hardcoded():
    """At delta = 1 the solver admits ad L_0 and stops reporting scalars."""
    problem = HomogeneousSolveProblem(
        PGCA, Fraction(1), GradingDegree(0, 0, 0), WINDOW, INTERIOR)
    layout = unknown_layout(problem)
    matrix = assemble(problem, layout)
    ad_l0 = [Fraction(-m) for (_, m) in layout.columns]
    assert not any(mul_vec(matrix, ad_l0))

    report = solve_degree(problem)
    assert report.classification != "scalar"


def test_one_family_scan_is_scalar_only():
    """No: the one-family algebra keeps a shift line at every gamma.

    The shift map D(L_m) = L_{m+g} is a half-derivation for every g, since
    2(m-n) = (m+g-n) + (m-n-g).  The scan must report one scalar {"L": "1"}
    line at each (0, 0, g), zero in the odd sectors, and the verdict
    "not-scalar-only".  The identity is checked directly with the bracket
    on every pair (L_m, L_n) whose indices stay in the window.
    """
    witt = catalog.get("witt")
    gamma_max, window = 4, 12
    result = scan(witt, HALF, gamma_max, window)
    assert result.verdict == VERDICT_NOT_SCALAR_ONLY

    by_degree = {(r.degree.eps1, r.degree.eps2, r.degree.index): r
                 for r in result.reports}
    assert sorted(by_degree) == sorted(ALL_DEGREES)
    assert len(result.reports) == len(ALL_DEGREES)
    for (eps1, eps2, gamma), report in by_degree.items():
        if (eps1, eps2) == (0, 0):
            assert report.classification == "scalar", gamma
            assert report.interior_dim == 1, gamma
            assert report.basis_summary == [{"L": "1"}], gamma
        else:
            assert report.classification == "zero", (eps1, eps2, gamma)
            assert report.interior_dim == 0, (eps1, eps2, gamma)

    L = witt.kind("L")

    def shift(x: Element, gamma: int) -> Element:
        return Element({BasisElement(L, b.index + gamma): c
                        for b, c in x.items()})

    span = range(-window, window + 1)
    for gamma in range(-gamma_max, gamma_max + 1):
        checked = 0
        for m in span:
            for n in span:
                if any(abs(i) > window
                       for i in (m + n, m + gamma, n + gamma, m + n + gamma)):
                    continue
                x = Element.basis(BasisElement(L, m))
                y = Element.basis(BasisElement(L, n))
                lhs = shift(bracket(witt, x, y), gamma).scale(2)
                rhs = (bracket(witt, shift(x, gamma), y)
                       + bracket(witt, x, shift(y, gamma)))
                assert lhs == rhs, (gamma, m, n)
                checked += 1
        assert checked > 0, gamma


def test_two_family_centerless_scan_is_scalar_only():
    """A current family I, [L_m, I_n] = -n I_{m+n}, removes the shift freedom."""
    result = scan(catalog.get("heisenberg-virasoro"), HALF, 4, 12)
    assert result.verdict == VERDICT_SCALAR_ONLY
