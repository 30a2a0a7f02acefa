"""Hand-coded recurrence oracle, and its agreement with the generic solver.

The oracle encodes each displayed coefficient recurrence literally; these
tests pin its standalone conclusions and then require that oracle and
generic solver produce the same interior solution spaces, not merely the
same dimensions.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from gradedlie import catalog
from gradedlie.core import GradingDegree
from gradedlie.linalg import SparseMatrix, nullspace, project_basis
from gradedlie.recurrences import (FAMILIES, LEMMA_EXPECTATIONS,
                                   LEMMA_GAMMA_RANGE, RECURRENCES,
                                   SECTOR_SYSTEMS, check_lemma_conclusions,
                                   recurrence_kernel, solve_case)
from gradedlie.solver import (HomogeneousSolveProblem, WindowTooSmallError,
                              assemble, scan, solve_degree, unknown_layout)
from matrices import sparse_rows

PGCA = catalog.get("pgca")
HALF = Fraction(1, 2)


def test_every_sector_system_uses_known_tags():
    assert set(SECTOR_SYSTEMS) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    for tags in SECTOR_SYSTEMS.values():
        assert len(tags) == 4
        for tag in tags:
            assert tag in RECURRENCES


def test_recurrence_tags_cover_e1_to_e20():
    assert set(RECURRENCES) == {f"e{i}" for i in range(1, 21)}
    for tag, rec in RECURRENCES.items():
        assert rec.tag == tag
        assert set(rec.families) <= set(FAMILIES)


# ---------------------------------------------------------------------------
# standalone kernels


@pytest.mark.parametrize("gamma", [-3, -1, 0, 2])
def test_e1_admits_exactly_the_constants(gamma):
    report = recurrence_kernel("e1", gamma, 8)
    assert report.classification == "scalar"
    assert report.interior_dim == 1
    assert report.basis_summary == [{"L": "1"}]


@pytest.mark.parametrize("tag", ["e7", "e8", "e13", "e17"])
@pytest.mark.parametrize("gamma", [-2, 0, 1])
def test_pure_decay_recurrences_only_admit_zero(tag, gamma):
    report = recurrence_kernel(tag, gamma, 8)
    assert report.classification == "zero"
    assert report.full_dim == 0


def test_e19_needs_e20_to_pin_the_seed_coefficient():
    # e19 fixes i_n = gamma i_0 / (gamma - n) for n != gamma, leaving the
    # seed i_0 and the resonant i_gamma free; the e20 rows force i_0 = 0
    def dim_of(tags, gamma, N):
        layout = [("L", m) for m in range(-N, N + 1)]
        index = {key: i for i, key in enumerate(layout)}
        rows = []
        for tag in tags:
            rows += [{index[key]: v for key, v in r.items()}
                     for r in RECURRENCES[tag].rows(gamma, N)]
        return len(nullspace(SparseMatrix.from_rows(len(layout), rows)))

    assert dim_of(["e19"], 2, 8) == 2
    assert dim_of(["e19", "e20"], 2, 8) == 1


def test_e20_coefficients_are_nonzero_off_the_resonant_indices():
    # the row coefficient is -4 m^3 / (gamma^2 - m^2), never zero for
    # m outside {0, gamma, -gamma}
    for gamma in (1, 2, 3):
        for row in RECURRENCES["e20"].rows(gamma, 6):
            ((_, value),) = row.items()
            assert value != 0


# ---------------------------------------------------------------------------
# the coefficient table itself


def test_pair_recurrence_rows_are_nonzero_plain_ints():
    # integral rows reach the elimination as they are, over denominator 1
    assert [tag for tag, rec in RECURRENCES.items() if not rec.integral] == ["e20"]
    for tag, rec in RECURRENCES.items():
        if not rec.integral:
            continue
        for row in list(rec.rows(-2, 8)) + list(rec.rows(3, 8)):
            assert row
            assert all(type(v) is int and v for v in row.values()), tag
            assert {fam for fam, _ in row} <= set(rec.families), tag


def test_e5_and_e9_repeat_e1():
    for gamma in (-2, 0, 3):
        e1 = list(RECURRENCES["e1"].rows(gamma, 8))
        assert list(RECURRENCES["e5"].rows(gamma, 8)) == e1
        assert list(RECURRENCES["e9"].rows(gamma, 8)) == e1


@pytest.mark.parametrize("N", [8, 10])
def test_e14_is_e13_negated_at_gamma_zero(N):
    e13 = list(RECURRENCES["e13"].rows(0, N))
    e14 = list(RECURRENCES["e14"].rows(0, N))
    assert e13
    assert e14 == [{key: -v for key, v in row.items()} for row in e13]


@pytest.mark.parametrize("gamma", [-3, -1, 0, 2, 4])
def test_e18_is_e19_plus_the_resonant_row(gamma):
    N = 8
    e18 = list(RECURRENCES["e18"].rows(gamma, N))
    e19 = list(RECURRENCES["e19"].rows(gamma, N))
    # row n reads (g-n) i_n - g i_0; it is empty at n = 0, and at n = g
    # it is the row -g i_0 that e19 leaves out
    before = sum(1 for n in range(-N, gamma) if n != 0)
    resonant = [{("L", 0): -gamma}] if gamma else []
    assert e18 == e19[:before] + resonant + e19[before:]
    assert len(e19) == 2 * N - (1 if gamma else 0)


def test_oracle_imports_no_bracket_or_row_code():
    # the oracle must stay a hand transcription: of core it may only use
    # the degree type, and of solver only window sizing and reporting
    import ast
    import gradedlie.recurrences as mod

    imported = {}
    for node in ast.walk(ast.parse(Path(mod.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.setdefault(node.module, set()).update(
                a.name for a in node.names)
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("gradedlie") for a in node.names)
    assert imported.get("core", set()) <= {"GradingDegree"}
    assert imported.get("solver", set()) <= {
        "SolveReport", "check_window", "report_from_kernel"}
    assert set(imported) <= {"__future__", "dataclasses", "fractions",
                             "typing", "core", "linalg", "solver"}


def test_recurrence_kernel_enforces_window_sizing():
    with pytest.raises(WindowTooSmallError):
        recurrence_kernel("e1", 3, 6)


# entry point -> (the shift it sizes for, a call on a window N)
_SIZED = {
    "scan": (2, lambda N: scan(PGCA, HALF, 2, N)),
    "solve_degree": (-2, lambda N: solve_degree(HomogeneousSolveProblem(
        PGCA, HALF, GradingDegree(1, 0, -2), N, N // 2))),
    "solve_case": (3, lambda N: solve_case((0, 1), 3, N)),
    "recurrence_kernel": (-1, lambda N: recurrence_kernel("e13", -1, N)),
    "check_lemma_conclusions": (LEMMA_GAMMA_RANGE, check_lemma_conclusions),
}


@pytest.mark.parametrize("entry", _SIZED)
def test_every_entry_point_sizes_its_window_by_one_rule(entry):
    # a shift gamma needs N >= 2(|gamma|+1), and that N is enough
    gamma, call = _SIZED[entry]
    need = 2 * (abs(gamma) + 1)
    with pytest.raises(WindowTooSmallError) as err:
        call(need - 1)
    assert (err.value.window, err.value.gamma, err.value.required) == (need - 1, gamma, need)
    call(need)


@pytest.mark.parametrize("N", [8, 9])
def test_the_default_interior_is_half_the_window(N):
    assert scan(PGCA, HALF, 1, N).interior == N // 2
    assert check_lemma_conclusions(N).interior == N // 2
    for shift in SECTOR_SYSTEMS:
        assert solve_case(shift, 1, N) == solve_case(shift, 1, N, N // 2)


# ---------------------------------------------------------------------------
# coupled sector systems


def test_neutral_sector_system_reproduces_the_scalar_line():
    report = solve_case((0, 0), 0, 12, 5)
    assert report.classification == "scalar"
    assert report.interior_dim == 1
    assert report.basis_summary == [
        {"L": "1", "H": "1", "I": "1", "J": "1"}]


@pytest.mark.parametrize("shift,gamma", [
    ((0, 0), 1), ((0, 0), -2), ((1, 1), 0), ((0, 1), 0), ((0, 1), 2),
    ((1, 0), 0), ((1, 0), -1),
])
def test_shifted_sector_systems_are_zero(shift, gamma):
    report = solve_case(shift, gamma, 12)
    assert report.classification == "zero"
    assert report.full_dim == 0


def test_solve_case_rejects_unknown_shifts_and_small_windows():
    with pytest.raises(ValueError):
        solve_case((2, 0), 0, 8)
    with pytest.raises(WindowTooSmallError):
        solve_case((0, 0), 4, 8)


# ---------------------------------------------------------------------------
# oracle vs generic solver: identical interior solution spaces


def _generic_interior_basis(shift, gamma, window, interior):
    prob = HomogeneousSolveProblem(PGCA, HALF, GradingDegree(*shift, gamma),
                                   window, interior)
    layout = unknown_layout(prob)
    kernel = nullspace(assemble(prob, layout))
    cols = [i for i, (_, m) in enumerate(layout.columns) if abs(m) <= interior]
    return layout.columns, project_basis(kernel, cols)


def _oracle_interior_basis(shift, gamma, window, interior):
    layout = [(fam, m) for fam in FAMILIES for m in range(-window, window + 1)]
    index = {key: i for i, key in enumerate(layout)}
    rows = []
    for tag in SECTOR_SYSTEMS[shift]:
        rows += [{index[key]: v for key, v in r.items()}
                 for r in RECURRENCES[tag].rows(gamma, window)]
    kernel = nullspace(SparseMatrix.from_rows(len(layout), rows))
    cols = [i for i, (_, m) in enumerate(layout) if abs(m) <= interior]
    return layout, project_basis(kernel, cols)


@pytest.mark.parametrize("shift", sorted(SECTOR_SYSTEMS))
@pytest.mark.parametrize("gamma", [-2, 0, 1])
def test_oracle_and_generic_solver_agree_on_the_solution_space(shift, gamma):
    layout_g, basis_g = _generic_interior_basis(shift, gamma, 10, 4)
    layout_o, basis_o = _oracle_interior_basis(shift, gamma, 10, 4)
    # identical column layouts make reduced bases directly comparable
    assert layout_g == layout_o
    assert basis_g.vectors == basis_o.vectors


def _up_to_scale(row):
    lead = row[min(row)]
    return tuple(sorted((c, Fraction(v) / lead) for c, v in row.items()))


@pytest.mark.parametrize("shift", sorted(SECTOR_SYSTEMS))
@pytest.mark.parametrize("gamma", range(-2, 3))
def test_every_oracle_row_is_an_assembled_row_up_to_scale(shift, gamma):
    # kernel agreement cannot see an oracle row that only over-constrains
    # a degree whose kernel is already zero; each row must be a multiple
    # of a row the assembler derives from the bracket
    N = 8
    prob = HomogeneousSolveProblem(PGCA, HALF, GradingDegree(*shift, gamma), N, N // 2)
    layout = unknown_layout(prob)
    matrix = assemble(prob, layout)
    derived = {_up_to_scale(row) for row in sparse_rows(matrix)}
    checked = 0
    for tag in SECTOR_SYSTEMS[shift]:
        for row in RECURRENCES[tag].rows(gamma, N):
            mapped = {layout.index[key]: v for key, v in row.items()}
            assert _up_to_scale(mapped) in derived, (tag, row)
            checked += 1
    assert checked


@pytest.mark.parametrize("shift,gamma", [((0, 0), 0), ((1, 1), 1)])
def test_oracle_and_generic_reports_agree(shift, gamma):
    oracle = solve_case(shift, gamma, 10, 4)
    generic = solve_degree(HomogeneousSolveProblem(
        PGCA, HALF, GradingDegree(*shift, gamma), 10, 4))
    assert oracle.interior_dim == generic.interior_dim
    assert oracle.classification == generic.classification
    assert oracle.basis_summary == generic.basis_summary


# ---------------------------------------------------------------------------
# lemma conclusion checks


def test_lemma_conclusions_all_pass_at_window_twelve():
    report = check_lemma_conclusions(12)
    assert report.all_passed
    gammas = range(-LEMMA_GAMMA_RANGE, LEMMA_GAMMA_RANGE + 1)
    assert len(report.checks) == len(LEMMA_EXPECTATIONS) * len(list(gammas))
    for check in report.checks:
        assert check.passed
        if check.tag == "e1":
            assert check.expected == "constants"
            assert check.interior_dim == 1
        else:
            assert check.expected == "zero"
            assert check.interior_dim == 0


def test_lemma_checks_require_a_window_that_separates_all_gammas():
    with pytest.raises(WindowTooSmallError):
        check_lemma_conclusions(6)


def test_lemma_report_json_shape():
    report = check_lemma_conclusions(8)
    data = report.to_json_dict()
    assert data["all_passed"] is True
    assert data["window"] == 8
    assert len(data["results"]) == len(report.checks)
    first = data["results"][0]
    assert set(first) == {"equation", "gamma", "expected", "interior_dim",
                          "classification", "passed"}
