"""Hand-coded recurrence oracle, and its agreement with the generic solver.

The oracle encodes each displayed coefficient recurrence literally; these
tests pin its standalone conclusions and then require that oracle and
generic solver produce the same interior solution spaces, not merely the
same dimensions.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from gradedlie import catalog, recurrences
from gradedlie.core import GradingDegree
from gradedlie.linalg import SparseMatrix, nullspace, project_basis
from gradedlie.recurrences import (FAMILIES, LEMMA_EXPECTATIONS,
                                   LEMMA_GAMMA_RANGE, RECURRENCES,
                                   SECTOR_SYSTEMS, check_lemma_conclusions,
                                   recurrence_kernel, solve_case)
from gradedlie.solver import (HomogeneousSolveProblem, WindowTooSmallError,
                              assemble, report_from_kernel, scan, solve_degree,
                              unknown_layout)
from matrices import sparse_rows

PGCA = catalog.get("pgca")
HALF = Fraction(1, 2)


def _full_reading(tags, families, gamma, N):
    """The kernel of the rows of the tags, or of hand-built Recurrences, on
    the window N, every row read and the kernel checked against each, and
    the layout it is written on."""
    layout = [(fam, m) for fam in families for m in range(-N, N + 1)]
    index = {key: i for i, key in enumerate(layout)}
    recs = [RECURRENCES[tag] if isinstance(tag, str) else tag for tag in tags]
    rows = [{index[key]: v for key, v in row.items()}
            for rec in recs for row in rec.rows(gamma, N)]
    return nullspace(SparseMatrix.from_rows(len(layout), rows)), layout


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
    assert len(_full_reading(["e19"], ("L",), 2, 8)[0]) == 2
    assert len(_full_reading(["e19", "e20"], ("L",), 2, 8)[0]) == 1


def test_e20_coefficients_are_nonzero_off_the_resonant_indices():
    # each row is the displayed coefficient 4m - 4m g^2 / ((g-m)(g+m)) of
    # i_0 times (g-m)(g+m), over m outside {0, g, -g}: that is -4 m^3,
    # never zero there
    N = 6
    for gamma in (-3, -1, 0, 1, 2, 3):
        want = []
        for m in range(-N, N + 1):
            if m in (0, gamma, -gamma):
                continue
            denominator = (gamma - m) * (gamma + m)
            displayed = 4 * m - Fraction(4 * m * gamma * gamma, denominator)
            want.append({("L", 0): displayed * denominator})
        rows = list(RECURRENCES["e20"].rows(gamma, N))
        assert rows == want, gamma
        assert all(type(v) is int and v for row in rows for v in row.values())


# ---------------------------------------------------------------------------
# the coefficient table itself


def test_pair_recurrence_rows_are_nonzero_plain_ints():
    # every tag's rows, e20's included, reach the elimination as they are,
    # over denominator 1
    for tag, rec in RECURRENCES.items():
        rows = list(rec.rows(-2, 8)) + list(rec.rows(3, 8))
        assert rows, tag
        for row in rows:
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
    assert set(imported) <= {"__future__", "fractions",
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
    kernel, layout = _full_reading(SECTOR_SYSTEMS[shift], FAMILIES, gamma, window)
    cols = [i for i, (_, m) in enumerate(layout) if abs(m) <= interior]
    return layout, project_basis(kernel, cols)


@pytest.mark.parametrize("shift", sorted(SECTOR_SYSTEMS))
@pytest.mark.parametrize("gamma", [-2, 0, 1])
def test_oracle_and_generic_solver_agree_on_the_solution_space(shift, gamma):
    layout_g, basis_g = _generic_interior_basis(shift, gamma, 10, 4)
    layout_o, basis_o = _oracle_interior_basis(shift, gamma, 10, 4)
    # identical column layouts make reduced bases directly comparable
    assert layout_g == layout_o
    assert basis_g == basis_o


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


# ---------------------------------------------------------------------------
# the affine kernel certificate on the oracle's own rows

_FULL_TAGS = [f"e{i}" for i in range(1, 18)]


def _streamed_matrices(monkeypatch):
    """Every matrix the oracle streams from now on, as it is made."""
    made, original = [], SparseMatrix.from_stream.__func__

    def recording(cls, *args, **kwargs):
        made.append(original(cls, *args, **kwargs))
        return made[-1]
    monkeypatch.setattr(SparseMatrix, "from_stream", classmethod(recording))
    return made


@pytest.mark.parametrize("system", _FULL_TAGS + sorted(SECTOR_SYSTEMS), ids=str)
def test_the_certified_oracle_equals_a_full_reading(system, monkeypatch):
    # each full tag on its own and each sector system carries the affine
    # certificate, and the kernel its report reads on the window N, zero or
    # extended from its own window, is, vector by vector, that of all its
    # rows on N read through from_rows and verified against every one of them
    made = _streamed_matrices(monkeypatch)
    kernels = []
    monkeypatch.setattr(recurrences, "report_from_kernel", lambda kernel, *rest: (
        kernels.append(kernel) or report_from_kernel(kernel, *rest)))
    if isinstance(system, str):
        tags, families = [system], RECURRENCES[system].families
    else:
        tags, families = SECTOR_SYSTEMS[system], FAMILIES
    for N in (8, 12):
        for gamma in range(-3, 4):
            if isinstance(system, str):
                report = recurrence_kernel(system, gamma, N)
            else:
                report = solve_case(system, gamma, N)
            want, layout = _full_reading(tags, families, gamma, N)
            assert made[-1]._certify is not None
            assert kernels[-1].vectors == want.vectors, (N, gamma)
            assert report == report_from_kernel(want, layout, list(families),
                                                report.degree, N // 2)


@pytest.mark.parametrize("tags", [["e18"], ["e19"], ["e20"], ["e19", "e20"],
                                  ["e17", "e18"], ["e1", "e20"]], ids="+".join)
def test_a_system_holding_e18_e19_or_e20_carries_no_certificate(tags, monkeypatch):
    # those rows cover only some pairs of the window, so the window N = 1
    # does not prove an affine kernel; such a system reads every row of
    # the window N = 8, and no other
    made = _streamed_matrices(monkeypatch)
    recs = [RECURRENCES[tag] for tag in tags]
    families = tuple(dict.fromkeys(fam for rec in recs for fam in rec.families))
    for gamma in (-2, 0, 3):
        del made[:]
        report = recurrences._solve_rows(recs, families, gamma, 8, 4,
                                         GradingDegree(0, 0, gamma))
        assert [(m._certify, m.cols) for m in made] == [(None, 17 * len(families))]
        want, layout = _full_reading(tags, families, gamma, 8)
        assert report == report_from_kernel(want, layout, list(families),
                                            report.degree, 4)
    if len(tags) == 1:
        recurrence_kernel(tags[0], 1, 8)
        assert made[-1]._certify is None


def test_lemma_checks_stop_making_rows(monkeypatch):
    # the 35 checks at N = 12, each decided on its own window, one matrix
    # each: e13 on W = 1 (3 columns), every other on W = 2 (5 columns).
    # e7, e8, e13 and e17 stop at the zero-kernel certificate, and each of
    # e1's seven systems at the affine one after 5 or 6 of its rows, its
    # constants then extended to N; 183 of the 512 rows of those windows
    # are made, where on N = 12 the certificate made 988 of 16,176 (e1's
    # 25 of 454, 456 at gamma = 0) and reading every row made 3,993
    made = _streamed_matrices(monkeypatch)
    assert check_lemma_conclusions(12).all_passed
    assert [matrix.cols for matrix in made] == [5] * 21 + [3] * 7 + [5] * 7
    read = [len(matrix._rows) for matrix in made]
    assert read[:7] == [6, 6, 5, 5, 5, 5, 5]
    assert (sum(read), sum(matrix.rows for matrix in made)) == (183, 512)


# ---------------------------------------------------------------------------
# the window each system is decided on, read from the hand table

# (n - 3)(f_{m+n} - f_m - f_n) = 0: the root k = 3 of n - 3 gives W = 4,
# and the kernel, f_k = k, is extended from it with its slope
ROOT_THREE = recurrences._pair("root-three", ("L",), ("L", "m+n", (0, 1, 0, -3)),
                               ("L", "m", (0, -1, 0, 3)), ("L", "n", (0, -1, 0, 3)))
# (m + n - 3) f_{m+n} = 0: the roots k = 2 and 4 give W = 5, past the
# kernel's one vector f = [k = 3], which no window below 3 holds and which
# is no affine vector, so it is solved on N again
FREE_THREE = recurrences._pair("free-three", ("L",), ("L", "m+n", (1, 1, 0, -3)))
# (m - 1)(f_{m+n} - f_n) = 0: the m+n coefficient vanishes at m = 1 for
# every n, so the rows (1, k) fix nothing and the system reads N
DEAD_AT_ONE = recurrences._pair("dead-at-one", ("L",), ("L", "m+n", (1, 0, 0, -1)),
                                ("L", "n", (-1, 0, 0, 1)))
# 2(m - n) f_{m+n} = (m + g - n) f_m + (m - n - g) h_n: h is the m+n
# unknown of no recurrence, so the system reads N
NONE_AHEAD = recurrences._pair("none-ahead", ("L", "H"), ("L", "m+n", (2, -2, 0, 0)),
                               ("L", "m", (-1, 1, -1, 0)), ("H", "n", (-1, 1, 1, 0)))


@pytest.mark.parametrize("rec,bound", [(ROOT_THREE, 4), (FREE_THREE, 5), (DEAD_AT_ONE, None),
                                       (NONE_AHEAD, None)], ids=lambda x: getattr(x, "tag", x))
def test_each_system_is_decided_on_the_window_its_table_gives(rec, bound, monkeypatch):
    # the first matrix made is on min(W, N), and the report equals a full
    # reading on N; root-three reports f_k = k, scaled to 1 at the interior's
    # first index, and free-three, solved again on N, [k = 3]
    made = _streamed_matrices(monkeypatch)
    for N in (8, 12, 20):
        for gamma in (-1, 0, 2):
            assert recurrences._window([rec], rec.families, gamma) == bound
            del made[:]
            report = recurrences._solve_rows([rec], rec.families, gamma, N, N // 2,
                                             GradingDegree(0, 0, gamma))
            window = min(bound or N, N)
            assert made[0].cols == len(rec.families) * (2 * window + 1)
            want, layout = _full_reading([rec], rec.families, gamma, N)
            assert report == report_from_kernel(want, layout, list(rec.families),
                                                report.degree, N // 2)
            if rec is ROOT_THREE:
                assert (len(made), report.basis_summary) == (1, [{"L": f"-1/{N // 2}*m"}])
            if rec is FREE_THREE:
                assert len(made) == 2 and report.interior_dim == 1


def test_extension_reads_the_kernel_shape_not_how_it_was_found(monkeypatch):
    # a certificate that passes nothing makes elimination read every row of
    # the window W; root-three's kernel f_k = k and e1's constants are
    # affine, so each is still extended with no matrix on N, while
    # free-three's [k = 3] is not, and is solved on N again
    made = _streamed_matrices(monkeypatch)
    tried, extend = [], recurrences.extend_affine
    monkeypatch.setattr(recurrences, "affine_certificate",
                        lambda *args: lambda kernel: False)
    monkeypatch.setattr(recurrences, "extend_affine",
                        lambda *args: tried.append(extend(*args)) or tried[-1])
    for rec, affine in ((ROOT_THREE, True), (RECURRENCES["e1"], True), (FREE_THREE, False)):
        del made[:], tried[:]
        report = recurrences._solve_rows([rec], rec.families, 0, 12, 6, GradingDegree(0, 0, 0))
        assert len(made[0]._rows) == made[0].rows
        assert (len(made), len(tried), tried[0] is None) == (1 if affine else 2, 1, not affine)
        want, layout = _full_reading([rec], rec.families, 0, 12)
        assert report == report_from_kernel(want, layout, list(rec.families), report.degree, 6)


def test_the_window_is_read_from_the_one_m_plus_n_term():
    # the better recurrence of a family counts; a family whose only m+n
    # coefficient vanishes at every k, or that is another family's
    # recurrence's, and a recurrence with two m+n terms give no window
    assert recurrences._window([FREE_THREE, ROOT_THREE], ("L",), 0) == 4
    assert recurrences._window([DEAD_AT_ONE, RECURRENCES["e13"]], ("L",), 0) is None
    two = recurrences._pair("two-ahead", ("L", "H"), ("L", "m+n", (2, -2, 0, 0)),
                            ("H", "m+n", (2, -2, 0, 0)))
    assert recurrences._window([two], ("L", "H"), 0) is None
    assert recurrences._window([RECURRENCES["e13"]], ("H",), 3) == 1
