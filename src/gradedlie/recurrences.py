"""Independent recurrence oracle for the planar Galilean conformal algebra.

The generic solver derives its constraint rows mechanically from structure
constants.  This module is the cross-check: for each of the four Z2 x Z2
sectors of pgca the coefficient recurrences were derived by hand, and the
table below encodes those displayed equations literally, one tag
(e1..e20) per equation, with no substitutions folded in: each term of
e1..e17 is an unknown and its integer coefficients of m, n, gamma and 1,
e18/e19 are e17's terms at m = 0, and e20's rational coefficient is
multiplied by its denominator, so every row is a dict of plain ints.  The
two code paths share exact linear algebra and report formatting but no
assembly logic, so agreement between them checks the assembler and the
hand derivation against each other.

Unknowns are keyed by source kind: the family tagged "L" collects the
coefficients of the images of L_m, and so on.  Degree shift is written
gamma throughout; every equation constrains a window m, n, m+n in [-N, N].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from .core import GradingDegree
from .linalg import SparseMatrix, nullspace
from .solver import SolveReport, check_window, report_from_kernel

FAMILIES = ("L", "H", "I", "J")


# Where a term's unknown sits: f_{m+n}, f_m or f_n, as multiples of (m, n).
_SLOTS = {"m+n": (1, 1), "m": (1, 0), "n": (0, 1)}


def _pair_rows(*terms, only_m: int | None = None, resonant: bool = True):
    """Rows of one displayed recurrence over every pair m, n with m+n in [-N, N].

    Each term is (family, slot, (a, b, g, c)): the unknown family_slot with
    coefficient a*m + b*n + g*gamma + c, on the side that makes the row
    "left-hand side minus right-hand side".  Every row is a dict of nonzero
    plain ints.  only_m keeps the pairs with that m, and resonant=False
    leaves out the pairs with n = gamma.
    """
    terms = [(fam, *_SLOTS[slot], coeff) for fam, slot, coeff in terms]

    def rows(gamma: int, N: int) -> Iterator[dict]:
        for m in range(-N, N + 1) if only_m is None else (only_m,):
            for n in range(max(-N, -N - m), min(N, N - m) + 1):
                if n == gamma and not resonant:
                    continue
                row: dict[tuple[str, int], int] = {}
                for fam, sm, sn, (a, b, g, c) in terms:
                    key = (fam, sm * m + sn * n)
                    row[key] = row.get(key, 0) + a * m + b * n + g * gamma + c
                row = {key: v for key, v in row.items() if v}
                if row:
                    yield row
    return rows


def _e20_rows(gamma: int, N: int) -> Iterator[dict]:
    # (4m - 4m g^2 / ((g-m)(g+m))) i_0 = 0 for m outside {0, g, -g}, times
    # the denominator (g-m)(g+m), which is nonzero there
    for m in range(-N, N + 1):
        if m in (0, gamma, -gamma):
            continue
        yield {("L", 0): 4 * m * (gamma - m) * (gamma + m) - 4 * m * gamma * gamma}


@dataclass(frozen=True)
class Recurrence:
    """One displayed recurrence: a tag, the families it touches, and its
    rows at (gamma, N), an iterator of {(family, index): nonzero int}."""

    tag: str
    families: tuple[str, ...]
    rows: Callable[[int, int], Iterator[dict]]


# Coefficients are (m, n, gamma, 1) multipliers; "g" is gamma.
_WITT = (  # 2(m-n) f_{m+n} = (m+g-n) f_m + (m-n-g) f_n
    ("L", "m+n", (2, -2, 0, 0)), ("L", "m", (-1, 1, -1, 0)),
    ("L", "n", (-1, 1, 1, 0)))


def _tail(fam: str):
    # 2(m-n) f_{m+n} = (m-n-g) f_n
    return ((fam, "m+n", (2, -2, 0, 0)), (fam, "n", (-1, 1, 1, 0)))


def _damped(fam: str):
    # 2(m-n) f_{m+n} = (-n-g) f_n
    return ((fam, "m+n", (2, -2, 0, 0)), (fam, "n", (0, 1, 1, 0)))


_E17 = (  # 2(m-n) i_{m+n} = (m+g) i_m + (-n-g) i_n
    ("L", "m+n", (2, -2, 0, 0)), ("L", "m", (-1, 0, -1, 0)),
    ("L", "n", (0, 1, 1, 0)))


RECURRENCES: dict[str, Recurrence] = {
    "e1": Recurrence("e1", ("L",), _pair_rows(*_WITT)),
    # 2(m-n) c_{m+n} = (m+g-n) a_m + (m-n-g) c_n
    "e2": Recurrence("e2", ("L", "I"), _pair_rows(
        ("I", "m+n", (2, -2, 0, 0)), ("L", "m", (-1, 1, -1, 0)),
        ("I", "n", (-1, 1, 1, 0)))),
    # 2(m-n) d_{m+n} = (m+g-n) a_m + (m-n-g) d_n
    "e3": Recurrence("e3", ("L", "J"), _pair_rows(
        ("J", "m+n", (2, -2, 0, 0)), ("L", "m", (-1, 1, -1, 0)),
        ("J", "n", (-1, 1, 1, 0)))),
    # -2n b_{m+n} = -n a_m + (-n-g) b_n
    "e4": Recurrence("e4", ("L", "H"), _pair_rows(
        ("H", "m+n", (0, -2, 0, 0)), ("L", "m", (0, 1, 0, 0)),
        ("H", "n", (0, 1, 1, 0)))),
    "e5": Recurrence("e5", ("L",), _pair_rows(*_WITT)),
    # -2n y_{m+n} = -x_m + (m-n-g) y_n
    "e6": Recurrence("e6", ("L", "H"), _pair_rows(
        ("H", "m+n", (0, -2, 0, 0)), ("L", "m", (0, 0, 0, 1)),
        ("H", "n", (-1, 1, 1, 0)))),
    "e7": Recurrence("e7", ("I",), _pair_rows(*_tail("I"))),
    "e8": Recurrence("e8", ("J",), _pair_rows(*_damped("J"))),
    "e9": Recurrence("e9", ("L",), _pair_rows(*_WITT)),
    # -2n e_{m+n} = h_m + (m-n-g) e_n
    "e10": Recurrence("e10", ("L", "H"), _pair_rows(
        ("H", "m+n", (0, -2, 0, 0)), ("L", "m", (0, 0, 0, -1)),
        ("H", "n", (-1, 1, 1, 0)))),
    "e11": Recurrence("e11", ("I",), _pair_rows(*_damped("I"))),
    "e12": Recurrence("e12", ("J",), _pair_rows(*_tail("J"))),
    # -2n j_{m+n} = (m-n-g) j_n
    "e13": Recurrence("e13", ("H",), _pair_rows(
        ("H", "m+n", (0, -2, 0, 0)), ("H", "n", (-1, 1, 1, 0)))),
    # 2n j_{m+n} = (n-m) j_n, the gamma = 0 rearrangement of e13
    "e14": Recurrence("e14", ("H",), _pair_rows(
        ("H", "m+n", (0, 2, 0, 0)), ("H", "n", (1, -1, 0, 0)))),
    # 2(m-n) k_{m+n} = i_m + (m-n-g) k_n
    "e15": Recurrence("e15", ("L", "I"), _pair_rows(
        ("I", "m+n", (2, -2, 0, 0)), ("L", "m", (0, 0, 0, -1)),
        ("I", "n", (-1, 1, 1, 0)))),
    # 2(m-n) l_{m+n} = -i_m + (m-n-g) l_n
    "e16": Recurrence("e16", ("L", "J"), _pair_rows(
        ("J", "m+n", (2, -2, 0, 0)), ("L", "m", (0, 0, 0, 1)),
        ("J", "n", (-1, 1, 1, 0)))),
    "e17": Recurrence("e17", ("L",), _pair_rows(*_E17)),
    # -2n i_n = g i_0 + (-n-g) i_n, the m = 0 slice of e17
    "e18": Recurrence("e18", ("L",), _pair_rows(*_E17, only_m=0)),
    # (g-n) i_n = g i_0 for n != g
    "e19": Recurrence("e19", ("L",), _pair_rows(*_E17, only_m=0, resonant=False)),
    "e20": Recurrence("e20", ("L",), _e20_rows),
}


# Coupled system per Z2 x Z2 sector, in the order the equations arise.
SECTOR_SYSTEMS: dict[tuple[int, int], tuple[str, ...]] = {
    (0, 0): ("e1", "e4", "e2", "e3"),
    (0, 1): ("e5", "e6", "e7", "e8"),
    (1, 0): ("e9", "e10", "e11", "e12"),
    (1, 1): ("e17", "e13", "e15", "e16"),
}


def _solve_rows(recs: list[Recurrence], families: tuple[str, ...], gamma: int,
                window: int, interior: int, degree: GradingDegree) -> SolveReport:
    """Solve the recurrences' int rows together; they are streamed, so a
    zero-kernel degree stops making rows once every column pivots."""
    layout = [(fam, m) for fam in families for m in range(-window, window + 1)]
    index = {key: i for i, key in enumerate(layout)}
    kernel = nullspace(SparseMatrix.from_stream(
        len(layout), ({index[key]: v for key, v in row.items()}
                      for rec in recs for row in rec.rows(gamma, window))))
    return report_from_kernel(kernel, layout, list(families), degree, interior)


def solve_case(shift: tuple[int, int], gamma: int, window: int,
               interior: int | None = None) -> SolveReport:
    """Solve one sector's hand-coded coupled system on a window."""
    if shift not in SECTOR_SYSTEMS:
        raise ValueError(f"shift must be in {sorted(SECTOR_SYSTEMS)}, got {shift}")
    interior = check_window(window, gamma, interior)
    degree = GradingDegree(shift[0], shift[1], gamma)
    return _solve_rows([RECURRENCES[tag] for tag in SECTOR_SYSTEMS[shift]],
                       FAMILIES, gamma, window, interior, degree)


def recurrence_kernel(tag: str, gamma: int, window: int,
                      interior: int | None = None) -> SolveReport:
    """Solve one recurrence on its own, over just the families it touches."""
    rec = RECURRENCES[tag]
    interior = check_window(window, gamma, interior)
    degree = GradingDegree(0, 0, gamma)
    return _solve_rows([rec], rec.families, gamma, window, interior, degree)


LEMMA_EXPECTATIONS = {
    "e1": "constants",
    "e7": "zero",
    "e8": "zero",
    "e13": "zero",
    "e17": "zero",
}

LEMMA_GAMMA_RANGE = 3


@dataclass
class LemmaCheck:
    tag: str
    gamma: int
    expected: str
    interior_dim: int
    classification: str
    passed: bool


@dataclass
class LemmaCheckReport:
    window: int
    interior: int
    checks: list[LemmaCheck]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "window": self.window,
            "interior": self.interior,
            "results": [{"equation": c.tag, "gamma": c.gamma, "expected": c.expected,
                         "interior_dim": c.interior_dim,
                         "classification": c.classification, "passed": c.passed}
                        for c in self.checks],
            "all_passed": self.all_passed,
        }


def check_lemma_conclusions(window: int) -> LemmaCheckReport:
    """Check each standalone recurrence against its closed-form solution set.

    'constants' demands a one-dimensional interior space spanned by the
    all-ones vector; 'zero' demands an empty interior space.  The window
    must cover the largest shift checked: |gamma| <= 3 needs window >= 8.
    """
    interior = check_window(window, LEMMA_GAMMA_RANGE)
    checks = []
    for tag, expected in LEMMA_EXPECTATIONS.items():
        for gamma in range(-LEMMA_GAMMA_RANGE, LEMMA_GAMMA_RANGE + 1):
            report = recurrence_kernel(tag, gamma, window, interior)
            # 'scalar' is exactly "dim 1, constant, nonzero" for a
            # single-family system, which is the constants conclusion.
            want = "scalar" if expected == "constants" else "zero"
            ok = report.classification == want
            checks.append(LemmaCheck(tag, gamma, expected, report.interior_dim,
                                     report.classification, ok))
    return LemmaCheckReport(window, interior, checks)
