"""Independent recurrence oracle for the planar Galilean conformal algebra.

The generic solver derives its constraint rows mechanically from structure
constants.  This module is the cross-check: for each of the four Z2 x Z2
sectors of pgca the coefficient recurrences were derived by hand, and the
table below encodes those displayed equations literally, one tag
(e1..e20) per equation, with no substitutions folded in: each term of
e1..e17 is an unknown and its integer coefficients of m, n, gamma and 1,
e18/e19 are one index slice and e20 keeps its rational row.  The two code
paths share exact linear algebra and report formatting but no assembly
logic, so agreement between them checks the assembler and the hand
derivation against each other.

Unknowns are keyed by source kind: the family tagged "L" collects the
coefficients of the images of L_m, and so on.  Degree shift is written
gamma throughout; every equation constrains a window m, n, m+n in [-N, N].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .core import GradingDegree
from .linalg import SparseMatrix, nullspace
from .solver import (SolveReport, WindowTooSmallError, report_from_kernel,
                     required_window)

FAMILIES = ("L", "H", "I", "J")


# Where a term's unknown sits: f_{m+n}, f_m or f_n, as multiples of (m, n).
_SLOTS = {"m+n": (1, 1), "m": (1, 0), "n": (0, 1)}


def _pair_rows(*terms):
    """Rows of one displayed recurrence over every pair m, n with m+n in [-N, N].

    Each term is (family, slot, (a, b, g, c)): the unknown family_slot with
    coefficient a*m + b*n + g*gamma + c, on the side that makes the row
    "left-hand side minus right-hand side".
    """
    terms = [(fam, *_SLOTS[slot], coeff) for fam, slot, coeff in terms]

    def rows(gamma: int, N: int) -> list[dict]:
        out = []
        for m in range(-N, N + 1):
            for n in range(max(-N, -N - m), min(N, N - m) + 1):
                row: dict[tuple[str, int], int] = {}
                for fam, sm, sn, (a, b, g, c) in terms:
                    key = (fam, sm * m + sn * n)
                    row[key] = row.get(key, 0) + a * m + b * n + g * gamma + c
                row = {key: v for key, v in row.items() if v}
                if row:
                    out.append(row)
        return out
    return rows


def _slice_rows(skip_resonant: bool):
    # (g-n) i_n = g i_0, over n in [-N, N]; e19 leaves out n = g
    def rows(gamma: int, N: int) -> list[dict]:
        out = []
        for n in range(-N, N + 1):
            if skip_resonant and n == gamma:
                continue
            row = {("L", n): gamma - n}
            row[("L", 0)] = row.get(("L", 0), 0) - gamma
            row = {key: v for key, v in row.items() if v}
            if row:
                out.append(row)
        return out
    return rows


def _e20_rows(gamma: int, N: int):
    # (4m - 4m g^2 / ((g-m)(g+m))) i_0 = 0 for m outside {0, g, -g}
    out = []
    for m in range(-N, N + 1):
        if m in (0, gamma, -gamma):
            continue
        coeff = Fraction(4 * m) - Fraction(4 * m * gamma * gamma,
                                           (gamma - m) * (gamma + m))
        if coeff:
            out.append({("L", 0): coeff})
    return out


@dataclass(frozen=True)
class Recurrence:
    """One displayed recurrence: a tag, the families it touches, its rows."""

    tag: str
    families: tuple[str, ...]
    rows: Callable[[int, int], list[dict]]
    integral: bool = True  # rows of plain ints; e20's are rational


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
    # 2(m-n) i_{m+n} = (m+g) i_m + (-n-g) i_n
    "e17": Recurrence("e17", ("L",), _pair_rows(
        ("L", "m+n", (2, -2, 0, 0)), ("L", "m", (-1, 0, -1, 0)),
        ("L", "n", (0, 1, 1, 0)))),
    # -2n i_n = g i_0 + (-n-g) i_n, the m = 0 slice of e17
    "e18": Recurrence("e18", ("L",), _slice_rows(False)),
    # (g-n) i_n = g i_0 for n != g
    "e19": Recurrence("e19", ("L",), _slice_rows(True)),
    "e20": Recurrence("e20", ("L",), _e20_rows, integral=False),
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
    layout = [(fam, m) for fam in families for m in range(-window, window + 1)]
    index = {key: i for i, key in enumerate(layout)}
    matrix = SparseMatrix.from_rows(
        len(layout),
        [{index[key]: v for key, v in row.items()}
         for rec in recs for row in rec.rows(gamma, window)],
        1 if all(rec.integral for rec in recs) else None)
    kernel = nullspace(matrix)
    return report_from_kernel(kernel, layout, list(families), degree,
                              Fraction(1, 2), window, interior)


def solve_case(shift: tuple[int, int], gamma: int, window: int,
               interior: int | None = None) -> SolveReport:
    """Solve one sector's hand-coded coupled system on a window."""
    if shift not in SECTOR_SYSTEMS:
        raise ValueError(f"shift must be in {sorted(SECTOR_SYSTEMS)}, got {shift}")
    need = required_window(gamma)
    if window < need:
        raise WindowTooSmallError(window, gamma, need)
    if interior is None:
        interior = window // 2
    degree = GradingDegree(shift[0], shift[1], gamma)
    return _solve_rows([RECURRENCES[tag] for tag in SECTOR_SYSTEMS[shift]],
                       FAMILIES, gamma, window, interior, degree)


def recurrence_kernel(tag: str, gamma: int, window: int,
                      interior: int | None = None) -> SolveReport:
    """Solve one recurrence on its own, over just the families it touches."""
    rec = RECURRENCES[tag]
    need = required_window(gamma)
    if window < need:
        raise WindowTooSmallError(window, gamma, need)
    if interior is None:
        interior = window // 2
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
    need = required_window(LEMMA_GAMMA_RANGE)
    if window < need:
        raise WindowTooSmallError(window, LEMMA_GAMMA_RANGE, need)
    interior = window // 2
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
