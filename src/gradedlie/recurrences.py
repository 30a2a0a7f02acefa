"""Independent recurrence oracle for the planar Galilean conformal algebra.

The generic solver derives its constraint rows mechanically from structure
constants.  This module is the cross-check: for each of the four Z2 x Z2
sectors of pgca the coefficient recurrences were derived by hand, and the
table below encodes those displayed equations literally, one tag
(e1..e20) per equation, with no substitutions folded in: each term of
e1..e17 is an unknown and its integer coefficients of m, n, gamma and 1,
e18/e19 are e17's terms at m = 0, and e20's rational coefficient is
multiplied by its denominator, so every row is a dict of plain ints.  The
two code paths share exact linear algebra, the affine kernel certificate
(linalg.affine_certificate, which each samples on its own rows at the
window N = 1), its extension (linalg.extend_affine) and report formatting,
but no assembly logic, so agreement between them checks the assembler and
the hand derivation against each other.

Unknowns are keyed by source kind: the family tagged "L" collects the
coefficients of the images of L_m, and so on.  Degree shift is written
gamma throughout; every equation constrains a window m, n, m+n in [-N, N].

A system of full recurrences (e1..e17) is decided on the window W that its
own table gives (_window), when W < N.  Restriction: a pair's rows read f
only at m, n and m+n, so the rows of W are rows of N over W's columns, and
a kernel vector of N restricted to W's columns is one of W.  Propagation:
each family F is the one m+n unknown of some recurrence, whose row at
(m, n) = (+-1, k) reads F_{k+-1} with coefficient a*(+-1) + b*k +
g*gamma + c, nonzero for |k| >= W, and otherwise only unknowns of index
+-1 and k; so a kernel vector of N zero on W's columns is zero at +-(W+1),
and so on out to N.  Restriction is injective and dim K_N <= dim K_W.  So
a zero kernel on W is N's.  K_W is exact on W, which holds the sample, the
rows of N = 1, so a vector of K_W affine per family passes the certificate
and, extended affinely, holds on every window: if every vector is, the
dim K_W extensions span K_N (linalg.extend_affine).  Any other is solved on N.
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple

from .core import GradingDegree
from .linalg import SparseMatrix, VectorBasis, affine_certificate, extend_affine, nullspace
from .solver import SolveReport, check_window, report_from_kernel

FAMILIES = ("L", "H", "I", "J")


# Where a term's unknown sits: f_{m+n}, f_m or f_n, as multiples of (m, n).
_SLOTS = {"m+n": (1, 1), "m": (1, 0), "n": (0, 1)}


def _e20_rows(gamma: int, N: int) -> Iterator[dict]:
    # (4m - 4m g^2 / ((g-m)(g+m))) i_0 = 0 for m outside {0, g, -g}, times
    # the denominator (g-m)(g+m), which is nonzero there
    for m in range(-N, N + 1):
        if m in (0, gamma, -gamma):
            continue
        yield {("L", 0): 4 * m * (gamma - m) * (gamma + m) - 4 * m * gamma * gamma}


class Recurrence(NamedTuple):
    """One displayed recurrence: a tag, the families it touches, and its
    rows at (gamma, N), an iterator of {(family, index): nonzero int}.
    terms, for rows over every pair of the window (_pair with no only_m,
    resonant), are _pair's (family, m multiple, n multiple, coefficient),
    which _solve_rows reads its window from and certifies a kernel with;
    () for the others."""

    tag: str
    families: tuple[str, ...]
    rows: Callable[[int, int], Iterator[dict]]
    terms: tuple = ()


def _pair(tag: str, families: tuple[str, ...], *terms, only_m: int | None = None,
          resonant: bool = True) -> Recurrence:
    """One displayed recurrence, its rows over every pair m, n with m+n in
    [-N, N].

    Each term is (family, slot, (a, b, g, c)): the unknown family_slot with
    coefficient a*m + b*n + g*gamma + c, on the side that makes the row
    "left-hand side minus right-hand side".  Every row is a dict of nonzero
    plain ints.  only_m keeps the pairs with that m, and resonant=False
    leaves out the pairs with n = gamma; either makes it not full, its
    Recurrence's terms ().
    """
    terms = tuple((fam, *_SLOTS[slot], coeff) for fam, slot, coeff in terms)

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
    return Recurrence(tag, families, rows, terms if only_m is None and resonant else ())


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
    "e1": _pair("e1", ("L",), *_WITT),
    # 2(m-n) c_{m+n} = (m+g-n) a_m + (m-n-g) c_n
    "e2": _pair("e2", ("L", "I"),
        ("I", "m+n", (2, -2, 0, 0)), ("L", "m", (-1, 1, -1, 0)),
        ("I", "n", (-1, 1, 1, 0))),
    # 2(m-n) d_{m+n} = (m+g-n) a_m + (m-n-g) d_n
    "e3": _pair("e3", ("L", "J"),
        ("J", "m+n", (2, -2, 0, 0)), ("L", "m", (-1, 1, -1, 0)),
        ("J", "n", (-1, 1, 1, 0))),
    # -2n b_{m+n} = -n a_m + (-n-g) b_n
    "e4": _pair("e4", ("L", "H"),
        ("H", "m+n", (0, -2, 0, 0)), ("L", "m", (0, 1, 0, 0)),
        ("H", "n", (0, 1, 1, 0))),
    "e5": _pair("e5", ("L",), *_WITT),
    # -2n y_{m+n} = -x_m + (m-n-g) y_n
    "e6": _pair("e6", ("L", "H"),
        ("H", "m+n", (0, -2, 0, 0)), ("L", "m", (0, 0, 0, 1)),
        ("H", "n", (-1, 1, 1, 0))),
    "e7": _pair("e7", ("I",), *_tail("I")),
    "e8": _pair("e8", ("J",), *_damped("J")),
    "e9": _pair("e9", ("L",), *_WITT),
    # -2n e_{m+n} = h_m + (m-n-g) e_n
    "e10": _pair("e10", ("L", "H"),
        ("H", "m+n", (0, -2, 0, 0)), ("L", "m", (0, 0, 0, -1)),
        ("H", "n", (-1, 1, 1, 0))),
    "e11": _pair("e11", ("I",), *_damped("I")),
    "e12": _pair("e12", ("J",), *_tail("J")),
    # -2n j_{m+n} = (m-n-g) j_n
    "e13": _pair("e13", ("H",),
        ("H", "m+n", (0, -2, 0, 0)), ("H", "n", (-1, 1, 1, 0))),
    # 2n j_{m+n} = (n-m) j_n, the gamma = 0 rearrangement of e13
    "e14": _pair("e14", ("H",),
        ("H", "m+n", (0, 2, 0, 0)), ("H", "n", (1, -1, 0, 0))),
    # 2(m-n) k_{m+n} = i_m + (m-n-g) k_n
    "e15": _pair("e15", ("L", "I"),
        ("I", "m+n", (2, -2, 0, 0)), ("L", "m", (0, 0, 0, -1)),
        ("I", "n", (-1, 1, 1, 0))),
    # 2(m-n) l_{m+n} = -i_m + (m-n-g) l_n
    "e16": _pair("e16", ("L", "J"),
        ("J", "m+n", (2, -2, 0, 0)), ("L", "m", (0, 0, 0, 1)),
        ("J", "n", (-1, 1, 1, 0))),
    "e17": _pair("e17", ("L",), *_E17),
    # -2n i_n = g i_0 + (-n-g) i_n, the m = 0 slice of e17
    "e18": _pair("e18", ("L",), *_E17, only_m=0),
    # (g-n) i_n = g i_0 for n != g
    "e19": _pair("e19", ("L",), *_E17, only_m=0, resonant=False),
    "e20": Recurrence("e20", ("L",), _e20_rows),
}


# Coupled system per Z2 x Z2 sector, in the order the equations arise.
SECTOR_SYSTEMS: dict[tuple[int, int], tuple[str, ...]] = {
    (0, 0): ("e1", "e4", "e2", "e3"),
    (0, 1): ("e5", "e6", "e7", "e8"),
    (1, 0): ("e9", "e10", "e11", "e12"),
    (1, 1): ("e17", "e13", "e15", "e16"),
}


def _window(recs: list[Recurrence], families: tuple[str, ...], gamma: int) -> int | None:
    """The least W >= 1 past every integer root k of the coefficient
    a*(+-1) + b*k + g*gamma + c of the one m+n term, at (m, n) = (+-1, k),
    of some recurrence of each family, the best recurrence per family and
    the worst family; None if a recurrence is not full or has two m+n
    terms, or if a family is the m+n unknown of no recurrence whose
    coefficient is nonzero at some k."""
    if not all(rec.terms for rec in recs):
        return None
    best: dict[str, int] = {}
    for rec in recs:
        ahead = [(fam, coeff) for fam, sm, sn, coeff in rec.terms if sm == sn == 1]
        if len(ahead) > 1:
            return None
        for fam, (a, b, g, c) in ahead:
            roots = []
            for v in (a + g * gamma + c, -a + g * gamma + c):  # b*k + v = 0
                if not b and not v:
                    break
                if b and not v % b:
                    roots.append(abs(v // b))
            else:
                w = max(roots, default=0) + 1
                best[fam] = min(best.get(fam, w), w)
    return max(best.values()) if best.keys() == set(families) else None


def _kernel(recs: list[Recurrence], families: tuple[str, ...], gamma: int,
            window: int) -> VectorBasis:
    """The kernel of the recurrences' streamed int rows on the window,
    each family's columns the indices -window..window: a zero-kernel
    window stops making rows once every column pivots, and a system of
    full recurrences, which carries linalg.affine_certificate on its own
    rows at the window N = 1, once a candidate passes it."""
    width = 2 * window + 1
    origins = {fam: i * width + window for i, fam in enumerate(families)}

    def rows(N: int) -> Iterator[dict]:
        return ({origins[fam] + m: v for (fam, m), v in row.items()}
                for rec in recs for row in rec.rows(gamma, N))
    certify = None
    if all(rec.terms for rec in recs):
        certify = affine_certificate(list(origins.values()), window, lambda: rows(1))
    return nullspace(SparseMatrix.from_stream(len(families) * width, rows(window),
                                              certify=certify))


def _solve_rows(recs: list[Recurrence], families: tuple[str, ...], gamma: int,
                window: int, interior: int, degree: GradingDegree) -> SolveReport:
    """Solve the recurrences together on the window N, a system of full
    recurrences decided on min(W, N), W = _window's (module docstring): a
    zero kernel there is N's, one whose every vector is affine per family
    is extended to N by linalg.extend_affine, and any other is solved on
    N.  e18, e19 and e20 keep only some pairs, so a system with one is
    solved on N, reading every row.

    The certificate is a proof on every window: for unknowns affine in the
    index, the unknown at m + n, m or n and each coefficient are affine in
    (m, n), so each recurrence's rows are one polynomial of degree at most
    2 over every pair with |m|, |n|, |m + n| <= N.  It vanishes at the 7
    such pairs of N = 1 only if it is zero: then it is zero on the line
    m + n = 0, so it is (m + n)*L, and the affine L vanishes at (1, 0),
    (-1, 0) and (0, 1).
    """
    small = min(_window(recs, families, gamma) or window, window)
    kernel = _kernel(recs, families, gamma, small)
    if kernel and small < window:
        origins = [i * (2 * small + 1) + small for i in range(len(families))]
        kernel = (extend_affine(kernel, origins, small, window)
                  or _kernel(recs, families, gamma, window))
        small = window
    # a zero kernel's report reads no column, so its own window's layout serves
    layout = [(fam, m) for fam in families for m in range(-small, small + 1)]
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


class LemmaCheck(NamedTuple):
    tag: str
    gamma: int
    expected: str
    interior_dim: int
    classification: str
    passed: bool


class LemmaCheckReport(NamedTuple):
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
