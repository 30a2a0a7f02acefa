"""Windowed solver for homogeneous delta-derivations.

A linear map D is a delta-derivation when D[x, y] = delta([Dx, y] + [x, Dy]).
On a Z2 x Z2 x Z graded presentation, D is searched degree by degree: a map
of degree (eps1, eps2, gamma) sends each basis element k_m to a multiple of
partner(k)_{m+gamma}, where partner(k) is the kind whose Z2 degree is
k.z2 + (eps1, eps2).  The unknowns are those multiples u[k, m] for
m in [-window, window].

The ansatz needs one partner kind per source kind.  When several kinds
share the target sector the tie is broken by centrality: a central source
must stay central (its image brackets to zero with everything, i.e. lies in
the centre), and a non-central source keeps the unique non-central
candidate, dropping cross terms into the centre.  For central extensions in
the catalog those cross terms are forced to zero anyway; a presentation
with two non-central kinds in one sector is outside the model and is
rejected loudly.

Constraint rows come from expanding D[x, y] - delta([Dx, y] + [x, Dy]) over
all unordered source pairs whose indices m, n, m+n all lie in the window.
Truncation can only leak at the window boundary, so classification is read
off an interior sub-window; shrinking it further never changes the verdict
for a well-sized window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .core import (AlgebraPresentation, BasisElement, BasisKind, Element,
                   GradingDegree, format_rational)
from .linalg import SparseMatrix, VectorBasis, nullspace, project_basis


class SolverError(Exception):
    pass


class WindowTooSmallError(SolverError):
    """The window cannot separate interior behaviour from boundary effects."""

    def __init__(self, window: int, gamma: int, required: int):
        self.window = window
        self.gamma = gamma
        self.required = required
        super().__init__(
            f"window {window} too small for degree shift gamma={gamma}; "
            f"need window >= 2*(|gamma|+1) = {required}")


class AmbiguousSectorError(SolverError):
    """Two non-central kinds share a target sector; the ansatz needs one."""


def required_window(gamma: int) -> int:
    return 2 * (abs(gamma) + 1)


def partner_kind(p: AlgebraPresentation, kind: BasisKind,
                 shift: tuple[int, int]) -> BasisKind | None:
    """Target kind for one source kind under a Z2 x Z2 degree shift."""
    target_z2 = ((kind.z2[0] + shift[0]) % 2, (kind.z2[1] + shift[1]) % 2)
    cands = [k for k in p.kinds if k.z2 == target_z2]
    if p.is_central(kind):
        cands = [k for k in cands if p.is_central(k)]
    else:
        noncentral = [k for k in cands if not p.is_central(k)]
        if len(noncentral) > 1:
            raise AmbiguousSectorError(
                f"kinds {[k.name for k in noncentral]} share Z2 sector {target_z2}; "
                f"the single-partner ansatz cannot model {p.name!r} here")
        cands = noncentral
    if not cands:
        return None
    if len(cands) > 1:
        raise AmbiguousSectorError(
            f"several central kinds in Z2 sector {target_z2} of {p.name!r}")
    return cands[0]


@dataclass(frozen=True)
class HomogeneousSolveProblem:
    """One homogeneous solve: algebra, delta, degree and window sizes."""

    presentation: AlgebraPresentation
    delta: Fraction
    degree: GradingDegree
    window: int
    interior: int

    def __post_init__(self):
        if self.window < 1:
            raise SolverError("window must be positive")
        if not (0 <= self.interior <= self.window):
            raise SolverError("interior must lie inside the window")
        object.__setattr__(self, "delta", Fraction(self.delta))

    @property
    def shift(self) -> tuple[int, int]:
        return (self.degree.eps1, self.degree.eps2)

    @property
    def gamma(self) -> int:
        return self.degree.index


@dataclass
class UnknownLayout:
    """Column layout: one unknown u[kind, m] per structurally possible entry."""

    columns: list[tuple[str, int]]
    partner: dict[str, BasisKind | None]
    index: dict[tuple[str, int], int] = field(default_factory=dict)

    def __post_init__(self):
        self.index = {key: i for i, key in enumerate(self.columns)}

    def column_of(self, kind_name: str, m: int) -> int | None:
        return self.index.get((kind_name, m))


def unknown_layout(problem: HomogeneousSolveProblem) -> UnknownLayout:
    p = problem.presentation
    gamma = problem.gamma
    partner = {k.name: partner_kind(p, k, problem.shift) for k in p.kinds}
    columns = []
    for k in p.kinds:
        target = partner[k.name]
        if target is None:
            continue  # u[k, .] is structurally zero
        for m in range(-problem.window, problem.window + 1):
            if not p.element_exists(k, m):
                continue
            if not p.element_exists(target, m + gamma):
                continue
            columns.append((k.name, m))
    return UnknownLayout(columns, partner)


def assemble(problem: HomogeneousSolveProblem,
             layout: UnknownLayout | None = None) -> SparseMatrix:
    """Constraint matrix whose kernel is the degree-homogeneous solution set.

    One scalar row per (unordered source pair, output basis element) of
    D[x, y] - delta([Dx, y] + [x, Dy]); a pair contributes only when m, n
    and m+n all lie inside the window.
    """
    p = problem.presentation
    if layout is None:
        layout = unknown_layout(problem)
    neg_delta = -problem.delta
    gamma = problem.gamma
    N = problem.window
    basis = p.basis_elements(N)
    images: dict[BasisElement, tuple[int, BasisElement] | None] = {}

    def image(b: BasisElement) -> tuple[int, BasisElement] | None:
        """Column and formal target of D(b), or None if structurally zero."""
        try:
            return images[b]
        except KeyError:
            col = layout.column_of(b.kind.name, b.index)
            hit = images[b] = None if col is None else (
                col, BasisElement(layout.partner[b.kind.name], b.index + gamma))
            return hit

    def add(acc: dict, out: BasisElement, col: int, coeff: Fraction):
        row = acc.setdefault(out, {})
        prev = row.get(col)
        row[col] = coeff if prev is None else prev + coeff

    rows: list[dict[int, Fraction]] = []
    for i, x in enumerate(basis):
        img_x = image(x)
        for y in basis[i + 1:]:
            if abs(x.index + y.index) > N:
                continue
            acc: dict[BasisElement, dict[int, Fraction]] = {}
            for t, c in p.bracket_basis(x, y).items():
                hit = image(t)
                if hit is not None:
                    add(acc, hit[1], hit[0], c)
            if img_x is not None:
                col, dx = img_x
                for t, c in p.bracket_basis(dx, y).items():
                    add(acc, t, col, neg_delta * c)
            img_y = image(y)
            if img_y is not None:
                col, dy = img_y
                for t, c in p.bracket_basis(x, dy).items():
                    add(acc, t, col, neg_delta * c)

            for out in sorted(acc):
                row = {c: v for c, v in acc[out].items() if v}
                if row:
                    rows.append(row)

    return SparseMatrix.from_rows(len(layout.columns), rows)


def describe_values(values: dict[int, Fraction]) -> str:
    """Compact human description of one kind's coefficient slice."""
    if not values or not any(values.values()):
        return "0"
    distinct = set(values.values())
    if len(distinct) == 1:
        return format_rational(distinct.pop())
    ms = sorted(values)
    if len(ms) >= 2:
        m0, m1 = ms[0], ms[1]
        slope = (values[m1] - values[m0]) / (m1 - m0)
        const = values[m0] - slope * m0
        if all(values[m] == const + slope * m for m in ms):
            mpart = f"{format_rational(slope)}*m" if slope != 1 else "m"
            if const:
                return f"{format_rational(const)} + {mpart}"
            return mpart
    return ", ".join(f"{m}:{format_rational(values[m])}" for m in ms)


def summarize_interior(layout_keys: Sequence[tuple[str, int]],
                       kinds: Sequence[str],
                       vectors: Iterable[Sequence[Fraction]]) -> list[dict[str, str]]:
    summary = []
    for vec in vectors:
        per_kind: dict[str, str] = {}
        for kname in kinds:
            values = {m: vec[i] for i, (k, m) in enumerate(layout_keys) if k == kname}
            per_kind[kname] = describe_values(values)
        summary.append(per_kind)
    return summary


def classify_interior(layout_keys: Sequence[tuple[str, int]],
                      kinds: Sequence[str],
                      vectors: list[tuple[Fraction, ...]]) -> str:
    """'zero', 'scalar' (single constant vector across every kind), else 'nontrivial'."""
    if not vectors:
        return "zero"
    if len(vectors) == 1:
        vec = vectors[0]
        present = {k for k, _ in layout_keys}
        values = set(vec)
        if (present == set(kinds) and len(values) == 1 and vec and vec[0] != 0):
            return "scalar"
    return "nontrivial"


@dataclass
class SolveReport:
    """Outcome of one homogeneous solve, read off the interior sub-window."""

    degree: GradingDegree
    delta: Fraction
    window: int
    interior: int
    full_dim: int
    interior_dim: int
    classification: str
    basis_summary: list[dict[str, str]]

    def to_json_dict(self) -> dict:
        return {
            "degree": [self.degree.eps1, self.degree.eps2, self.degree.index],
            "full_dim": self.full_dim,
            "interior_dim": self.interior_dim,
            "classification": self.classification,
            "basis": self.basis_summary,
        }


def report_from_kernel(kernel: VectorBasis, layout_keys: Sequence[tuple[str, int]],
                       kinds: Sequence[str], degree: GradingDegree,
                       delta: Fraction, window: int, interior: int) -> SolveReport:
    """Shared reporting: project a kernel onto the interior and classify."""
    interior_cols = [i for i, (_, m) in enumerate(layout_keys) if abs(m) <= interior]
    interior_keys = [layout_keys[i] for i in interior_cols]
    projected = project_basis(kernel, interior_cols)
    classification = classify_interior(interior_keys, kinds, projected.vectors)
    summary = summarize_interior(interior_keys, kinds, projected.vectors)
    return SolveReport(degree, Fraction(delta), window, interior,
                       full_dim=len(kernel), interior_dim=len(projected),
                       classification=classification, basis_summary=summary)


def solve_degree(problem: HomogeneousSolveProblem) -> SolveReport:
    """Solve one homogeneous degree and classify the interior solution space."""
    need = required_window(problem.gamma)
    if problem.window < need:
        raise WindowTooSmallError(problem.window, problem.gamma, need)
    layout = unknown_layout(problem)
    matrix = assemble(problem, layout)
    kernel = nullspace(matrix)
    return report_from_kernel(kernel, layout.columns,
                              [k.name for k in problem.presentation.kinds],
                              problem.degree, problem.delta,
                              problem.window, problem.interior)


VERDICT_SCALAR_ONLY = "scalar-only"
VERDICT_NOT_SCALAR_ONLY = "not-scalar-only"


@dataclass
class ScanResult:
    algebra: str
    delta: Fraction
    window: int
    interior: int
    gamma_max: int
    reports: list[SolveReport]
    verdict: str

    def to_json_dict(self) -> dict:
        return {
            "algebra": self.algebra,
            "delta": format_rational(self.delta),
            "window": self.window,
            "interior": self.interior,
            "reports": [r.to_json_dict() for r in self.reports],
            "verdict": self.verdict,
        }


def scan_verdict(reports: Iterable[SolveReport]) -> str:
    """Scalar-only: exactly one 'scalar' report, sitting at degree (0,0,0)."""
    reports = list(reports)
    scalars = [r for r in reports if r.classification == "scalar"]
    zeros = [r for r in reports if r.classification == "zero"]
    if (len(scalars) == 1 and scalars[0].degree == GradingDegree(0, 0, 0)
            and len(zeros) == len(reports) - 1):
        return VERDICT_SCALAR_ONLY
    return VERDICT_NOT_SCALAR_ONLY


def scan(p: AlgebraPresentation, delta: Fraction, gamma_max: int,
         window: int, interior: int | None = None) -> ScanResult:
    """Solve every degree in {0,1}^2 x [-gamma_max, gamma_max]."""
    if gamma_max < 0:
        raise SolverError("gamma_max must be non-negative")
    need = required_window(gamma_max)
    if window < need:
        raise WindowTooSmallError(window, gamma_max, need)
    if interior is None:
        interior = window // 2
    reports = []
    for eps1 in (0, 1):
        for eps2 in (0, 1):
            for gamma in range(-gamma_max, gamma_max + 1):
                problem = HomogeneousSolveProblem(
                    p, Fraction(delta), GradingDegree(eps1, eps2, gamma),
                    window, interior)
                reports.append(solve_degree(problem))
    return ScanResult(p.name, Fraction(delta), window, interior, gamma_max,
                      reports, scan_verdict(reports))
