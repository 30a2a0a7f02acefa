"""Transposed Poisson structures on a windowed graded Lie algebra.

A transposed Poisson structure pairs the Lie bracket with a commutative
associative product subject to 2 z.[x, y] = [z.x, y] + [x, z.y].  That
compatibility law says exactly that every left-multiplication operator is
a 1/2-derivation of the bracket, which is what ties this module to the
homogeneous solver: the shape of the windowed 1/2-derivation space decides
how products are classified.

Two classification paths:

* scalar path: if every 1/2-derivation is a scalar multiple of the
  identity, each multiplication operator is c(z) * id and commutativity
  forces c(x) y = c(y) x, a linear system whose only solution on two or
  more basis vectors is c = 0; the zero product is then the only candidate
  and the structure is trivial.
* general path: otherwise, solve for all window-valued commutative
  products whose left multiplications satisfy the 1/2-derivation identity
  on every in-window source pair, and report the solution dimension.

Both paths are windowed statements; a structure whose products push mass
past the window boundary is invisible here, which the verdict wording
("nontrivial possible") keeps honest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .core import AlgebraPresentation, BasisElement, Element, bracket
from .linalg import SparseMatrix, nullspace
from .solver import VERDICT_SCALAR_ONLY, ScanResult, identity_rows


class ProductError(Exception):
    pass


def _pair_key(x: BasisElement, y: BasisElement):
    a, b = sorted(((x.kind.name, x.index), (y.kind.name, y.index)))
    return (a, b)


class ProductTable:
    """Commutative product on the basis elements of one window.

    Entries map an unordered pair of in-window basis elements to an
    in-window Element; unset pairs multiply to zero.  Lookups involving an
    out-of-window element are undefined and return None so callers can
    skip-and-count rather than silently truncate.
    """

    def __init__(self, p: AlgebraPresentation, window: int):
        if window < 0:
            raise ProductError("window must be non-negative")
        self.presentation = p
        self.window = window
        self._entries: dict[tuple, Element] = {}
        self._elements = {(b.kind.name, b.index): b for b in p.basis_elements(window)}

    def in_window(self, x: BasisElement) -> bool:
        return (x.kind.name, x.index) in self._elements

    def set(self, x: BasisElement, y: BasisElement, value: Element) -> None:
        if not (self.in_window(x) and self.in_window(y)):
            raise ProductError(f"pair ({x}, {y}) outside window {self.window}")
        for b, _ in value.items():
            if not self.in_window(b):
                raise ProductError(
                    f"product ({x}, {y}) references {b} outside window {self.window}")
        if value.is_zero:
            self._entries.pop(_pair_key(x, y), None)
        else:
            self._entries[_pair_key(x, y)] = value

    def get(self, x: BasisElement, y: BasisElement) -> Element | None:
        """Product of two basis elements; None when undefined (off-window)."""
        if not (self.in_window(x) and self.in_window(y)):
            return None
        return self._entries.get(_pair_key(x, y), Element.zero())

    def multiply(self, x, y) -> Element | None:
        """Bilinear extension; None as soon as any needed pair is undefined."""
        xs = x if isinstance(x, Element) else Element.basis(x)
        ys = y if isinstance(y, Element) else Element.basis(y)
        out = Element.zero()
        for bx, cx in xs.items():
            for by, cy in ys.items():
                prod = self.get(bx, by)
                if prod is None:
                    return None
                out = out + prod.scale(cx * cy)
        return out

    @property
    def is_zero(self) -> bool:
        return not self._entries


@dataclass
class AxiomReport:
    passed: bool
    window: int
    triples_checked: int = 0
    triples_skipped: int = 0
    violation: str | None = None
    witnesses: tuple[BasisElement, ...] = ()

    def describe(self) -> str:
        if self.passed:
            return (f"PASS (window={self.window}, {self.triples_checked} triples, "
                    f"{self.triples_skipped} skipped at the boundary)")
        where = ", ".join(str(w) for w in self.witnesses)
        return f"FAIL at ({where}): {self.violation}"


def check_axioms(table: ProductTable, p: AlgebraPresentation | None = None) -> AxiomReport:
    """Verify commutativity, associativity and the compatibility law.

    Commutativity is structural (unordered keys).  Associativity is checked
    on all in-window triples.  The compatibility law 2 z.[x,y] = [z.x, y] +
    [x, z.y] needs the product of z with [x, y]; when [x, y] leaves the
    window that triple is skipped and counted, never silently truncated.
    """
    if p is None:
        p = table.presentation
    basis = p.basis_elements(table.window)
    report = AxiomReport(True, table.window)

    for i, x in enumerate(basis):
        for y in basis:
            xy = table.get(x, y)
            # associativity residue (x.y).z - x.(y.z); swapping x and z
            # negates it under commutativity, so x <= z covers everything
            for z in basis[i:]:
                left = table.multiply(xy, z)
                yz = table.get(y, z)
                right = table.multiply(x, yz)
                report.triples_checked += 1
                if left is None or right is None:
                    report.triples_skipped += 1
                    continue
                if left != right:
                    report.passed = False
                    report.violation = (f"associativity: ({x}.{y}).{z} = {left!r} "
                                        f"but {x}.({y}.{z}) = {right!r}")
                    report.witnesses = (x, y, z)
                    return report

    for i, x in enumerate(basis):
        for y in basis[i:]:
            lie = p.bracket_basis(x, y)
            for z in basis:
                report.triples_checked += 1
                lhs = table.multiply(z, lie)
                if lhs is None:
                    report.triples_skipped += 1
                    continue
                zx = table.get(z, x)
                zy = table.get(z, y)
                rhs = bracket(p, zx, Element.basis(y)) + bracket(p, Element.basis(x), zy)
                if lhs.scale(2) != rhs:
                    report.passed = False
                    report.violation = (f"compatibility: 2 {z}.[{x},{y}] = "
                                        f"{lhs.scale(2)!r} but [{z}.{x},{y}] + "
                                        f"[{x},{z}.{y}] = {rhs!r}")
                    report.witnesses = (x, y, z)
                    return report
    return report


TP_TRIVIAL = "trivial"
TP_NONTRIVIAL_POSSIBLE = "nontrivial possible"


@dataclass
class TPClassification:
    algebra: str
    window: int
    verdict: str
    solution_dim: int
    path: str
    basis_count: int
    derivation_verdict: str

    def to_json_dict(self) -> dict:
        return {
            "algebra": self.algebra,
            "window": self.window,
            "verdict": self.verdict,
            "solution_dim": self.solution_dim,
            "path": self.path,
            "basis_count": self.basis_count,
            "derivation_verdict": self.derivation_verdict,
        }


def _scalar_path_dim(p: AlgebraPresentation, window: int) -> int:
    """Dimension of {c : c(x) y = c(y) x for all basis x, y}.

    For basis x != y the coordinates at y and at x read c(x) = 0 and
    c(y) = 0, so two or more basis elements force c = 0, and a single one
    leaves c free.
    """
    return 1 if len(p.basis_elements(window)) == 1 else 0


def _membership_system(p: AlgebraPresentation, delta: Fraction, window: int):
    """Unknown product coefficients constrained by the derivation identity.

    Unknowns: q[{x, y}, t] for unordered in-window pairs and in-window
    targets t, already commutative by construction.  For every in-window
    z the operator w -> z.w must satisfy the delta-derivation identity;
    its rows are those of solver.identity_rows with D(w) the product
    columns of {z, w}.  Rows are indexed by output basis elements, which
    may lie outside the window (they are equation labels, not unknowns).
    """
    basis = [(p.kind_order(b.kind), b.index) for b in p.basis_elements(window)]
    width = len(basis)
    pair_of = [[0] * width for _ in range(width)]
    pairs = 0
    for i in range(width):
        for j in range(i, width):
            pair_of[i][j] = pair_of[j][i] = pairs
            pairs += 1
    columns = [(pi, t) for pi in range(pairs) for t in range(width)]
    # (column, target) of each product z.w, one column int object shared by
    # every row that holds it
    col_ids = list(range(len(columns)))
    products = [list(zip(col_ids[pi * width:(pi + 1) * width], basis))
                for pi in range(pairs)]
    rows: list[dict[int, int]] = []
    for z in range(width):
        images = {w: products[pi] for w, pi in zip(basis, pair_of[z])}
        identity_rows(p, delta, images, window, rows)
    return (SparseMatrix.from_rows(len(columns), rows, p.scale * delta.denominator),
            columns)


def classify_products(p: AlgebraPresentation, scan_result: ScanResult | str,
                      window: int, delta: Fraction = Fraction(1, 2)) -> TPClassification:
    """Classify commutative products compatible with the bracket on a window.

    scan_result is either a ScanResult or one of the verdict strings; it
    decides which path applies.  The verdict is 'trivial' only when the
    zero product is the sole solution of the windowed system.
    """
    if window < 0:
        raise ProductError("window must be non-negative")
    verdict = scan_result if isinstance(scan_result, str) else scan_result.verdict
    basis_count = len(p.basis_elements(window))

    if verdict == VERDICT_SCALAR_ONLY:
        dim = _scalar_path_dim(p, window)
        path = "scalar-functional"
    else:
        matrix, _ = _membership_system(p, Fraction(delta), window)
        dim = len(nullspace(matrix))
        path = "derivation-membership"

    tp_verdict = TP_TRIVIAL if dim == 0 else TP_NONTRIVIAL_POSSIBLE
    return TPClassification(p.name, window, tp_verdict, dim, path,
                            basis_count, verdict)
