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
  on every in-window source pair, one product shift at a time, and report
  the solution dimension.  A solver.Mirror, as in scan, eliminates one
  shift per orbit of the certified kind automorphisms
  (solver.kind_automorphisms) and gives each other shift g's image of it.

Both paths are windowed statements; a structure whose products push mass
past the window boundary is invisible here, which the verdict wording
("nontrivial possible") keeps honest.
"""

from __future__ import annotations

from fractions import Fraction

from .core import AlgebraPresentation, BasisElement, Element, GradingDegree, bracket
from .solver import (VERDICT_NOT_SCALAR_ONLY, VERDICT_SCALAR_ONLY, Mirror, identity_rows,
                     kind_automorphisms)


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


class AxiomReport:
    __slots__ = ("passed", "window", "triples_checked", "triples_skipped", "violation",
                 "witnesses")

    def __init__(self, passed: bool, window: int):
        self.passed, self.window = passed, window
        self.triples_checked = self.triples_skipped = 0
        self.violation: str | None = None
        self.witnesses: tuple[BasisElement, ...] = ()

    def describe(self) -> str:
        if self.passed:
            return (f"PASS (window={self.window}, {self.triples_checked} triples, "
                    f"{self.triples_skipped} skipped at the boundary)")
        where = ", ".join(str(w) for w in self.witnesses)
        return f"FAIL at ({where}): {self.violation}"


def check_axioms(table: ProductTable) -> AxiomReport:
    """Verify commutativity, associativity and the compatibility law.

    Commutativity is structural (unordered keys).  Associativity is checked
    on all in-window triples.  The compatibility law 2 z.[x,y] = [z.x, y] +
    [x, z.y] needs the product of z with [x, y]; when [x, y] leaves the
    window that triple is skipped and counted, never silently truncated.
    """
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


class TPClassification:
    __slots__ = ("algebra", "window", "verdict", "solution_dim", "path", "basis_count",
                 "derivation_verdict")

    def __init__(self, algebra: str, window: int, verdict: str, solution_dim: int,
                 path: str, basis_count: int, derivation_verdict: str):
        self.algebra, self.window, self.verdict = algebra, window, verdict
        self.solution_dim, self.path, self.basis_count = solution_dim, path, basis_count
        self.derivation_verdict = derivation_verdict

    def to_json_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


def _shift_blocks(p: AlgebraPresentation, window: int):
    """The window's basis keys, and each product shift's unknowns (x, y, t)
    by position in basis, in the order of the shifts' first unknowns."""
    elements = p.basis_elements(window)
    basis = [(p.kind_order(b.kind), b.index) for b in elements]
    # degrees with the Z2 x Z2 part as two bits, so that its sums are xors
    degrees = [(2 * b.kind.z2[0] + b.kind.z2[1], b.index) for b in elements]
    blocks = {}  # shift -> its unknowns (x, y, t), by position in basis
    for i, (zx, m) in enumerate(degrees):
        for j, (zy, n) in enumerate(degrees[i:], i):
            for t, (zt, k) in enumerate(degrees):
                blocks.setdefault((zt ^ zx ^ zy, k - m - n), []).append((i, j, t))
    return basis, blocks


def _block(p: AlgebraPresentation, delta: Fraction, window: int, basis, unknowns):
    """One shift's matrix (_membership_system), its rows streamed."""
    maps = [{} for _ in basis]
    for col, (i, j, t) in enumerate(unknowns):
        maps[i].setdefault(basis[j], []).append((col, basis[t]))
        if j != i:
            maps[j].setdefault(basis[i], []).append((col, basis[t]))
    return identity_rows(p, delta, maps, window, len(unknowns))


def _membership_system(p: AlgebraPresentation, delta: Fraction, window: int):
    """Unknown product coefficients constrained by the derivation identity,
    as one matrix per product shift, their kernels summing to the system's.

    Unknowns: q[{x, y}, t] for unordered in-window pairs and in-window
    targets t, already commutative by construction, of shift
    deg t - deg x - deg y in Z2 x Z2 x Z.  For every in-window z the
    operator w -> z.w must satisfy the delta-derivation identity, whose row
    at output o reads only unknowns of shift deg o - deg z - deg x - deg y,
    as the bracket has degree 0.  A shift's matrix, in the order of its
    first unknown, is solver.identity_rows with one map per z, D(w) the
    unknowns of {z, w} at that shift in (pair, target) order.  Its rows
    come source pair by source pair, every z in turn, so every z's columns
    fill in together and a zero kernel is certified before most rows are
    made (witt at window 6: 1,958 of 13,832 rows over 37 shifts).  Rows are
    indexed by output basis elements, which may lie outside the window
    (they are equation labels, not unknowns).  classify_products makes only
    one shift per orbit of these matrices (_membership_dim).
    """
    basis, blocks = _shift_blocks(p, window)
    return (_block(p, delta, window, basis, unknowns) for unknowns in blocks.values())


def _membership_dim(p: AlgebraPresentation, window: int) -> int:
    """The kernel dimension of the membership system at delta = 1/2, one
    shift per orbit of kind_automorphisms(p) eliminated by a solver.Mirror
    (classify_products), each shift (z, d) its degree (z >> 1, z & 1, d)."""
    half, elements = Fraction(1, 2), p.basis_elements(window)
    basis, blocks = _shift_blocks(p, window)
    where = {(b.kind.name, b.index): i for i, b in enumerate(elements)}

    def image(g, source, unknowns):
        # (position, sign) of g(b) per b; g's image of each source unknown
        moved = [(where[g.perm[b.kind.name], g.flip * b.index], g.signs[b.kind.name])
                 for b in elements]
        col = {u: c for c, u in enumerate(unknowns)}
        return [(c, s) for _, c, s in sorted(
            (col[min(gi, gj), max(gi, gj), gt], c, si * sj * st)
            for c, (i, j, t) in enumerate(source)
            for (gi, si), (gj, sj), (gt, st) in [(moved[i], moved[j], moved[t])])]

    mirror = Mirror(kind_automorphisms(p))
    return sum(len(mirror.kernel(GradingDegree(z >> 1, z & 1, d), unknowns,
                                 lambda: _block(p, half, window, basis, unknowns), image))
               for (z, d), unknowns in blocks.items())


def classify_products(p: AlgebraPresentation, verdict: str,
                      window: int) -> TPClassification:
    """Classify commutative products compatible with the bracket on a window.

    verdict is the 1/2-derivation scan's, VERDICT_SCALAR_ONLY or
    VERDICT_NOT_SCALAR_ONLY; it decides which path applies.  The verdict is
    'trivial' only when the zero product is the sole solution of the
    windowed system.

    The general path hands each shift, in _membership_system's order, to a
    solver.Mirror over solver.kind_automorphisms(p), which eliminates the
    first shift of each orbit and takes the orbit's other kernels from it.
    Why that is exact: g(X_m) = s_X perm(X)_{f*m} maps the symmetric
    window's basis onto itself (perm keeps central kinds central), and the
    unknowns of shift (eps, d) onto those of (A eps, f*d), q'[{gx, gy}, gt]
    = s_X s_Y s_T q[{x, y}, t], the product g(g^-1(x).g^-1(y)).  As g is an
    automorphism, it carries the rows of z, x, y at output o onto those of
    gz, gx, gy at go, so it carries solutions onto solutions and the
    kernels have one dimension.  A later shift whose partner's kernel is
    zero gets 0, and none of its rows is made; any other takes g's image,
    checked against its own rows by linalg.verify_kernel, which raises if g
    is no automorphism.
    """
    if window < 0:
        raise ProductError("window must be non-negative")
    basis_count = len(p.basis_elements(window))

    if verdict == VERDICT_SCALAR_ONLY:
        # {c : c(x) y = c(y) x for all basis x, y}: for x != y the
        # coordinates at y and at x force c(x) = c(y) = 0, so only a
        # one-element basis leaves c free
        dim = 1 if basis_count == 1 else 0
        path = "scalar-functional"
    elif verdict == VERDICT_NOT_SCALAR_ONLY:
        dim = _membership_dim(p, window)
        path = "derivation-membership"
    else:
        raise ProductError(f"unknown derivation verdict {verdict!r}; expected "
                           f"{VERDICT_SCALAR_ONLY!r} or {VERDICT_NOT_SCALAR_ONLY!r}")

    tp_verdict = TP_TRIVIAL if dim == 0 else TP_NONTRIVIAL_POSSIBLE
    return TPClassification(p.name, window, tp_verdict, dim, path,
                            basis_count, verdict)
