"""Graded Lie algebras presented by structure-constant families.

Basis elements come in named families ("kinds"), each carrying a Z2 x Z2
degree and indexed over Z.  The bracket of two families is a finite sum of
target families whose coefficients are affine polynomials in the two
indices, so a presentation evaluates [x_m, y_n] on demand for arbitrary
integers with no truncation.  Every term of [x_m, y_n] sits at index
m + n, so the index grading holds by construction, as the Z2 x Z2 grading
does (a rule's targets must carry the sum of its arguments' Z2 degrees).
One rule is stored per unordered pair of families; the reversed bracket is
derived by negation, which removes a whole class of sign-inconsistency bugs
at the source.

`bracket_basis` is the one exact evaluator and caches nothing: it works in
ints on one table built per presentation, keyed by the kind positions
(a, b) of both orientations, that maps each target kind position to its
summed coefficients times the presentation's `scale`.  The hot loops
(validation and row assembly) read brackets through `bracket_indexed`
instead: an integer view keyed by (kind position, index), with every
coefficient multiplied by `scale`, memoised per presentation and filled
from `bracket_basis`.  `certify_presentation` proves skew-symmetry and Jacobi
for all indices by evaluating them through `bracket_indexed` at a few
index points that determine each identity as a polynomial;
`validate_presentation` decides by it and enumerates only to name a witness.

A kind may be marked central: it then has a single basis element at index
0, brackets trivially with everything, and appears in a bracket only as an
explicit central term (a cubic coefficient that fires when the two indices
sum to zero): the constructor rejects a rule with a central argument.

The value types (degrees, kinds, basis elements, coefficient polynomials,
terms and rules, solver's problems and the oracle's recurrences) are
namedtuples of their fields, validated in __new__, so they compare, hash
and sort as plain tuples do: GradingDegree(0, 0, 1) == (0, 0, 1).  No
dict, set or comparison in the package mixes them with plain tuples of one
shape: solver's Mirror.kernels is keyed by GradingDegree only,
KindAutomorphism.sectors and _SECTOR_MAPS by plain Z2 pairs only, and
Element terms by BasisElement only; the plain (kind position, index) and
(name, index) keys elsewhere never equal a BasisElement, whose first field
is a kind.  Results (reports, layouts, scans, classifications and lemma
checks) are namedtuples too, each built once by the one function that
makes it, and never a dict key, a set member or compared with anything but
its own type.  The record classes left are solver's Mirror, whose kernels
fill as degrees are solved, and linalg's VectorBasis, whose len is its
vector count.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, lcm
from operator import add
from typing import Iterable, Iterator, Mapping


class PresentationError(Exception):
    """Structural problem in a presentation or a mismatched element."""


_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/\d+)?", re.ASCII)


def parse_rational(text) -> Fraction:
    """Parse 'p', 'p/q' in ASCII digits (or an int) into an exact Fraction.

    Decimal and exponent notation are rejected on purpose: presentation
    files must never route coefficients through floating point.
    """
    if isinstance(text, bool):
        raise PresentationError(f"not a rational: {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, Fraction):
        return text
    if isinstance(text, str):
        s = text.strip()
        if not _RATIONAL_RE.fullmatch(s):
            raise PresentationError(
                f"not a rational: {text!r} (expected 'p' or 'p/q')")
        try:
            return Fraction(s)
        except ZeroDivisionError:
            raise PresentationError(f"zero denominator in {text!r}") from None
    raise PresentationError(f"not a rational: {text!r}")


def format_rational(value: Fraction, den: int = 1) -> str:
    return str(Fraction(value, den))


class GradingDegree(namedtuple("GradingDegree", "eps1 eps2 index")):
    """Degree in Z2 x Z2 x Z: two mod-2 components and an integer index."""

    __slots__ = ()

    def __new__(cls, eps1: int, eps2: int, index: int):
        self = super().__new__(cls, eps1, eps2, index)
        if eps1 not in (0, 1) or eps2 not in (0, 1):
            raise PresentationError(f"Z2 components must be 0 or 1: {self}")
        return self

    def __add__(self, other: "GradingDegree") -> "GradingDegree":
        return GradingDegree((self.eps1 + other.eps1) % 2,
                             (self.eps2 + other.eps2) % 2,
                             self.index + other.index)

    def __str__(self):
        return f"({self.eps1},{self.eps2},{self.index})"


class BasisKind(namedtuple("BasisKind", "name z2")):
    """A Z-indexed family of basis vectors with a fixed Z2 x Z2 degree."""

    __slots__ = ()

    def __new__(cls, name: str, z2: tuple[int, int]):
        if z2 not in ((0, 0), (0, 1), (1, 0), (1, 1)):
            raise PresentationError(f"bad Z2 x Z2 degree for kind {name!r}: {z2}")
        return super().__new__(cls, name, z2)


class BasisElement(namedtuple("BasisElement", "kind index")):
    """One basis vector: a kind plus an integer index."""

    __slots__ = ()

    @property
    def degree(self) -> GradingDegree:
        return GradingDegree(self.kind.z2[0], self.kind.z2[1], self.index)

    def __str__(self):
        return f"{self.kind.name}_{self.index}"


class Element:
    """Finite rational linear combination of basis elements.

    Zero coefficients are never stored, so equality is plain dict equality.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[BasisElement, Fraction] | None = None):
        clean = {}
        if terms:
            for b, c in terms.items():
                c = Fraction(c)
                if c:
                    clean[b] = c
        self._terms = clean

    @staticmethod
    def zero() -> "Element":
        return Element()

    @staticmethod
    def basis(element: BasisElement, coeff=1) -> "Element":
        return Element({element: Fraction(coeff)})

    def items(self) -> Iterator[tuple[BasisElement, Fraction]]:
        return iter(self._terms.items())

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "Element") -> "Element":
        terms = dict(self._terms)
        for b, c in other._terms.items():
            s = terms.get(b, Fraction(0)) + c
            if s:
                terms[b] = s
            else:
                terms.pop(b, None)
        out = Element.__new__(Element)
        out._terms = terms
        return out

    def __sub__(self, other: "Element") -> "Element":
        return self + other.scale(-1)

    def scale(self, coeff) -> "Element":
        c = Fraction(coeff)
        if not c:
            return Element.zero()
        out = Element.__new__(Element)
        out._terms = {b: v * c for b, v in self._terms.items()}
        return out

    def __neg__(self) -> "Element":
        return self.scale(-1)

    def __eq__(self, other):
        return isinstance(other, Element) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        if not self._terms:
            return "0"
        parts = []
        for b in sorted(self._terms):
            c = self._terms[b]
            if c == 1:
                parts.append(f"{b}")
            elif c == -1:
                parts.append(f"-{b}")
            else:
                parts.append(f"{c}*{b}")
        return " + ".join(parts).replace("+ -", "- ")


_ZERO = Fraction(0)


class AffinePoly(namedtuple("AffinePoly", "c0 cm cn", defaults=(_ZERO,) * 3)):
    """Coefficient polynomial c0 + cm*m + cn*n in the two bracket indices."""

    __slots__ = ()

    @property
    def is_zero(self) -> bool:
        return not (self.c0 or self.cm or self.cn)

    def reversed(self) -> "AffinePoly":
        # [y_n, x_m] = -[x_m, y_n]: swap the index slots and negate.
        return AffinePoly(-self.c0, -self.cn, -self.cm)


def affine(c0=0, cm=0, cn=0) -> AffinePoly:
    return AffinePoly(Fraction(c0), Fraction(cm), Fraction(cn))


class CubicPoly(namedtuple("CubicPoly", "c0 c1 c2 c3", defaults=(_ZERO,) * 4)):
    """c0 + c1*m + c2*m^2 + c3*m^3, used for central-term coefficients."""

    __slots__ = ()

    @property
    def is_zero(self) -> bool:
        return not (self.c0 or self.c1 or self.c2 or self.c3)

    def reversed(self) -> "CubicPoly":
        # Central terms fire at n = -m, so the swapped-argument coefficient
        # is -p(-m): odd powers keep their sign, even powers flip it.
        return CubicPoly(-self.c0, self.c1, -self.c2, self.c3)


class BracketTerm(namedtuple("BracketTerm", "target coeff")):
    __slots__ = ()


class CentralTerm(namedtuple("CentralTerm", "target coeff")):
    """Extra bracket output c(m) * target_0, emitted only when m + n = 0."""

    __slots__ = ()


class BracketRule(namedtuple("BracketRule", "left right terms central_terms")):
    """[left_m, right_n] = sum coeff(m, n) * target_{m+n} (+ central terms)."""

    __slots__ = ()

    def __new__(cls, left: BasisKind, right: BasisKind, terms: tuple[BracketTerm, ...],
                central_terms: tuple[CentralTerm, ...] = ()):
        want = ((left.z2[0] + right.z2[0]) % 2, (left.z2[1] + right.z2[1]) % 2)
        for t in terms + central_terms:
            if t.target.z2 != want:
                central = "central " if isinstance(t, CentralTerm) else ""
                raise PresentationError(
                    f"rule [{left.name},{right.name}]: {central}target "
                    f"{t.target.name} has Z2 degree {t.target.z2}, expected {want}")
        return super().__new__(cls, left, right,
                               tuple(t for t in terms if not t.coeff.is_zero),
                               tuple(t for t in central_terms if not t.coeff.is_zero))

    def reversed(self) -> "BracketRule":
        return BracketRule(
            self.right, self.left,
            tuple(BracketTerm(t.target, t.coeff.reversed()) for t in self.terms),
            tuple(CentralTerm(t.target, t.coeff.reversed()) for t in self.central_terms),
        )


def _summed(rule: BracketRule, order: Mapping[str, int]) -> tuple[dict, dict]:
    """rule's terms as {target kind position: (c0, cm, cn)} and its central
    terms as {target kind position: (k0, k1, k2, k3)}, the Fraction
    coefficients of one target summed and a target whose sum is zero left
    out; the constructor scales them to the int table."""
    tables = []
    for terms in (rule.terms, rule.central_terms):
        table = {}
        for t in terms:
            k, c = order[t.target.name], t.coeff
            table[k] = tuple(map(add, table[k], c)) if k in table else c
        tables.append({k: c for k, c in table.items() if any(c)})
    return tables[0], tables[1]


_NO_TABLE: tuple[dict, dict] = ({}, {})  # a kind pair with no rule: [x, y] = 0


class AlgebraPresentation:
    """A graded Lie algebra given by kinds, bracket rules and central kinds.

    Rules are normalised so that the stored left kind does not come after
    the right kind in the declared kind order; the other orientation is
    derived by negation when the integer table is built.
    """

    def __init__(self, name: str, kinds: Iterable[BasisKind],
                 rules: Iterable[BracketRule] = (),
                 central: Iterable[str] = ()):
        self.name = name
        self.kinds = tuple(kinds)
        if not self.kinds:
            raise PresentationError("a presentation needs at least one kind")
        names = [k.name for k in self.kinds]
        if len(set(names)) != len(names):
            raise PresentationError(f"duplicate kind names in {name!r}")
        if bad := [n for n in names if ">" in n]:
            raise PresentationError(f"kind name {bad[0]!r} contains '>', which the "
                                    f"solver's column labels X>T reserve")
        self._kind_by_name = {k.name: k for k in self.kinds}
        self._order = {k.name: i for i, k in enumerate(self.kinds)}
        self.central = frozenset(central)
        for c in self.central:
            if c not in self._kind_by_name:
                raise PresentationError(f"central kind {c!r} is not declared")

        stored: dict[tuple[str, str], BracketRule] = {}
        for rule in rules:
            for k in (rule.left, rule.right):
                if self._kind_by_name.get(k.name) != k:
                    raise PresentationError(
                        f"rule references kind {k.name!r} not declared in {name!r}")
            where = f"rule [{rule.left.name},{rule.right.name}]"
            for t in rule.terms + rule.central_terms:
                if self._kind_by_name.get(t.target.name) != t.target:
                    raise PresentationError(
                        f"{where}: term targets kind {t.target.name!r} "
                        f"not declared in {name!r}")
            for t in rule.terms:
                if t.target.name in self.central:
                    raise PresentationError(
                        f"{where}: ordinary term targets central kind "
                        f"{t.target.name!r}; a central kind has only index 0 and "
                        f"may appear only as a central term")
            for t in rule.central_terms:
                if t.target.name not in self.central:
                    raise PresentationError(
                        f"{where}: central term targets non-central kind "
                        f"{t.target.name!r}")
            if self._order[rule.left.name] > self._order[rule.right.name]:
                rule = rule.reversed()
            key = (rule.left.name, rule.right.name)
            if key in stored or (key[1], key[0]) in stored:
                raise PresentationError(f"duplicate rule for pair {key} in {name!r}")
            if rule.terms or rule.central_terms:
                if args := sorted({rule.left.name, rule.right.name} & self.central):
                    raise PresentationError(f"{where}: central kind {args[0]!r} is a bracket "
                                            f"argument; it may appear only as a central term")
                stored[key] = rule
        self._rules = dict(sorted(
            stored.items(),
            key=lambda kv: (self._order[kv[0][0]], self._order[kv[0][1]])))
        # one table per ordered kind-position pair: a two-kind rule is also
        # stored reversed, a same-kind rule only as it is
        order, sums = self._order, {}
        for rule in self._rules.values():
            for r in (rule, rule.reversed()) if rule.left != rule.right else (rule,):
                sums[order[r.left.name], order[r.right.name]] = _summed(r, order)
        # every summed coefficient times scale is an integer at integer indices
        self.scale = lcm(1, *(q.denominator for tables in sums.values()
                              for table in tables for c in table.values() for q in c))
        s = self._table_scale = self.scale
        self._tables = {key: tuple({t: tuple(int(q * s) for q in c)
                                    for t, c in table.items()} for table in tables)
                        for key, tables in sums.items()}
        self._indexed: dict[tuple[int, int, int, int],
                            tuple[tuple[tuple[int, int], int], ...]] = {}

    def __eq__(self, other):
        return (isinstance(other, AlgebraPresentation)
                and self.name == other.name
                and self.kinds == other.kinds
                and self.central == other.central
                and self._rules == other._rules)

    def __repr__(self):
        return (f"AlgebraPresentation({self.name!r}, {len(self.kinds)} kinds, "
                f"{len(self._rules)} rules)")

    @property
    def rules(self) -> tuple[BracketRule, ...]:
        return tuple(self._rules.values())

    def kind(self, name: str) -> BasisKind:
        try:
            return self._kind_by_name[name]
        except KeyError:
            raise PresentationError(
                f"unknown kind {name!r}; {self.name!r} has kinds "
                f"{', '.join(self._kind_by_name)}") from None

    def kind_order(self, kind: BasisKind) -> int:
        return self._order[kind.name]

    def is_central(self, kind: BasisKind) -> bool:
        return kind.name in self.central

    def _check_owned(self, element: BasisElement):
        # bracket_indexed passes the declared kinds themselves: skip
        # comparing their fields
        kind = self._kind_by_name.get(element.kind.name)
        if kind is not element.kind and kind != element.kind:
            raise PresentationError(
                f"element {element} does not belong to presentation {self.name!r}")
        if self.is_central(element.kind) and element.index != 0:
            raise PresentationError(
                f"central kind {element.kind.name!r} only has index 0, got {element}")

    def element_exists(self, kind: BasisKind, index: int) -> bool:
        return not self.is_central(kind) or index == 0

    def basis_elements(self, window: int) -> list[BasisElement]:
        """All basis elements with |index| <= window, in canonical order."""
        out = []
        for k in self.kinds:
            if self.is_central(k):
                out.append(BasisElement(k, 0))
            else:
                out.extend(BasisElement(k, m) for m in range(-window, window + 1))
        return out

    def bracket_basis(self, x: BasisElement, y: BasisElement) -> Element:
        """[x, y] for two basis elements, evaluated exactly on every call.

        Both arguments are checked on every call.  Each target's summed int
        coefficient is read from the presentation's table and divided by
        the scale.  Nothing is cached here; bracket_indexed memoises its
        integer view of these results.
        """
        self._check_owned(x)
        self._check_owned(y)
        return self._evaluate(x, y)

    def bracket_indexed(self, a: int, m: int, b: int, n: int
                        ) -> tuple[tuple[tuple[int, int], int], ...]:
        """[kinds[a]_m, kinds[b]_n] as ((kind position, index), int) pairs.

        Each int is the exact coefficient times self.scale, and the terms
        come in bracket_basis order.  Results are memoised per presentation
        under (a, m, b, n); every miss evaluates through bracket_basis, so a
        rejected pair raises before anything is stored.
        """
        key = (a, m, b, n)
        try:
            return self._indexed[key]
        except KeyError:
            pass
        kinds, order, scale = self.kinds, self._order, self.scale
        terms = []
        for t, c in self.bracket_basis(BasisElement(kinds[a], m),
                                       BasisElement(kinds[b], n)).items():
            q, r = divmod(scale, c.denominator)
            if r:
                raise ArithmeticError(
                    f"internal error: {c} in [{kinds[a].name}_{m},{kinds[b].name}_{n}] "
                    f"times scale {scale} is not an integer")
            terms.append(((order[t.kind.name], t.index), c.numerator * q))
        hit = self._indexed[key] = tuple(terms)
        return hit

    def _evaluate(self, x: BasisElement, y: BasisElement) -> Element:
        order, kinds, s = self._order, self.kinds, self._table_scale
        terms, central = self._tables.get((order[x.kind.name], order[y.kind.name]),
                                          _NO_TABLE)
        m, n = x.index, y.index
        out = Element.__new__(Element)
        out._terms = {BasisElement(kinds[t], m + n): Fraction(c, s)
                      for t, (c0, cm, cn) in terms.items() if (c := c0 + cm * m + cn * n)}
        if central and m + n == 0:
            out._terms.update(
                {BasisElement(kinds[t], 0): Fraction(c, s) for t, (k0, k1, k2, k3)
                 in central.items() if (c := k0 + m * (k1 + m * (k2 + m * k3)))})
        return out


def _as_element(x) -> Element:
    if isinstance(x, Element):
        return x
    if isinstance(x, BasisElement):
        return Element.basis(x)
    raise PresentationError(f"not an element: {x!r}")


def bracket(p: AlgebraPresentation, x, y) -> Element:
    """Lie bracket [x, y] in the presentation p, extended bilinearly."""
    if isinstance(x, BasisElement) and isinstance(y, BasisElement):
        return p.bracket_basis(x, y)
    out = Element.zero()
    for bx, cx in _as_element(x).items():
        for by, cy in _as_element(y).items():
            out = out + p.bracket_basis(bx, by).scale(cx * cy)
    return out


class ValidationReport(namedtuple(
        "ValidationReport",
        "presentation window passed pairs_checked triples_checked check witnesses detail",
        defaults=(0, 0, None, (), ""))):
    """validate_presentation's counts; a failure names its check, witnesses and residue."""

    __slots__ = ()

    def describe(self) -> str:
        if self.passed:
            return (f"{self.presentation}: PASS (window={self.window}, "
                    f"{self.pairs_checked} pairs, {self.triples_checked} triples)")
        where = ", ".join(str(w) for w in self.witnesses)
        return (f"{self.presentation}: FAIL [{self.check}] at ({where}): {self.detail}")


def _scaled_element(p: AlgebraPresentation, acc: dict[tuple[int, int], int],
                    den: int) -> Element:
    """The Element sum(v/den * kinds[a]_i) of an integer accumulator."""
    return Element({BasisElement(p.kinds[a], i): Fraction(v, den)
                    for (a, i), v in acc.items()})


def validate_presentation(p: AlgebraPresentation, window: int) -> ValidationReport:
    """Decide skew-symmetry and Jacobi for all indices with the certificate.

    A certified p gets enumerate_window's counts for a pass; otherwise the
    window is enumerated to name a witness, which N >= 4 always holds.
    """
    if window >= 2 and certify_presentation(p):
        size = len(p.basis_elements(window))
        return ValidationReport(p.name, window, True, size * size, comb(size, 3))
    report = enumerate_window(p, window)  # raises on a window below 2
    if report.passed and window >= 4:
        raise RuntimeError(f"internal error: the certificate rejects {p.name!r}, "
                           f"but the window N = {window} finds no witness")
    return report


def enumerate_window(p: AlgebraPresentation, window: int) -> ValidationReport:
    """Exhaustively check skew-symmetry and Jacobi on a window.

    The grading holds by construction.  Jacobi is alternating once
    skew-symmetry holds, so after the pair pass it suffices to expand
    strictly increasing triples.  Sums run on bracket_indexed's integers: a
    bracket carries one factor of p.scale and a Jacobiator two.
    """
    if window < 2:
        raise PresentationError("validation window must be at least 2")
    basis = p.basis_elements(window)
    keys = [(p.kind_order(b.kind), b.index) for b in basis]
    br, pairs, triples = p.bracket_indexed, 0, 0

    for x, (a, m) in zip(basis, keys):
        for y, (b, n) in zip(basis, keys):
            anti = dict(br(a, m, b, n))
            for t, v in br(b, n, a, m):
                anti[t] = anti.get(t, 0) + v
            if any(anti.values()):
                return ValidationReport(p.name, window, False, pairs, triples, "skew-symmetry",
                                        (x, y), f"[{x},{y}] + [{y},{x}] = "
                                        f"{_scaled_element(p, anti, p.scale)!r}")
            pairs += 1

    size = len(keys)
    for i in range(size):
        x = keys[i]
        for j in range(i + 1, size):
            y = keys[j]
            xy = br(*x, *y)
            for k in range(j + 1, size):
                z = keys[k]
                # sum over cyclic (a, b, c) of [a, [b, c]], where [b, c] is
                # sum u*t and each [a, t] is sum v*s
                acc: dict[tuple[int, int], int] = {}
                for a, bc in ((x, br(*y, *z)), (y, br(*z, *x)), (z, xy)):
                    for t, u in bc:
                        for s, v in br(*a, *t):
                            acc[s] = acc.get(s, 0) + u * v
                triples += 1
                if any(acc.values()):
                    return ValidationReport(p.name, window, False, pairs, triples, "jacobi",
                                            (basis[i], basis[j], basis[k]), f"jacobiator = "
                                            f"{_scaled_element(p, acc, p.scale ** 2)!r}")
    return ValidationReport(p.name, window, True, pairs, triples)


# The index points certify_presentation evaluates at; its docstring gives
# the degree each set determines.
_SKEW_POINTS = ((0, 0), (1, 0), (0, 1))
_CENTRAL_SKEW_POINTS = ((-1, 1), (1, -1), (2, -2))
_JACOBI_POINTS = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0),
                  (0, 0, -1), (1, 1, 0), (1, 0, 1), (0, 1, 1))
_PLANE_POINTS = tuple((i, j, -i - j) for i in range(5) for j in range(5 - i))


def certify_presentation(p: AlgebraPresentation) -> bool:
    """True if and only if skew-symmetry and Jacobi hold at every index.

    Evaluates through p.bracket_indexed at fixed points, each identity a
    polynomial those points determine.  No central kind is an argument (the
    constructor sees to it), so only non-central kinds are looped over.
    For kinds A <= B (the residue is symmetric under the swap), the target
    t_{m+n} of [A_m, B_n] + [B_n, A_m] has an affine coefficient, fixed by
    (0, 0), (1, 0), (0, 1); a central target fires on n = -m with a cubic
    in m, fixed by those of m = 0, -1, 1, 2.  For kinds A <= B <= C (the
    Jacobiator alternates once skew-symmetry holds), an ordinary target of
    sum over cyclic (X_x, Y_y, Z_z) of [X_x, [Y_y, Z_z]] has a product of
    two affine coefficients, of total degree <= 2 in (x, y, z), fixed by
    0, +-e_i and e_i + e_j; [X_x, Z_0] = 0 for a central Z_0, so a central
    target has an affine coefficient times a cubic in x on x + y + z = 0,
    of total degree <= 4 in (x, y), fixed by (i, j, -i - j) with i, j >= 0
    and i + j <= 4.  A presentation with no central kind has no central
    target, so it skips the central points.  Every point lies in the window
    N = 4, so False means p is not a graded Lie algebra and
    enumerate_window at N = 4 finds a witness.
    """
    br, central = p.bracket_indexed, bool(p.central)
    kinds = [a for a, k in enumerate(p.kinds) if not p.is_central(k)]
    for a, b in combinations_with_replacement(kinds, 2):
        for m, n in _SKEW_POINTS + (_CENTRAL_SKEW_POINTS if central else ()):
            acc = dict(br(a, m, b, n))
            for t, v in br(b, n, a, m):
                acc[t] = acc.get(t, 0) + v
            if any(acc.values()):
                return False
    for a, b, c in combinations_with_replacement(kinds, 3):
        for x, y, z in _JACOBI_POINTS + (_PLANE_POINTS if central else ()):
            acc = {}
            for X, bc in (((a, x), br(b, y, c, z)), ((b, y), br(c, z, a, x)),
                          ((c, z), br(a, x, b, y))):
                for t, u in bc:
                    for s, v in br(*X, *t):
                        acc[s] = acc.get(s, 0) + u * v
            if any(acc.values()):
                return False
    return True
