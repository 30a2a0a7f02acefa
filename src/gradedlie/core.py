"""Graded Lie algebras presented by structure-constant families.

Basis elements come in named families ("kinds"), each carrying a Z2 x Z2
degree and indexed over Z.  The bracket of two families is a finite sum of
target families whose coefficients are affine polynomials in the two
indices, so a presentation evaluates [x_m, y_n] on demand for arbitrary
integers with no truncation.  One rule is stored per unordered pair of
families; the reversed bracket is derived by negation, which removes a
whole class of sign-inconsistency bugs at the source.

`bracket_basis` is the one exact evaluator and caches nothing.  The hot
loops (validation, row assembly, the membership system) read brackets
through `bracket_indexed` instead: an integer view keyed by (kind
position, index), with every coefficient multiplied by the presentation's
`scale`, memoised per presentation and filled from `bracket_basis`.

A kind may be marked central: it then has a single basis element at index
0, brackets trivially with everything, and can only appear in a bracket as
an explicit central term (a cubic-polynomial coefficient that fires when
the two indices sum to zero).
"""

from __future__ import annotations

import re
from dataclasses import astuple, dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Mapping


class PresentationError(Exception):
    """Structural problem in a presentation or a mismatched element."""


_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/\d+)?")


def parse_rational(text) -> Fraction:
    """Parse 'p', 'p/q' (or an int) into an exact Fraction.

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


def format_rational(value: Fraction) -> str:
    return str(Fraction(value))


@dataclass(frozen=True, order=True)
class GradingDegree:
    """Degree in Z2 x Z2 x Z: two mod-2 components and an integer index."""

    eps1: int
    eps2: int
    index: int

    def __post_init__(self):
        if self.eps1 not in (0, 1) or self.eps2 not in (0, 1):
            raise PresentationError(f"Z2 components must be 0 or 1: {self}")

    def __add__(self, other: "GradingDegree") -> "GradingDegree":
        return GradingDegree((self.eps1 + other.eps1) % 2,
                             (self.eps2 + other.eps2) % 2,
                             self.index + other.index)

    def __str__(self):
        return f"({self.eps1},{self.eps2},{self.index})"


@dataclass(frozen=True, order=True)
class BasisKind:
    """A Z-indexed family of basis vectors with a fixed Z2 x Z2 degree."""

    name: str
    z2: tuple[int, int]

    def __post_init__(self):
        if self.z2 not in ((0, 0), (0, 1), (1, 0), (1, 1)):
            raise PresentationError(f"bad Z2 x Z2 degree for kind {self.name!r}: {self.z2}")


@dataclass(frozen=True, order=True)
class BasisElement:
    """One basis vector: a kind plus an integer index."""

    kind: BasisKind
    index: int

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

    def coefficient(self, element: BasisElement) -> Fraction:
        return self._terms.get(element, Fraction(0))

    def support(self) -> set[BasisElement]:
        return set(self._terms)

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


@dataclass(frozen=True)
class AffinePoly:
    """Coefficient polynomial c0 + cm*m + cn*n in the two bracket indices."""

    c0: Fraction = Fraction(0)
    cm: Fraction = Fraction(0)
    cn: Fraction = Fraction(0)

    def __call__(self, m: int, n: int) -> Fraction:
        return self.c0 + self.cm * m + self.cn * n

    @property
    def is_zero(self) -> bool:
        return not (self.c0 or self.cm or self.cn)

    def reversed(self) -> "AffinePoly":
        # [y_n, x_m] = -[x_m, y_n]: swap the index slots and negate.
        return AffinePoly(-self.c0, -self.cn, -self.cm)


def affine(c0=0, cm=0, cn=0) -> AffinePoly:
    return AffinePoly(Fraction(c0), Fraction(cm), Fraction(cn))


@dataclass(frozen=True)
class CubicPoly:
    """c0 + c1*m + c2*m^2 + c3*m^3, used for central-term coefficients."""

    c0: Fraction = Fraction(0)
    c1: Fraction = Fraction(0)
    c2: Fraction = Fraction(0)
    c3: Fraction = Fraction(0)

    def __call__(self, m: int) -> Fraction:
        return self.c0 + m * (self.c1 + m * (self.c2 + m * self.c3))

    @property
    def is_zero(self) -> bool:
        return not (self.c0 or self.c1 or self.c2 or self.c3)

    def reversed(self) -> "CubicPoly":
        # Central terms fire at n = -m, so the swapped-argument coefficient
        # is -p(-m): odd powers keep their sign, even powers flip it.
        return CubicPoly(-self.c0, self.c1, -self.c2, self.c3)


@dataclass(frozen=True)
class BracketTerm:
    target: BasisKind
    coeff: AffinePoly
    offset: int = 0


@dataclass(frozen=True)
class CentralTerm:
    """Extra bracket output c(m) * target_0, emitted only when m + n = 0."""

    target: BasisKind
    coeff: CubicPoly


@dataclass(frozen=True)
class BracketRule:
    """[left_m, right_n] = sum coeff(m, n) * target_{m+n+offset} (+ central terms)."""

    left: BasisKind
    right: BasisKind
    terms: tuple[BracketTerm, ...]
    central_terms: tuple[CentralTerm, ...] = ()

    def __post_init__(self):
        want = ((self.left.z2[0] + self.right.z2[0]) % 2,
                (self.left.z2[1] + self.right.z2[1]) % 2)
        for t in self.terms:
            if t.target.z2 != want:
                raise PresentationError(
                    f"rule [{self.left.name},{self.right.name}]: target "
                    f"{t.target.name} has Z2 degree {t.target.z2}, expected {want}")
        for t in self.central_terms:
            if t.target.z2 != want:
                raise PresentationError(
                    f"rule [{self.left.name},{self.right.name}]: central target "
                    f"{t.target.name} has Z2 degree {t.target.z2}, expected {want}")
        object.__setattr__(self, "terms",
                           tuple(t for t in self.terms if not t.coeff.is_zero))
        object.__setattr__(self, "central_terms",
                           tuple(t for t in self.central_terms if not t.coeff.is_zero))

    def reversed(self) -> "BracketRule":
        return BracketRule(
            self.right, self.left,
            tuple(BracketTerm(t.target, t.coeff.reversed(), t.offset) for t in self.terms),
            tuple(CentralTerm(t.target, t.coeff.reversed()) for t in self.central_terms),
        )


class AlgebraPresentation:
    """A graded Lie algebra given by kinds, bracket rules and central kinds.

    Rules are normalised so that the stored left kind does not come after
    the right kind in the declared kind order; the other orientation is
    derived by negation on lookup.
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
            for t in rule.terms:
                if t.target.name in self.central:
                    raise PresentationError(
                        f"rule [{rule.left.name},{rule.right.name}]: ordinary term "
                        f"targets central kind {t.target.name!r}; a central kind "
                        f"has only index 0 and may appear only as a central term")
            if self._order[rule.left.name] > self._order[rule.right.name]:
                rule = rule.reversed()
            key = (rule.left.name, rule.right.name)
            if key in stored or (key[1], key[0]) in stored:
                raise PresentationError(f"duplicate rule for pair {key} in {name!r}")
            if rule.terms or rule.central_terms:
                stored[key] = rule
        self._rules = dict(sorted(
            stored.items(),
            key=lambda kv: (self._order[kv[0][0]], self._order[kv[0][1]])))
        # every coefficient times scale is an integer at integer indices
        self.scale = lcm(1, *(
            q.denominator for rule in self._rules.values()
            for t in rule.terms + rule.central_terms for q in astuple(t.coeff)))
        # rank of each kind position in BasisElement order (kinds sort by name)
        self.kind_rank = tuple(sorted(names).index(n) for n in names)
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

    def owns(self, element: BasisElement) -> bool:
        return self._kind_by_name.get(element.kind.name) == element.kind

    def _check_owned(self, element: BasisElement):
        if not self.owns(element):
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

    def rule_for(self, left: BasisKind, right: BasisKind):
        """Stored rule plus a flag telling whether the arguments were swapped."""
        direct = self._rules.get((left.name, right.name))
        if direct is not None:
            return direct, False
        flipped = self._rules.get((right.name, left.name))
        if flipped is not None:
            return flipped, True
        return None, False

    def bracket_basis(self, x: BasisElement, y: BasisElement) -> Element:
        """[x, y] for two basis elements, evaluated exactly on every call.

        Both arguments are checked on every call.  Nothing is cached here;
        bracket_indexed memoises its integer view of these results.
        """
        self._check_owned(x)
        self._check_owned(y)
        return self._evaluate(x, y)

    def bracket_indexed(self, a: int, m: int, b: int, n: int
                        ) -> tuple[tuple[tuple[int, int], int], ...]:
        """[kinds[a]_m, kinds[b]_n] as ((kind position, index), int) pairs.

        Each int is the exact coefficient times self.scale, and the terms
        come in bracket_basis order.  Results are memoised per presentation
        under (a, m, b, n); a miss evaluates through bracket_basis, so a
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
        rule, swapped = self.rule_for(x.kind, y.kind)
        if rule is None:
            return Element.zero()
        if swapped:
            m, n, sign = y.index, x.index, -1
        else:
            m, n, sign = x.index, y.index, 1
        acc: dict[BasisElement, Fraction] = {}
        for t in rule.terms:
            c = t.coeff(m, n)
            if c:
                b = BasisElement(t.target, m + n + t.offset)
                acc[b] = acc.get(b, Fraction(0)) + sign * c
        if rule.central_terms and m + n == 0:
            for t in rule.central_terms:
                c = t.coeff(m)
                if c:
                    b = BasisElement(t.target, 0)
                    acc[b] = acc.get(b, Fraction(0)) + sign * c
        return Element(acc)


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


@dataclass
class ValidationReport:
    presentation: str
    window: int
    passed: bool
    pairs_checked: int = 0
    triples_checked: int = 0
    check: str | None = None
    witnesses: tuple[BasisElement, ...] = ()
    detail: str = ""

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
    """Exhaustively check grading, skew-symmetry and Jacobi on a window.

    Jacobi is alternating once skew-symmetry holds, so after the pair pass
    it suffices to expand strictly increasing triples.  Sums run on
    bracket_indexed's integers: a bracket carries one factor of p.scale and
    a Jacobiator two.
    """
    if window < 2:
        raise ValueError("validation window must be at least 2")
    basis = p.basis_elements(window)
    keys = [(p.kind_order(b.kind), b.index) for b in basis]
    z2 = [k.z2 for k in p.kinds]
    br = p.bracket_indexed
    report = ValidationReport(p.name, window, True)

    for x, (a, m) in zip(basis, keys):
        for y, (b, n) in zip(basis, keys):
            xy = br(a, m, b, n)
            want = ((z2[a][0] + z2[b][0]) % 2, (z2[a][1] + z2[b][1]) % 2)
            for (c, i), _ in xy:
                if i != m + n or z2[c] != want:
                    t = BasisElement(p.kinds[c], i)
                    report.passed = False
                    report.check = "grading"
                    report.witnesses = (x, y)
                    report.detail = (f"[{x},{y}] contains {t} of degree {t.degree}, "
                                     f"expected {x.degree + y.degree}")
                    return report
            anti = dict(xy)
            for t, v in br(b, n, a, m):
                anti[t] = anti.get(t, 0) + v
            if any(anti.values()):
                report.passed = False
                report.check = "skew-symmetry"
                report.witnesses = (x, y)
                report.detail = (f"[{x},{y}] + [{y},{x}] = "
                                 f"{_scaled_element(p, anti, p.scale)!r}")
                return report
            report.pairs_checked += 1

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
                report.triples_checked += 1
                if any(acc.values()):
                    report.passed = False
                    report.check = "jacobi"
                    report.witnesses = (basis[i], basis[j], basis[k])
                    report.detail = (f"jacobiator = "
                                     f"{_scaled_element(p, acc, p.scale ** 2)!r}")
                    return report
    return report
