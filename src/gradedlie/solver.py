"""Windowed solver for homogeneous delta-derivations.

A linear map D is a delta-derivation when D[x, y] = delta([Dx, y] + [x, Dy]).
On a Z2 x Z2 x Z graded presentation, D is searched degree by degree: a map
of degree (eps1, eps2, gamma) sends each basis element X_m into the
component of degree deg X_m + (eps1, eps2, gamma), so
D(X_m) = sum over T of u[X>T, m] T_{m+gamma}, for every kind T whose Z2
degree is X.z2 + (eps1, eps2).  The unknowns are those coefficients for
m in [-window, window] where X_m and T_{m+gamma} both exist.

A central source keeps only central targets.  For delta != 0,
delta [DC, y] = D[C, y] = 0 for every y puts DC in the centre, which the
rule takes to be spanned by the central kinds, as it is for every catalog
algebra with one.  At delta = 0 nothing forces DC into the centre, so there
the rule is an assumption: maps from a central kind to a non-central one
are not searched.  The product path's inside layouts have no such rule.

Constraint rows come from expanding D[x, y] - delta([Dx, y] + [x, Dy]) over
all unordered source pairs whose indices m, n, m+n all lie in the window.
identity_rows visits source elements boundary-first, stably by decreasing
|index|, each pair in declared orientation: the declared order's rows,
moved so that elimination reaches each rank sooner.
Truncation can only leak at the window boundary, so classification is read
off an interior sub-window; shrinking it further never changes the verdict
for a well-sized window.

Each assembled system carries kernel_certificate's check, unless p has a
central kind or a same-kind table that is not skew (or a label lacks an
index of the window): for a kernel vector affine in m per column label on
the window, each family of rows is one polynomial of degree at most 2 in
(m, n), which is zero once it vanishes on the rows of the same system on
the window N = 1, made from the layout's image map.  Elimination offers
the certificate each candidate kernel it builds (linalg._rref_rows), stops
reading rows as soon as one passes, and nullspace returns that kernel
without trying it again.

A degree is decided on the window W = propagation_window(p) when W < N.
Restriction: a pair's rows read D only at m, n and m+n, so the rows of W
are rows of N over W's columns, and a kernel vector of N restricted to
W's columns is one of W.  Propagation: for |k| >= W the rows of the pair
(P_{+-1}, X_k), one per output T, read the column u[t(X)>T, k+-1] times
a_X(+-1, k) != 0 and otherwise only columns of index +-1 and k, and t is
onto; so a kernel vector of N zero on W's columns is zero at +-(W+1), and
so on out to N.  Restriction is injective and dim K_N <= dim K_W.  So a
zero kernel on W is N's.  Any K_W is exact on W, eliminated, verified or
certified, and the certificate's sample, the rows of N = 1, are rows of W:
so a vector of K_W affine per label passes the certificate's check and,
extended affinely, holds on every row of every window.  If every vector
of K_W is affine, the dim K_W extensions span K_N (linalg.extend_affine);
any other kernel is solved on N.

kind_automorphisms certifies signed kind permutations
g(X_m) = s_X perm[X]_{f*m}, automorphisms at every index: theta
(X_m -> s_X X_{-m}), and for pgca sigma (I <-> J, H -> -H) and theta sigma.
D -> g D g^-1 maps the window system of (eps, gamma) onto that of
(A eps, f*gamma), u[X>T, m] to s_X s_T u[perm X>perm T, f*m].  A Mirror
solves the first degree of each orbit directly and keeps its kernel; each
later degree checks g's image of it against its own system and does not
eliminate: through the certificate where that passes, so reading no row,
and against every row otherwise; a zero kernel is taken as it is.  A
Mirror holds the kernels of one window and kind of layout, and its W:
scan's, on min(W, N), or poisson.classify_products' inside degrees, W None.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .core import AlgebraPresentation, GradingDegree, format_rational
from .linalg import (SparseMatrix, VectorBasis, affine_certificate, extend_affine,
                     nullspace, project_basis, verify_kernel)


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


def required_window(gamma: int) -> int:
    return 2 * (abs(gamma) + 1)


def check_window(window: int, gamma: int, interior: int | None = None) -> int:
    """The interior for a solve with shift gamma on the window.

    Raises WindowTooSmallError unless window >= required_window(gamma); an
    interior left as None defaults to window // 2.
    """
    need = required_window(gamma)
    if window < need:
        raise WindowTooSmallError(window, gamma, need)
    return window // 2 if interior is None else interior


class HomogeneousSolveProblem(namedtuple("HomogeneousSolveProblem",
                                          "presentation delta degree window interior")):
    """One homogeneous solve: algebra, delta, degree and window sizes."""

    __slots__ = ()

    def __new__(cls, presentation: AlgebraPresentation, delta: Fraction,
                degree: GradingDegree, window: int, interior: int):
        if window < 1:
            raise SolverError("window must be positive")
        if not (0 <= interior <= window):
            raise SolverError("interior must lie inside the window")
        return super().__new__(cls, presentation, Fraction(delta), degree, window, interior)

    @property
    def shift(self) -> tuple[int, int]:
        return (self.degree.eps1, self.degree.eps2)

    @property
    def gamma(self) -> int:
        return self.degree.index


class UnknownLayout(namedtuple("UnknownLayout", "columns families images index")):
    """Column layout: one unknown u[X>T, m] per source kind X, target kind
    T and index m where X_m and T_{m+gamma} both exist, and images, the map
    D(X_m) = sum of u[X>T, m] * T_{m+gamma} in identity_rows' form that
    assembly and kernel_certificate's sample read.

    A column (label, m) is labelled X when X has one target kind or T = X,
    and "X>T" otherwise; families maps each label to its (X, T), and index
    each column to its position.
    """

    __slots__ = ()


def unknown_layout(problem: HomogeneousSolveProblem, inside: bool = False) -> UnknownLayout:
    """The problem's columns, a central source keeping only central targets;
    inside, only those whose target T_{m+gamma} lies in the window, and a
    central source's in every kind of its sector, as poisson's z.- needs."""
    p, gamma, window = problem.presentation, problem.gamma, problem.window
    e1, e2 = problem.shift
    span = range(-window, window + 1)
    columns, families, images = [], {}, {}
    for x in p.kinds:
        z2 = ((x.z2[0] + e1) % 2, (x.z2[1] + e2) % 2)
        targets = [t for t in p.kinds
                   if t.z2 == z2 and (inside or p.is_central(t) or not p.is_central(x))]
        a, central = p.kind_order(x), p.is_central(x)
        for t in targets:
            label = x.name if len(targets) == 1 or t == x else f"{x.name}>{t.name}"
            families[label] = (x, t)
            b, t_central = p.kind_order(t), p.is_central(t)
            for m in [0] if central else span:  # a central kind's one element is C_0
                if (not t_central or m == -gamma) and (not inside or abs(m + gamma) <= window):
                    images.setdefault((a, m), []).append((len(columns), (b, m + gamma)))
                    columns.append((label, m))
    return UnknownLayout(columns, families, images,
                         {key: i for i, key in enumerate(columns)})


def identity_rows(p: AlgebraPresentation, delta: Fraction,
                  images: dict[tuple[int, int], list[tuple[int, tuple[int, int]]]],
                  window: int, cols: int, certify=None) -> SparseMatrix:
    """The rows of D[x, y] - delta([Dx, y] + [x, Dy]), source pair by
    source pair.

    D is given by images: a (kind position, index) basis key maps to D of
    that element as (column, target key) pairs, and a missing key means
    D = 0 there.  Source elements are visited boundary-first, stably by
    decreasing |index|, so that elimination reaches each rank sooner; x
    is the one declared first, so even on a table that is not skew the
    order moves rows but never changes them.  Each unordered source pair
    whose indices m, n and m+n lie in the window evaluates [x, y] once and
    gives one row {column: int} per output basis element, its outputs in
    (kind position, index) order.  The bracket [x, y] sits at index m+n,
    so D[x, y] reads D only inside the window.  Every entry is a column of
    D, so a D that is zero on the window gives no rows and evaluates no
    bracket.  Brackets come from bracket_indexed, so with delta = dn/dd
    the rows are integers over p.scale * dd, the denominator of the
    returned cols-column matrix.

    The map is read, and its columns checked against cols, here and once.
    The rows are not: the matrix streams them, and a source pair's
    brackets are evaluated only when elimination reaches its rows.  Once
    the rows read leave a zero candidate kernel (linalg.nullspace), the
    remaining pairs are never visited.
    """
    used = [col for targets in images.values() for col, _ in targets]
    if used and (min(used) < 0 or max(used) >= cols):
        bad = min(used) if min(used) < 0 else max(used)
        raise SolverError(f"image column {bad} outside {cols} columns")
    return SparseMatrix.from_stream(cols, _identity_rows(p, delta, images, window),
                                    p.scale * delta.denominator, certify)


def _identity_rows(p: AlgebraPresentation, delta: Fraction, images: dict, window: int):
    # declared order is key order, so x is the pair's smaller key
    basis = sorted(((p.kind_order(b.kind), b.index) for b in p.basis_elements(window)),
                   key=lambda key: -abs(key[1]))
    dd, neg = delta.denominator, -delta.numerator
    br, image = p.bracket_indexed, images.get
    source = [image(key, ()) for key in basis]
    if not any(source):
        return
    for i, key in enumerate(basis):
        for j in range(i + 1, len(basis)):
            other = basis[j]
            if abs(key[1] + other[1]) > window:
                continue
            (a, m), (b, n), x, y = (key, other, i, j) if key < other else (other, key, j, i)
            acc: dict[tuple[int, int], dict[int, int]] = {}
            for t, c in br(a, m, b, n):
                c *= dd
                for col, out in image(t, ()):
                    if (row := acc.get(out)) is None:
                        acc[out] = {col: c}
                    else:
                        row[col] = row.get(col, 0) + c
            for col, (ta, tm) in source[x]:
                for t, c in br(ta, tm, b, n):
                    c *= neg
                    if (row := acc.get(t)) is None:
                        acc[t] = {col: c}
                    else:
                        row[col] = row.get(col, 0) + c
            for col, (ta, tm) in source[y]:
                for t, c in br(a, m, ta, tm):
                    c *= neg
                    if (row := acc.get(t)) is None:
                        acc[t] = {col: c}
                    else:
                        row[col] = row.get(col, 0) + c
            for out in sorted(acc) if len(acc) > 1 else acc:
                row = acc[out]
                if 0 in row.values():
                    row = {c: v for c, v in row.items() if v}
                    if not row:
                        continue
                yield row


def assemble(problem: HomogeneousSolveProblem,
             layout: UnknownLayout | None = None) -> SparseMatrix:
    """Constraint matrix whose kernel is the degree-homogeneous solution set.

    The rows are those of identity_rows for layout.images on the
    problem's window, with kernel_certificate's check.
    """
    if layout is None:
        layout = unknown_layout(problem)
    return identity_rows(problem.presentation, problem.delta, layout.images,
                         problem.window, len(layout.columns),
                         kernel_certificate(problem, layout))


def kernel_certificate(problem: HomogeneousSolveProblem, layout: UnknownLayout):
    """A check that int vectors on layout's columns satisfy every row of
    the problem's system, reading none of them, or None if p has a central
    kind or a same-kind table that is not skew, or if a label misses one of
    the 2N+1 columns of a window N >= 1, as inside layouts do at gamma != 0.

    The check is linalg.affine_certificate: it passes linalg's (label, w)
    pairs only if each w is affine in m per column label on the window,
    w[X>T, m] = a + b*m, and holds on every row of the same system on the
    window N = 1.  Those rows are made once, from layout.images, on the
    first candidate that is affine.  A kernel it passes is tried once: in
    elimination, or in verify_kernel when mirrored.

    Why the sample suffices: for affine w, the rows of the source pairs
    (A_m, B_n), A not after B in kind order, with output kind T are the
    values at (m, n) of one polynomial of degree at most 2, on every
    window, as every column they read exists without a central kind.  For
    A != B it vanishes at the 7 points with |m|, |n|, |m + n| <= 1 only if
    it is zero: it is then zero on the line m + n = 0, so it is (m + n)*L,
    and the affine L vanishes at (1, 0), (-1, 0) and (0, 1).  For A = B
    only m < n gives a row; with a skew table (c0 = 0, cm = -cn), as every
    two-kind table is by construction, the polynomial is antisymmetric,
    so (m - n)*(alpha + beta*(m + n)), and the rows at (-1, 0) and (0, 1)
    force alpha = beta = 0.
    """
    p, window = problem.presentation, problem.window
    # affine_certificate reads the 2N+1 columns of every label, two at least
    if (not _skew(p) or not window
            or len(layout.columns) != len(layout.families) * (2 * window + 1)):
        return None
    return affine_certificate([layout.index[label, 0] for label in layout.families], window,
                              lambda: _identity_rows(p, problem.delta, layout.images, 1))


def _skew(p: AlgebraPresentation) -> bool:
    """Whether p has no central kind and every same-kind table is skew."""
    return not p.central and not any(c0 or cm + cn for (a, b), (terms, _) in p._tables.items()
                                     if a == b for c0, cm, cn in terms.values())


def propagation_window(p: AlgebraPresentation) -> int | None:
    """The least W past every integer root m of a_X(+-1, m) = c0 +- cm + cn*m,
    the one term of each table [P, X] of a propagator kind P, whose targets
    t(X) are a bijection of the kinds: restricting a kernel of a window
    N >= W to W is then injective (module docstring).  P's own table, skew,
    has the root 1, where (P_1, P_1) is no row.  None if no kind is one, or
    if not _skew(p)."""
    if not _skew(p):
        return None
    k, windows = len(p.kinds), []
    for a in range(k):
        roots, targets = set(), set()
        for b in range(k):
            terms = p._tables.get((a, b), ({}, {}))[0]
            if len(terms) != 1:
                break
            (t, (c0, cm, cn)), = terms.items()
            if not cn and not (c0 + cm and c0 - cm):  # zero at every m
                break
            targets.add(t)
            for c in (c0 + cm, c0 - cm):
                if cn and not c % cn:
                    roots.add(abs(c // cn))
        else:
            if len(targets) == k:
                windows.append(max(roots) + 1)
    return min(windows, default=None)


def describe_values(values: dict[int, int], lead: int = 1) -> str:
    """Compact human description of one label's coefficients, given as the
    ints of a reduced row over its pivot entry lead: each value is
    values[m] / lead."""
    if not any(values.values()):
        return "0"
    ms = sorted(values)
    m0, v0 = ms[0], values[ms[0]]
    if all(values[m] == v0 for m in ms):
        return format_rational(v0, lead)
    # two distinct values need two keys; affine is v - v0 = dv * (m - m0) / dm
    dm, dv = ms[1] - m0, values[ms[1]] - v0
    if all((values[m] - v0) * dm == dv * (m - m0) for m in ms):
        mpart = "m" if dv == dm * lead else f"{format_rational(dv, dm * lead)}*m"
        const = v0 * dm - dv * m0
        return f"{format_rational(const, dm * lead)} + {mpart}" if const else mpart
    return ", ".join(f"{m}:{format_rational(values[m], lead)}" for m in ms)


def summarize_interior(layout_keys: Sequence[tuple[str, int]],
                       kinds: Sequence[str],
                       rows: Iterable[tuple[int, Sequence[int]]]) -> list[dict[str, str]]:
    """One description per kind, and per X>T label with a column here, of
    each reduced (lead, int row) pair (linalg.project_basis)."""
    labels: dict[str, list[tuple[int, int]]] = {kind: [] for kind in kinds}
    for i, (label, m) in enumerate(layout_keys):
        labels.setdefault(label, []).append((i, m))
    return [{label: describe_values({m: row[i] for i, m in cols}, lead)
             for label, cols in labels.items()}
            for lead, row in rows]


def classify_interior(layout_keys: Sequence[tuple[str, int]],
                      kinds: Sequence[str],
                      rows: list[Sequence[int]]) -> str:
    """'zero'; 'scalar' for one row, of any nonzero scale, in which every
    kind has columns under its own name, those columns share one nonzero
    value and every X>T column is 0; else 'nontrivial'."""
    if not rows:
        return "zero"
    if len(rows) == 1:
        pairs = [(k in kinds, v) for (k, _), v in zip(layout_keys, rows[0])]
        own = {v for mine, v in pairs if mine}
        if (set(kinds) <= {k for k, _ in layout_keys} and len(own) == 1
                and 0 not in own and not any(v for mine, v in pairs if not mine)):
            return "scalar"
    return "nontrivial"


class SolveReport(namedtuple("SolveReport",
                             "degree full_dim interior_dim classification basis_summary")):
    """Outcome of one homogeneous solve, read off the interior sub-window."""

    __slots__ = ()

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
                       interior: int) -> SolveReport:
    """Classify a kernel, its columns named (label, m) by layout_keys, on
    the interior columns |m| <= interior, read off its reduced int rows."""
    interior_cols = [i for i, (_, m) in enumerate(layout_keys) if abs(m) <= interior]
    interior_keys = [layout_keys[i] for i in interior_cols]
    projected = project_basis(kernel, interior_cols)
    classification = classify_interior(interior_keys, kinds, [row for _, row in projected])
    summary = summarize_interior(interior_keys, kinds, projected)
    return SolveReport(degree, full_dim=len(kernel), interior_dim=len(projected),
                       classification=classification, basis_summary=summary)


class KindAutomorphism(NamedTuple):
    """g(X_m) = signs[X] perm[X]_{flip*m}, an automorphism at every index;
    sectors is an automorphism A of Z2 x Z2 with perm[X].z2 = A(X.z2), so
    g D g^-1 has degree (A eps, flip*gamma) when D has (eps, gamma)."""

    perm: dict[str, str]
    signs: dict[str, int]
    flip: int
    sectors: dict[tuple[int, int], tuple[int, int]]


# the automorphisms of Z2 x Z2, (1, 0) -> u and (0, 1) -> v, the identity first
_NONZERO = ((1, 0), (0, 1), (1, 1))
_SECTOR_MAPS = [{(a, b): ((a * u[0] + b * v[0]) % 2, (a * u[1] + b * v[1]) % 2)
                 for a in (0, 1) for b in (0, 1)} for u in _NONZERO for v in _NONZERO if u != v]


def kind_automorphisms(p: AlgebraPresentation) -> list[KindAutomorphism]:
    """One certified automorphism for each action (A, flip) on degrees that
    one has, the identity's left out; theta(X_m) = s_X X_{-m} has perm the
    identity and flip -1.

    Read from p's int tables, exact at every index: perm keeps central
    kinds central and takes degree z to A(z), and each term (c0, cm, cn)
    of target T in [X, Y] must be s_X s_Y s_T (c0, f*cm, f*cn) in
    [perm X, perm Y] at perm T, a central cubic s_X s_Y s_T f^i k_i; as
    every ordered pair is matched and perm is a bijection, no image table
    holds a term left over.  The signs solve these equations over Z2, one
    bit per kind, with the free kinds at +1.  Each A and flip takes the first
    perm in kind order.  Two A that agree on the kinds' degrees allow the
    same perms and differ only on sectors without kinds, whose degrees have
    no columns, so only the first is searched.
    """
    k = len(p.kinds)
    ready = [[] for _ in range(k)]  # each ordered pair, under its last kind or target
    for a in range(k):
        for b in range(k):
            terms, central = p._tables.get((a, b), ({}, {}))
            ready[max(a, b, *terms, *central)].append((a, b))

    def extend(perm, pivots):
        if len(perm) == k:
            return perm, pivots
        x = p.kinds[len(perm)]
        for j, y in enumerate(p.kinds):
            trial = dict(pivots)
            if (j not in perm and y.z2 == sectors[x.z2] and p.is_central(y) == p.is_central(x)
                    and all(_matches(p, perm + [j], flip, a, b, trial) for a, b in ready[len(perm)])
                    and (hit := extend(perm + [j], trial))):
                return hit
        return None

    found, seen = [], set()
    for sectors in _SECTOR_MAPS:
        for flip in (1, -1):
            if (action := (flip, *(sectors[x.z2] for x in p.kinds))) in seen:
                continue
            seen.add(action)
            if (hit := extend([], {})) and (flip == -1 or hit[0] != list(range(k))):
                perm, pivots = hit
                found.append(KindAutomorphism(
                    {x.name: p.kinds[j].name for x, j in zip(p.kinds, perm)},
                    {x.name: -1 if pivots.get(1 << i, (0, 0))[1] else 1
                     for i, x in enumerate(p.kinds)}, flip, sectors))
    return found


def _matches(p: AlgebraPresentation, perm: list[int], flip: int, a: int, b: int,
             pivots: dict[int, tuple[int, int]]) -> bool:
    """Whether the tables of kind positions (a, b) map onto those of
    (perm[a], perm[b]), each term's sign equation reduced into pivots
    (lowest bit -> (row, parity)) without a conflict."""
    tables = p._tables.get((a, b), ({}, {}))
    images = p._tables.get((perm[a], perm[b]), ({}, {}))
    for table, image, powers in zip(tables, images, ((1, flip, flip), (1, flip, 1, flip))):
        for t, c in table.items():
            want, got = tuple(f * v for f, v in zip(powers, c)), image.get(perm[t])
            if got != want and got != tuple(-v for v in want):
                return False
            row, parity = (1 << a) ^ (1 << b) ^ (1 << t), int(got != want)
            for bit, (prow, pparity) in pivots.items():
                if row & bit:
                    row, parity = row ^ prow, parity ^ pparity
            if row:
                low = row & -row
                for bit, (prow, pparity) in pivots.items():
                    if prow & low:
                        pivots[bit] = (prow ^ row, pparity ^ parity)
                pivots[low] = (row, parity)
            elif parity:
                return False
    return True


class Mirror:
    """Automorphisms (kind_automorphisms), and the layouts and kernels of
    the degrees solved under them, of one window and kind of layout:
    scan's, on solve_degree's window min(bound, N), bound =
    propagation_window(p), or classify_products' inside degrees, bound None."""

    __slots__ = ("group", "kernels", "bound")

    def __init__(self, group: list[KindAutomorphism], bound: int | None):
        self.group, self.bound = group, bound
        self.kernels = {}  # degree -> (layout, kernel)

    def kernel(self, degree: GradingDegree, layout: UnknownLayout, matrix) -> VectorBasis:
        """The kernel of degree's system on layout, matrix() its matrix.

        The first g mapping a solved degree here gives g's image of that
        kernel, _layout_image(g, source layout, layout) the (source column,
        sign) of each column; verify_kernel checks it against matrix(),
        raising if g is no automorphism.  A zero kernel is taken as it is,
        and no matrix is made.  With no such g, nullspace(matrix()), kept
        here.
        """
        for g in self.group:
            eps = next(e for e, im in g.sectors.items() if im == (degree.eps1, degree.eps2))
            if held := self.kernels.get(GradingDegree(*eps, g.flip * degree.index)):
                source, kernel = held
                if not kernel:
                    return kernel
                place = _layout_image(g, source, layout)
                return verify_kernel(matrix(), VectorBasis(
                    len(place), [[s * vec[i] for i, s in place] for vec in kernel.vectors]))
        kernel = nullspace(matrix())
        self.kernels[degree] = (layout, kernel)
        return kernel


def _layout_image(g: KindAutomorphism, source: UnknownLayout,
                  layout: UnknownLayout) -> list[tuple[int, int]]:
    """The image map of D -> g D g^-1 in Mirror.kernel:
    u'[perm X>perm T, m] = s_X s_T u[X>T, f*m]."""
    back = {image: x for x, image in g.perm.items()}
    labels = {(x.name, t.name): label for label, (x, t) in source.families.items()}
    cols = {label: (labels[back[x.name], back[t.name]],
                    g.signs[back[x.name]] * g.signs[back[t.name]])
            for label, (x, t) in layout.families.items()}
    return [(source.index[cols[k][0], g.flip * m], cols[k][1]) for k, m in layout.columns]


def solve_degree(problem: HomogeneousSolveProblem,
                 mirror: Mirror | None = None) -> SolveReport:
    """Solve one homogeneous degree and classify the interior solution space.

    Assembled on the window W = mirror.bound if W < N, else on N; without
    a mirror, one with no automorphisms and W = propagation_window(p).  A
    degree the mirror maps a solved one to checks that image against it
    (linalg.verify_kernel) instead of eliminating, and a degree solved
    directly leaves its kernel there.  On W < N a zero kernel stands, one
    whose every vector is affine per label is extended to N (module
    docstring), and any other is solved on N.
    """
    interior = check_window(problem.window, problem.gamma, problem.interior)
    mirror = mirror or Mirror([], propagation_window(problem.presentation))
    window = min(mirror.bound or problem.window, problem.window)
    small = problem._replace(window=window, interior=0)
    layout = unknown_layout(small)
    matrix = assemble(small, layout)  # mirrored or not, each degree is assembled once
    kernel = mirror.kernel(problem.degree, layout, lambda: matrix)
    columns = layout.columns
    if kernel and window < problem.window:
        origins = [layout.index[label, 0] for label in layout.families]
        if extended := extend_affine(kernel, origins, window, problem.window):
            # W < N, so p has no central kind and each label owns every index
            span = range(-problem.window, problem.window + 1)
            kernel, columns = extended, [(label, m) for label in layout.families for m in span]
        else:
            layout = unknown_layout(problem)
            columns, kernel = layout.columns, nullspace(assemble(problem, layout))
    return report_from_kernel(kernel, columns,
                              [k.name for k in problem.presentation.kinds],
                              problem.degree, interior)


VERDICT_SCALAR_ONLY = "scalar-only"
VERDICT_NOT_SCALAR_ONLY = "not-scalar-only"


class ScanResult(namedtuple("ScanResult", "algebra delta window interior reports verdict")):
    __slots__ = ()

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
    """Solve every degree in {0,1}^2 x [-gamma_max, gamma_max], one Mirror for all."""
    if gamma_max < 0:
        raise SolverError("gamma_max must be non-negative")
    interior = check_window(window, gamma_max, interior)
    mirror = Mirror(kind_automorphisms(p), propagation_window(p))
    reports = []
    for eps1 in (0, 1):
        for eps2 in (0, 1):
            for gamma in range(-gamma_max, gamma_max + 1):
                problem = HomogeneousSolveProblem(
                    p, Fraction(delta), GradingDegree(eps1, eps2, gamma),
                    window, interior)
                reports.append(solve_degree(problem, mirror))
    return ScanResult(p.name, Fraction(delta), window, interior, reports,
                      scan_verdict(reports))
