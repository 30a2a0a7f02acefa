"""Element-based reference versions of the constraint-row assemblers.

`solver.assemble` runs on integer keys and scaled integer coefficients.
These loops build the same systems from BasisElement and Element objects:
they read brackets only through the public `bracket_basis` and accumulate
exact Fractions, so comparing matrices checks the integer loops (their
scaling, their keys, their row order) against a direct transcription of
the same definition.  Each emits the rows of one source pair in the (kind
position, index) order of their outputs.  `_pairs` visits the source
pairs: in declared order, or boundary-first, by decreasing |index|, as
`assemble` does, each pair in declared orientation.  `identity_rows` is
the same transcription for one map in the form `solver.identity_rows`
takes, in declared order.  `membership_system` is the whole-window
product-membership system, a column per (pair, target), every z's rows
of one source pair before the next pair's.  `poisson` never builds it:
it glues each product shift from the kernels of the solver's inside
degrees, so comparing each shift's dimension with the deficiency of that
shift's columns here checks the gluing against the definition.
`_lopsided` is a non-Lie test presentation whose rules reach
every path of the integer bracket tables, so that the comparisons see more
than the catalog does.  `WITT_PLUS_ABELIAN`, witt and a kind that brackets
to zero, is a fixture of the solver's and the product path's tests.

`rref_rows` is the elimination loop `linalg._rref_rows` ran before it
learned to check rows against a candidate kernel: it eliminates every row
until every column holds a pivot, and finds the pivot rows holding a new
pivot's column through an index.  It shares the two row operations with
`linalg`, so comparing results checks which rows the stream reads and
skips, and how it resumes.

`describe_values`, `summarize_interior`, `classify_interior` and
`project_basis` are the interior report's forms on `Fraction` vectors, from
before the report read int rows over their pivot entries: the projection
goes through `from_rows` and `rref` to dense rows, and every value is a
`Fraction`.  `report_from_kernel` composes them as `solver` does, so
comparing reports checks the int forms.
"""

from __future__ import annotations

from fractions import Fraction

from gradedlie.core import (AlgebraPresentation, BasisElement, BasisKind,
                            BracketRule, BracketTerm, CentralTerm, CubicPoly,
                            affine, format_rational)
from gradedlie.linalg import SparseMatrix, VectorBasis, _divide_content, _eliminate, rref
from gradedlie.poisson import _pair_key
from gradedlie.solver import SolveReport, unknown_layout
from matrices import dense


def _lopsided():
    """Not a Lie algebra: rational coefficients (scale 420), a non-skew
    same-kind rule, three terms on one target, two of which cancel at
    m = n, central cubics with every coefficient nonzero, one on a two-kind
    rule, and a rule written in the order opposite to the declared one."""
    A, B, D = BasisKind("A", (0, 0)), BasisKind("B", (0, 1)), BasisKind("D", (1, 0))
    Z, W = BasisKind("Z", (0, 0)), BasisKind("W", (0, 1))
    q = Fraction
    rules = (
        BracketRule(A, A, (BracketTerm(A, affine(q(1, 3), 2, q(-1, 5))),),
                    (CentralTerm(Z, CubicPoly(q(2, 5), q(-1, 2), q(1), q(3, 7))),)),
        BracketRule(A, B, (BracketTerm(B, affine(-1, q(-2, 3), q(5, 4))),),
                    (CentralTerm(W, CubicPoly(q(1, 6), q(1, 2), q(2, 3), q(-1, 5))),)),
        BracketRule(B, B, (BracketTerm(A, affine(cm=1)), BracketTerm(A, affine(cn=-1)),
                           BracketTerm(A, affine(q(3, 4), q(1, 2))))),
        BracketRule(D, A, (BracketTerm(D, affine(2, q(1, 4), -3)),)),
    )
    return AlgebraPresentation("lopsided", (A, B, D, Z, W), rules, central=("Z", "W"))


# witt plus a kind A that brackets to zero with everything: at (0, 0, 0)
# every u[A, m] is free, so the kernel holds vectors that are not affine,
# and theta (s_L = -1) maps the product path's degrees with nonzero kernels
# and rows onto each other
_WL, _WA = BasisKind("L", (0, 0)), BasisKind("A", (0, 1))
WITT_PLUS_ABELIAN = AlgebraPresentation("witt+abelian", (_WL, _WA), (
    BracketRule(_WL, _WL, (BracketTerm(_WL, affine(cm=1, cn=-1)),)),))


def _bracket(p):
    """p.bracket_basis with a per-call memo, so the references stay quick."""
    memo = {}

    def br(x, y):
        try:
            return memo[(x, y)]
        except KeyError:
            hit = memo[(x, y)] = p.bracket_basis(x, y)
            return hit
    return br


def _pairs(p, window: int, boundary_first: bool):
    """Unordered pairs of basis elements whose indices m, n and m+n lie in
    the window, from the first element of the visiting order on: the
    declared order, or with boundary_first the elements sorted by
    decreasing |index|, stably.  Each pair comes as (x, y) with x declared
    before y."""
    basis = p.basis_elements(window)
    rank = {b: i for i, b in enumerate(basis)}
    visit = sorted(basis, key=lambda b: -abs(b.index)) if boundary_first else basis
    for i, x in enumerate(visit):
        for y in visit[i + 1:]:
            if abs(x.index + y.index) <= window:
                yield (x, y) if rank[x] < rank[y] else (y, x)


def assemble(problem) -> SparseMatrix:
    """Rows of D[x, y] - delta([Dx, y] + [x, Dy]), as in `solver.assemble`."""
    p = problem.presentation
    br = _bracket(p)
    layout = unknown_layout(problem)
    neg_delta = -problem.delta
    gamma = problem.gamma

    def image(b):
        """(column, target) for each column family from b's kind with a
        column at b's index."""
        return [(layout.index[label, b.index], BasisElement(t, b.index + gamma))
                for label, (x, t) in layout.families.items()
                if x == b.kind and (label, b.index) in layout.index]

    def add(acc, out, col, coeff):
        row = acc.setdefault(out, {})
        row[col] = row.get(col, Fraction(0)) + coeff

    rows = []
    for x, y in _pairs(p, problem.window, True):
        acc = {}
        for t, c in br(x, y).items():
            for col, d in image(t):
                add(acc, d, col, c)
        for src, other, left in ((x, y, True), (y, x, False)):
            for col, d in image(src):
                out = br(d, other) if left else br(other, d)
                for t, c in out.items():
                    add(acc, t, col, neg_delta * c)
        for out in sorted(acc, key=lambda b: (p.kind_order(b.kind), b.index)):
            row = {c: v for c, v in acc[out].items() if v}
            if row:
                rows.append(row)
    return SparseMatrix.from_rows(len(layout.columns), rows)


def identity_rows(p, delta: Fraction, images, window: int) -> list[dict]:
    """Rows of D[x, y] - delta([Dx, y] + [x, Dy]) for one map D, given as
    `solver.identity_rows` takes it, source pair by source pair in
    declared order."""
    br = _bracket(p)

    def image(b):
        return [(col, BasisElement(p.kinds[a], m))
                for col, (a, m) in images.get((p.kind_order(b.kind), b.index), ())]

    rows = []
    for x, y in _pairs(p, window, False):
        acc = {}

        def add(out, col, coeff):
            row = acc.setdefault(out, {})
            row[col] = row.get(col, Fraction(0)) + coeff

        for t, c in br(x, y).items():
            for col, target in image(t):
                add(target, col, c)
        for col, target in image(x):
            for t, c in br(target, y).items():
                add(t, col, -delta * c)
        for col, target in image(y):
            for t, c in br(x, target).items():
                add(t, col, -delta * c)
        for out in sorted(acc, key=lambda b: (p.kind_order(b.kind), b.index)):
            row = {c: v for c, v in acc[out].items() if v}
            if row:
                rows.append(row)
    return rows


def membership_system(p, delta: Fraction, window: int) -> SparseMatrix:
    """Rows of the whole-window product-membership system, in one matrix
    with a column per (pair, target), source pair by source pair: for
    every in-window z, the delta identity rows of w -> z.w."""
    br = _bracket(p)
    basis = p.basis_elements(window)
    pair_index = {}
    for i, x in enumerate(basis):
        for y in basis[i:]:
            pair_index[_pair_key(x, y)] = len(pair_index)
    width = len(basis)

    def product_cols(z, w):
        base = pair_index[_pair_key(z, w)] * width
        return [(base + t, basis[t]) for t in range(width)]

    rows = []
    for x, y in _pairs(p, window, False):
        for z in basis:
            lie = br(x, y)
            acc = {}

            def add(out, col, coeff):
                row = acc.setdefault(out, {})
                row[col] = row.get(col, Fraction(0)) + coeff

            for t, c in lie.items():
                for col, target in product_cols(z, t):
                    add(target, col, c)
            for col, target in product_cols(z, x):
                for t, c in br(target, y).items():
                    add(t, col, -delta * c)
            for col, target in product_cols(z, y):
                for t, c in br(x, target).items():
                    add(t, col, -delta * c)
            for out in sorted(acc, key=lambda b: (p.kind_order(b.kind), b.index)):
                row = {c: v for c, v in acc[out].items() if v}
                if row:
                    rows.append(row)
    return SparseMatrix.from_rows(len(pair_index) * width, rows)


def rref_rows(rows: list[dict[int, int]], cols: int) -> list[tuple[int, dict[int, int]]]:
    """Reduced row echelon form of int rows: sorted (pivot column, row) pairs.

    Each returned row is primitive, positive at its pivot column and zero
    at every other pivot column; divided by its pivot entry it is the
    leading-1 row.  The input rows are read, never mutated.

    Rows are streamed in order and copied only when reached.  Pivot rows
    are kept fully reduced as primitive integer rows, so each pivot column
    in an incoming row is eliminated once, by cross-multiplication.  What
    remains is divided by its content; its smallest column becomes a new
    pivot, which is then cleared from the pivot rows holding it.  Once
    every column holds a pivot the remaining rows can only reduce to zero,
    so the stream stops there.  The reduced row echelon form of a row space
    is unique, so the result does not depend on which rows were read.
    """
    work: dict[int, dict[int, int]] = {}   # row id -> reduced integer row
    pivot_row: dict[int, int] = {}         # pivot column -> row id
    holders: dict[int, set[int]] = {}      # non-pivot column -> pivot row ids
    for rid, row in enumerate(rows):
        if len(pivot_row) == cols:
            break
        if not row:
            continue
        new = dict(row)
        for col in [c for c in new if c in pivot_row]:
            _eliminate(new, work[pivot_row[col]], col)
        if not new:
            continue
        _divide_content(new)
        col = min(new)
        for c in new:
            if c != col:
                holders.setdefault(c, set()).add(rid)
        for other in holders.pop(col, ()):
            target = work[other]
            _eliminate(target, new, col)
            for c in new:
                if c in target:
                    holders[c].add(other)
                elif c != col:
                    holders[c].discard(other)
            _divide_content(target)
        work[rid] = new
        pivot_row[col] = rid

    pivots = [(col, work[rid]) for col, rid in sorted(pivot_row.items())]
    for col, row in pivots:
        if row[col] < 0:
            for c in row:
                row[c] = -row[c]
    return pivots


def project_basis(basis: VectorBasis, coords) -> list[list[Fraction]]:
    """Row-reduced basis of the projection onto the given coordinates, as
    dense leading-1 rows of Fractions."""
    cols = sorted(set(coords))
    if not cols or not basis.vectors:
        return []
    proj = SparseMatrix.from_rows(
        len(cols),
        [{i: vec[c] for i, c in enumerate(cols) if vec[c]} for vec in basis.vectors])
    reduced, _ = rref(proj)
    return dense(reduced)


def describe_values(values: dict[int, Fraction]) -> str:
    """Compact human description of one kind's coefficient slice."""
    if not values or not any(values.values()):
        return "0"
    distinct = set(values.values())
    if len(distinct) == 1:
        return format_rational(distinct.pop())
    # two distinct values need two keys
    ms = sorted(values)
    m0, m1 = ms[0], ms[1]
    slope = (values[m1] - values[m0]) / (m1 - m0)
    const = values[m0] - slope * m0
    if all(values[m] == const + slope * m for m in ms):
        mpart = f"{format_rational(slope)}*m" if slope != 1 else "m"
        if const:
            return f"{format_rational(const)} + {mpart}"
        return mpart
    return ", ".join(f"{m}:{format_rational(values[m])}" for m in ms)


def summarize_interior(layout_keys, kinds, vectors) -> list[dict[str, str]]:
    """One description per kind, and per X>T label with a column here."""
    labels = list(kinds) + [k for k in dict.fromkeys(k for k, _ in layout_keys)
                            if k not in kinds]
    return [{label: describe_values({m: vec[i] for i, (k, m) in enumerate(layout_keys)
                                     if k == label})
             for label in labels}
            for vec in vectors]


def classify_interior(layout_keys, kinds, vectors) -> str:
    """'zero'; 'scalar' for one vector in which every kind has columns
    under its own name, those columns share one nonzero value and every
    X>T column is 0; else 'nontrivial'."""
    if not vectors:
        return "zero"
    if len(vectors) == 1:
        pairs = [(k in kinds, v) for (k, _), v in zip(layout_keys, vectors[0])]
        own = {v for mine, v in pairs if mine}
        if (set(kinds) <= {k for k, _ in layout_keys} and len(own) == 1
                and 0 not in own and not any(v for mine, v in pairs if not mine)):
            return "scalar"
    return "nontrivial"


def report_from_kernel(kernel: VectorBasis, layout_keys, kinds, degree,
                       interior: int) -> SolveReport:
    """`solver.report_from_kernel` through the forms above."""
    interior_cols = [i for i, (_, m) in enumerate(layout_keys) if abs(m) <= interior]
    interior_keys = [layout_keys[i] for i in interior_cols]
    projected = project_basis(kernel, interior_cols)
    return SolveReport(degree, len(kernel), len(projected),
                       classify_interior(interior_keys, kinds, projected),
                       summarize_interior(interior_keys, kinds, projected))
