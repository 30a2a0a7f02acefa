"""Per-layer tracing of gradedlie, done from outside the package.

A Tracer replaces the public functions listed in SPANS with wrappers that
record one span each (name, start, end, parent span, run id), and replaces
AlgebraPresentation.bracket_basis with a call counter.  Modules that copied
a binding with `from .linalg import nullspace` hold their own reference, so
every gradedlie module attribute that is the original function is patched,
not just the defining one.  Leaving the `with` block restores every
attribute and checks that it was restored.

Counts that need the returned objects (matrix shapes, ranks, kernel
dimensions, coefficient bit lengths) are taken in a `trace.bookkeeping`
span next to the span they describe, so their cost is charged to the
tracer and never to a layer's self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from statistics import median
from time import perf_counter

# (span name, defining module, attribute): the layer boundaries.
SPANS = (
    ("cli.main", "gradedlie.cli", "main"),
    ("catalog.resolve", "gradedlie.catalog", "get"),
    ("catalog.resolve", "gradedlie.catalog", "load"),
    ("core.validate", "gradedlie.core", "validate_presentation"),
    ("solver.scan", "gradedlie.solver", "scan"),
    ("solver.solve_degree", "gradedlie.solver", "solve_degree"),
    ("solver.unknown_layout", "gradedlie.solver", "unknown_layout"),
    ("solver.assemble", "gradedlie.solver", "assemble"),
    ("solver.report_from_kernel", "gradedlie.solver", "report_from_kernel"),
    ("linalg.nullspace", "gradedlie.linalg", "nullspace"),
    ("linalg.rref", "gradedlie.linalg", "rref"),
    ("poisson.classify_products", "gradedlie.poisson", "classify_products"),
    ("recurrences.check_lemma_conclusions", "gradedlie.recurrences",
     "check_lemma_conclusions"),
)

BOOKKEEPING = "trace.bookkeeping"

# Per-layer metric -> (unit, better, the end-to-end metric it should move
# and on which workloads).  BENCHMARK.json's per_layer list is this table.
LAYER_METRICS = {
    "catalog.resolve_s": ("s", "lower",
                          "setup_s on every workload; under non-default seeds the file is "
                          "validated at N=4, which norm_wall_s pays too"),
    "solver.assemble_s": ("s", "lower",
                          "norm_wall_s on pgca-half-scan (most of it at seed 0, about half "
                          "under other seeds), pgca-derivations; small on witt-products"),
    "solver.assemble.calls": ("count", "lower", "norm_wall_s on pgca-half-scan, pgca-derivations"),
    "solver.assemble.rows": ("count", "lower", "norm_wall_s on pgca-half-scan, pgca-derivations"),
    "solver.assemble.cols": ("count", "lower", "norm_wall_s on pgca-half-scan, pgca-derivations"),
    "solver.assemble.nnz": ("count", "lower", "norm_wall_s on pgca-half-scan, pgca-derivations"),
    "solver.unknown_layout_s": ("s", "lower", "norm_wall_s on pgca-derivations; about 0 elsewhere"),
    "solver.report_s": ("s", "lower",
                        "norm_wall_s on pgca-derivations, where every kernel is nonzero; about 0 "
                        "elsewhere"),
    "core.bracket_basis.calls": ("count", "lower",
                                 "norm_wall_s on pgca-half-scan, pgca-derivations"),
    "linalg.rref_s": ("s", "lower", "norm_wall_s on pgca-half-scan, witt-products"),
    "linalg.rref.calls": ("count", "lower", "norm_wall_s on pgca-half-scan, witt-products"),
    "linalg.rref.rows_in": ("count", "lower", "norm_wall_s on pgca-half-scan, witt-products"),
    "linalg.rank": ("count", "lower", "norm_wall_s on pgca-half-scan, witt-products"),
    "linalg.useful_row_ratio": ("ratio", "higher",
                                "norm_wall_s on pgca-half-scan, witt-products (share of eliminated "
                                "rows that were needed)"),
    "linalg.max_pivot_bits": ("bits", "lower",
                              "norm_wall_s on pgca-half-scan, witt-products (coefficient growth)"),
    "linalg.nullspace_self_s": ("s", "lower",
                                "norm_wall_s on pgca-derivations; about 0 on pgca-half-scan"),
    "linalg.kernel_dim": ("count", "lower",
                          "norm_wall_s on pgca-derivations (kernel vectors built and verified)"),
    "poisson.classify_self_s": ("s", "lower", "norm_wall_s and peak_rss_mb on witt-products"),
    "poisson.system.rows": ("count", "lower", "norm_wall_s and peak_rss_mb on witt-products"),
    "poisson.system.cols": ("count", "lower", "norm_wall_s and peak_rss_mb on witt-products"),
    "poisson.system.nnz": ("count", "lower", "norm_wall_s and peak_rss_mb on witt-products"),
    "core.validate_s": ("s", "lower",
                        "norm_wall_s on pgca-checks; under non-default seeds also on the "
                        "pgca solves, whose presentation file is validated on load"),
    "core.validate.triples": ("count", "lower", "norm_wall_s on pgca-checks"),
    "recurrences.lemmas_self_s": ("s", "lower", "norm_wall_s on pgca-checks"),
    "cli.self_s": ("s", "lower", "norm_wall_s on every workload; about 0"),
    "trace.wall_s": ("s", "lower",
                     "none: traced wall time, which the span self times account for"),
    "trace.overhead_ratio": ("ratio", "lower", "none: traced over untraced wall time, minus 1"),
    "trace.bookkeeping_s": ("s", "lower",
                            "none: time the tracer spent reading counts off returned objects"),
}


def _bits(q) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def _after_assemble(counts, args, matrix, parent_name):
    counts["solver.assemble.rows"] += matrix.rows
    counts["solver.assemble.cols"] += matrix.cols
    counts["solver.assemble.nnz"] += matrix.nnz


def _after_rref(counts, args, result, parent_name):
    reduced, pivots = result
    counts["linalg.rref.rows_in"] += args[0].rows
    counts["linalg.rank"] += len(pivots)
    bits = max(map(_bits, reduced.entries.values()), default=0)
    counts["linalg.max_pivot_bits"] = max(counts["linalg.max_pivot_bits"], bits)


def _after_nullspace(counts, args, kernel, parent_name):
    counts["linalg.kernel_dim"] += len(kernel)
    if parent_name == "poisson.classify_products":
        counts["poisson.system.rows"] += args[0].rows
        counts["poisson.system.cols"] += args[0].cols
        counts["poisson.system.nnz"] += args[0].nnz


def _after_validate(counts, args, report, parent_name):
    counts["core.validate.triples"] += report.triples_checked


AFTER = {
    "solver.assemble": _after_assemble,
    "linalg.rref": _after_rref,
    "linalg.nullspace": _after_nullspace,
    "core.validate": _after_validate,
}


class Tracer:
    """Spans and counts for the gradedlie layers, while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self.counts: dict[int, Counter] = {}
        self.run_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._bracket_calls = [0]

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "gradedlie" or name.startswith("gradedlie.")]
        for span_name, module_name, attr in SPANS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap(span_name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)
        from gradedlie.core import AlgebraPresentation
        original = AlgebraPresentation.bracket_basis
        calls = self._bracket_calls

        @functools.wraps(original)
        def counted(presentation, x, y):
            calls[0] += 1
            return original(presentation, x, y)

        self._patches.append((AlgebraPresentation, "bracket_basis", original))
        AlgebraPresentation.bracket_basis = counted

    def _restore(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)
            if getattr(owner, key) is not original:
                raise RuntimeError(f"could not restore {owner!r}.{key}")

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        after = AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = [name, 0.0, 0.0, parent, self.run_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                book = [BOOKKEEPING, perf_counter(), 0.0, parent, self.run_id]
                spans.append(book)
                after(self.counts.setdefault(self.run_id, Counter()), args, result,
                      spans[parent][0] if parent is not None else None)
                book[2] = perf_counter()
            return result
        return wrapper

    # -- runs ---------------------------------------------------------------

    def begin_run(self, run_id: int):
        """Start attributing spans and counts to one traced iteration."""
        self.run_id = run_id
        self.counts[run_id] = Counter()
        self._bracket_calls[0] = 0

    def end_run(self):
        self.counts[self.run_id]["core.bracket_basis.calls"] = self._bracket_calls[0]

    def span_table(self, run_id: int) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds within one run."""
        child = Counter()
        for name, start, end, parent, run in self.spans:
            if run == run_id and parent is not None:
                child[parent] += end - start
        table: dict[str, dict[str, float]] = {}
        for i, (name, start, end, parent, run) in enumerate(self.spans):
            if run != run_id:
                continue
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        return table

    def layer_metrics(self, run_id: int, wall: float) -> dict[str, float]:
        """The per-layer metrics of one traced iteration (see LAYER_METRICS)."""
        table = self.span_table(run_id)
        counts = self.counts[run_id]

        def total(name):
            return table.get(name, {}).get("total_s", 0.0)

        def own(name):
            return table.get(name, {}).get("self_s", 0.0)

        def calls(name):
            return table.get(name, {}).get("calls", 0)

        rows_in = counts["linalg.rref.rows_in"]
        return {
            "catalog.resolve_s": total("catalog.resolve"),
            "solver.assemble_s": own("solver.assemble"),
            "solver.assemble.calls": calls("solver.assemble"),
            "solver.assemble.rows": counts["solver.assemble.rows"],
            "solver.assemble.cols": counts["solver.assemble.cols"],
            "solver.assemble.nnz": counts["solver.assemble.nnz"],
            "solver.unknown_layout_s": own("solver.unknown_layout"),
            "solver.report_s": own("solver.report_from_kernel"),
            "core.bracket_basis.calls": counts["core.bracket_basis.calls"],
            "linalg.rref_s": total("linalg.rref"),
            "linalg.rref.calls": calls("linalg.rref"),
            "linalg.rref.rows_in": rows_in,
            "linalg.rank": counts["linalg.rank"],
            "linalg.useful_row_ratio": counts["linalg.rank"] / rows_in if rows_in else 0.0,
            "linalg.max_pivot_bits": counts["linalg.max_pivot_bits"],
            "linalg.nullspace_self_s": own("linalg.nullspace"),
            "linalg.kernel_dim": counts["linalg.kernel_dim"],
            "poisson.classify_self_s": own("poisson.classify_products"),
            "poisson.system.rows": counts["poisson.system.rows"],
            "poisson.system.cols": counts["poisson.system.cols"],
            "poisson.system.nnz": counts["poisson.system.nnz"],
            "core.validate_s": total("core.validate"),
            "core.validate.triples": counts["core.validate.triples"],
            "recurrences.lemmas_self_s": own("recurrences.check_lemma_conclusions"),
            "cli.self_s": own("cli.main"),
            "trace.wall_s": wall,
            "trace.bookkeeping_s": total(BOOKKEEPING),
        }

    def self_time_table(self, run_ids) -> dict[str, dict[str, float]]:
        """Median over runs of each span name's calls, total and self time."""
        tables = [self.span_table(r) for r in run_ids]
        names = sorted({n for t in tables for n in t})
        return {n: {k: median(t.get(n, {}).get(k, 0) for t in tables)
                    for k in ("calls", "total_s", "self_s")}
                for n in names}

    def to_json(self) -> dict:
        return {
            "spans": [{"name": n, "start": s, "end": e, "parent": p, "run": r}
                      for n, s, e, p, r in self.spans],
            "counts": {str(r): dict(c) for r, c in self.counts.items()},
        }
