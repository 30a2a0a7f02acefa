"""Command line interface.

Subcommands:
  validate     skew-symmetry and Jacobi for all indices, with a witness on failure
  solve        homogeneous delta-derivation scan with per-degree verdicts
  lemmas       closed-form cross-checks of the hand-coded recurrences
  tp-classify  classify compatible commutative products on a window; the
               law makes each z.- a 1/2-derivation, so delta is 1/2

Exit codes: 0 success, 1 a mathematical check failed, 2 usage or sizing
error.  JSON output is canonical (sorted keys, two-space indent, trailing
newline), so reparsing and re-serialising a report is byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import catalog
from .catalog import PresentationValidationError
from .core import PresentationError, parse_rational, validate_presentation
from .poisson import ProductError, classify_products
from .recurrences import check_lemma_conclusions
from .solver import SolverError, required_window, scan

EXIT_OK = 0
EXIT_MATH_FAIL = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


def canonical_json(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _emit(text: str, output: str | None):
    if output:
        try:
            Path(output).write_text(text)
        except OSError as exc:
            raise UsageError(f"cannot write {output}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def _resolve_algebra(ref: str, validate: bool = True):
    if ref in catalog.keys():
        return catalog.get(ref)
    path = Path(ref)
    if path.suffix == ".json" or path.exists():
        if not path.exists():
            raise UsageError(f"presentation file not found: {ref}")
        return catalog.load(path, validate=validate)
    raise UsageError(
        f"unknown algebra {ref!r}: not a catalog key "
        f"({', '.join(catalog.keys())}) and not a file")


def _parse_delta(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except PresentationError as exc:
        raise UsageError(f"bad --delta value: {exc}") from None


def _parse_interior(text: str, window: int) -> int | None:
    if text == "auto":
        return None
    try:
        value = int(text)
    except ValueError:
        raise UsageError(f"--interior must be an integer or 'auto', got {text!r}") from None
    if not (0 <= value <= window):
        raise UsageError(f"--interior {value} must lie in [0, window={window}]")
    return value


def _add_common(sub, algebra=True):
    if algebra:
        sub.add_argument("--algebra", required=True,
                         help="catalog key or presentation file path")
    sub.add_argument("--window", required=True, type=int,
                     help="index window half-width N; indices run over [-N, N]")
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.add_argument("--output", default=None, help="write the report to a file")


def _cmd_validate(args) -> int:
    p = _resolve_algebra(args.algebra, validate=False)
    report = validate_presentation(p, args.window)
    if args.format == "json":
        data = {
            "algebra": report.presentation,
            "window": report.window,
            "passed": report.passed,
            "pairs_checked": report.pairs_checked,
            "triples_checked": report.triples_checked,
        }
        if not report.passed:
            data["check"] = report.check
            data["witnesses"] = [str(w) for w in report.witnesses]
            data["detail"] = report.detail
        _emit(canonical_json(data), args.output)
    else:
        _emit(report.describe() + "\n", args.output)
    return EXIT_OK if report.passed else EXIT_MATH_FAIL


def _scan_text(result) -> str:
    lines = [f"algebra: {result.algebra}   delta: {result.delta}   "
             f"window: {result.window}   interior: {result.interior}"]
    lines.append(f"{'degree':>10}  {'full_dim':>8}  {'interior_dim':>12}  classification")
    for r in result.reports:
        lines.append(f"{str(r.degree):>10}  {r.full_dim:>8}  {r.interior_dim:>12}  "
                     f"{r.classification}")
    lines.append(f"verdict: {result.verdict}")
    return "\n".join(lines) + "\n"


def _cmd_solve(args) -> int:
    p = _resolve_algebra(args.algebra)
    delta = _parse_delta(args.delta)
    interior = _parse_interior(args.interior, args.window)
    result = scan(p, delta, args.gamma_max, args.window, interior)
    if args.format == "json":
        _emit(canonical_json(result.to_json_dict()), args.output)
    else:
        _emit(_scan_text(result), args.output)
    return EXIT_OK


def _cmd_lemmas(args) -> int:
    report = check_lemma_conclusions(args.window)
    if args.format == "json":
        _emit(canonical_json(report.to_json_dict()), args.output)
    else:
        lines = [f"window: {report.window}   interior: {report.interior}"]
        lines.append(f"{'equation':>8}  {'gamma':>5}  {'expected':>9}  "
                     f"{'interior_dim':>12}  result")
        for c in report.checks:
            lines.append(f"{c.tag:>8}  {c.gamma:>5}  {c.expected:>9}  "
                         f"{c.interior_dim:>12}  {'PASS' if c.passed else 'FAIL'}")
        lines.append("all passed" if report.all_passed else "FAILURES present")
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK if report.all_passed else EXIT_MATH_FAIL


def _cmd_tp_classify(args) -> int:
    if args.window < 0:
        raise UsageError("window must be non-negative")
    p = _resolve_algebra(args.algebra)
    # the derivation scan needs its own minimum window; the product table
    # itself lives on the window the user asked for
    scan_window = max(args.window, required_window(args.gamma_max))
    scan_result = scan(p, Fraction(1, 2), args.gamma_max, scan_window)
    result = classify_products(p, scan_result.verdict, args.window)
    if args.format == "json":
        _emit(canonical_json(result.to_json_dict()), args.output)
    else:
        lines = [
            f"algebra: {result.algebra}   window: {result.window}",
            f"derivation scan: {result.derivation_verdict} "
            f"(window {scan_result.window})",
            f"classification path: {result.path}",
            f"solution dimension: {result.solution_dim}",
            f"verdict: {result.verdict}",
        ]
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradedlie",
        description="exact windowed delta-derivation and transposed "
                    "Poisson analysis of graded Lie algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="check skew-symmetry and Jacobi")
    _add_common(v)
    v.set_defaults(func=_cmd_validate)

    s = sub.add_parser("solve", help="scan homogeneous delta-derivation degrees")
    _add_common(s)
    s.add_argument("--delta", default="1/2", help="derivation parameter, e.g. 1/2")
    s.add_argument("--gamma-max", type=int, default=4,
                   help="largest |index shift| scanned")
    s.add_argument("--interior", default="auto",
                   help="interior half-width for classification (int or 'auto')")
    s.set_defaults(func=_cmd_solve)

    l = sub.add_parser("lemmas", help="cross-check hand-coded recurrences")
    _add_common(l, algebra=False)
    l.set_defaults(func=_cmd_lemmas)

    t = sub.add_parser("tp-classify",
                       help="classify bracket-compatible commutative products")
    _add_common(t)
    t.add_argument("--gamma-max", type=int, default=4,
                   help="largest |index shift| scanned for the 1/2-derivation space")
    t.set_defaults(func=_cmd_tp_classify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems already; normalise other codes
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except PresentationValidationError as exc:
        print(f"validation failed: {exc}", file=sys.stderr)
        return EXIT_MATH_FAIL
    except (UsageError, SolverError, PresentationError, ProductError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
