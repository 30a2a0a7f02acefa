"""Built-in algebra presentations and the JSON presentation file format.

Coefficients in files are rational strings "p" or "p/q" (plain ints are
also accepted); floats are rejected so nothing ever passes through binary
floating point.  Every bracket term sits at index m + n: a file cannot
shift it, and a legacy shift field is accepted only as 0.  Loading checks
the algebra, so a structurally broken one fails at the door rather than
deep inside a solve.  A file with a central kind as a bracket argument is
a format error (the presentation constructor rejects it).  Skew-symmetry
and Jacobi are then decided for all indices by core.validate_presentation,
the flow the validate command runs: the certificate decides, and a file it
rejects always fails, with a witness from the window
N = LOAD_VALIDATION_WINDOW.
"""

from __future__ import annotations

import json
from pathlib import Path

from .core import (AffinePoly, AlgebraPresentation, BasisKind, BracketRule,
                   BracketTerm, CentralTerm, CubicPoly, PresentationError,
                   affine, format_rational, parse_rational, validate_presentation)


class CatalogKeyError(PresentationError):
    """Unknown catalog key; the message lists the valid ones."""


class PresentationFormatError(PresentationError):
    """A presentation file does not match the expected JSON shape."""


class PresentationValidationError(PresentationError):
    """A loaded presentation is not a Lie algebra; report names the witness."""

    def __init__(self, report):
        self.report = report
        super().__init__(report.describe())


LOAD_VALIDATION_WINDOW = 4


def _pgca() -> AlgebraPresentation:
    """Planar Galilean conformal algebra: families L, H, I, J with L
    self-action, L acting on H, I, J, and H rotating I into J."""
    L = BasisKind("L", (0, 0))
    H = BasisKind("H", (1, 1))
    I = BasisKind("I", (0, 1))
    J = BasisKind("J", (1, 0))
    m_minus_n = affine(cm=1, cn=-1)
    rules = [
        BracketRule(L, L, (BracketTerm(L, m_minus_n),)),
        BracketRule(L, H, (BracketTerm(H, affine(cn=-1)),)),
        BracketRule(L, I, (BracketTerm(I, m_minus_n),)),
        BracketRule(L, J, (BracketTerm(J, m_minus_n),)),
        BracketRule(H, I, (BracketTerm(J, affine(c0=1)),)),
        BracketRule(H, J, (BracketTerm(I, affine(c0=-1)),)),
    ]
    return AlgebraPresentation("pgca", (L, H, I, J), rules)


def _witt() -> AlgebraPresentation:
    """Centerless one-family L algebra, [L_m, L_n] = (m-n) L_{m+n}."""
    L = BasisKind("L", (0, 0))
    return AlgebraPresentation(
        "witt", (L,),
        [BracketRule(L, L, (BracketTerm(L, affine(cm=1, cn=-1)),))])


def _virasoro() -> AlgebraPresentation:
    """Witt with a central charge C attached to the L self-action through
    the cubic cocycle (m^3 - m)/12."""
    L = BasisKind("L", (0, 0))
    C = BasisKind("C", (0, 0))
    cocycle = CubicPoly(c1=parse_rational("-1/12"), c3=parse_rational("1/12"))
    rule = BracketRule(L, L, (BracketTerm(L, affine(cm=1, cn=-1)),),
                       (CentralTerm(C, cocycle),))
    return AlgebraPresentation("virasoro", (L, C), [rule], central=("C",))


def _heisenberg_virasoro() -> AlgebraPresentation:
    """Centerless twisted algebra: witt plus a current family I with
    [L_m, I_n] = -n I_{m+n}."""
    L = BasisKind("L", (0, 0))
    I = BasisKind("I", (0, 1))
    rules = [
        BracketRule(L, L, (BracketTerm(L, affine(cm=1, cn=-1)),)),
        BracketRule(L, I, (BracketTerm(I, affine(cn=-1)),)),
    ]
    return AlgebraPresentation("heisenberg-virasoro", (L, I), rules)


def _abelian() -> AlgebraPresentation:
    """Single family with all brackets zero."""
    return AlgebraPresentation("abelian", (BasisKind("A", (0, 0)),))


_BUILDERS = {
    "pgca": _pgca,
    "witt": _witt,
    "virasoro": _virasoro,
    "heisenberg-virasoro": _heisenberg_virasoro,
    "abelian": _abelian,
}


def keys() -> tuple[str, ...]:
    return tuple(_BUILDERS)


def get(key: str) -> AlgebraPresentation:
    try:
        builder = _BUILDERS[key]
    except KeyError:
        raise CatalogKeyError(
            f"unknown catalog key {key!r}; available: {', '.join(_BUILDERS)}") from None
    return builder()


# ---------------------------------------------------------------------------
# JSON presentation files


def _coeff_dict(poly: AffinePoly | CubicPoly) -> dict:
    """The nonzero coefficients of a polynomial, by field name."""
    return {name: format_rational(v) for name, v in zip(poly._fields, poly) if v}


def to_dict(p: AlgebraPresentation) -> dict:
    """Canonical JSON-ready form of a presentation."""
    data = {
        "name": p.name,
        "kinds": [{"name": k.name, "z2_degree": list(k.z2)} for k in p.kinds],
        "brackets": [],
    }
    if p.central:
        data["central_kinds"] = sorted(p.central)
    for rule in p.rules:
        entry = {
            "left": rule.left.name,
            "right": rule.right.name,
            "terms": [{"kind": t.target.name, "coeff": _coeff_dict(t.coeff)}
                      for t in rule.terms],
        }
        if rule.central_terms:
            entry["central_terms"] = [
                {"kind": t.target.name, "coeff": _coeff_dict(t.coeff)}
                for t in rule.central_terms
            ]
        data["brackets"].append(entry)
    return data


def _parse_coeff(cls: type[AffinePoly] | type[CubicPoly], obj, where: str):
    """A cls polynomial from its coefficients by field name; absent ones are 0."""
    if not isinstance(obj, dict):
        raise PresentationFormatError(f"{where}: coeff must be an object")
    names = cls._fields
    extra = set(obj) - set(names)
    if extra:
        raise PresentationFormatError(f"{where}: unknown coeff fields {sorted(extra)}")
    try:
        return cls(*(parse_rational(obj.get(name, 0)) for name in names))
    except PresentationError as exc:
        raise PresentationFormatError(f"{where}: {exc}") from None


def _check_fields(obj: dict, allowed: set, where: str):
    extra = set(obj) - allowed
    if extra:
        raise PresentationFormatError(f"{where}: unknown fields {sorted(extra)}")


def from_dict(data: dict) -> AlgebraPresentation:
    if not isinstance(data, dict):
        raise PresentationFormatError("presentation file must hold a JSON object")
    _check_fields(data, {"name", "kinds", "brackets", "central_kinds"}, "presentation")
    name = data.get("name")
    if not isinstance(name, str) or not name:
        raise PresentationFormatError("missing or empty 'name'")
    kinds_raw = data.get("kinds")
    if not isinstance(kinds_raw, list) or not kinds_raw:
        raise PresentationFormatError("'kinds' must be a non-empty list")
    kinds = []
    for i, item in enumerate(kinds_raw):
        where = f"kinds[{i}]"
        if not isinstance(item, dict) or not isinstance(item.get("name"), str):
            raise PresentationFormatError(f"{where}: needs a string 'name'")
        _check_fields(item, {"name", "z2_degree"}, where)
        z2 = item.get("z2_degree")
        if (not isinstance(z2, list) or len(z2) != 2
                or any(not isinstance(v, int) or isinstance(v, bool) or v not in (0, 1)
                       for v in z2)):
            raise PresentationFormatError(
                f"{where}: 'z2_degree' must be a pair of 0/1 values")
        kinds.append(BasisKind(item["name"], (z2[0], z2[1])))
    by_name = {k.name: k for k in kinds}
    if len(by_name) != len(kinds):
        raise PresentationFormatError("duplicate kind names")

    central = data.get("central_kinds", [])
    if not isinstance(central, list) or any(
            not isinstance(c, str) or c not in by_name for c in central):
        raise PresentationFormatError("'central_kinds' must list declared kind names")

    def resolve(kname, where):
        if not isinstance(kname, str) or kname not in by_name:
            raise PresentationFormatError(f"{where}: unknown kind {kname!r}")
        return by_name[kname]

    rules = []
    brackets = data.get("brackets", [])
    if not isinstance(brackets, list):
        raise PresentationFormatError("'brackets' must be a list")
    for i, item in enumerate(brackets):
        where = f"brackets[{i}]"
        if not isinstance(item, dict):
            raise PresentationFormatError(f"{where}: must be an object")
        _check_fields(item, {"left", "right", "terms", "central_terms"}, where)
        left = resolve(item.get("left"), where)
        right = resolve(item.get("right"), where)
        parsed = []
        for key, allowed, poly, term in (
                ("terms", {"kind", "coeff", "offset"}, AffinePoly, BracketTerm),
                ("central_terms", {"kind", "coeff"}, CubicPoly, CentralTerm)):
            raw = item.get(key, [])
            if not isinstance(raw, list):
                raise PresentationFormatError(f"{where}: '{key}' must be a list")
            out = []
            for j, t in enumerate(raw):
                tw = f"{where}.{key}[{j}]"
                if not isinstance(t, dict):
                    raise PresentationFormatError(f"{tw}: must be an object")
                _check_fields(t, allowed, tw)
                target = resolve(t.get("kind"), tw)
                # legacy: older files write "offset": 0, and no other value
                offset = t.get("offset", 0)
                if type(offset) is not int or offset:
                    raise PresentationFormatError(
                        f"{tw}: 'offset' must be 0, got {offset!r}; a term sits at index m + n")
                out.append(term(target, _parse_coeff(poly, t.get("coeff", {}), tw)))
            parsed.append(tuple(out))
        try:
            rules.append(BracketRule(left, right, *parsed))
        except PresentationError as exc:
            raise PresentationFormatError(f"{where}: {exc}") from None

    try:
        return AlgebraPresentation(name, kinds, rules, central=central)
    except PresentationError as exc:
        raise PresentationFormatError(str(exc)) from None


def load(path, validate: bool = True) -> AlgebraPresentation:
    """Load a presentation file; by default check it is a Lie algebra.

    A file that cannot be read as UTF-8 text, or does not hold a valid
    presentation, raises PresentationFormatError.  validate_presentation at
    N = LOAD_VALIDATION_WINDOW decides for all indices with the certificate;
    a file it rejects raises PresentationValidationError with the report of
    the window's enumeration, which runs only to name the witness.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise PresentationFormatError(f"{path}: cannot read ({exc.strerror or exc})") from None
    except UnicodeDecodeError as exc:
        raise PresentationFormatError(f"{path}: not UTF-8 text ({exc})") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PresentationFormatError(f"{path}: invalid JSON ({exc})") from None
    p = from_dict(data)
    if validate:
        report = validate_presentation(p, LOAD_VALIDATION_WINDOW)
        if not report.passed:
            raise PresentationValidationError(report)
    return p


def save(p: AlgebraPresentation, path) -> None:
    Path(path).write_text(json.dumps(to_dict(p), indent=2, sort_keys=True) + "\n")
