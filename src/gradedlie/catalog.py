"""Built-in algebra presentations and the JSON presentation file format.

Coefficients in files are rational strings "p" or "p/q" (plain ints are
also accepted); floats are rejected so nothing ever passes through binary
floating point.  A file is validated on a small window as part of loading,
so a structurally broken algebra fails at the door rather than deep inside
a solve.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .core import (AffinePoly, AlgebraPresentation, BasisKind, BracketRule,
                   BracketTerm, CentralTerm, CubicPoly, PresentationError,
                   affine, format_rational, parse_rational,
                   validate_presentation)


class CatalogKeyError(PresentationError):
    """Unknown catalog key; the message lists the valid ones."""


class PresentationFormatError(PresentationError):
    """A presentation file does not match the expected JSON shape."""


class PresentationValidationError(PresentationError):
    """A loaded presentation fails the windowed algebra checks."""

    def __init__(self, report):
        self.report = report
        super().__init__(report.describe())


LOAD_VALIDATION_WINDOW = 4


@dataclass(frozen=True)
class CatalogEntry:
    key: str
    presentation: AlgebraPresentation
    notes: str


def _pgca() -> AlgebraPresentation:
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
    L = BasisKind("L", (0, 0))
    return AlgebraPresentation(
        "witt", (L,),
        [BracketRule(L, L, (BracketTerm(L, affine(cm=1, cn=-1)),))])


def _virasoro() -> AlgebraPresentation:
    L = BasisKind("L", (0, 0))
    C = BasisKind("C", (0, 0))
    cocycle = CubicPoly(c1=parse_rational("-1/12"), c3=parse_rational("1/12"))
    rule = BracketRule(L, L, (BracketTerm(L, affine(cm=1, cn=-1)),),
                       (CentralTerm(C, cocycle),))
    return AlgebraPresentation("virasoro", (L, C), [rule], central=("C",))


def _heisenberg_virasoro() -> AlgebraPresentation:
    L = BasisKind("L", (0, 0))
    I = BasisKind("I", (0, 1))
    rules = [
        BracketRule(L, L, (BracketTerm(L, affine(cm=1, cn=-1)),)),
        BracketRule(L, I, (BracketTerm(I, affine(cn=-1)),)),
    ]
    return AlgebraPresentation("heisenberg-virasoro", (L, I), rules)


def _abelian() -> AlgebraPresentation:
    return AlgebraPresentation("abelian", (BasisKind("A", (0, 0)),))


_BUILDERS = {
    "pgca": (_pgca,
             "planar Galilean conformal algebra: families L, H, I, J with "
             "L self-action, L acting on H, I, J, and H rotating I into J"),
    "witt": (_witt, "centerless one-family L algebra, [L_m, L_n] = (m-n) L_{m+n}"),
    "virasoro": (_virasoro,
                 "witt with a central charge C attached to the L self-action "
                 "through the cubic cocycle (m^3 - m)/12"),
    "heisenberg-virasoro": (_heisenberg_virasoro,
                            "centerless twisted algebra: witt plus a weight-one "
                            "current family I with [L_m, I_n] = -n I_{m+n}"),
    "abelian": (_abelian, "single family with all brackets zero"),
}


def keys() -> tuple[str, ...]:
    return tuple(_BUILDERS)


def entry(key: str) -> CatalogEntry:
    try:
        builder, notes = _BUILDERS[key]
    except KeyError:
        raise CatalogKeyError(
            f"unknown catalog key {key!r}; available: {', '.join(_BUILDERS)}") from None
    return CatalogEntry(key, builder(), notes)


def get(key: str) -> AlgebraPresentation:
    return entry(key).presentation


# ---------------------------------------------------------------------------
# JSON presentation files


def _coeff_dict(poly: AffinePoly) -> dict:
    out = {}
    if poly.c0:
        out["c0"] = format_rational(poly.c0)
    if poly.cm:
        out["cm"] = format_rational(poly.cm)
    if poly.cn:
        out["cn"] = format_rational(poly.cn)
    return out


def _cubic_dict(poly: CubicPoly) -> dict:
    out = {}
    for name, v in (("c0", poly.c0), ("c1", poly.c1), ("c2", poly.c2), ("c3", poly.c3)):
        if v:
            out[name] = format_rational(v)
    return out


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
            "terms": [
                {"kind": t.target.name, "coeff": _coeff_dict(t.coeff), "offset": t.offset}
                for t in rule.terms
            ],
        }
        if rule.central_terms:
            entry["central_terms"] = [
                {"kind": t.target.name, "coeff": _cubic_dict(t.coeff)}
                for t in rule.central_terms
            ]
        data["brackets"].append(entry)
    return data


def _parse_coeff(obj, where: str) -> AffinePoly:
    if not isinstance(obj, dict):
        raise PresentationFormatError(f"{where}: coeff must be an object")
    extra = set(obj) - {"c0", "cm", "cn"}
    if extra:
        raise PresentationFormatError(f"{where}: unknown coeff fields {sorted(extra)}")
    try:
        return AffinePoly(parse_rational(obj.get("c0", 0)),
                          parse_rational(obj.get("cm", 0)),
                          parse_rational(obj.get("cn", 0)))
    except PresentationError as exc:
        raise PresentationFormatError(f"{where}: {exc}") from None


def _parse_cubic(obj, where: str) -> CubicPoly:
    if not isinstance(obj, dict):
        raise PresentationFormatError(f"{where}: coeff must be an object")
    extra = set(obj) - {"c0", "c1", "c2", "c3"}
    if extra:
        raise PresentationFormatError(f"{where}: unknown coeff fields {sorted(extra)}")
    try:
        return CubicPoly(*(parse_rational(obj.get(f, 0)) for f in ("c0", "c1", "c2", "c3")))
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
        terms = []
        raw_terms = item.get("terms", [])
        if not isinstance(raw_terms, list):
            raise PresentationFormatError(f"{where}: 'terms' must be a list")
        for j, t in enumerate(raw_terms):
            tw = f"{where}.terms[{j}]"
            if not isinstance(t, dict):
                raise PresentationFormatError(f"{tw}: must be an object")
            _check_fields(t, {"kind", "coeff", "offset"}, tw)
            target = resolve(t.get("kind"), tw)
            offset = t.get("offset", 0)
            if not isinstance(offset, int) or isinstance(offset, bool):
                raise PresentationFormatError(f"{tw}: 'offset' must be an integer")
            terms.append(BracketTerm(target, _parse_coeff(t.get("coeff", {}), tw), offset))
        central_terms = []
        raw_central = item.get("central_terms", [])
        if not isinstance(raw_central, list):
            raise PresentationFormatError(f"{where}: 'central_terms' must be a list")
        for j, t in enumerate(raw_central):
            tw = f"{where}.central_terms[{j}]"
            if not isinstance(t, dict):
                raise PresentationFormatError(f"{tw}: must be an object")
            _check_fields(t, {"kind", "coeff"}, tw)
            target = resolve(t.get("kind"), tw)
            if target.name not in central:
                raise PresentationFormatError(
                    f"{tw}: central term targets non-central kind {target.name!r}")
            central_terms.append(CentralTerm(target, _parse_cubic(t.get("coeff", {}), tw)))
        try:
            rules.append(BracketRule(left, right, tuple(terms), tuple(central_terms)))
        except PresentationError as exc:
            raise PresentationFormatError(f"{where}: {exc}") from None

    try:
        return AlgebraPresentation(name, kinds, rules, central=central)
    except PresentationError as exc:
        raise PresentationFormatError(str(exc)) from None


def load(path, validate: bool = True) -> AlgebraPresentation:
    """Load a presentation file; by default validate it on a small window."""
    text = Path(path).read_text()
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
