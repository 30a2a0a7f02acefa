"""Catalog entries and the JSON presentation file format."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gradedlie import catalog, core
from gradedlie.catalog import (CatalogKeyError, PresentationFormatError,
                               PresentationValidationError)
from gradedlie.core import (certify_presentation, enumerate_window,
                            validate_presentation)


def test_catalog_keys_are_stable():
    assert catalog.keys() == ("pgca", "witt", "virasoro",
                              "heisenberg-virasoro", "abelian")


def test_every_entry_has_notes_and_validates():
    # each entry's notes are its builder's docstring
    for key in catalog.keys():
        assert catalog._BUILDERS[key].__doc__
        assert validate_presentation(catalog.get(key), 3).passed


def test_unknown_key_error_lists_available_keys():
    with pytest.raises(CatalogKeyError, match="pgca.*witt.*virasoro"):
        catalog.get("nope")


def test_importing_the_catalog_loads_only_what_it_reads():
    # the package re-exports nothing, so a submodule pulls in only its own
    # imports
    src = Path(catalog.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys, gradedlie.catalog; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'gradedlie'))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "['gradedlie', 'gradedlie.catalog', 'gradedlie.core']\n"


def test_pgca_shape():
    p = catalog.get("pgca")
    assert [k.name for k in p.kinds] == ["L", "H", "I", "J"]
    assert {k.name: k.z2 for k in p.kinds} == {
        "L": (0, 0), "H": (1, 1), "I": (0, 1), "J": (1, 0)}
    assert len(p.rules) == 6
    assert not p.central


def test_virasoro_declares_its_central_kind():
    p = catalog.get("virasoro")
    assert p.central == frozenset({"C"})
    assert p.is_central(p.kind("C")) and not p.is_central(p.kind("L"))


# ---------------------------------------------------------------------------
# dict and file round-trips


@pytest.mark.parametrize("key", catalog.keys())
def test_dict_round_trip_preserves_value_equality(key):
    p = catalog.get(key)
    data = catalog.to_dict(p)
    assert catalog.from_dict(data) == p
    assert catalog.to_dict(catalog.from_dict(data)) == data


@pytest.mark.parametrize("key", catalog.keys())
def test_file_round_trip_is_byte_identical(key, tmp_path):
    p = catalog.get(key)
    path = tmp_path / f"{key}.json"
    catalog.save(p, path)
    loaded = catalog.load(path)
    assert loaded == p
    again = tmp_path / "again.json"
    catalog.save(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def test_saved_files_are_canonical_json(tmp_path):
    path = tmp_path / "w.json"
    catalog.save(catalog.get("witt"), path)
    text = path.read_text()
    assert text.endswith("\n")
    data = json.loads(text)
    assert text == json.dumps(data, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# strict parsing


def _witt_dict():
    return catalog.to_dict(catalog.get("witt"))


def test_from_dict_rejects_zero_denominator():
    data = _witt_dict()
    data["brackets"][0]["terms"][0]["coeff"] = {"cm": "1/0"}
    with pytest.raises(PresentationFormatError, match="terms"):
        catalog.from_dict(data)


def test_from_dict_rejects_float_coefficients():
    data = _witt_dict()
    data["brackets"][0]["terms"][0]["coeff"] = {"cm": "1.5"}
    with pytest.raises(PresentationFormatError):
        catalog.from_dict(data)


def test_from_dict_rejects_unknown_fields_at_every_level():
    for mutate in (
        lambda d: d.update(extra=1),
        lambda d: d["kinds"][0].update(weight=2),
        lambda d: d["brackets"][0].update(sign=-1),
        lambda d: d["brackets"][0]["terms"][0].update(cm="1"),
        lambda d: d["brackets"][0]["terms"][0]["coeff"].update(c9="1"),
    ):
        data = _witt_dict()
        mutate(data)
        with pytest.raises(PresentationFormatError, match="unknown"):
            catalog.from_dict(data)


def test_from_dict_rejects_bad_z2_degrees():
    for z2 in ([0], [0, 2], [0, True], "00", None):
        data = _witt_dict()
        data["kinds"][0]["z2_degree"] = z2
        with pytest.raises(PresentationFormatError):
            catalog.from_dict(data)


def test_from_dict_rejects_unknown_kind_references():
    data = _witt_dict()
    data["brackets"][0]["right"] = "M"
    with pytest.raises(PresentationFormatError, match="unknown kind"):
        catalog.from_dict(data)


def test_from_dict_rejects_central_terms_on_noncentral_targets():
    data = catalog.to_dict(catalog.get("virasoro"))
    data["brackets"][0]["central_terms"][0]["kind"] = "L"
    with pytest.raises(PresentationFormatError, match="non-central"):
        catalog.from_dict(data)


def test_from_dict_rejects_ordinary_terms_on_central_targets():
    data = catalog.to_dict(catalog.get("virasoro"))
    data["brackets"][0]["terms"].append(
        {"kind": "C", "coeff": {"cm": "1", "cn": "-1"}})
    with pytest.raises(PresentationFormatError,
                       match="ordinary term targets central kind 'C'"):
        catalog.from_dict(data)


@pytest.mark.parametrize("path,value", [
    (["brackets", 0, "central_terms"], 5),
    (["central_kinds"], [["C"]]),
    (["brackets", 0, "left"], ["L"]),
    (["brackets", 0, "right"], ["L"]),
    (["brackets", 0, "terms", 0, "kind"], {"name": "L"}),
    (["brackets", 0, "central_terms", 0, "kind"], {"name": "C"}),
], ids=["central-terms-int", "central-kind-list", "left-list", "right-list",
        "term-kind-dict", "central-term-kind-dict"])
def test_from_dict_rejects_wrongly_typed_fields(path, value):
    # these shapes once escaped as a TypeError instead of a format error
    data = catalog.to_dict(catalog.get("virasoro"))
    *parents, last = path
    target = data
    for key in parents:
        target = target[key]
    target[last] = value
    with pytest.raises(PresentationFormatError):
        catalog.from_dict(data)


def test_from_dict_rejects_missing_name_and_kinds():
    with pytest.raises(PresentationFormatError):
        catalog.from_dict({"kinds": [{"name": "L", "z2_degree": [0, 0]}]})
    with pytest.raises(PresentationFormatError):
        catalog.from_dict({"name": "x", "kinds": []})
    with pytest.raises(PresentationFormatError):
        catalog.from_dict([])


# ---------------------------------------------------------------------------
# loading


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(PresentationFormatError, match="invalid JSON"):
        catalog.load(path)


def test_load_validates_the_algebra_by_default(tmp_path):
    # a sign flip on [L, I] keeps the file well-formed but breaks Jacobi
    data = catalog.to_dict(catalog.get("pgca"))
    for rule in data["brackets"]:
        if rule["left"] == "L" and rule["right"] == "I":
            rule["terms"][0]["coeff"] = {"cm": "-1", "cn": "1"}
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))

    with pytest.raises(PresentationValidationError) as err:
        catalog.load(path)
    assert err.value.report.check == "jacobi"

    loaded = catalog.load(path, validate=False)
    assert not validate_presentation(loaded, 3).passed


# ---------------------------------------------------------------------------
# the load-time check: certified for all indices, enumerated only to name
# a witness


@pytest.fixture
def windowed_calls(monkeypatch):
    """The windows of every call to the window's enumeration."""
    calls = []

    def counted(p, window):
        calls.append(window)
        return enumerate_window(p, window)

    monkeypatch.setattr(core, "enumerate_window", counted)
    return calls


def _saved(tmp_path, data):
    path = tmp_path / "presentation.json"
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("key", catalog.keys())
def test_a_catalog_file_is_certified_and_loads_with_no_windowed_check(
        key, tmp_path, windowed_calls):
    p = catalog.get(key)
    assert certify_presentation(p)
    assert catalog.load(_saved(tmp_path, catalog.to_dict(p))) == p
    assert windowed_calls == []


def _edited(key, edit):
    data = catalog.to_dict(catalog.get(key))
    edit(data)
    return data


def _set_coeff(left, right, coeff):
    def edit(data):
        for rule in data["brackets"]:
            if (rule["left"], rule["right"]) == (left, right):
                rule["terms"][0]["coeff"] = coeff
    return edit


# the broken fixtures of test_core.py, as files
_NOT_CERTIFIED = {
    "sign-flip": lambda: _edited("pgca", _set_coeff("L", "I", {"cm": "-1", "cn": "1"})),
    "self-bracket": lambda: _edited("witt", _set_coeff("L", "L", {"c0": "1"})),
    "rational-skew-residue": lambda: _edited(
        "witt", _set_coeff("L", "L", {"c0": "1/3", "cm": "1", "cn": "-1"})),
    "rational-jacobiator": lambda: _edited(
        "pgca", _set_coeff("H", "I", {"c0": "2/3", "cm": "1/5"})),
}


@pytest.mark.parametrize("name", _NOT_CERTIFIED)
def test_an_uncertified_file_loads_as_the_windowed_check_decides(
        name, tmp_path, windowed_calls):
    # the certificate decides; the window only names the witness
    data = _NOT_CERTIFIED[name]()
    p = catalog.from_dict(data)
    assert not certify_presentation(p)
    report = enumerate_window(p, catalog.LOAD_VALIDATION_WINDOW)
    assert not report.passed
    with pytest.raises(PresentationValidationError) as err:
        catalog.load(_saved(tmp_path, data))
    assert err.value.report == report
    assert windowed_calls == [catalog.LOAD_VALIDATION_WINDOW] == [4]


@pytest.mark.parametrize("window", [2, 3, 4])
@pytest.mark.parametrize("name", _NOT_CERTIFIED)
def test_validate_reports_what_the_enumeration_reports_on_a_rejected_file(name, window):
    p = catalog.from_dict(_NOT_CERTIFIED[name]())
    assert validate_presentation(p, window) == enumerate_window(p, window)


# witt's self-bracket with shifted terms; an offset is legacy and only 0 loads
_SHIFTED_TERMS = {
    "plus-one": [{"kind": "L", "coeff": {"cm": "1", "cn": "-1"}, "offset": 1}],
    "minus-one": [{"kind": "L", "coeff": {"cm": "1", "cn": "-1"}, "offset": -1}],
    "true": [{"kind": "L", "coeff": {"cm": "1", "cn": "-1"}, "offset": True}],
    "string-zero": [{"kind": "L", "coeff": {"cm": "1", "cn": "-1"}, "offset": "0"}],
    # m L_{m+n+1} - m L_{m+n+1} = 0, so these terms broke no identity
    "cancelling": [{"kind": "L", "coeff": {"cm": "1"}, "offset": 1},
                   {"kind": "L", "coeff": {"cm": "-1"}, "offset": 1}],
}


@pytest.mark.parametrize("name", _SHIFTED_TERMS)
def test_a_term_offset_other_than_zero_is_a_format_error(name, tmp_path, windowed_calls):
    data = _edited("witt", lambda d: d["brackets"][0].update(terms=_SHIFTED_TERMS[name]))
    match = r"^brackets\[0\]\.terms\[0\]: 'offset' must be 0"
    with pytest.raises(PresentationFormatError, match=match):
        catalog.from_dict(data)
    with pytest.raises(PresentationFormatError, match=match):
        catalog.load(_saved(tmp_path, data))
    assert windowed_calls == []


def test_an_explicit_zero_offset_loads_and_is_not_written_back(tmp_path):
    witt = catalog.get("witt")
    data = _edited("witt", lambda d: d["brackets"][0]["terms"][0].update(offset=0))
    assert catalog.from_dict(data) == witt
    assert catalog.load(_saved(tmp_path, data)) == witt
    assert catalog.to_dict(witt)["brackets"][0]["terms"] == [
        {"kind": "L", "coeff": {"cm": "1", "cn": "-1"}}]


@pytest.mark.parametrize("c0", ["0", "1"])
def test_a_file_with_a_central_kind_as_a_bracket_argument_is_a_format_error(
        c0, tmp_path, windowed_calls):
    # [L_m, C_0] = (c0 + m) C_0: c0 = 0 used to load after the windowed check
    # passed, c0 = 1 failed it; both now stop at the constructor
    data = _edited("virasoro", lambda d: d["brackets"].append(
        {"left": "L", "right": "C", "central_terms": [
            {"kind": "C", "coeff": {"c0": c0, "c1": "1"}}]}))
    match = r"rule \[L,C\]: central kind 'C' is a bracket argument"
    with pytest.raises(PresentationFormatError, match=match):
        catalog.from_dict(data)
    with pytest.raises(PresentationFormatError, match=match):
        catalog.load(_saved(tmp_path, data))
    assert windowed_calls == []


def test_a_rejected_file_the_window_passes_is_an_internal_error(
        tmp_path, monkeypatch, windowed_calls):
    # the certificate is exact, so this can only mean a bug in it
    monkeypatch.setattr(core, "certify_presentation", lambda p: False)
    with pytest.raises(RuntimeError, match="internal error: the certificate rejects 'witt'"):
        catalog.load(_saved(tmp_path, catalog.to_dict(catalog.get("witt"))))
    assert windowed_calls == [catalog.LOAD_VALIDATION_WINDOW]
