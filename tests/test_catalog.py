"""Catalog entries and the JSON presentation file format."""

import json

import pytest

from gradedlie import catalog
from gradedlie.catalog import (CatalogKeyError, PresentationFormatError,
                               PresentationValidationError)
from gradedlie.core import validate_presentation


def test_catalog_keys_are_stable():
    assert catalog.keys() == ("pgca", "witt", "virasoro",
                              "heisenberg-virasoro", "abelian")


def test_every_entry_has_notes_and_validates():
    for key in catalog.keys():
        entry = catalog.entry(key)
        assert entry.key == key
        assert entry.notes
        assert validate_presentation(entry.presentation, 3).passed


def test_unknown_key_error_lists_available_keys():
    with pytest.raises(CatalogKeyError, match="pgca.*witt.*virasoro"):
        catalog.entry("nope")


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
