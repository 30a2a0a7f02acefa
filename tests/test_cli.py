"""Command line interface: exit codes, formats, and golden reports.

The golden files under tests/goldens/ were produced by the commands named
in each test and are compared byte for byte; any change to report content
or serialization shows up as a diff against them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gradedlie
from gradedlie import catalog
from gradedlie.cli import (EXIT_MATH_FAIL, EXIT_OK, EXIT_USAGE,
                           canonical_json, main)

GOLDENS = Path(__file__).parent / "goldens"


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# validate


def test_validate_passes_on_catalog_algebra(capsys):
    code, out, _ = run(["validate", "--algebra", "pgca", "--window", "3"], capsys)
    assert code == EXIT_OK
    assert "PASS" in out


def test_validate_reports_jacobi_counterexamples(tmp_path, capsys):
    data = catalog.to_dict(catalog.get("pgca"))
    for rule in data["brackets"]:
        if rule["left"] == "L" and rule["right"] == "I":
            rule["terms"][0]["coeff"] = {"cm": "-1", "cn": "1"}
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))

    code, out, _ = run(["validate", "--algebra", str(path), "--window", "3"],
                       capsys)
    assert code == EXIT_MATH_FAIL
    assert "jacobi" in out

    code, out, _ = run(["validate", "--algebra", str(path), "--window", "3",
                        "--format", "json"], capsys)
    assert code == EXIT_MATH_FAIL
    report = json.loads(out)
    assert report["passed"] is False
    assert report["check"] == "jacobi"
    assert len(report["witnesses"]) == 3


def test_validate_json_output_is_canonical(capsys):
    code, out, _ = run(["validate", "--algebra", "witt", "--window", "2",
                        "--format", "json"], capsys)
    assert code == EXIT_OK
    assert out == canonical_json(json.loads(out))


def test_validate_loads_well_formed_files(tmp_path, capsys):
    path = tmp_path / "v.json"
    catalog.save(catalog.get("virasoro"), path)
    code, out, _ = run(["validate", "--algebra", str(path), "--window", "3"],
                       capsys)
    assert code == EXIT_OK
    assert "PASS" in out


# ---------------------------------------------------------------------------
# usage errors


def test_unknown_algebra_lists_catalog_keys(capsys):
    code, _, err = run(["solve", "--algebra", "nope", "--window", "8"], capsys)
    assert code == EXIT_USAGE
    for key in catalog.keys():
        assert key in err


def test_missing_presentation_file_is_a_usage_error(capsys):
    code, _, err = run(["solve", "--algebra", "no/such/file.json",
                        "--window", "8"], capsys)
    assert code == EXIT_USAGE
    assert "not found" in err


def test_undersized_window_is_a_usage_error(capsys):
    code, _, err = run(["solve", "--algebra", "pgca", "--gamma-max", "4",
                        "--window", "6"], capsys)
    assert code == EXIT_USAGE
    assert "window" in err


def test_malformed_delta_and_interior_are_usage_errors(capsys):
    base = ["solve", "--algebra", "witt", "--window", "6"]
    assert run(base + ["--delta", "0.5"], capsys)[0] == EXIT_USAGE
    assert run(base + ["--interior", "x"], capsys)[0] == EXIT_USAGE
    assert run(base + ["--interior", "9"], capsys)[0] == EXIT_USAGE


def test_missing_subcommand_is_a_usage_error(capsys):
    assert main([]) == EXIT_USAGE
    capsys.readouterr()


def test_malformed_presentation_file_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"name": 1}')
    code, _, err = run(["validate", "--algebra", str(path), "--window", "3"],
                       capsys)
    assert code == EXIT_USAGE
    assert "name" in err


def test_wrongly_typed_presentation_field_exits_without_traceback(tmp_path):
    data = catalog.to_dict(catalog.get("virasoro"))
    data["brackets"][0]["central_terms"] = 5
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    src = Path(gradedlie.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "gradedlie", "solve", "--algebra", str(path),
         "--window", "6"],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == EXIT_USAGE
    assert "Traceback" not in done.stderr
    assert "central_terms" in done.stderr


def test_ordinary_term_targeting_a_central_kind_exits_without_traceback(tmp_path):
    data = catalog.to_dict(catalog.get("virasoro"))
    data["brackets"][0]["terms"].append(
        {"kind": "C", "coeff": {"cm": "1", "cn": "-1"}})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    src = Path(gradedlie.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "gradedlie", "validate", "--algebra", str(path),
         "--window", "4"],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == EXIT_USAGE
    assert "Traceback" not in done.stderr
    assert "ordinary term targets central kind 'C'" in done.stderr


# ---------------------------------------------------------------------------
# solve


def test_solve_text_output_lists_every_degree(capsys):
    code, out, _ = run(["solve", "--algebra", "witt", "--gamma-max", "1",
                        "--window", "6"], capsys)
    assert code == EXIT_OK
    assert "verdict: not-scalar-only" in out
    assert out.count("zero") + out.count("scalar") >= 12


def test_solve_json_round_trips_byte_identically(capsys):
    code, out, _ = run(["solve", "--algebra", "witt", "--gamma-max", "0",
                        "--window", "4", "--format", "json"], capsys)
    assert code == EXIT_OK
    assert out == canonical_json(json.loads(out))


def test_solve_writes_reports_to_files(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(["solve", "--algebra", "witt", "--gamma-max", "0",
                        "--window", "4", "--format", "json",
                        "--output", str(target)], capsys)
    assert code == EXIT_OK
    assert out == ""
    data = json.loads(target.read_text())
    assert data["algebra"] == "witt"


def test_solve_honours_an_explicit_interior(capsys):
    code, out, _ = run(["solve", "--algebra", "witt", "--gamma-max", "0",
                        "--window", "6", "--interior", "2",
                        "--format", "json"], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["interior"] == 2


@pytest.mark.parametrize("algebra,golden", [
    ("witt", "witt_scan.json"),
    ("heisenberg-virasoro", "heisenberg_virasoro_scan.json"),
])
def test_scan_reports_match_recorded_goldens(algebra, golden, tmp_path, capsys):
    target = tmp_path / "scan.json"
    code, _, _ = run(["solve", "--algebra", algebra, "--delta", "1/2",
                      "--gamma-max", "4", "--window", "12",
                      "--format", "json", "--output", str(target)], capsys)
    assert code == EXIT_OK
    assert target.read_bytes() == (GOLDENS / golden).read_bytes()


# ---------------------------------------------------------------------------
# lemmas


def test_lemmas_pass_and_serialize(capsys):
    code, out, _ = run(["lemmas", "--window", "8"], capsys)
    assert code == EXIT_OK
    assert "all passed" in out

    code, out, _ = run(["lemmas", "--window", "8", "--format", "json"], capsys)
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["all_passed"] is True
    assert len(data["results"]) == 35


def test_lemmas_window_guard_is_a_usage_error(capsys):
    assert run(["lemmas", "--window", "6"], capsys)[0] == EXIT_USAGE


# ---------------------------------------------------------------------------
# tp-classify


def test_tp_classify_pgca_is_trivial(capsys):
    code, out, _ = run(["tp-classify", "--algebra", "pgca", "--window", "4",
                        "--gamma-max", "1"], capsys)
    assert code == EXIT_OK
    assert "verdict: trivial" in out
    assert "scalar-functional" in out


def test_tp_classify_abelian_reports_freedom(capsys):
    code, out, _ = run(["tp-classify", "--algebra", "abelian", "--window", "2",
                        "--gamma-max", "1"], capsys)
    assert code == EXIT_OK
    assert "nontrivial possible" in out


def test_tp_classify_json_includes_both_verdicts(capsys):
    code, out, _ = run(["tp-classify", "--algebra", "witt", "--window", "3",
                        "--gamma-max", "1", "--format", "json"], capsys)
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["verdict"] == "trivial"
    assert data["derivation_verdict"] == "not-scalar-only"
    assert data["path"] == "derivation-membership"
    assert out == canonical_json(data)
