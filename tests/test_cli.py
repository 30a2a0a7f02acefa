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


def test_validate_failure_matches_the_recorded_golden(tmp_path, capsys):
    # the sign-flipped pgca file CI builds: the certificate rejects it, so
    # the window N = 4 is enumerated up to the first failing triple
    data = catalog.to_dict(catalog.get("pgca"))
    rule = next(r for r in data["brackets"] if (r["left"], r["right"]) == ("L", "I"))
    rule["terms"][0]["coeff"] = {"cm": "-1", "cn": "1"}
    path = tmp_path / "flipped.json"
    catalog.save(catalog.from_dict(data), path)
    target = tmp_path / "validate.json"
    code, _, _ = run(["validate", "--algebra", str(path), "--window", "4",
                      "--format", "json", "--output", str(target)], capsys)
    assert code == EXIT_MATH_FAIL
    assert target.read_bytes() == (GOLDENS / "pgca_flipped_validate.json").read_bytes()

    code, out, _ = run(["validate", "--algebra", str(path), "--window", "4"], capsys)
    assert code == EXIT_MATH_FAIL
    assert out == ("pgca: FAIL [jacobi] at (L_-4, L_-3, I_-4): "
                   "jacobiator = 6*I_-11\n")


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
    # Fraction() reads any Unicode digit; a delta takes ASCII ones only
    code, _, err = run(base + ["--delta", "\uff13/\uff14"], capsys)
    assert code == EXIT_USAGE and "bad --delta value: not a rational" in err
    assert run(base + ["--interior", "x"], capsys)[0] == EXIT_USAGE
    assert run(base + ["--interior", "9"], capsys)[0] == EXIT_USAGE


def test_missing_subcommand_is_a_usage_error(capsys):
    assert main([]) == EXIT_USAGE
    capsys.readouterr()


def test_a_kind_name_with_a_label_separator_is_a_usage_error(tmp_path, capsys):
    # "L>C" names a column family of virasoro's layout, so no kind may
    data = catalog.to_dict(catalog.get("witt"))
    data["kinds"][0]["name"] = "L>C"
    for rule in data["brackets"]:
        rule["left"] = rule["right"] = rule["terms"][0]["kind"] = "L>C"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run(["solve", "--algebra", str(path), "--window", "4"], capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert "kind name 'L>C' contains '>'" in err


def test_malformed_presentation_file_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"name": 1}')
    code, _, err = run(["validate", "--algebra", str(path), "--window", "3"],
                       capsys)
    assert code == EXIT_USAGE
    assert "name" in err


def test_a_validation_window_below_two_exits_without_traceback():
    src = Path(gradedlie.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "gradedlie", "validate", "--algebra", "pgca",
         "--window", "1"],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == EXIT_USAGE
    assert "Traceback" not in done.stderr
    assert done.stderr == "error: validation window must be at least 2\n"


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


def test_central_kind_as_a_bracket_argument_exits_without_traceback(tmp_path):
    # [A_m, C_0] = A_m with A abelian: D(C_0) = A_0 is a degree-zero
    # 1/2-derivation that the layout, which maps a central kind only to
    # central kinds, has no column for, so solving this file would wrongly
    # report scalar-only; it must not load
    data = {"name": "fake-central",
            "kinds": [{"name": "A", "z2_degree": [0, 0]},
                      {"name": "C", "z2_degree": [0, 0]}],
            "central_kinds": ["C"],
            "brackets": [{"left": "A", "right": "C",
                          "terms": [{"kind": "A", "coeff": {"c0": "1"}}]}]}
    path = tmp_path / "fake.json"
    path.write_text(json.dumps(data))
    src = Path(gradedlie.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "gradedlie", "solve", "--algebra", str(path),
         "--window", "4", "--gamma-max", "1"],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == EXIT_USAGE
    assert "Traceback" not in done.stderr
    assert "rule [A,C]: central kind 'C' is a bracket argument" in done.stderr


def test_a_shifted_bracket_term_exits_without_traceback(tmp_path):
    # every term of [L_m, L_n] sits at index m + n: a file that shifts one
    # is a format error, not a failed check
    data = catalog.to_dict(catalog.get("witt"))
    data["brackets"][0]["terms"][0]["offset"] = 1
    path = tmp_path / "shifted.json"
    path.write_text(json.dumps(data))
    src = Path(gradedlie.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "gradedlie", "validate", "--algebra", str(path),
         "--window", "4"],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == EXIT_USAGE
    assert "Traceback" not in done.stderr
    assert "brackets[0].terms[0]: 'offset' must be 0" in done.stderr


@pytest.mark.parametrize("make", [
    lambda path: path.mkdir(),
    lambda path: path.write_bytes(b'{"name": "\xff"}'),
], ids=["directory", "not-utf8"])
def test_unreadable_presentation_file_exits_without_traceback(make, tmp_path):
    path = tmp_path / "bad.json"
    make(path)
    src = Path(gradedlie.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "gradedlie", "solve", "--algebra", str(path),
         "--window", "4", "--gamma-max", "1"],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == EXIT_USAGE
    assert "Traceback" not in done.stderr
    assert str(path) in done.stderr


def test_unwritable_output_exits_without_traceback(tmp_path):
    target = tmp_path / "missing" / "x.json"
    src = Path(gradedlie.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "gradedlie", "validate", "--algebra", "pgca",
         "--window", "2", "--output", str(target)],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == EXIT_USAGE
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith(f"error: cannot write {target}")
    assert not target.parent.exists()


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


# the delta of each golden scan other than 1/2: virasoro's derivations,
# ad L_gamma at every gamma, with its L>C column
GOLDEN_DELTA = {"virasoro_derivation_scan.json": "1"}


@pytest.mark.parametrize("algebra,golden", [
    ("witt", "witt_scan.json"),
    ("heisenberg-virasoro", "heisenberg_virasoro_scan.json"),
    ("virasoro", "virasoro_derivation_scan.json"),
])
def test_scan_reports_match_recorded_goldens(algebra, golden, tmp_path, capsys):
    target = tmp_path / "scan.json"
    code, _, _ = run(["solve", "--algebra", algebra,
                      "--delta", GOLDEN_DELTA.get(golden, "1/2"),
                      "--gamma-max", "4", "--window", "12",
                      "--format", "json", "--output", str(target)], capsys)
    assert code == EXIT_OK
    assert target.read_bytes() == (GOLDENS / golden).read_bytes()


def test_the_half_scan_at_window_64_matches_its_golden(tmp_path, capsys):
    # recorded when each degree was solved on the window 64; each is now
    # decided on pgca's propagation window 2, the zero kernels as they are
    # and (0, 0, 0)'s identity extended to the window 64
    target = tmp_path / "scan.json"
    code, _, _ = run(["solve", "--algebra", "pgca", "--delta", "1/2", "--gamma-max", "16",
                      "--window", "64", "--format", "json", "--output", str(target)], capsys)
    assert code == EXIT_OK
    assert target.read_bytes() == (GOLDENS / "pgca_half_scan_64.json").read_bytes()


def test_the_virasoro_scan_at_window_32_matches_its_golden(tmp_path, capsys):
    # virasoro has a central kind, so no certificate and no propagation
    # window: each degree is read on N = 32, its elimination switching to
    # checking once a run of idle rows is as long as the candidate is wide
    target = tmp_path / "scan.json"
    code, _, _ = run(["solve", "--algebra", "virasoro", "--delta", "1", "--gamma-max", "8",
                      "--window", "32", "--format", "json", "--output", str(target)], capsys)
    assert code == EXIT_OK
    assert target.read_bytes() == (GOLDENS / "virasoro_derivation_scan_32.json").read_bytes()


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


def test_lemmas_match_the_recorded_golden(tmp_path, capsys):
    # recorded before the oracle's full systems carried the affine kernel
    # certificate, when every system read all its rows
    target = tmp_path / "lemmas.json"
    code, _, _ = run(["lemmas", "--window", "20", "--format", "json",
                      "--output", str(target)], capsys)
    assert code == EXIT_OK
    assert target.read_bytes() == (GOLDENS / "lemmas_window_20.json").read_bytes()


def test_lemmas_at_window_64_match_the_recorded_golden(tmp_path, capsys):
    # recorded when each system was solved on the window 64; each is now
    # decided on its own window, 1 or 2, and e1's constants extended to 64
    target = tmp_path / "lemmas.json"
    code, _, _ = run(["lemmas", "--window", "64", "--format", "json",
                      "--output", str(target)], capsys)
    assert code == EXIT_OK
    assert target.read_bytes() == (GOLDENS / "lemmas_window_64.json").read_bytes()


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


def test_tp_classify_matches_the_recorded_abelian_golden(tmp_path, capsys):
    # recorded when every membership shift was eliminated; its 405 is now
    # glued from the nonzero kernels of the 17 degrees of z.-, 8 of them
    # taken from a partner degree by theta
    target = tmp_path / "products.json"
    code, _, _ = run(["tp-classify", "--algebra", "abelian", "--window", "4",
                      "--format", "json", "--output", str(target)], capsys)
    assert code == EXIT_OK
    assert target.read_bytes() == (GOLDENS / "abelian_products.json").read_bytes()


def test_tp_classify_matches_the_recorded_pgca_golden(tmp_path, capsys):
    # the paper's headline: pgca's 1/2-derivations are scalar only, so its
    # transposed Poisson structures are trivial
    target = tmp_path / "products.json"
    code, _, _ = run(["tp-classify", "--algebra", "pgca", "--window", "4",
                      "--format", "json", "--output", str(target)], capsys)
    assert code == EXIT_OK
    assert target.read_bytes() == (GOLDENS / "pgca_products.json").read_bytes()


def test_tp_classify_matches_the_recorded_witt_golden(tmp_path, capsys):
    # witt's product path at window 10: inside layouts carry a certificate
    # only at gamma = 0, so most of its degrees stop by checking alone
    target = tmp_path / "products.json"
    code, _, _ = run(["tp-classify", "--algebra", "witt", "--window", "10",
                      "--format", "json", "--output", str(target)], capsys)
    assert code == EXIT_OK
    assert target.read_bytes() == (GOLDENS / "witt_products_10.json").read_bytes()


def test_tp_classify_json_includes_both_verdicts(capsys):
    code, out, _ = run(["tp-classify", "--algebra", "witt", "--window", "3",
                        "--gamma-max", "1", "--format", "json"], capsys)
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["verdict"] == "trivial"
    assert data["derivation_verdict"] == "not-scalar-only"
    assert data["path"] == "derivation-membership"
    assert out == canonical_json(data)


def test_tp_classify_takes_no_delta_option():
    # the compatibility law makes every z.- a 1/2-derivation: delta is fixed
    src = Path(gradedlie.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "gradedlie", "tp-classify", "--algebra", "pgca",
         "--window", "2", "--delta", "1/2"],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == EXIT_USAGE
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    assert "unrecognized arguments: --delta 1/2" in done.stderr


def test_tp_classify_negative_window_is_a_usage_error(capsys):
    # a negative window has no basis elements, which would read as 'trivial'
    code, out, err = run(["tp-classify", "--algebra", "witt", "--window", "-1",
                          "--gamma-max", "1"], capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert "window must be non-negative" in err


def test_tp_classify_rejects_a_negative_window_before_scanning(monkeypatch, capsys):
    def no_scan(*args, **kwargs):
        raise AssertionError("scan ran before the window was checked")

    monkeypatch.setattr(gradedlie.cli, "scan", no_scan)
    code, out, err = run(["tp-classify", "--algebra", "pgca", "--window", "-1"],
                         capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: window must be non-negative\n"


# ---------------------------------------------------------------------------
# start-up


def test_a_command_starts_without_code_generating_modules():
    # every command pays for what `import gradedlie.cli` loads: every
    # package module, and none of the modules that generate or inspect
    # code (dataclasses and the inspect, ast, dis and tokenize it pulls in)
    src = str(Path(gradedlie.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import gradedlie.cli; "
            "from gradedlie import catalog; catalog.get('pgca'); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'gradedlie')); "
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'} "
            "& set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code, src], capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded, unwanted = done.stdout.splitlines()
    assert loaded == str([f"gradedlie{m}" for m in (
        "", ".catalog", ".cli", ".core", ".linalg", ".poisson", ".recurrences", ".solver")])
    assert unwanted == "[]"
