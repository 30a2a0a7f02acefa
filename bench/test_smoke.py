"""Smoke test of the benchmark at small sizes (pgca, N=6, |gamma| <= 1).

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
from gradedlie import catalog, cli  # noqa: E402
from gradedlie.core import AlgebraPresentation  # noqa: E402

SMALL = run.WORKLOADS["pgca-half-scan"]  # the smallest workload: pgca, N=6, |gamma| <= 1


def _bindings():
    return {(name, key): value
            for name, module in list(sys.modules.items())
            if name == "gradedlie" or name.startswith("gradedlie.")
            for key, value in vars(module).items() if callable(value)}


def _texts(outputs):
    assert all(code == 0 for _, code, _ in outputs)
    return [text for _, _, text in outputs]


def test_traced_run_matches_untraced_and_restores_wrappers():
    inputs = run.make_inputs(SMALL, run.DEFAULT_SEED)
    _, plain = run.run_iteration(cli, SMALL, inputs)
    before, bracket_basis = _bindings(), AlgebraPresentation.bracket_basis
    tracer = tracing.Tracer()
    tracer.begin_run(0)
    with tracer:
        assert AlgebraPresentation.bracket_basis is not bracket_basis
        wall, traced = run.run_iteration(cli, SMALL, inputs)
    tracer.end_run()

    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert AlgebraPresentation.bracket_basis is bracket_basis
    assert _texts(traced) == _texts(plain)

    table = tracer.span_table(0)
    assert set(SMALL.spans) <= set(table)
    assert sum(row["self_s"] for row in table.values()) <= wall
    metrics = tracer.layer_metrics(0, wall)
    assert set(metrics) | {"trace.overhead_ratio"} == set(tracing.LAYER_METRICS)
    assert metrics["solver.assemble.calls"] == 12
    assert metrics["linalg.kernel_dim"] >= 1
    assert metrics["core.bracket_basis.calls"] > 0


def test_plain_run_scales_every_iteration():
    inputs = run.make_inputs(SMALL, run.DEFAULT_SEED)
    tally = run.Tally(SMALL, inputs)
    walls, traced, _, scaled, setup = run.measure(cli, SMALL, inputs, 0.1, tally)
    assert tally.failed == 0 and tally.attempted == len(walls) + 1  # plus the warm-up
    assert len(scaled) == len(walls) >= 1
    assert all(value > 0 for value in scaled)
    assert traced == [] and setup == []


def test_relabelled_inputs_keep_the_invariant_facts():
    inputs = run.make_inputs(SMALL, run.DEFAULT_SEED)
    (_, _, reference), = run.run_iteration(cli, SMALL, inputs)[1]
    facts = run.FACTS["solve"](json.loads(reference))
    for seed in (1, 2):
        relabelled = run.make_inputs(SMALL, seed)
        try:
            (_, code, text), = run.run_iteration(cli, SMALL, relabelled)[1]
        finally:
            Path(relabelled.algebra_ref).unlink()
        assert code == 0
        out = json.loads(text)
        assert out["algebra"] == relabelled.algebra_name
        assert run.FACTS["solve"](out) == facts
    assert run.relabel("pgca", 1) == run.relabel("pgca", 1)
    assert run.relabel("pgca", 1) != run.relabel("pgca", 2)


def test_embedded_presentations_are_the_catalog_ones():
    for key, data in run.PRESENTATIONS.items():
        assert catalog.from_dict(data) == catalog.get(key)


def test_output_checks_catch_wrong_output():
    workload = run.WORKLOADS["pgca-checks"]
    inputs = run.make_inputs(workload, run.DEFAULT_SEED)
    command = workload.commands[0]
    golden = workload.golden(command).read_text()
    assert run.check_output(workload, command, inputs, 0, golden) is None
    assert run.check_output(workload, command, inputs, 1, golden)
    assert run.check_output(workload, command, inputs, 0, golden + " ")
    wrong = json.dumps({**json.loads(golden), "triples_checked": 1})
    relabelled = run.Inputs("file.json", "pgca", True)
    assert run.check_output(workload, command, relabelled, 0, wrong)
    assert run.check_output(workload, command, relabelled, 0, "[]")


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in run.WORKLOADS.items()}
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, (unit, better, _) in tracing.LAYER_METRICS.items()]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pgca-checks", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
