#!/usr/bin/env python3
"""Benchmark of the gradedlie command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One process calls `gradedlie.cli.main` for
one command at a time (a closed loop with a single client, no threads).
After one untimed warm-up iteration it repeats the workload's commands
until the next iteration would end after `--seconds`; there is always at
least one timed iteration.  Every output is checked, and the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.

--trace 0 reports the end-to-end metrics, measured with tracing off:
  norm_wall_s  median over iterations of the iteration's wall time scaled
               to a fixed host speed: the sum over the workload's commands
               of wall * reference.NOMINAL_S / ref, where wall runs from
               calling cli.main to its return, output written, and ref is
               the mean time of the reference kernel timed just before and
               just after that command (see reference.py)
  setup_s      median over fresh interpreters, spread through the run, of
               the time to import gradedlie and resolve the workload's
               algebra, scaled like norm_wall_s by the reference kernel
               timed just before and just after each interpreter
  peak_rss_mb  peak resident memory of this process
The raw wall and set-up times (median, quartiles) are printed on the
summary lines; on a shared host they drift with the host's speed, so they
are not metrics.  failed_ratio (failed commands over commands attempted) is
printed there too; it is 0 on a correct program, so it travels as the
`failed` and `attempted` keys rather than as a metric.

--trace 1 alternates untraced and traced iterations and reports the
per-layer metrics of tracing.LAYER_METRICS, the median over traced
iterations, plus trace.overhead_ratio.  The spans and a self-time table
are written to bench/.work/.

--workload all runs every workload in its own process and prints their
metrics as WORKLOAD.METRIC, with each workload's failed_ratio.

--seed 0 runs the catalog presentations by key, and its outputs must
match bench/expected/ byte for byte.  Any other seed renames the kinds,
shuffles the order of all but the first kind and of the bracket rules,
and passes the result to --algebra as a presentation file; those outputs
are checked by the facts that survive the relabelling.  Known answers
that do not depend on the solver are checked under every seed.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import gc
import hashlib
import io
import itertools
import json
import os
import platform
import random
import resource
import string
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

import reference
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
EXPECTED = BENCH / "expected"

DEFAULT_SEED = 0
SETUP_PROBES = 7  # timed set-up probes per run, after one warm-up probe


def _rule(left, right, target, **coeff):
    return {"left": left, "right": right,
            "terms": [{"kind": target, "coeff": coeff, "offset": 0}]}


# The catalog presentations the workloads use, in the presentation file
# format.  Non-default seeds relabel these.
PRESENTATIONS = {
    "pgca": {
        "name": "pgca",
        "kinds": [{"name": k, "z2_degree": z2}
                  for k, z2 in (("L", [0, 0]), ("H", [1, 1]), ("I", [0, 1]), ("J", [1, 0]))],
        "brackets": [
            _rule("L", "L", "L", cm="1", cn="-1"),
            _rule("L", "H", "H", cn="-1"),
            _rule("L", "I", "I", cm="1", cn="-1"),
            _rule("L", "J", "J", cm="1", cn="-1"),
            _rule("H", "I", "J", c0="1"),
            _rule("H", "J", "I", c0="-1"),
        ],
    },
    "witt": {
        "name": "witt",
        "kinds": [{"name": "L", "z2_degree": [0, 0]}],
        "brackets": [_rule("L", "L", "L", cm="1", cn="-1")],
    },
}

ALGEBRA = "{algebra}"  # placeholder in a command for the algebra reference


def _solve_facts(out):
    return {**{k: out[k] for k in ("delta", "window", "interior", "verdict")},
            "reports": [(r["degree"], r["full_dim"], r["interior_dim"],
                         r["classification"], len(r["basis"]))
                        for r in out["reports"]]}


def _without_algebra(out):
    return {k: v for k, v in out.items() if k != "algebra"}


# Facts of a subcommand's output that do not depend on kind names or order.
FACTS = {
    "solve": _solve_facts,
    "tp-classify": _without_algebra,
    "validate": _without_algebra,
}


def _scalar_only_at_origin(out):
    scalars = [r["degree"] for r in out["reports"] if r["classification"] == "scalar"]
    others = {r["classification"] for r in out["reports"]
              if r["classification"] != "scalar"}
    if out["verdict"] != "scalar-only" or scalars != [[0, 0, 0]] or others - {"zero"}:
        return "pgca must be scalar-only with (0,0,0) its only scalar degree"


def _inner_derivations(out):
    if any(r["interior_dim"] < 1 for r in out["reports"]):
        return "every degree must keep the inner derivations ad x (interior_dim >= 1)"


def _witt_not_scalar_only(out):
    if out["derivation_verdict"] != "not-scalar-only":
        return "witt has shift 1/2-derivations, so its scan is not scalar-only"


def _pgca_validates(out):
    # pgca has 4 kinds, so 4 * (2N + 1) = 36 basis elements at N=4: 36^2
    # ordered pairs and C(36, 3) triples.
    if not (out["passed"] and out["pairs_checked"] == 1296
            and out["triples_checked"] == 7140):
        return "validate pgca N=4 must pass with 1296 pairs and 7140 triples"


def _lemmas_pass(out):
    if not (out["all_passed"] and len(out["results"]) == 35
            and all(r["passed"] for r in out["results"])):
        return "all 35 lemma checks must pass"


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    known_answer: object  # output dict -> problem string or None

    @property
    def subcommand(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    algebra: str  # catalog key
    commands: tuple[Command, ...]
    spans: tuple[str, ...]  # spans a traced iteration must produce

    def golden(self, command: Command) -> Path:
        return EXPECTED / f"{self.name}.{command.subcommand}.json"


SOLVER_SPANS = ("cli.main", "catalog.resolve", "solver.scan", "solver.solve_degree",
                "solver.unknown_layout", "solver.assemble", "linalg.nullspace",
                "linalg.rref", "solver.report_from_kernel")

WORKLOADS = {w.name: w for w in (
    Workload(
        "pgca-half-scan",
        "the paper's 1/2-derivation scan, cut to N=6 and |gamma|<=1; 11 of 12 degrees "
        "have a zero kernel, so row templates and zero-kernel certificates show here",
        "pgca",
        (Command(("solve", "--algebra", ALGEBRA, "--delta", "1/2", "--gamma-max", "1",
                  "--window", "6", "--format", "json"), _scalar_only_at_origin),),
        SOLVER_SPANS),
    Workload(
        "pgca-derivations",
        "same assembler but every degree has a kernel with integer coefficients, "
        "so a zero-kernel certificate must fall back; loads kernel checks and projection",
        "pgca",
        (Command(("solve", "--algebra", ALGEBRA, "--delta", "1", "--gamma-max", "1",
                  "--window", "6", "--format", "json"), _inner_derivations),),
        SOLVER_SPANS),
    Workload(
        "witt-products",
        "the only CLI route into the transposed Poisson membership system, which "
        "dominates time and peak memory; solver-side changes should not move it",
        "witt",
        (Command(("tp-classify", "--algebra", ALGEBRA, "--window", "6",
                  "--format", "json"), _witt_not_scalar_only),),
        SOLVER_SPANS + ("poisson.classify_products",)),
    Workload(
        "pgca-checks",
        "validate (7,140 Jacobi triples) then lemmas (the recurrence oracle): the two "
        "checking layers as commands of their own; no other workload reaches lemmas",
        "pgca",
        (Command(("validate", "--algebra", ALGEBRA, "--window", "4", "--format", "json"),
                 _pgca_validates),
         Command(("lemmas", "--window", "12", "--format", "json"), _lemmas_pass)),
        ("cli.main", "catalog.resolve", "core.validate",
         "recurrences.check_lemma_conclusions", "linalg.nullspace", "linalg.rref",
         "solver.report_from_kernel")),
)}


# ---------------------------------------------------------------------------
# inputs


def relabel(key: str, seed: int) -> dict:
    """The catalog presentation `key` with renamed, reordered kinds and rules.

    The first kind (the family acting on all the others) stays first.  Exact
    elimination sweeps the columns in kind order, and on pgca the orders
    that move L later cost up to 2.4 times as much elimination at N=10, so
    a free order would make the figures depend on the seed's permutation.
    """
    rng = random.Random(f"{key}:{seed}")
    data = copy.deepcopy(PRESENTATIONS[key])
    pool = ["".join(p) for p in itertools.product(string.ascii_uppercase, repeat=2)]
    names = dict(zip((k["name"] for k in data["kinds"]),
                     rng.sample(pool, len(data["kinds"]))))
    for kind in data["kinds"]:
        kind["name"] = names[kind["name"]]
    for rule in data["brackets"]:
        rule["left"], rule["right"] = names[rule["left"]], names[rule["right"]]
        for term in rule["terms"]:
            term["kind"] = names[term["kind"]]
    rest = data["kinds"][1:]
    rng.shuffle(rest)
    data["kinds"][1:] = rest
    rng.shuffle(data["brackets"])
    data["name"] = f"{key}-relabelled-{seed}"
    return data


@dataclass(frozen=True)
class Inputs:
    algebra_ref: str  # catalog key, or path of a presentation file
    algebra_name: str  # the name the output reports
    relabelled: bool


def make_inputs(workload: Workload, seed: int) -> Inputs:
    if seed == DEFAULT_SEED:
        return Inputs(workload.algebra, workload.algebra, False)
    data = relabel(workload.algebra, seed)
    WORK.mkdir(exist_ok=True)
    path = WORK / f"{workload.name}-seed{seed}-{os.getpid()}.json"
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return Inputs(str(path), data["name"], True)


def argv_of(command: Command, inputs: Inputs) -> list[str]:
    return [inputs.algebra_ref if a == ALGEBRA else a for a in command.argv]


# ---------------------------------------------------------------------------
# running and checking


def check_output(workload: Workload, command: Command, inputs: Inputs,
                 code, text: str) -> str | None:
    """None when the output is right, else what is wrong with it."""
    if code != 0:
        return f"exit code {code}"
    try:
        out = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"output is not JSON ({exc})"
    golden = workload.golden(command).read_text()
    try:
        if not inputs.relabelled or ALGEBRA not in command.argv:
            if text != golden:
                return "canonical JSON differs from the expected output byte for byte"
        else:
            facts = FACTS[command.subcommand]
            if facts(out) != facts(json.loads(golden)):
                return "relabelling-invariant facts differ from the expected output"
            if out.get("algebra") != inputs.algebra_name:
                return f"reports algebra {out.get('algebra')!r}, expected {inputs.algebra_name!r}"
        return command.known_answer(out)
    except (KeyError, TypeError, AttributeError) as exc:
        return f"output lacks an expected field ({exc!r})"


def run_iteration(cli, workload: Workload, inputs: Inputs, after_command=None):
    """Run the workload's commands once; (wall seconds, outputs).

    `after_command`, if given, is called with each command's wall seconds
    right after the command returns.
    """
    wall = 0.0
    outputs = []
    for command in workload.commands:
        gc.collect()  # start each command from a heap without the last one's garbage
        buf = io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv_of(command, inputs))
        except Exception as exc:  # a crash is a failed command, not a crashed run
            code = f"exception {exc!r}"
        elapsed = perf_counter() - start
        wall += elapsed
        if after_command is not None:
            after_command(elapsed)
        outputs.append((command, code, buf.getvalue()))
    return wall, outputs


class Tally:
    def __init__(self, workload: Workload, inputs: Inputs):
        self.workload, self.inputs = workload, inputs
        self.attempted = 0
        self.problems: list[str] = []

    def check(self, outputs):
        for command, code, text in outputs:
            self.attempted += 1
            problem = check_output(self.workload, command, self.inputs, code, text)
            if problem:
                self.problems.append(f"{' '.join(command.argv)}: {problem}")

    @property
    def failed(self) -> int:
        return len(self.problems)


def measure(cli, workload, inputs, seconds, tally, tracer=None, probe=None):
    """One untimed warm-up iteration, then a closed loop until the next
    iteration would end after `seconds`.

    Returns (untraced walls, traced walls, traced run ids, untraced walls
    scaled by reference.Speed, set-up times as (raw, scaled) pairs).  With
    a probe, one set-up probe runs after each of the first SETUP_PROBES + 1
    iterations (the first is a warm-up and is dropped); a run too short for
    that many takes the rest after its last iteration.
    With a tracer, each iteration is an untraced run followed by a traced
    one, and the untraced walls are not scaled.
    """
    tally.check(run_iteration(cli, workload, inputs)[1])
    walls, traced, run_ids, scaled, setup = [], [], [], [], []
    speed = reference.Speed()

    def add_scaled(elapsed):
        scaled[-1] += speed.scale(elapsed)

    start = perf_counter()
    while True:
        began = perf_counter()
        if tracer is None:
            speed.start()
            scaled.append(0.0)
            wall, outputs = run_iteration(cli, workload, inputs, add_scaled)
        else:
            wall, outputs = run_iteration(cli, workload, inputs)
        walls.append(wall)
        tally.check(outputs)
        if tracer is None:
            if probe is not None and len(setup) <= SETUP_PROBES:
                raw = probe()
                setup.append((raw, speed.scale(raw)))
        else:
            run_id = len(run_ids)
            tracer.begin_run(run_id)
            with tracer:
                wall, traced_outputs = run_iteration(cli, workload, inputs)
            tracer.end_run()
            traced.append(wall)
            run_ids.append(run_id)
            tally.check(traced_outputs)
            for (command, _, text), (_, _, plain) in zip(traced_outputs, outputs):
                if text != plain:
                    tally.problems.append(f"{' '.join(command.argv)}: traced output "
                                          "differs from the untraced output")
        now = perf_counter()
        if now - start + (now - began) > seconds:
            break
    while probe is not None and len(setup) <= SETUP_PROBES:
        speed.start()
        raw = probe()
        setup.append((raw, speed.scale(raw)))
    return walls, traced, run_ids, scaled, setup[1:]


def setup_probe(workload: Workload, inputs: Inputs):
    """A function timing one fresh interpreter that imports gradedlie and
    resolves the workload's algebra the way its first command does."""
    validate = any(c.subcommand != "validate" for c in workload.commands
                   if ALGEBRA in c.argv)
    argv = [sys.executable, str(BENCH / "probe.py"), str(SRC), inputs.algebra_ref,
            "1" if validate else "0"]

    def probe() -> float:
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120,
                              check=True)
        return float(done.stdout.strip().splitlines()[-1])
    return probe


def machine_info() -> dict:
    try:
        cpu = next((line.split(":", 1)[1].strip()
                    for line in Path("/proc/cpuinfo").read_text().splitlines()
                    if line.startswith("model name")), None)
    except OSError:
        cpu = None
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=30)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "gradedlie").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "commit": commit,
            "src_sha256": digest.hexdigest()}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _quartiles(values) -> str:
    if len(values) < 2:
        return f"{values[0]:.4f}"
    q1, q2, q3 = quantiles(values, n=4)
    return f"{q2:.4f} [{q1:.4f}, {q3:.4f}]"


def plain_metrics(cli, workload, inputs, seconds, tally) -> dict:
    walls, _, _, norm, setup = measure(cli, workload, inputs, seconds, tally,
                                       probe=setup_probe(workload, inputs))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{len(walls)} iterations; median [quartiles]: wall_s {_quartiles(walls)}, "
          f"norm_wall_s {_quartiles(norm)}")
    print(f"{len(setup)} set-up probes; median [quartiles]: raw "
          f"{_quartiles([raw for raw, _ in setup])}, setup_s "
          f"{_quartiles([scaled for _, scaled in setup])}")
    return {"norm_wall_s": _metric(median(norm), "s"),
            "setup_s": _metric(median(scaled for _, scaled in setup), "s"),
            "peak_rss_mb": _metric(peak_mb, "MB")}


def traced_metrics(cli, workload, inputs, seconds, tally, seed) -> dict:
    tracer = tracing.Tracer()
    walls, traced, run_ids, _, _ = measure(cli, workload, inputs, seconds, tally, tracer)
    per_run = [tracer.layer_metrics(r, w) for r, w in zip(run_ids, traced)]
    values = {name: median(m[name] for m in per_run) for name in per_run[0]}
    values["trace.overhead_ratio"] = median(traced) / median(walls) - 1
    table = tracer.self_time_table(run_ids)
    for name in workload.spans:
        if name not in table:
            tally.problems.append(f"traced run produced no {name!r} span")
    accounted = sum(row["self_s"] for row in table.values())
    print(f"traced wall_s {values['trace.wall_s']:.4f}, "
          f"sum of span self times {accounted:.4f}")
    print(f"{'span':<38}{'calls':>8}{'total_s':>11}{'self_s':>11}")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:<38}{row['calls']:>8g}{row['total_s']:>11.4f}{row['self_s']:>11.4f}")
    WORK.mkdir(exist_ok=True)
    (WORK / f"trace-{workload.name}-seed{seed}.json").write_text(
        json.dumps({"workload": workload.name, "seed": seed, "self_times": table,
                    **tracer.to_json()}) + "\n")
    return {name: _metric(values[name], tracing.LAYER_METRICS[name][0])
            for name in tracing.LAYER_METRICS}


def run_one(args) -> int:
    if not (SRC / "gradedlie" / "cli.py").is_file():
        print(f"error: no gradedlie sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from gradedlie import cli

    workload = WORKLOADS[args.workload]
    print("machine:", json.dumps(machine_info(), sort_keys=True))
    inputs = make_inputs(workload, args.seed)
    tally = Tally(workload, inputs)
    try:
        if args.trace:
            metrics = traced_metrics(cli, workload, inputs, args.seconds, tally, args.seed)
        else:
            metrics = plain_metrics(cli, workload, inputs, args.seconds, tally)
    finally:
        if inputs.relabelled:
            Path(inputs.algebra_ref).unlink(missing_ok=True)

    for problem in tally.problems:
        print("FAILED:", problem)
    print(f"workload {workload.name} seed {args.seed}: failed_ratio "
          f"{tally.failed / tally.attempted} ({tally.failed} of {tally.attempted})")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; metrics named WORKLOAD.METRIC."""
    results = {}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"error: workload {name} exited with {done.returncode}", file=sys.stderr)
            return done.returncode
        results[name] = json.loads(done.stdout.splitlines()[-1])
        print(done.stdout.splitlines()[-2])  # the failed_ratio line
        for metric, value in results[name]["metrics"].items():
            print(f"  {metric:<28} {value['value']:.6g} {value['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value for name, r in results.items()
                    for metric, value in r["metrics"].items()}}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
