"""One benchmark run of one workload, in a fresh interpreter.

Started by ``run.py``; prints one JSON object with the pass timings, the
operation counts and, when traced, the per-layer figures.  Every pass is
a whole round of the workload's CLI commands, called in-process through
``powermarket.cli.main``; the next pass starts when the previous one and
its (untimed) output checks have ended.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import inputs  # noqa: E402
import powermarket  # noqa: E402
import powermarket.cli  # noqa: E402
import spans  # noqa: E402

# Horizon of the small instance each run first passes through every
# command, so that lazy imports and first-call set-up are not timed.
WARMUP_HOURS = 48
# Timed passes per run at the least, so that pass_s is a median of several
# passes even where one pass outlasts --seconds.
MIN_PASSES = 2


def write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class Op:
    """Outcome of one operation: a CLI command or one sweep point.

    ``ran`` is false when the command exited nonzero or raised; ``verdicts``
    lists theorem checks that did not pass; ``problems`` lists failed
    output checks.  An operation fails on any of the three; a problem in
    an operation that ran with every verdict 'pass' is a wrong result.
    """

    def __init__(self, label, ran, verdicts=(), problems=()):
        self.label, self.ran = label, ran
        self.verdicts, self.problems = list(verdicts), list(problems)

    def reasons(self) -> str:
        return "; ".join((["nonzero exit"] if not self.ran else [])
                         + self.verdicts + self.problems)

    @property
    def failed(self) -> bool:
        return not self.ran or bool(self.verdicts or self.problems)

    @property
    def wrong(self) -> bool:
        return self.ran and not self.verdicts and bool(self.problems)


class AnnualCap:
    """`solve --emit-lp`, then `solve --external-solution` on its .sol."""

    name = "annual_cap"

    def prepare(self, where: Path, seed: int, hours=None):
        self.doc = inputs.annual_cap(seed, hours or inputs.ANNUAL_HOURS)
        self.scenario = write_json(where / "annual_cap.json", self.doc)

    def commands(self, out: Path, traced: bool = False) -> list:
        return [
            ["solve", self.scenario, "--out-dir", str(out / "inproc"), "--emit-lp"],
            ["solve", self.scenario, "--out-dir", str(out / "external"),
             "--external-solution", str(out / "inproc" / "annual_cap.sol")],
        ]

    def check(self, out: Path, rcs: list) -> list:
        inproc, external = out / "inproc", out / "external"
        ops = [Op("solve --emit-lp", rcs[0] == 0),
               Op("solve --external-solution", rcs[1] == 0)]
        if ops[0].ran:
            ops[0].verdicts = checks.verdict_problems(
                inproc / "annual_cap.verification.json")
            ops[0].problems = checks.annual_cap(
                self.doc, inproc / "annual_cap.sol", inproc / "annual_cap.metrics.json")
        if ops[1].ran:
            ops[1].verdicts = checks.verdict_problems(
                external / "annual_cap.verification.json")
            if ((inproc / "annual_cap.metrics.json").read_bytes()
                    != (external / "annual_cap.metrics.json").read_bytes()):
                ops[1].problems.append("metrics JSON differs from the in-process solve")
        return ops


class MeshStorageVerify:
    """`solve`, `solve --external-solution` on that .sol, then `verify`."""

    name = "mesh_storage_verify"

    def prepare(self, where: Path, seed: int, hours=None):
        self.doc = inputs.mesh_storage(hours or inputs.MESH_HOURS)
        self.scenario = write_json(where / "mesh_storage_verify.json", self.doc)

    def commands(self, out: Path, traced: bool = False) -> list:
        return [
            ["solve", self.scenario, "--out-dir", str(out / "inproc")],
            ["solve", self.scenario, "--out-dir", str(out / "external"),
             "--external-solution", str(out / "inproc" / f"{self.name}.sol")],
            ["verify", self.scenario, "--out-dir", str(out / "verify")],
        ]

    def check(self, out: Path, rcs: list) -> list:
        stem = self.name
        inproc = out / "inproc"
        ops = [Op("solve", rcs[0] == 0),
               Op("solve --external-solution", rcs[1] == 0),
               Op("verify", rcs[2] == 0)]
        if ops[0].ran:
            ops[0].verdicts = checks.verdict_problems(inproc / f"{stem}.verification.json")
            ops[0].problems = checks.mesh_storage(self.doc, inproc / f"{stem}.sol")
        if ops[1].ran:
            external = out / "external"
            ops[1].verdicts = checks.verdict_problems(external / f"{stem}.verification.json")
            if ((inproc / f"{stem}.metrics.json").read_bytes()
                    != (external / f"{stem}.metrics.json").read_bytes()):
                ops[1].problems.append("metrics JSON differs from the in-process solve")
        if ops[2].ran:
            ops[2].verdicts = checks.verdict_problems(
                out / "verify" / f"{stem}.verification.json",
                expected=checks.mesh_expected_checks(self.doc))
        return ops


class PolicySweeps:
    """`sweep` along the quota axis and along the CO2-intensity axis.

    Timed passes run at --jobs min(2, nproc); traced passes at --jobs 1.
    Every sweep CSV must be byte-identical to the first one written in
    the run, so a traced run compares --jobs 1 against --jobs 2.
    """

    name = "policy_sweeps"

    def prepare(self, where: Path, seed: int, hours=None):
        scenario = write_json(where / "sweep_base.json",
                              inputs.sweep_system(seed, hours or inputs.SWEEP_HOURS))
        self.plans = inputs.sweep_plans(os.path.basename(scenario))
        self.plan_files = [write_json(where / f"{p['name']}.json", p) for p in self.plans]
        self.jobs = min(2, os.cpu_count() or 1)
        self.reference = {}

    def commands(self, out: Path, traced: bool = False) -> list:
        jobs = 1 if traced else self.jobs
        return [["sweep", plan, "--out-dir", str(out), "--jobs", str(jobs)]
                for plan in self.plan_files]

    def check(self, out: Path, rcs: list) -> list:
        ops = []
        for plan in self.plans:
            path = out / f"{plan['name']}.csv"
            labels = [f"{plan['name']}={v}" for v in plan["values"]]
            if not path.exists():
                ops += [Op(label, False) for label in labels]
                continue
            data = path.read_bytes()
            same = self.reference.setdefault(plan["name"], data) == data
            for label, (verdicts, problems) in zip(labels, checks.sweep_points(plan, path)):
                if not same:
                    problems.append("sweep CSV differs from the first one of this run")
                ops.append(Op(label, True, verdicts, problems))
        return ops


WORKLOADS = {w.name: w for w in (AnnualCap, MeshStorageVerify, PolicySweeps)}


def run_command(argv: list, log: list):
    """Run one CLI command in-process; returns its exit code."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = powermarket.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # a crash is one failed operation, not the end of the run
        rc = "exception"
        err.write(traceback.format_exc())
    if rc != 0:
        log.append(f"{argv[0]}: exit {rc}: {err.getvalue().strip()}")
    return rc


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run_pass(commands: list, out: Path, log: list, tracer=None) -> tuple:
    """Wall and CPU seconds and exit codes of one pass over ``commands``."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    gc.collect()
    rcs = []
    cpu0, t0 = cpu_seconds(), perf_counter()
    for argv in commands:
        if tracer is None:
            rcs.append(run_command(argv, log))
        else:
            with tracer.span(f"cli.{argv[0]}"):
                rcs.append(run_command(argv, log))
    wall, cpu = perf_counter() - t0, cpu_seconds() - cpu0
    return wall, cpu, rcs


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    out = Path(args.out)
    work = WORKLOADS[args.workload]()
    warm = out / "warmup"
    warm.mkdir(parents=True)
    work.prepare(warm, args.seed, WARMUP_HOURS)
    run_pass(work.commands(warm / "out"), warm / "out", [])
    work.prepare(out, args.seed)

    ops, log = [], []
    walls, cpus = [], []
    while len(walls) < MIN_PASSES or sum(walls) < args.seconds:
        wall, cpu, rcs = run_pass(work.commands(out / "pass"), out / "pass", log)
        walls.append(wall)
        cpus.append(cpu)
        ops += work.check(out / "pass", rcs)
        print(f"{args.workload}: pass {len(walls)} {wall:.3f} s", file=sys.stderr)

    result = {"pass_s": statistics.median(walls), "pass_cpu_s": statistics.median(cpus)}
    if args.trace:
        # the untraced pass of the traced configuration, just before it
        ref, _, rcs = run_pass(work.commands(out / "pass", traced=True), out / "pass", log)
        ops += work.check(out / "pass", rcs)
        tracer = spans.Tracer()
        tracer.install(powermarket)
        try:
            traced, _, rcs = run_pass(work.commands(out / "pass", traced=True),
                                      out / "pass", log, tracer)
        finally:
            tracer.uninstall()
        ops += work.check(out / "pass", rcs)
        layers = spans.layer_metrics(tracer.spans, traced)
        jobs = getattr(work, "jobs", 0)  # worker processes of a sweep
        layers["sweep.jobs"] = jobs
        layers["sweep.timed_wall_s"] = result["pass_s"] if jobs else 0.0
        layers["sweep.parallel_efficiency"] = (
            layers["sweep.serial_s"] / (jobs * result["pass_s"]) if jobs else 0.0)
        layers["trace.pass_s"] = traced
        layers["trace.overhead_s"] = traced - ref
        tracer.write(out / "spans.json")
        result["layers"] = layers

    # ru_maxrss is in KiB; for children it is that of the largest one
    peak_kib = sum(resource.getrusage(who).ru_maxrss
                   for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    result["peak_rss_mb"] = peak_kib / 1024
    result["attempted"] = len(ops)
    result["failed"] = sum(op.failed for op in ops)
    result["correct"] = not any(op.wrong for op in ops)
    failures = [f"failed: {op.label}: {op.reasons()}" for op in ops if op.failed]
    for line in dict.fromkeys(failures + log):
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
