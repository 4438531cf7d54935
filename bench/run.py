"""Pipeline benchmark of powermarket: one closed-loop client driving the CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py [--seed N] [--seconds S] [--trace 0|1]

The first form runs one workload; without --workload every workload runs
in turn.  Run it from the root of a source checkout: the package is
imported from ./src, nothing is installed.  Each workload runs in a fresh
worker interpreter (worker.py) that generates its inputs from the seed,
calls ``powermarket.cli.main`` in-process pass after pass for --seconds
seconds and checks every output.  The last line of standard output is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with --trace 0, the per-layer metrics of one
traced pass with --trace 1.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = ROOT / ".bench_runs"
WORKLOADS = ("annual_cap", "mesh_storage_verify", "policy_sweeps")
END_TO_END = {"setup_s": "s", "pass_s": "s", "pass_cpu_s": "s", "peak_rss_mb": "MB"}
# Timed interpreter launches per run for setup_s, after one untimed launch
# that leaves the bytecode caches written.
SETUP_LAUNCHES = 5
# A run must end within 180 s; the worker gets what set-up leaves of it.
WORKER_TIMEOUT_S = 160


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("efficiency"):
        return "ratio"
    return "count"


def package_env() -> dict:
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def setup_seconds() -> float:
    """Median wall time of a fresh interpreter that imports powermarket.cli."""
    argv = [sys.executable, "-c", "import powermarket.cli"]
    env = package_env()
    subprocess.run(argv, env=env, cwd=ROOT, check=True)
    times = []
    for _ in range(SETUP_LAUNCHES):
        t0 = perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    out = RUNS / f"{name}-s{seed}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    try:
        setup = setup_seconds()
        argv = [sys.executable, str(BENCH / "worker.py"), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(trace), "--out", str(out)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S, check=True)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        if trace:
            kept = RUNS / f"spans-{name}-s{seed}.json"
            os.replace(out / "spans.json", kept)
            print(f"{name}: spans written to {kept.relative_to(ROOT)}")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in sorted(res["layers"].items())}
    else:
        values = {"setup_s": setup, "pass_s": res["pass_s"],
                  "pass_cpu_s": res["pass_cpu_s"], "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def describe(name: str, result: dict) -> str:
    figures = "\n".join(f"  {k:28s} {m['value']:14.6g} {m['unit']}"
                        for k, m in result["metrics"].items())
    return (f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
            f"correct {result['correct']}\n{figures}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: every workload)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="timed seconds per run; whole passes are run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "powermarket" / "cli.py").is_file():
        print(f"error: no powermarket sources under {ROOT / 'src'}; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    RUNS.mkdir(exist_ok=True)

    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        except (subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
        print(describe(name, results[name]))
    if args.workload:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": results}))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
