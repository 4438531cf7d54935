"""Steadiness of the end-to-end metrics across full benchmark runs.

    python3 bench/steady.py [--runs 10] [--first-seed 1] [--seconds 10]
                            [--workload NAME ...]

Runs ``run.py`` --runs times per workload, each time with the next seed
and in a fresh process, and prints for every end-to-end metric the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
distance between the quartiles as a share of the median.  The bounds in
BENCHMARK.json are set from this output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import BENCH, ROOT, WORKLOADS


def one_run(workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")

    all_correct = True
    for workload in args.workload or WORKLOADS:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            runs.append(one_run(workload, seed, args.seconds))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {m['value']:.4g}" for k, m in runs[-1]["metrics"].items()),
                file=sys.stderr, flush=True)
        figures = {name: summary([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        correct = all(r["correct"] for r in runs)
        all_correct = all_correct and correct
        print(f"{workload}: {args.runs} runs, failed share {shares}, correct {correct}")
        for name, f in figures.items():
            unit = runs[0]["metrics"][name]["unit"]
            print(f"  {name:12s} median {f['median']:10.4f} {unit:3s} "
                  f"q1 {f['q1']:10.4f}  q3 {f['q3']:10.4f}  spread {f['spread']:.3f}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
