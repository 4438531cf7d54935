"""Spans around the calls from one powermarket module into another.

The package is not edited: a ``Tracer`` replaces the names that
``powermarket.cli``, ``powermarket.sweep`` and ``powermarket.verify`` bind
to their neighbours' public functions with timing wrappers, and puts the
originals back afterwards.  Each module's binding is wrapped separately,
so nested work (the equivalence checks' own builds and solves, say) is
attributed to the layer that does it.  Spans are kept in memory and
written out as JSON when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
from time import perf_counter

# A span's layer is the part of its name before the first dot.
LAYERS = ("scenario", "formulate", "solve", "metrics", "verify", "sweep", "cli")

MB = 2 ** 20


def _lp_size(span, args, kwargs, lp):
    span["rows"] = len(lp.rows)
    span["cols"] = len(lp.columns)
    span["nnz"] = len(lp.entries)


def _solution(span, args, kwargs, sol):
    span["highs_s"] = sol.wall_time
    span["iterations"] = sol.iterations
    span["status"] = sol.status


def _file_size(span, args, kwargs, result):
    span["bytes"] = os.path.getsize(args[1])


def _check_count(span, args, kwargs, result):
    span["checks"] = len(result) if isinstance(result, list) else 1


# (module, attribute, span name, hook run on the result after the span ends)
BINDINGS = (
    ("cli", "load_scenario", "scenario.load", None),
    ("cli", "load_plan", "scenario.load_plan", None),
    ("cli", "build_lp", "formulate.build", _lp_size),
    ("cli", "write_mps", "formulate.write_mps", _file_size),
    ("cli", "solve", "solve.solve", _solution),
    ("cli", "solve_external", "solve.read_external", None),
    ("cli", "write_solution_file", "solve.write_sol", None),
    ("cli", "build_report", "metrics.report", None),
    ("cli", "report_to_json", "metrics.write", None),
    ("cli", "write_report_csv", "metrics.write", None),
    ("cli", "verify_solution", "verify.solution", _check_count),
    ("cli", "check_cap_tax_equivalence", "verify.cap_tax", _check_count),
    ("cli", "check_subsidy_tax_lift", "verify.subsidy_lift", _check_count),
    ("cli", "verify_report_json", "verify.write", None),
    ("cli", "run_sweep", "sweep.run", None),
    ("cli", "write_sweep_csv", "sweep.write", None),
    ("cli", "sweep_manifest", "sweep.write", None),
    ("verify", "build_lp", "formulate.build", _lp_size),
    ("verify", "solve", "solve.solve", _solution),
    ("verify", "apply_equivalence_substitution", "formulate.substitution", None),
    ("sweep", "build_lp", "formulate.build", _lp_size),
    ("sweep", "solve", "solve.solve", _solution),
    ("sweep", "build_report", "metrics.report", None),
    ("sweep", "verify_solution", "verify.solution", _check_count),
    ("sweep", "penetration_of", "metrics.penetration", None),
    # one span per sweep point; points run in this process at --jobs 1
    ("sweep", "_solve_point", "sweep.point", None),
)


class Tracer:
    """Records spans (name, start, end, parent) while installed."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []

    @contextlib.contextmanager
    def span(self, name: str):
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "start": perf_counter()}
        self.spans.append(span)
        self._stack.append(span["id"])
        try:
            yield span
        finally:
            span["end"] = perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(span, args, kwargs, result)
            return result
        return traced

    def install(self, package) -> None:
        for module_name, attr, name, hook in BINDINGS:
            module = getattr(package, module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, hook))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh, indent=1)


def self_times(spans: list) -> dict:
    """Layer -> summed self time: each span's duration minus the part of
    its interval its children cover."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out = {layer: 0.0 for layer in LAYERS}
    for s, covered in zip(spans, child_time):
        out[s["name"].split(".")[0]] += s["end"] - s["start"] - covered
    return out


def layer_metrics(spans: list, pass_s: float) -> dict:
    """Per-layer figures of one traced pass of ``pass_s`` seconds.

    The benchmark opens one ``cli.<command>`` span per command, so the
    self times of all layers add up to the command spans; ``cli.self_s``
    also takes the benchmark's own time between commands, so the self
    times account for the whole traced pass.
    """
    def dur(s):
        return s["end"] - s["start"]

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def total(*names):
        return sum(dur(s) for s in named(*names))

    builds = named("formulate.build")
    solves = named("solve.solve")
    points = [dur(s) for s in named("sweep.point")]
    highs = sum(s["highs_s"] for s in solves)
    selfs = self_times(spans)
    out = {
        "scenario.load_s": total("scenario.load", "scenario.load_plan"),
        "formulate.build_s": total("formulate.build"),
        "formulate.build_calls": len(builds),
        "formulate.rows": sum(s["rows"] for s in builds),
        "formulate.cols": sum(s["cols"] for s in builds),
        "formulate.nnz": sum(s["nnz"] for s in builds),
        "formulate.write_mps_s": total("formulate.write_mps"),
        "formulate.mps_mb": sum(s["bytes"] for s in named("formulate.write_mps")) / MB,
        "formulate.substitution_s": total("formulate.substitution"),
        "solve.calls": len(solves),
        "solve.iterations": sum(s["iterations"] for s in solves),
        "solve.highs_s": highs,
        "solve.overhead_s": total("solve.solve") - highs,
        "solve.write_sol_s": total("solve.write_sol"),
        "solve.read_external_s": total("solve.read_external"),
        "metrics.report_s": total("metrics.report"),
        "metrics.write_s": total("metrics.write"),
        "verify.solution_s": total("verify.solution"),
        "verify.cap_tax_s": total("verify.cap_tax"),
        "verify.checks": sum(s["checks"] for s in named(
            "verify.solution", "verify.cap_tax", "verify.subsidy_lift")),
        "sweep.points": len(points),
        "sweep.point_s": statistics.median(points) if points else 0.0,
        "sweep.serial_s": sum(points),
        "sweep.write_s": total("sweep.write"),
    }
    inner = [layer for layer in LAYERS if layer != "cli"]
    for layer in inner:
        out[f"{layer}.self_s"] = selfs[layer]
    out["cli.self_s"] = pass_s - sum(selfs[layer] for layer in inner)
    out["trace.spans"] = len(spans)
    return out
