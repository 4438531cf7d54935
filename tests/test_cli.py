import dataclasses
import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile
from functools import cached_property, reduce
from operator import getitem

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import powermarket.cli
import powermarket.metrics
import powermarket.scenario
import powermarket.verify
from powermarket.cli import main
from powermarket.formulate import build_lp
from powermarket.metrics import Ledger, build_report
from powermarket.model import (
    Co2Cap,
    Co2Tax,
    FixedFip,
    LineSpec,
    PolicyConfig,
    PowerSystem,
    StorageSpec,
    SupportDispatched,
    TechnologySpec,
    tech_key,
    validate,
)
from powermarket.scenario import (
    MAX_SNAPSHOTS,
    ScenarioError,
    load_plan,
    load_scenario,
    serialize_scenario,
)
from powermarket.solve import Solution, SolveError, load_highs, solve, status_of
from powermarket.verify import check_zero_profit

from conftest import BUNDLED_SCENARIOS, assert_highs_reads, gate_document, scenario_path


def exit_code(argv) -> int:
    """Exit code of a CLI call, whether it returns or raises SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestValidate:
    def test_good_scenario(self, capsys):
        assert main(["validate", scenario_path("fig1_no_policy.json")]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_missing_file(self):
        with pytest.raises(SystemExit) as err:
            main(["validate", "/nonexistent.json"])
        assert err.value.code == 1


class TestSolve:
    def test_bundled_scenario_exit_zero(self, tmp_path):
        rc = main(["solve", scenario_path("fig1_no_policy.json"),
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        produced = set(os.listdir(tmp_path))
        assert {"fig1_no_policy.sol", "fig1_no_policy.metrics.json",
                "fig1_no_policy.metrics.csv",
                "fig1_no_policy.verification.json"} <= produced

    def test_emit_lp_is_reparseable(self, tmp_path):
        scen = scenario_path("fig1_no_policy.json")
        rc = main(["solve", scen, "--out-dir", str(tmp_path), "--emit-lp"])
        assert rc == 0
        system, policy, _ = load_scenario(scen)
        assert_highs_reads(tmp_path / "fig1_no_policy.mps", build_lp(system, policy))

    def test_malformed_json_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"nodes": [}')
        with pytest.raises(SystemExit) as err:
            main(["solve", str(bad), "--out-dir", str(tmp_path)])
        assert err.value.code == 1
        assert "line" in capsys.readouterr().err

    def test_infeasible_exit_three(self, tmp_path):
        doc = {
            "name": "dark", "snapshots": 2, "nodes": ["N"],
            "demand": {"N": [1.0, 1.0]},
            "technologies": [{"node": "N", "name": "solar", "capex": 1.0,
                              "availability": [0.0, 1.0]}],
            "options": {"voll": None},
        }
        scen = tmp_path / "dark.json"
        scen.write_text(json.dumps(doc))
        assert main(["solve", str(scen), "--out-dir", str(tmp_path)]) == 3

    @pytest.mark.parametrize("availability, code, stream, text", [
        (1e-8, 0, "out", "objective 10.0,"),
        (1e-10, 1, "err", "error: weak@N: nonzero within ±1e-09 (availability holds 1e-10)"),
    ], ids=["solved", "rejected"])
    def test_a_coefficient_highs_would_drop_is_rejected(self, tmp_path, capsys, availability,
                                                        code, stream, text):
        # the optimum is 10 at every availability a: 1/a MW of the weak unit
        # at 10·a each; HiGHS drops a matrix entry of 1e-9 or less and would
        # serve the demand from gas at 60
        doc = {
            "name": "weak", "snapshots": 1, "nodes": ["N"], "demand": {"N": [1.0]},
            "technologies": [
                {"node": "N", "name": "weak", "capex": 10.0 * availability,
                 "lifetime": 1.0, "availability": [availability]},
                {"node": "N", "name": "gas", "capex": 10.0, "lifetime": 1.0,
                 "variable_cost": 50.0}],
            "options": {"voll": 1000.0, "discount_rate": 0.0},
        }
        scen = tmp_path / "weak.json"
        scen.write_text(json.dumps(doc))
        assert exit_code(["solve", str(scen), "--out-dir", str(tmp_path)]) == code
        output = getattr(capsys.readouterr(), stream)
        assert text in output and output.count("\n") == 1

    def test_solver_failure_is_not_called_infeasible(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(powermarket.cli, "solve", lambda lp: Solution(
            lp, status="numerical", message="numerical trouble"))
        scen = scenario_path("fig1_no_policy.json")
        assert main(["solve", scen, "--out-dir", str(tmp_path)]) == 4
        assert main(["verify", scen, "--out-dir", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert "numerical" in err and "infeasible" not in err

    @pytest.mark.parametrize("member, code", [
        ("kInfeasible", 3), ("kUnbounded", 3), ("kUnboundedOrInfeasible", 3),
        ("kIterationLimit", 4), ("kTimeLimit", 4), ("kSolveError", 4)])
    def test_exit_code_of_each_highs_status(self, tmp_path, monkeypatch, member, code):
        status = status_of(load_highs().HighsModelStatus.__members__[member])
        monkeypatch.setattr(powermarket.cli, "solve",
                            lambda lp: Solution(lp, status=status))
        scen = scenario_path("fig1_no_policy.json")
        assert main(["solve", scen, "--out-dir", str(tmp_path)]) == code
        assert main(["verify", scen, "--out-dir", str(tmp_path)]) == code

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_solve_error_is_one_error_line(self, tmp_path, monkeypatch, capsys, command):
        # validate keeps every LP within HiGHS' limits, so the rejection that
        # test_solve.py's NAN_RHS_PROBE gets from HiGHS is raised here
        def rejected(lp):
            raise SolveError("HiGHS passModel returned an error")
        monkeypatch.setattr(powermarket.cli, "solve", rejected)
        path = scenario_path("wind_gas_168h.json")
        assert main([command, path, "--out-dir", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert err == "error: HiGHS passModel returned an error\n"

    def test_external_solution_round_trip(self, tmp_path):
        scen = scenario_path("fig1_no_policy.json")
        assert main(["solve", scen, "--out-dir", str(tmp_path)]) == 0
        rc = main(["solve", scen, "--out-dir", str(tmp_path),
                   "--external-solution",
                   str(tmp_path / "fig1_no_policy.sol")])
        assert rc == 0

    @staticmethod
    def written_solution(tmp_path) -> list:
        """Lines of the solution file that solving fig1_no_policy writes."""
        assert main(["solve", scenario_path("fig1_no_policy.json"),
                     "--out-dir", str(tmp_path)]) == 0
        return (tmp_path / "fig1_no_policy.sol").read_text().splitlines()

    @staticmethod
    def read_back(tmp_path, lines) -> tuple:
        """Write ``lines`` as a solution file and solve fig1_no_policy from
        it: (path of the file, exit code)."""
        path = tmp_path / "external.sol"
        path.write_text("\n".join(lines) + "\n")
        return path, exit_code(["solve", scenario_path("fig1_no_policy.json"),
                                "--out-dir", str(tmp_path / "out"),
                                "--external-solution", str(path)])

    def test_each_kkt_row_has_its_own_verdict(self, tmp_path, capsys):
        # without its objective record, which would no longer be c·x
        lines = ["col G.coal@DE 999.0" if line.startswith("col G.coal@DE ") else line
                 for line in self.written_solution(tmp_path)
                 if not line.startswith("objective ")]
        assert self.read_back(tmp_path, lines)[1] == 2
        failed = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("check failed: kkt ")]
        assert [line.split()[3] for line in failed] == ["complementarity"]

    @pytest.mark.parametrize("kind, extra", [
        ("status", "now"), ("objective", "junk"), ("col", "7.0"), ("row", "0.0")])
    def test_record_with_an_extra_field_is_one_error_line(self, tmp_path, capsys,
                                                          kind, extra):
        lines = self.written_solution(tmp_path)
        at = next(i for i, line in enumerate(lines) if line.startswith(f"{kind} "))
        lines[at] += f" {extra}"
        path, code = self.read_back(tmp_path, lines)
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {path}, line {at + 1}: '{kind}' record has an extra field "
            f"'{extra}'\n")

    @pytest.mark.parametrize("record, value, message", [
        ("col G.coal@DE", "nan", "'nan' is not a finite number"),
        ("col G.coal@DE", "inf", "'inf' is not a finite number"),
        ("objective", "nan", "'nan' is not a finite number"),
        ("objective", "1.0", "objective 1.0 differs from the columns' c·x ")],
        ids=["col-nan", "col-inf", "objective-nan", "objective-off"])
    def test_bad_number_is_one_error_line(self, tmp_path, capsys, record, value, message):
        lines = self.written_solution(tmp_path)
        at = next(i for i, line in enumerate(lines) if line.startswith(f"{record} "))
        lines[at] = f"{record} {value}"
        path, code = self.read_back(tmp_path, lines)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}, line {at + 1}: {message}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("record, what", [
        ("status optimal", "'status'"), ("objective 1.0", "'objective'"),
        ("col G.coal@DE 999.0", "column 'G.coal@DE'"),
        ("row balance.DE.t0 0.0", "row 'balance.DE.t0'")])
    def test_repeated_record_is_one_error_line(self, tmp_path, capsys, record, what):
        lines = self.written_solution(tmp_path) + [record]
        path, code = self.read_back(tmp_path, lines)
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {path}, line {len(lines)}: second record of {what}\n")

    def test_unknown_record_is_one_error_line(self, tmp_path, capsys):
        lines = self.written_solution(tmp_path)
        lines.insert(1, "foo 1.0")
        path, code = self.read_back(tmp_path, lines)
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {path}, line 2: unknown record 'foo' in solution file\n")

    @pytest.mark.parametrize("dropped, message", [
        ("col G.coal@DE ", "misses columns, e.g. 'G.coal@DE'"),
        ("row balance.DE.t0 ", "misses rows, e.g. 'balance.DE.t0'"),
        ("row ", "has no dual section; unusable for theorem checks")],
        ids=["one-col", "one-row", "every-row"])
    def test_missing_records_are_one_error_line(self, tmp_path, capsys, dropped, message):
        lines = [line for line in self.written_solution(tmp_path)
                 if not line.startswith(dropped)]
        path, code = self.read_back(tmp_path, lines)
        assert code == 1
        assert capsys.readouterr().err == f"error: {path}: solution file {message}\n"

    @pytest.mark.parametrize("status, code", [("infeasible", 3), ("numerical", 4)])
    def test_status_read_from_a_file_names_it(self, tmp_path, capsys, status, code):
        path = tmp_path / "external.sol"
        path.write_text(f"status {status}\n")
        assert main(["solve", scenario_path("fig1_no_policy.json"), "--out-dir",
                     str(tmp_path), "--external-solution", str(path)]) == code
        assert capsys.readouterr().err.endswith(f": status read from {path}\n")

    def test_env_var_sets_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("POWERMARKET_OUT_DIR", str(tmp_path / "envout"))
        assert main(["solve", scenario_path("fig1_no_policy.json")]) == 0
        assert (tmp_path / "envout" / "fig1_no_policy.sol").exists()

    @pytest.mark.parametrize("command, source", [
        ("solve", "wind_gas_168h.json"), ("emit-lp", "wind_gas_168h.json"),
        ("verify", "wind_gas_168h.json"), ("sweep", "support_sweep.json")])
    def test_unusable_out_dir_is_one_error_line(self, tmp_path, capsys, command, source):
        taken = tmp_path / "taken"
        taken.write_text("")
        # an existing file, and a path below one
        for out in (taken, taken / "below"):
            assert exit_code([command, scenario_path(source), "--out-dir", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: cannot create output directory '{out}': ")
            assert err.count("\n") == 1


class TestBadInput:
    @pytest.mark.parametrize("command, content, expected", [
        ("solve", "status optimal\ncol G.solar@DE\n", "line 2"),
        ("solve", "status\n", "line 1"),
        ("solve", "status optimall\n", "line 1: unknown status 'optimall'"),
        ("solve", "status optimal\ncol G.solar@DE abc\n", "line 2: 'abc' is not a number"),
        ("solve", b"status optimal\n\xff\n", "not UTF-8"),
        ("validate", b"\xff\xfe{}", "not UTF-8"),
        ("solve", None, ""),
        ("validate", None, ""),
        ("sweep", None, ""),
    ], ids=["record-without-value", "bare-status", "unknown-status", "value-not-a-number",
            "solution-not-utf8", "scenario-not-utf8",
            "solution-path-is-a-directory", "scenario-path-is-a-directory",
            "plan-path-is-a-directory"])
    def test_exit_one_with_an_error_line(self, tmp_path, capsys, command, content,
                                         expected):
        bad = tmp_path / "bad"
        if content is None:
            bad.mkdir()
        elif isinstance(content, bytes):
            bad.write_bytes(content)
        else:
            bad.write_text(content)
        out = str(tmp_path / "out")
        argv = {"solve": ["solve", scenario_path("fig1_no_policy.json"), "--out-dir", out,
                          "--external-solution", str(bad)],
                "validate": ["validate", str(bad)],
                "sweep": ["sweep", str(bad), "--out-dir", out]}[command]
        assert exit_code(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{bad}" in err and expected in err


# Runs in a fresh interpreter; prints which scipy modules each step loaded.
STARTUP_PROBE = """
import json, sys
from powermarket.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

scenario, solution, out = sys.argv[1:]
for argv in (["validate", scenario], ["emit-lp", scenario, "--out-dir", out],
             ["solve", scenario, "--out-dir", out, "--external-solution", solution]):
    assert main(argv) == 0, argv
before_solve = scipy_modules()
assert main(["solve", scenario, "--out-dir", out]) == 0
print(json.dumps({"before_solve": before_solve, "after_solve": scipy_modules()}))
"""

# Runs in a fresh interpreter: loads HiGHS and scipy's LP front end in the
# order given, then solves one LP with each.
IMPORT_ORDER_PROBE = """
import json, sys
from powermarket.solve import load_highs

def front_end():
    from scipy.optimize import linprog
    return linprog

if sys.argv[1] == "highs-first":
    core = load_highs()
    linprog = front_end()
else:
    linprog = front_end()
    core = load_highs()
result = linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-3.0], method="highs-ds")
print(json.dumps({"status": result.status, "x": result.x.tolist(),
                  "same_module": sys.modules["scipy.optimize._highspy._core"] is core,
                  "load_highs_again": load_highs() is core}))
"""

# Runs in a fresh interpreter: scipy is found in an empty directory.
MISSING_EXTENSION_PROBE = """
import contextlib, importlib.machinery, importlib.util, io, json, sys
from powermarket.cli import main
from powermarket.solve import SolveError, load_highs

find_spec = importlib.util.find_spec

def scipy_in_empty_dir(name, package=None):
    if name != "scipy":
        return find_spec(name, package)
    spec = importlib.machinery.ModuleSpec(name, None, is_package=True)
    spec.submodule_search_locations = [sys.argv[1]]
    return spec

importlib.util.find_spec = scipy_in_empty_dir
try:
    load_highs()
    error = None
except SolveError as exc:
    error = str(exc)
stderr = io.StringIO()
with contextlib.redirect_stderr(stderr):
    code = main(["solve", sys.argv[2], "--out-dir", sys.argv[1]])
print(json.dumps({"error": error, "solve": [code, stderr.getvalue()],
                  "loaded": "scipy.optimize._highspy._core" in sys.modules}))
"""

def fresh(*args) -> subprocess.CompletedProcess:
    """Run the interpreter with ``args`` in a new process that imports this
    powermarket."""
    src = os.path.dirname(os.path.dirname(powermarket.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def run_fresh(code: str, *args) -> dict:
    """Run ``code`` in a new interpreter; returns the JSON of its last line."""
    proc = fresh("-c", code, *args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TestStartup:
    def test_only_solving_commands_load_the_solver(self, tmp_path):
        scen = scenario_path("fig1_co2_cap.json")
        assert main(["solve", scen, "--out-dir", str(tmp_path)]) == 0
        probe = run_fresh(STARTUP_PROBE, scen, str(tmp_path / "fig1_co2_cap.sol"),
                          str(tmp_path / "fresh"))
        # a solve loads HiGHS' extension module alone, not scipy.optimize
        core = "scipy.optimize._highspy._core"
        assert probe == {"before_solve": [], "after_solve": [
            core, f"{core}.cb", f"{core}.simplex_constants"]}
        assert "scipy.optimize" not in probe["after_solve"]

    @pytest.mark.parametrize("order", ["highs-first", "scipy-first"])
    def test_highs_and_scipy_optimize_share_one_module(self, order):
        probe = run_fresh(IMPORT_ORDER_PROBE, order)
        assert probe == {"status": 0, "x": [3.0, 0.0], "same_module": True,
                         "load_highs_again": True}

    def test_missing_extension_is_a_solve_error(self, tmp_path):
        probe = run_fresh(MISSING_EXTENSION_PROBE, str(tmp_path),
                          scenario_path("fig1_no_policy.json"))
        assert "scipy >= 1.15" in probe["error"] and str(tmp_path) in probe["error"]
        # the CLI reports it as a solver failure in one error line
        assert probe["solve"] == [4, f"error: {probe['error']}\n"]
        assert probe["loaded"] is False


def every_number_set():
    """Two nodes with a fuelled unit, wind, a battery, an expandable line
    and a fixed one with a reverse capacity, every number field set on one
    of them, and no violation."""
    gas = TechnologySpec(name="gas", capex=500.0, lifetime=20.0, fixed_om=5.0,
                         variable_cost=1.0, fuel_cost=20.0, efficiency=0.5,
                         emission_factor=0.4, max_potential=100.0)
    wind = TechnologySpec(name="wind", capex=900.0, availability=(0.5, 0.2))
    battery = StorageSpec(name="battery", capex_discharge=10.0, capex_charge=5.0,
                          capex_energy=2.0, lifetime=15.0, eta_discharge=0.9,
                          eta_charge=0.9, eta_standing=0.99,
                          fixed_energy_power_ratio=4.0)
    lines = (LineSpec("A", "B", existing_capacity=10.0, expandable=True, capex=100.0,
                      lifetime=30.0, reactance=0.1),
             LineSpec("B", "A", existing_capacity=8.0, existing_capacity_reverse=5.0))
    return PowerSystem(nodes=("A", "B"), snapshots=2,
                       demand={"A": (10.0, 12.0), "B": (5.0, 6.0)},
                       technologies=(("A", gas), ("B", wind)),
                       storages=(("A", battery),), lines=lines,
                       voll=1000.0, discount_rate=0.05)


NAN = float("nan")
# (part, field): every number field that validate checks
NUMBER_FIELDS = (
    [("technology", f) for f in ("capex", "lifetime", "fixed_om", "variable_cost",
                                 "fuel_cost", "efficiency", "emission_factor",
                                 "max_potential")]
    + [("storage", f) for f in ("capex_discharge", "capex_charge", "capex_energy",
                                "lifetime", "eta_discharge", "eta_charge",
                                "eta_standing", "fixed_energy_power_ratio")]
    + [("line", f) for f in ("existing_capacity", "existing_capacity_reverse",
                             "capex", "lifetime", "reactance")]
    + [("policy", f) for f in ("share", "target", "premium", "cap", "rate")]
    + [("system", "voll"), ("system", "discount_rate")])


def with_non_finite(part: str, name: str, value: float):
    """(system, policy, entity) with ``name`` of ``part`` set to ``value``."""
    system, policy = every_number_set(), PolicyConfig()
    if part == "technology":
        (node, gas), wind = system.technologies
        technologies = ((node, dataclasses.replace(gas, **{name: value})), wind)
        return dataclasses.replace(system, technologies=technologies), policy, "gas@A"
    if part == "storage":
        (node, battery), = system.storages
        storages = ((node, dataclasses.replace(battery, **{name: value})),)
        return dataclasses.replace(system, storages=storages), policy, "battery@A"
    if part == "line":  # on the line that carries the field
        lines = list(system.lines)
        li = int(name == "existing_capacity_reverse")
        lines[li] = dataclasses.replace(lines[li], **{name: value})
        return dataclasses.replace(system, lines=tuple(lines)), policy, lines[li].name
    if part == "system":
        return dataclasses.replace(system, **{name: value}), policy, "system"
    instrument = {"share": SupportDispatched(("wind",), share=value),
                  "target": SupportDispatched(("wind",), target=value),
                  "premium": FixedFip(("wind",), premium=value),
                  "cap": Co2Cap(value), "rate": Co2Tax(value)}[name]
    if name in ("cap", "rate"):
        return system, PolicyConfig(co2=instrument), "policy"
    return system, PolicyConfig(support=instrument), "policy"


class TestNonFinite:
    def test_the_base_system_is_valid(self):
        assert validate(every_number_set(), PolicyConfig()) == []

    @pytest.mark.parametrize("part, name", NUMBER_FIELDS,
                             ids=[f"{part}-{name}" for part, name in NUMBER_FIELDS])
    def test_non_finite_number_exits_one(self, tmp_path, capsys, part, name):
        system, policy, entity = with_non_finite(part, name, NAN)
        found = [(v.entity, v.message) for v in validate(system, policy)
                 if v.rule == "non-finite"]
        assert found == [(entity, f"{name} is nan")]
        path = tmp_path / "bad.json"
        path.write_text(serialize_scenario(system, policy))
        assert exit_code(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{entity}: non-finite ({name} is nan)" in err

    @pytest.mark.parametrize("value", [float("inf"), -float("inf")])
    def test_infinite_numbers_are_non_finite(self, value):
        system, policy, _ = with_non_finite("technology", "capex", value)
        assert "non-finite" in [v.rule for v in validate(system, policy)]

    @pytest.mark.parametrize("command", ["validate", "solve"])
    def test_nan_quota_target_exits_one(self, tmp_path, command):
        # in a new interpreter: HiGHS crashes the one that runs this LP
        with open(scenario_path("wind_gas_168h.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["policy"] = {"support": {"type": "dispatched", "technologies": ["wind"],
                                     "target": NAN}}
        path = tmp_path / "nan_target.json"
        path.write_text(json.dumps(doc))
        out = ["--out-dir", str(tmp_path)] if command == "solve" else []
        proc = fresh("-m", "powermarket.cli", command, str(path), *out)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "policy: non-finite (target is nan)" in proc.stderr


def bundled(name: str) -> dict:
    """The JSON document of a bundled scenario."""
    with open(scenario_path(name), encoding="utf-8") as fh:
        return json.load(fh)


def edited(name: str, /, **changes) -> dict:
    return {**bundled(name), **changes}


def with_timeseries(path: str, column: str = "N_load") -> dict:
    """``wind_gas_168h`` with its demand read from ``column`` of the
    timeseries file ``path``."""
    return edited("wind_gas_168h.json", timeseries=path,
                  demand={"N": {"series": column}})


# case -> (scenario document, the violation its error line names)
STRUCTURE_ERRORS = {
    "duplicate-node": (edited("wind_gas_168h.json", nodes=["N", "N"]),
                       "N: duplicate (duplicate node name)"),
    "duplicate-storage": (
        edited("vre_flex_168h.json",
               storages=bundled("vre_flex_168h.json")["storages"] * 2),
        "battery@N: duplicate (duplicate storage at node)"),
    "no-nodes": (edited("wind_gas_168h.json", nodes=[], demand={}, technologies=[]),
                 "system: nodes (at least one node required)"),
    "kvl-without-reactance": (
        edited("wind_gas_168h.json", nodes=["N", "M"],
               demand={**bundled("wind_gas_168h.json")["demand"],
                       "M": {"kind": "flat-demand", "scale": 10.0}},
               lines=[{"from_node": "N", "to_node": "M", "existing_capacity": 50.0,
                       "reactance": 0.1},
                      {"from_node": "N", "to_node": "M", "existing_capacity": 50.0}],
               options={**bundled("wind_gas_168h.json")["options"], "kvl": True}),
        "N+M: reactance (kvl needs a reactance on every line)"),
    # the LP gives an expandable line one capacity in both directions
    "expandable-line-with-reverse-capacity": (
        edited("wind_gas_168h.json", nodes=["N", "M"],
               demand={**bundled("wind_gas_168h.json")["demand"],
                       "M": {"kind": "flat-demand", "scale": 10.0}},
               lines=[{"from_node": "N", "to_node": "M", "existing_capacity": 10.0,
                       "existing_capacity_reverse": 2.0, "expandable": True,
                       "capex": 10.0}]),
        "N+M: capacity (an expandable line has one capacity, so "
        "existing_capacity_reverse must equal existing_capacity)"),
    "storage-lifetime-below-one": (
        edited("vre_flex_168h.json",
               storages=[{**bundled("vre_flex_168h.json")["storages"][0], "lifetime": 0.5}]),
        "battery@N: lifetime (lifetime must be >= 1)"),
    "line-lifetime-below-one": (
        edited("wind_gas_168h.json", nodes=["N", "M"],
               demand={**bundled("wind_gas_168h.json")["demand"],
                       "M": {"kind": "flat-demand", "scale": 10.0}},
               lines=[{"from_node": "N", "to_node": "M", "expandable": True,
                       "capex": 10.0, "lifetime": 0.5}]),
        "N+M: lifetime (lifetime must be >= 1)"),
    "overflowing-annual-cost": (
        edited("wind_gas_168h.json",
               options={**bundled("wind_gas_168h.json")["options"], "discount_rate": 1e308}),
        "wind@N: annual-cost (annualized cost is inf)"),
    # a negative annualized cost pays for building without bound: unbounded LP
    "negative-line-annual-cost": (
        edited("wind_gas_168h.json", nodes=["N", "M"],
               demand={**bundled("wind_gas_168h.json")["demand"],
                       "M": {"kind": "flat-demand", "scale": 10.0}},
               lines=[{"from_node": "N", "to_node": "M", "expandable": True,
                       "capex": -1.0}]),
        "N+M: annual-cost (annualized cost is -1.0)"),
    "negative-technology-annual-cost": (
        edited("wind_gas_168h.json", technologies=[
            bundled("wind_gas_168h.json")["technologies"][0],
            {**bundled("wind_gas_168h.json")["technologies"][1], "fixed_om": -1e6}]),
        "ocgt@N: annual-cost (annualized cost is -999012.5912499194)"),
    "overflowing-marginal-cost": (
        edited("wind_gas_168h.json", technologies=[
            bundled("wind_gas_168h.json")["technologies"][0],
            {**bundled("wind_gas_168h.json")["technologies"][1], "efficiency": 5e-324}]),
        "ocgt@N: marginal-cost (marginal cost is inf)"),
    "voll-beyond-lp-range": (
        edited("wind_gas_168h.json",
               options={**bundled("wind_gas_168h.json")["options"], "voll": 1e308}),
        "system: beyond ±1e+13 (voll is 1e+308)"),
    "co2-tax-beyond-lp-range": (
        edited("wind_gas_168h.json", policy={"co2": {"type": "tax", "rate": 1e308}}),
        "policy: beyond ±1e+13 (rate is 1e+308)"),
    "demand-scale-beyond-lp-range": (
        edited("wind_gas_168h.json", demand={"N": {"kind": "flat-demand", "scale": 1e308}}),
        "N: demand out of range (value 1e+308 out of range)"),
    # a snapshot sample weights the cap row's entries by up to 11
    "emission-factor-beyond-lp-range": (
        edited("wind_gas_168h.json", technologies=[
            bundled("wind_gas_168h.json")["technologies"][0],
            {**bundled("wind_gas_168h.json")["technologies"][1], "emission_factor": 1e14}],
               policy={"co2": {"type": "cap", "cap": 1000.0}}),
        "ocgt@N: beyond ±1e+13 (emission_factor is 100000000000000.0)"),
    # HiGHS drops matrix entries of magnitude 1e-9 or less; the entry of
    # eta_discharge is its reciprocal, kept below 1e9 by the same rule
    "discharge-efficiency-beyond-lp-range": (
        edited("vre_flex_168h.json",
               storages=[{**bundled("vre_flex_168h.json")["storages"][0],
                          "eta_discharge": 1e-16}]),
        "battery@N: nonzero within ±1e-09 (eta_discharge holds 1e-16)"),
    "name-outside-the-out-dir": (edited("wind_gas_168h.json", name="../escaped"),
                                 "scenario: 'name' must be a plain file name, "
                                 "not \"../escaped\""),
    "name-with-a-directory": (edited("wind_gas_168h.json", name="sub/evil"),
                              "scenario: 'name' must be a plain file name, not \"sub/evil\""),
    "name-with-nul": (edited("wind_gas_168h.json", name="a\u0000b"),
                      "scenario: 'name' must be a plain file name, not \"a\\u0000b\""),
    "inline-demand-beyond-float-range": (
        edited("wind_gas_168h.json", demand={"N": [100.0] * 167 + [10**400]}),
        "N: demand out of range (non-finite value)"),
    "snapshots-beyond-index-range": (edited("wind_gas_168h.json", snapshots=10**400),
                                     f"scenario: 'snapshots' must be at most {MAX_SNAPSHOTS}"),
    # names end up in LP tags, where whitespace breaks the MPS format
    "node-name-with-a-space": (
        edited("wind_gas_168h.json", nodes=["N", "a b"],
               demand={**bundled("wind_gas_168h.json")["demand"],
                       "a b": {"kind": "flat-demand", "scale": 10.0}}),
        "a b: identifier (node name has invalid characters)"),
    "technology-name-with-a-space": (
        edited("wind_gas_168h.json", technologies=[
            {**bundled("wind_gas_168h.json")["technologies"][0], "name": "a b"},
            bundled("wind_gas_168h.json")["technologies"][1]]),
        "a b@N: identifier (technology name has invalid characters)"),
    "storage-name-with-a-space": (
        edited("vre_flex_168h.json",
               storages=[{**bundled("vre_flex_168h.json")["storages"][0], "name": "a b"}]),
        "a b@N: identifier (storage name has invalid characters)"),
    # the loader leaves demand at unknown nodes to validate
    "demand-for-unknown-node": (
        edited("wind_gas_168h.json",
               demand={**bundled("wind_gas_168h.json")["demand"],
                       "M": {"kind": "flat-demand", "scale": 10.0}}),
        "M: unresolved-node (demand for unknown node)"),
    # the LP names its VOLL column after the shedding pseudo-technology
    "technology-named-load-shedding": (
        edited("wind_gas_168h.json", technologies=[
            bundled("wind_gas_168h.json")["technologies"][0],
            {**bundled("wind_gas_168h.json")["technologies"][1],
             "name": "load-shedding"}]),
        "load-shedding@N: reserved-name"),
    "negative-quota-target": (
        edited("wind_gas_168h.json", policy={"support": {
            "type": "dispatched", "technologies": ["wind"], "target": -1.0}}),
        "policy: target (target must be >= 0)"),
    "zero-total-demand": (
        edited("wind_gas_168h.json", demand={"N": {"kind": "flat-demand", "scale": 0}}),
        "system: demand (total demand must be > 0)"),
    "line-self-loop": (
        edited("wind_gas_168h.json",
               lines=[{"from_node": "N", "to_node": "N", "existing_capacity": 50.0}]),
        "N+N: self-loop (line endpoints must differ)"),
    "negative-capex": (
        edited("wind_gas_168h.json", technologies=[
            {**bundled("wind_gas_168h.json")["technologies"][0], "capex": -1.0},
            bundled("wind_gas_168h.json")["technologies"][1]]),
        "wind@N: capex (capex must be >= 0)"),
    "negative-emission-factor": (
        edited("wind_gas_168h.json", technologies=[
            bundled("wind_gas_168h.json")["technologies"][0],
            {**bundled("wind_gas_168h.json")["technologies"][1], "emission_factor": -0.1}]),
        "ocgt@N: emission-factor (emission factor must be >= 0)"),
    "zero-voll": (
        edited("wind_gas_168h.json",
               options={**bundled("wind_gas_168h.json")["options"], "voll": 0}),
        "system: voll (value of lost load must be > 0)"),
    "negative-premium": (
        edited("wind_gas_168h.json", policy={"support": {
            "type": "fip", "technologies": ["wind"], "premium": -1.0}}),
        "policy: premium (premium must be >= 0)"),
    "negative-tax": (
        edited("wind_gas_168h.json", policy={"co2": {"type": "tax", "rate": -1.0}}),
        "policy: co2-tax (tax must be >= 0)"),
    "negative-cap": (
        edited("wind_gas_168h.json", policy={"co2": {"type": "cap", "cap": -1.0}}),
        "policy: co2-cap (cap must be >= 0)"),
    "timeseries-file-missing": (with_timeseries("missing.csv"),
                                "missing.csv' not found"),
    "timeseries-without-data-columns": (with_timeseries("series.csv"),
                                        "series.csv' has no data columns"),
    "timeseries-cell-not-a-number": (with_timeseries("series.csv"),
                                     "row 3 column 'N_load' is not a number"),
    "timeseries-column-missing": (with_timeseries("series.csv", "M_load"),
                                  "timeseries column 'M_load' not found"),
}

# case -> the timeseries file it writes next to its scenario, as series.csv
TIMESERIES_FILES = {
    "timeseries-without-data-columns": "timestamp\n" + "".join(f"{t}\n" for t in range(168)),
    "timeseries-cell-not-a-number": "timestamp,N_load\n0,100\n1,abc\n",
    "timeseries-column-missing": "timestamp,N_load\n" + "".join(f"{t},100\n"
                                                                for t in range(168)),
}


class TestStructure:
    @pytest.mark.parametrize("command", ["validate", "emit-lp", "solve"])
    @pytest.mark.parametrize("case", sorted(STRUCTURE_ERRORS))
    def test_exit_one_with_one_error_line(self, tmp_path, capsys, case, command):
        doc, message = STRUCTURE_ERRORS[case]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        if case in TIMESERIES_FILES:
            (tmp_path / "series.csv").write_text(TIMESERIES_FILES[case])
        out = [] if command == "validate" else ["--out-dir", str(tmp_path)]
        assert exit_code([command, str(path), *out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err


def test_snapshots_beyond_the_bound_resolve_no_series(tmp_path, capsys, monkeypatch):
    # the bound is checked before any series is resolved: a value Python
    # could allocate is never run here
    def resolve(*args):
        raise AssertionError("a series was resolved")

    monkeypatch.setattr(powermarket.scenario, "synth_profiles", resolve)
    path = tmp_path / "long.json"
    path.write_text(json.dumps(edited("wind_gas_168h.json", snapshots=MAX_SNAPSHOTS + 1)))
    assert exit_code(["validate", str(path)]) == 1
    assert capsys.readouterr().err == \
        f"error: scenario: 'snapshots' must be at most {MAX_SNAPSHOTS}\n"


class TestUnwritableOutput:
    @pytest.mark.parametrize("command", ["solve", "emit-lp", "verify", "sweep"])
    def test_exit_one_with_an_error_line(self, tmp_path, capsys, command):
        # a valid 'name' longer than a file name may be (255 bytes on Linux)
        name = "x" * 300
        doc = edited("wind_gas_168h.json", name=name)
        if command == "sweep":
            doc = {"scenario": scenario_path("wind_gas_168h.json"), "axis": "co2_cap",
                   "values": [855.558], "policy_set": ["wind"], "name": name}
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        assert exit_code([command, str(path), "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write '{tmp_path / name}.")
        assert err.endswith("': File name too long\n") and err.count("\n") == 1


def field_paths(node, path=()):
    """The key or index path of every value below the JSON value ``node``."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from field_paths(value, path + (key,))


def with_value(doc: dict, path: tuple, value) -> dict:
    return edited_at(doc, path[:-1], lambda entry: entry.__setitem__(path[-1], value))


def edited_at(doc: dict, path: tuple, change) -> dict:
    """A copy of ``doc`` with ``change`` applied to the value at ``path``."""
    doc = json.loads(json.dumps(doc))
    change(reduce(getitem, path, doc))
    return doc


def structural_mutations(doc: dict):
    """(label, document) of each structural mutation of ``doc``: each key
    dropped, each non-empty list emptied, each list entry duplicated and
    each list entry dropped."""
    for where in field_paths(doc):
        name, parent, key = ".".join(map(str, where)), where[:-1], where[-1]
        if isinstance(key, int):
            yield f"duplicate {name}", edited_at(
                doc, parent, lambda entry, k=key: entry.insert(k, entry[k]))
        yield f"drop {name}", edited_at(doc, parent, lambda entry, k=key: entry.pop(k))
        value = reduce(getitem, where, doc)
        if isinstance(value, list) and value:
            yield f"empty {name}", edited_at(doc, where, list.clear)


def gate_failures(cases, tmp_path, capsys) -> list:
    """The cases ``(label, document)`` that get past the input gate:
    ``validate`` must exit 0, or 1 with one error line; ``emit-lp`` must
    exit 0 where ``validate`` did; and no case may end in a traceback."""
    path, out = tmp_path / "case.json", ["--out-dir", str(tmp_path / "out")]
    wrong = []
    for case, doc in cases:
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        try:
            code = exit_code(["validate", str(path)])
            err = capsys.readouterr().err
            if code == 0:
                code = exit_code(["emit-lp", str(path), *out])
                if code != 0:
                    wrong.append(f"{case}: validate exit 0, emit-lp exit {code}")
            elif code != 1 or not err.startswith("error: ") or err.count("\n") != 1:
                wrong.append(f"{case}: validate exit {code}, {err!r}")
        except Exception as exc:
            wrong.append(f"{case}: {type(exc).__name__}: {exc}")
    return wrong


# one value of each JSON kind, numbers beyond and at the edge of the float
# range, zero, a negative and the smallest subnormal
JSON_VALUES = (True, "x", ["x"], {"x": 2}, None, 2, 10**400, -10**400, 1e308, -1e308,
               0, -1, 5e-324)


class TestJsonKinds:
    @pytest.mark.parametrize("name", BUNDLED_SCENARIOS + ("gate",))
    def test_each_field_takes_each_json_kind(self, tmp_path, capsys, name):
        doc = gate_document(tmp_path) if name == "gate" else bundled(name)
        cases = ((f"{'.'.join(map(str, where))} = {json.dumps(value)}",
                  with_value(doc, where, value))
                 for where in field_paths(doc) for value in JSON_VALUES)
        assert gate_failures(cases, tmp_path, capsys) == []


def json_kind(value):
    """The JSON kind of ``value``: a number, or the Python type of another kind."""
    return "number" if isinstance(value, (int, float)) and not isinstance(value, bool) \
        else type(value)


class TestPlanJsonKinds:
    @pytest.mark.parametrize("name", ["support_sweep.json", "co2_sweep_flex.json"])
    def test_each_plan_field_takes_each_json_kind(self, tmp_path, name):
        # a plan loads or raises ScenarioError, and a value of another JSON kind
        # than the field's is rejected; a 'scenario' path naming no file raises
        # FileNotFoundError, which the CLI reports as an unreadable file
        doc = edited(name, scenario=scenario_path(bundled(name)["scenario"]))
        path, wrong = tmp_path / "plan.json", []
        for where in field_paths(doc):
            for value in JSON_VALUES:
                case = f"{'.'.join(map(str, where))} = {json.dumps(value)}"
                path.write_text(json.dumps(with_value(doc, where, value)))
                try:
                    load_plan(path)
                    if json_kind(value) != json_kind(reduce(getitem, where, doc)):
                        wrong.append(f"{case}: loaded")
                except ScenarioError:
                    pass
                except FileNotFoundError:
                    if where != ("scenario",):
                        wrong.append(f"{case}: FileNotFoundError")
                except Exception as exc:
                    wrong.append(f"{case}: {type(exc).__name__}: {exc}")
        assert wrong == []


class TestStructuralMutations:
    @pytest.mark.parametrize("name", BUNDLED_SCENARIOS + ("gate",))
    def test_each_structural_mutation_passes_the_gate(self, tmp_path, capsys, name):
        doc = gate_document(tmp_path) if name == "gate" else bundled(name)
        assert gate_failures(structural_mutations(doc), tmp_path, capsys) == []


class TestSweep:
    def test_jobs_do_not_change_bytes(self, tmp_path):
        # --jobs is accepted and ignored
        plan = scenario_path("support_sweep.json")
        d1, d2 = tmp_path / "plain", tmp_path / "j2"
        assert main(["sweep", plan, "--out-dir", str(d1)]) == 0
        assert main(["sweep", plan, "--out-dir", str(d2), "--jobs", "2"]) == 0
        for name in ("support_sweep.csv", "support_sweep.manifest.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_manifest_has_digest_and_verdicts(self, tmp_path):
        plan = scenario_path("co2_sweep_flex.json")
        assert main(["sweep", plan, "--out-dir", str(tmp_path)]) == 0
        manifest = json.load(open(tmp_path / "co2_sweep_flex.manifest.json"))
        assert len(manifest["config_sha256"]) == 64
        assert all(p["verdict"] == "pass" for p in manifest["points"])

    @pytest.mark.parametrize("axis, values, message, scenario, policy_set", [
        ("co2_cap", [-1.0, 855.558], "sweep value -1.0: policy: co2-cap (cap must be >= 0)",
         "wind_gas_168h.json", ["wind"]),
        ("support_share", [-0.1, 0.5], "axis 'support_share' values must be >= 0",
         "wind_gas_168h.json", ["wind"]),
        ("co2_cap", [], "sweep axis needs at least one value", "wind_gas_168h.json", ["wind"]),
        # the policy_set defines the penetration of a CO2 axis too
        ("co2_intensity", [0.1], "policy_set names unknown technology 'wnd'",
         "vre_flex_168h.json", ["wnd", "solar"]),
        ("support_share", [0.8], "policy_set names 'wind' twice", "wind_gas_168h.json",
         ["wind", "wind"]),
    ], ids=["negative-cap", "negative-share", "no-values", "unknown-policy-set-name",
            "repeated-policy-set-name"])
    def test_bad_plan_value_is_one_error_line(self, tmp_path, capsys, axis, values,
                                              message, scenario, policy_set):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"scenario": scenario_path(scenario),
                                    "axis": axis, "values": values,
                                    "policy_set": policy_set}))
        assert exit_code(["sweep", str(plan), "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err and str(plan) in err
        assert not (tmp_path / "out").exists()


def meshed_cap_scenario(tmp_path) -> str:
    """Three nodes in a KVL triangle, one thermal unit each and a binding
    CO2 cap."""
    T = 12
    demand = {n: [round(base + 5.0 * ((t * k) % 4), 6) for t in range(T)]
              for n, base, k in (("A", 10.0, 1), ("B", 60.0, 3), ("C", 50.0, 2))}
    techs = [
        {"node": "A", "name": "coal", "capex": 300.0, "lifetime": 1.0,
         "variable_cost": 20.0000001, "emission_factor": 0.9},
        {"node": "B", "name": "gas", "capex": 250.0, "lifetime": 1.0,
         "variable_cost": 60.0000002, "emission_factor": 0.4},
        {"node": "C", "name": "wind", "capex": 900.0, "lifetime": 1.0,
         "variable_cost": 0.0000003,
         "availability": [round(0.2 + 0.6 * ((t * 5) % 7) / 6, 6) for t in range(T)]},
    ]
    lines = [{"from_node": a, "to_node": b, "expandable": True, "capex": c,
              "reactance": x}
             for a, b, c, x in (("A", "B", 80.0, 1.0), ("B", "C", 60.0, 1.5),
                                ("A", "C", 70.0, 2.0))]
    doc = {"name": "mesh", "snapshots": T, "nodes": ["A", "B", "C"],
           "demand": demand, "technologies": techs, "lines": lines,
           "policy": {"co2": {"type": "cap", "cap": 600.0}},
           "options": {"voll": 1000.0, "discount_rate": 0.0, "kvl": True}}
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestVerify:
    def test_equivalence_checks_reuse_the_kvl_solve(self, tmp_path, monkeypatch):
        solved = []
        for module in (powermarket.cli, powermarket.verify):
            def recording(lp, *args, _solve=module.solve, **kwargs):
                solved.append(lp)
                return _solve(lp, *args, **kwargs)
            monkeypatch.setattr(module, "solve", recording)
        rc = main(["verify", meshed_cap_scenario(tmp_path), "--out-dir", str(tmp_path)])
        assert rc == 0
        doc = json.load(open(tmp_path / "mesh.verification.json"))
        cap_tax = next(d for d in doc if d["check"] == "cap-tax-equivalence")
        assert cap_tax["verdict"] == "pass" and cap_tax["detail"]["mu_co2"] > 0.0
        # one solve of the capped LP; the tax LP frees the cap row and keeps
        # the voltage-law rows
        capped = [lp for lp in solved if math.isfinite(lp.rows.rhs[lp.row("co2-cap")])]
        assert len(capped) == 1
        assert all(lp.has_row("kvl-cycle", "c0") for lp in solved)
        assert len(solved) >= 2

    def test_verify_subcommand_runs_equivalence_checks(self, tmp_path, capsys):
        rc = main(["verify", scenario_path("fig1_co2_cap.json"),
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        doc = json.load(open(tmp_path / "fig1_co2_cap.verification.json"))
        checks = {d["check"] for d in doc}
        assert "cap-tax-equivalence" in checks
        assert all(d["verdict"] != "fail" for d in doc)


class TestGateDocument:
    def test_the_gate_premium_makes_the_model_unbounded(self, tmp_path, capsys):
        # a premium of 5 EUR/MWh pays wind more than it costs, and the
        # battery's losses absorb any output (ROADMAP item 21)
        path = tmp_path / "gate.json"
        path.write_text(json.dumps(gate_document(tmp_path)))
        for command in ("solve", "verify"):
            assert main([command, str(path), "--out-dir", str(tmp_path / "out")]) == 3
            assert capsys.readouterr().err.startswith("model is unbounded")

    def test_a_smaller_premium_balances_every_book(self, tmp_path):
        doc = gate_document(tmp_path)
        doc["policy"]["support"]["premium"] = 2.0
        path = tmp_path / "gate.json"
        path.write_text(json.dumps(doc))
        for command in ("solve", "verify"):
            assert main([command, str(path), "--out-dir", str(tmp_path / "out")]) == 0
        system, policy, _ = load_scenario(path)
        ledger = Ledger.of(system, solve(build_lp(system, policy)), policy)
        booked = {b.entity: b for b in ledger.books}
        checked = {c.entity: c for c in check_zero_profit(ledger)}
        assert list(booked) == ["gas@A", "wind@B", "battery@B", "L0", "L1"]
        assert list(checked) == ["gas@A", "wind@B", "battery@B", "L0"]
        assert all(c.verdict == "pass" and c.detail == booked[e].detail
                   for e, c in checked.items())
        # each judged entity is built; the fixed line has books but no check
        assert all(c.detail["cost"] > 0.0 for c in checked.values())
        assert booked["L1"].residual is None and booked["L1"].detail["cost"] == 0.0
        report = build_report(ledger)
        assert report.storage_arbitrage == {
            "battery@B": booked["battery@B"].detail["arbitrage_revenue"]}
        assert report.congestion_revenue == {
            key: booked[key].detail["congestion_revenue"] for key in ("L0", "L1")}
        for key, kind in (("battery@B", "storage"), ("L0", "line"), ("L1", "line")):
            assert report.cost_breakdown[f"{kind}:{key}"] == booked[key].detail["cost"]


@st.composite
def meshed_systems(draw) -> dict:
    """Scenario document of 3-4 nodes on a ring, maybe with one chord, with
    expandable lines that have reactances, voltage-law rows on and no
    policy.  Every marginal cost carries its own 1e-7 offset."""
    n = draw(st.integers(3, 4))
    T = draw(st.integers(4, 24))
    nodes = [f"N{i}" for i in range(n)]
    pairs = [(nodes[i], nodes[(i + 1) % n]) for i in range(n)]
    if n == 4 and draw(st.booleans()):
        pairs.append((nodes[0], nodes[2]))
    techs = []
    for node in nodes:
        for name in draw(st.lists(st.sampled_from(["coal", "gas", "wind"]),
                                  min_size=1, max_size=2, unique=True)):
            offset = 1e-7 * (len(techs) + 1)
            if name == "wind":
                techs.append({"node": node, "name": name, "lifetime": 1.0,
                              "capex": float(draw(st.integers(300, 1200))),
                              "variable_cost": offset,
                              "availability": [v / 10 for v in draw(st.lists(
                                  st.integers(0, 10), min_size=T, max_size=T))]})
            else:
                techs.append({"node": node, "name": name, "lifetime": 1.0,
                              "capex": float(draw(st.integers(100, 500))),
                              "variable_cost": draw(st.integers(10, 80)) + offset,
                              "emission_factor": draw(st.integers(2, 10)) / 10})
    lines = [{"from_node": a, "to_node": b, "expandable": True,
              "capex": float(draw(st.integers(10, 200))),
              "reactance": draw(st.integers(1, 4)) / 2} for a, b in pairs]
    demand = {node: [float(v) for v in draw(st.lists(st.integers(5, 100),
                                                     min_size=T, max_size=T))]
              for node in nodes}
    return {"name": "ring", "snapshots": T, "nodes": nodes, "demand": demand,
            "technologies": techs, "lines": lines,
            "options": {"voll": 1000.0, "discount_rate": 0.0, "kvl": True}}


def warm_tax_stall() -> dict:
    """A draw whose warm tax re-solve ends in HiGHS status Unknown (one dual
    infeasibility of 3e-7 left after 19 iterations); cold, the tax LP is
    optimal, and its prices differ from the cap's by 45 %."""
    T = 20

    def series(values, base=0.0):
        return [float(values.get(t, base)) for t in range(T)]

    def coal(node, capex, cost):
        return {"node": node, "name": "coal", "lifetime": 1.0, "capex": capex,
                "variable_cost": cost, "emission_factor": 0.2}

    def wind(node, cost, availability):
        return {"node": node, "name": "wind", "lifetime": 1.0, "capex": 300.0,
                "variable_cost": cost, "availability": series(availability)}

    nodes = ["N0", "N1", "N2", "N3"]
    demand = {"N0": {}, "N1": {}, "N2": {7: 81, 16: 40},
              "N3": {0: 16, 6: 70, 14: 53, 16: 52}}
    techs = [coal("N0", 100.0, 10.0000001),
             wind("N0", 2e-7, {1: 0.1, 2: 0.1, 3: 0.1, 6: 0.9, 7: 0.4, 14: 0.2,
                               15: 0.3, 16: 0.4, 17: 0.3, 18: 0.3, 19: 0.1}),
             wind("N1", 3e-7, {2: 0.2, 3: 0.1, 4: 0.3, 7: 0.7, 14: 0.4, 16: 0.6}),
             coal("N1", 100.0, 10.0000004),
             wind("N2", 5e-7, {}),
             coal("N2", 100.0, 20.0000006),
             coal("N3", 101.0, 10.0000007),
             wind("N3", 8e-7, {})]
    lines = [{"from_node": a, "to_node": b, "expandable": True, "capex": 10.0,
              "reactance": 0.5} for a, b in zip(nodes, nodes[1:] + nodes[:1])]
    return {"name": "ring", "snapshots": T, "nodes": nodes,
            "demand": {n: series(d, 5.0) for n, d in demand.items()},
            "technologies": techs, "lines": lines,
            "options": {"voll": 1000.0, "discount_rate": 0.0, "kvl": True}}


@settings(max_examples=25, deadline=None)
@given(doc=meshed_systems(), tightness=st.floats(0.2, 0.9))
@example(doc=warm_tax_stall(), tightness=0.5625)
def test_meshed_kvl_systems_with_a_binding_cap_verify(doc, tightness):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ring.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        system, _, _ = load_scenario(path)
        sol = solve(build_lp(system, PolicyConfig()))
        assert sol.status == "optimal"
        emissions = sum(spec.emission_factor * sol.primal("g", tech_key(spec.name, node)).sum()
                        for node, spec in system.technologies)
        assume(emissions > 1e-6)

        # a cap below the unconstrained emissions binds
        doc = {**doc, "policy": {"co2": {"type": "cap",
                                         "cap": tightness * float(emissions)}}}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        assert main(["verify", path, "--out-dir", tmp]) == 0
        checks = json.load(open(os.path.join(tmp, "ring.verification.json")))
        assert not [c for c in checks if c["verdict"] == "fail"]
        cap_tax = next(c for c in checks if c["check"] == "cap-tax-equivalence")
        assert cap_tax["detail"]["mu_co2"] > 0.0


def bench_module(name: str):
    """The module ``bench/<name>.py``, loaded on its own."""
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", os.path.join(os.path.dirname(__file__), "..", "bench", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_span_bindings_resolve():
    # bench/spans.py wraps these names of the package to time its layers
    spans = bench_module("spans")
    assert spans.BINDINGS
    for module, attr, _, _ in spans.BINDINGS:
        assert callable(getattr(getattr(powermarket, module), attr)), (module, attr)


def test_bench_inputs_load(tmp_path):
    # the documents bench/inputs.py writes for each workload, at 48 h, pass
    # every input rule, so a stricter rule cannot silently break the benchmark
    inputs = bench_module("inputs")
    scenarios = [inputs.annual_cap(1, 48), inputs.mesh_storage(48),
                 inputs.sweep_system(1, 48)]
    for doc in scenarios:
        path = tmp_path / f"{doc['name']}.json"
        path.write_text(json.dumps(doc))
        assert exit_code(["validate", str(path)]) == 0, doc["name"]
    for plan in inputs.sweep_plans("sweep_base.json"):
        path = tmp_path / f"{plan['name']}.plan.json"
        path.write_text(json.dumps(plan))
        assert load_plan(str(path)).values == tuple(plan["values"])


def test_bench_span_bindings_are_called(monkeypatch, tmp_path):
    # a binding that is bound but never called reads as a zero per-layer
    # figure: every command of the three workloads, at the warm-up horizon
    # and as a traced pass runs them, calls every binding but verify.build_lp,
    # which is kept for the spans alone
    spans = bench_module("spans")
    monkeypatch.setattr(sys, "path", list(sys.path))  # the worker puts bench/ first
    worker = bench_module("worker")
    calls = dict.fromkeys(((module, attr) for module, attr, _, _ in spans.BINDINGS), 0)

    def counting(key, fn):
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return counted
    for module, attr in calls:
        bound = getattr(powermarket, module)
        monkeypatch.setattr(bound, attr, counting((module, attr), getattr(bound, attr)))
    for workload in worker.WORKLOADS.values():
        work = workload()
        work.prepare(tmp_path, 1, worker.WARMUP_HOURS)
        for argv in work.commands(tmp_path / work.name, traced=True):
            assert main(argv) == 0, argv
    assert [key for key, n in calls.items() if n == 0] == [("verify", "build_lp")]


# command, scenario, ledger builds, books passes, reduced-cost passes
PASS_COUNTS = [
    ("sweep", "support_sweep.json", 9, 9, 18),
    ("sweep", "co2_sweep_flex.json", 6, 6, 12),
    ("solve", "fig1_co2_cap.json", 1, 1, 2),
    ("verify", "fig1_co2_cap.json", 1, 1, 2),  # the tax LP's prices need no ledger
    ("verify", "fig1_support.json", 2, 1, 3),  # the quota LP and its unbooked mirror
]


@pytest.mark.parametrize("command, name, builds, passes, reduced_passes", PASS_COUNTS,
                         ids=[f"{command}-{name}-{builds}"
                              for command, name, builds, _, _ in PASS_COUNTS])
def test_each_solution_is_walked_into_one_ledger(monkeypatch, tmp_path, command, name,
                                                 builds, passes, reduced_passes):
    # ledger builds, books passes and reduced costs z = c - A^T y: one ledger
    # per solution, its books once, and z once for them and once per KKT check
    built, booked, reduced = [], [], []  # built holds every solution, so no two share an id
    init, books = Ledger.__init__, Ledger.books.func
    reduced_costs = powermarket.metrics.reduced_costs

    def counting_init(self, system, sol, *args):
        built.append(sol)
        init(self, system, sol, *args)

    def counting_books(self):
        booked.append(self)
        return books(self)

    def counting_reduced_costs(sol):
        reduced.append(sol)
        return reduced_costs(sol)
    counted_books = cached_property(counting_books)
    counted_books.__set_name__(Ledger, "books")
    monkeypatch.setattr(Ledger, "__init__", counting_init)
    monkeypatch.setattr(Ledger, "books", counted_books)
    for module in (powermarket.metrics, powermarket.verify):
        monkeypatch.setattr(module, "reduced_costs", counting_reduced_costs)
    assert main([command, scenario_path(name), "--out-dir", str(tmp_path)]) == 0
    assert (len(built), len(booked), len(reduced)) == (builds, passes, reduced_passes)
    assert len({id(sol) for sol in built}) == len(built)
