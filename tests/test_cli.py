import csv
import json
import os

import pytest

import powermarket.cli
import powermarket.verify
from powermarket.cli import main
from powermarket.formulate import parse_mps
from powermarket.solve import Solution

from conftest import scenario_path


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
        rc = main(["solve", scenario_path("fig1_no_policy.json"),
                   "--out-dir", str(tmp_path), "--emit-lp"])
        assert rc == 0
        lp = parse_mps(tmp_path / "fig1_no_policy.mps")
        assert lp.has_row("balance", "DE")

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

    def test_solver_failure_is_not_called_infeasible(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(powermarket.cli, "solve", lambda lp: Solution(
            lp, status="numerical", message="numerical trouble"))
        scen = scenario_path("fig1_no_policy.json")
        assert main(["solve", scen, "--out-dir", str(tmp_path)]) == 4
        assert main(["verify", scen, "--out-dir", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert "numerical" in err and "infeasible" not in err

    def test_external_solution_round_trip(self, tmp_path):
        scen = scenario_path("fig1_no_policy.json")
        assert main(["solve", scen, "--out-dir", str(tmp_path)]) == 0
        rc = main(["solve", scen, "--out-dir", str(tmp_path),
                   "--external-solution",
                   str(tmp_path / "fig1_no_policy.sol")])
        assert rc == 0

    def test_env_var_sets_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("POWERMARKET_OUT_DIR", str(tmp_path / "envout"))
        assert main(["solve", scenario_path("fig1_no_policy.json")]) == 0
        assert (tmp_path / "envout" / "fig1_no_policy.sol").exists()


class TestSweep:
    def test_jobs_do_not_change_bytes(self, tmp_path):
        plan = scenario_path("support_sweep.json")
        d1, d2 = tmp_path / "j1", tmp_path / "j8"
        assert main(["sweep", plan, "--out-dir", str(d1), "--jobs", "1"]) == 0
        assert main(["sweep", plan, "--out-dir", str(d2), "--jobs", "8"]) == 0
        a = (d1 / "support_sweep.csv").read_bytes()
        b = (d2 / "support_sweep.csv").read_bytes()
        assert a == b

    def test_manifest_has_digest_and_verdicts(self, tmp_path):
        plan = scenario_path("co2_sweep_flex.json")
        assert main(["sweep", plan, "--out-dir", str(tmp_path)]) == 0
        manifest = json.load(open(tmp_path / "co2_sweep_flex.manifest.json"))
        assert len(manifest["config_sha256"]) == 64
        assert all(p["verdict"] == "pass" for p in manifest["points"])


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
        # one solve of the capped LP; the tax LP keeps the voltage-law rows
        assert len([lp for lp in solved if lp.has_row("co2-cap")]) == 1
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
