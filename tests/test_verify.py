import json

import numpy as np
import pytest

import powermarket.verify
from powermarket.formulate import apply_equivalence_substitution, build_lp
from powermarket.model import (
    Co2Cap,
    LineSpec,
    PolicyConfig,
    PowerSystem,
    SupportDispatched,
    TechnologySpec,
)
from powermarket.scenario import load_scenario
from powermarket.solve import solve, solve_external, write_solution_file
from powermarket.verify import (
    OracleError,
    brute_force_oracle,
    check_cap_tax_equivalence,
    check_kkt,
    check_subsidy_tax_lift,
    check_zero_profit,
    reduced_costs,
    report_to_json,
    verify_solution,
)

from conftest import random_desk_system, scenario_path, tiny_instance, two_tech_system


class TestKkt:
    def test_optimal_solution_passes(self, desk_system):
        lp = build_lp(desk_system, PolicyConfig.none())
        sol = solve(lp)
        report = check_kkt(lp, sol)
        assert report.passed
        assert report.primal <= 1e-9

    def test_reduced_costs_match_a_sparse_reference(self, desk_system):
        from scipy import sparse

        lp = build_lp(desk_system, PolicyConfig(co2=Co2Cap(900.0)))
        sol = solve(lp)
        e = lp.entries
        A = sparse.csc_matrix((e.value, (e.row, e.col)),
                              shape=(len(lp.rows), len(lp.columns)))
        reference = lp.columns.objective - A.T @ sol.y
        # both sums round each of at most k + 1 terms once
        k = int(np.diff(A.indptr).max())
        bound = 2 * (k + 1) * np.finfo(float).eps * (
            np.abs(lp.columns.objective) + abs(A).T @ np.abs(sol.y))
        assert np.all(np.abs(reduced_costs(lp, sol) - reference) <= bound)

    def test_tampered_primal_fails(self, desk_system):
        lp = build_lp(desk_system, PolicyConfig.none())
        sol = solve(lp)
        sol.x[0] += 5.0
        assert not check_kkt(lp, sol).passed

    def test_rounded_duals_fail(self, desk_system):
        # a solution file with duals rounded to integers must be caught
        lp = build_lp(desk_system, PolicyConfig.none())
        sol = solve(lp)
        sol.y = np.round(sol.y)
        assert not check_kkt(lp, sol).passed

    def test_nan_residual_fails(self, desk_system):
        lp = build_lp(desk_system, PolicyConfig.none())
        sol = solve(lp)
        lp.rows.rhs[:] = np.nan
        report = check_kkt(lp, sol)
        # the first residual is finite, so max() would drop the NaNs after it
        assert report.stationarity <= 1e-6 and np.isnan(report.primal)
        assert not report.passed
        assert {r.verdict for r in report.results()} == {"fail"}


class TestZeroProfit:
    def test_no_policy_generators(self, desk_system):
        lp = build_lp(desk_system, PolicyConfig.none())
        sol = solve(lp)
        results = check_zero_profit(desk_system, lp, sol, PolicyConfig.none())
        assert results and all(r.verdict == "pass" for r in results)

    def test_policy_terms_balance_the_books(self):
        system = two_tech_system()
        policy = PolicyConfig(support=SupportDispatched(("wind",), share=0.85),
                              co2=None)
        lp = build_lp(system, policy)
        sol = solve(lp)
        results = check_zero_profit(system, lp, sol, policy)
        assert all(r.verdict == "pass" for r in results)
        wind = next(r for r in results if r.entity == "wind@N")
        # without the support adjustment the books would not balance
        assert wind.detail["adjustment"] > 1.0

    def test_scarcity_rent_with_potential(self):
        cheap = TechnologySpec(name="cheap", capex=1.0, lifetime=1.0,
                               variable_cost=1.0, max_potential=3.0)
        dear = TechnologySpec(name="dear", capex=2.0, lifetime=1.0,
                              variable_cost=5.0)
        system = PowerSystem(nodes=("N",), snapshots=2,
                             demand={"N": (10.0, 8.0)},
                             technologies=(("N", cheap), ("N", dear)),
                             voll=100.0, discount_rate=0.0)
        lp = build_lp(system, PolicyConfig.none())
        sol = solve(lp)
        results = check_zero_profit(system, lp, sol, PolicyConfig.none())
        assert all(r.verdict == "pass" for r in results)
        entry = next(r for r in results if r.entity == "cheap@N")
        assert entry.detail["scarcity_rent"] > 0.0

    def test_report_json_is_valid(self, desk_system):
        lp = build_lp(desk_system, PolicyConfig.none())
        sol = solve(lp)
        doc = json.loads(report_to_json(
            verify_solution(desk_system, lp, sol, PolicyConfig.none())))
        assert all(d["verdict"] in ("pass", "fail", "inconclusive") for d in doc)


def capped_ring():
    """Three coal units on a voltage-law triangle under a cap that forces
    load shedding; the flat load leaves the cap's prices non-unique."""
    def coal(cost, factor):
        return TechnologySpec(name="coal", capex=100.0, lifetime=1.0,
                              variable_cost=cost, emission_factor=factor)
    system = PowerSystem(
        nodes=("N0", "N1", "N2"), snapshots=4,
        demand={"N0": (5.0,) * 4, "N1": (5.0,) * 4, "N2": (5.0, 5.0, 5.0, 6.0)},
        technologies=(("N0", coal(10.0000001, 0.2)), ("N1", coal(10.0000002, 0.5)),
                      ("N2", coal(10.0000003, 0.2))),
        lines=tuple(LineSpec(a, b, expandable=True, capex=10.0, reactance=0.5)
                    for a, b in (("N0", "N1"), ("N1", "N2"), ("N2", "N0"))),
        voll=1000.0, discount_rate=0.0)
    policy = PolicyConfig(co2=Co2Cap(9.1))
    lp = build_lp(system, policy, enforce_kvl=True)
    return system, policy, lp


def quota_ring():
    """Wind and two coal units on a voltage-law triangle with flat load and
    a binding wind quota.  Several prices are not unique (the objective's
    slopes in an hour's demand differ on the two sides), and perturbing
    the objective does not reveal it."""
    def unit(name, capex, cost, availability=None):
        return TechnologySpec(name=name, capex=capex, lifetime=1.0,
                              variable_cost=cost, availability=availability)
    system = PowerSystem(
        nodes=("N0", "N1", "N2"), snapshots=5,
        demand={n: (7.0,) * 5 for n in ("N0", "N1", "N2")},
        technologies=(("N0", unit("wind", 61.0, 1e-7, (1.0, 1.0, 0.5, 0.5, 0.5))),
                      ("N1", unit("coal", 52.0, 10.0000002)),
                      ("N2", unit("coal", 76.0, 10.0000003))),
        lines=tuple(LineSpec(a, b, expandable=True, capex=capex, reactance=0.5)
                    for a, b, capex in (("N0", "N1", 34.0), ("N1", "N2", 46.0),
                                        ("N2", "N0", 27.0))),
        voll=1000.0, discount_rate=0.0)
    policy = PolicyConfig(support=SupportDispatched(("wind",), share=0.6))
    return system, policy, build_lp(system, policy, enforce_kvl=True)


def balance_prices(system, sol):
    return np.concatenate([sol.dual("balance", n) for n in system.nodes])


class TestEquivalence:
    def test_non_unique_cap_prices_are_inconclusive(self, tmp_path):
        # a solution read from a file has no session to start the tax LP
        # from, so the tax LP is solved cold and lands on other prices
        system, policy, lp = capped_ring()
        write_solution_file(solve(lp), tmp_path / "ring.sol")
        sol = solve_external(lp, tmp_path / "ring.sol")
        result = check_cap_tax_equivalence(system, lp, sol, policy)
        assert result.detail["price_deviation"] > 1e-3
        assert result.verdict == "inconclusive"

    def test_tax_prices_that_are_not_cap_prices_fail(self, monkeypatch):
        def tampered(lp, *args, _solve=solve, **kwargs):
            sol = _solve(lp, *args, **kwargs)
            if np.isinf(lp.rows.rhs[lp.row("co2-cap")]):  # the tax LP
                sol.y = sol.y * 1.001
            return sol
        monkeypatch.setattr(powermarket.verify, "solve", tampered)
        system, policy, lp = capped_ring()
        result = check_cap_tax_equivalence(system, lp, solve(lp), policy)
        assert result.verdict == "fail"

    def test_mirror_prices_that_are_not_quota_prices_fail(self, monkeypatch):
        def tampered(lp, *args, _solve=solve, **kwargs):
            sol = _solve(lp, *args, **kwargs)
            if lp.has_row("vre-dispatched", "mirror"):
                sol.y = sol.y * 1.001
            return sol
        monkeypatch.setattr(powermarket.verify, "solve", tampered)
        system, policy, lp = quota_ring()
        result = check_subsidy_tax_lift(system, lp, solve(lp), policy)
        assert result.verdict == "fail"

    def test_relaxed_lps_keep_the_solved_rows_in_place(self, monkeypatch):
        solved = []

        def recording(lp, *args, _solve=solve, **kwargs):
            solved.append(lp)
            return _solve(lp, *args, **kwargs)
        monkeypatch.setattr(powermarket.verify, "solve", recording)
        system, policy, lp = quota_ring()
        assert lp.has_row("kvl-cycle", "c0")
        sol = solve(lp)
        check_subsidy_tax_lift(system, lp, sol, policy)
        mirror, = solved
        tax = apply_equivalence_substitution(lp, "vre-dispatched",
                                             sol.dual("vre-dispatched"))
        quota = lp.row("vre-dispatched")
        n = len(lp.rows)
        for relaxed in (tax, mirror):
            assert all(relaxed.row_index[key] == index
                       for key, index in lp.row_index.items())
            assert np.array_equal(relaxed.rows.sense[:n], lp.rows.sense)
            assert relaxed.rows.rhs[quota] == -np.inf
            assert np.array_equal(np.delete(relaxed.rows.rhs[:n], quota),
                                  np.delete(lp.rows.rhs, quota))
        assert len(tax.rows) == n
        assert len(mirror.rows) == n + 1
        assert set(mirror.row_index) - set(lp.row_index) == {("vre-dispatched", "mirror")}
        assert mirror.row("vre-dispatched", "mirror") == n

    def test_cap_tax_resolves_warm(self):
        system, policy, options = load_scenario(scenario_path("fig1_co2_cap.json"))
        lp = build_lp(system, policy, enforce_kvl=options.get("kvl", False))
        result = check_cap_tax_equivalence(system, lp, solve(lp), policy)
        assert result.verdict == "pass"
        # from the cap LP's basis; a cold solve of the tax LP takes 106
        assert result.detail["warm_start"] is True
        assert result.detail["tax_iterations"] == 2

    def test_warm_start_does_not_make_the_check_vacuous(self, monkeypatch):
        def off(lp, family, mu, _substitute=apply_equivalence_substitution):
            return _substitute(lp, family, 1.01 * mu)
        monkeypatch.setattr(powermarket.verify, "apply_equivalence_substitution", off)
        system, policy, options = load_scenario(scenario_path("fig1_co2_cap.json"))
        lp = build_lp(system, policy, enforce_kvl=options.get("kvl", False))
        result = check_cap_tax_equivalence(system, lp, solve(lp), policy)
        assert result.detail["warm_start"] is True
        assert result.verdict != "pass"

    def test_non_unique_quota_prices_are_inconclusive(self):
        system, policy, lp = quota_ring()
        sol = solve(lp)
        lam = balance_prices(system, sol)
        # the objective perturbation of earlier versions sees no movement
        for eps in (1e-9, 1e-7):
            perturbed = lp.copy()
            c = perturbed.columns.objective
            c += eps * np.arange(1, len(c) + 1) * np.maximum(1.0, np.abs(c))
            moved = np.abs(balance_prices(system, solve(perturbed)) - lam).max()
            assert moved <= 1e-5 * max(1.0, np.abs(lam).max())
        # yet the price of N0 at t0 is not unique: the objective falls by
        # 7 per unit of demand taken away and rises by 3.5 per unit added
        row = np.arange(len(lp.rows))[lp.row("balance", "N0")][0]
        step = 1e-4
        objective = {}
        for sign in (-1, 1):
            shifted = lp.copy()
            shifted.rows.rhs[row] += sign * step
            objective[sign] = solve(shifted).objective
        down = (sol.objective - objective[-1]) / step
        up = (objective[1] - sol.objective) / step
        assert up - down > 1.0
        result = check_subsidy_tax_lift(system, lp, sol, policy)
        assert result.residual > 1e-6
        assert result.verdict == "inconclusive"

    def test_cap_tax_on_desk_system(self, desk_system):
        policy = PolicyConfig(co2=Co2Cap(900.0))
        lp = build_lp(desk_system, policy)
        result = check_cap_tax_equivalence(desk_system, lp, solve(lp), policy)
        assert result.verdict == "pass"
        assert result.detail["mu_co2"] > 0.0

    def test_subsidy_tax_lift_on_two_tech(self):
        system = two_tech_system()
        policy = PolicyConfig(support=SupportDispatched(("wind",), share=0.85))
        lp = build_lp(system, policy)
        result = check_subsidy_tax_lift(system, lp, solve(lp), policy)
        assert result.verdict == "pass"
        assert result.detail["mu_gamma"] > 0.0

    def test_requires_matching_policy_kind(self, desk_system):
        lp = build_lp(desk_system, PolicyConfig.none())
        sol = solve(lp)
        with pytest.raises(ValueError):
            check_cap_tax_equivalence(desk_system, lp, sol, PolicyConfig.none())
        with pytest.raises(ValueError):
            check_subsidy_tax_lift(desk_system, lp, sol, PolicyConfig.none())


class TestOracle:
    def test_agrees_with_solver_on_tiny_instances(self):
        for seed in range(20):
            system = tiny_instance(seed)
            lp = build_lp(system, PolicyConfig.none())
            sol = solve(lp)
            oracle = brute_force_oracle(system)
            assert oracle.status == sol.status
            if sol.status != "optimal":
                continue
            assert sol.objective == pytest.approx(oracle.objective, rel=1e-9)
            for t in range(system.snapshots):
                if oracle.price_unique[t]:
                    assert sol.price("N", t) == pytest.approx(
                        oracle.prices[t], abs=1e-6 * max(1.0, abs(oracle.prices[t])))

    def test_rejects_large_instances(self, desk_system):
        with pytest.raises(OracleError, match="too large"):
            brute_force_oracle(desk_system)

    def test_infeasible_without_shedding(self):
        dark = TechnologySpec(name="dark", capex=1.0, lifetime=1.0,
                              availability=(0.0, 1.0))
        system = PowerSystem(nodes=("N",), snapshots=2,
                             demand={"N": (1.0, 1.0)},
                             technologies=(("N", dark),), voll=None,
                             discount_rate=0.0)
        assert brute_force_oracle(system).status == "infeasible"
        assert solve(build_lp(system, PolicyConfig.none())).status == "infeasible"

    def test_voll_caps_the_price(self):
        gas = TechnologySpec(name="gas", capex=1.0, lifetime=1.0,
                             variable_cost=2.0)
        system = PowerSystem(nodes=("N",), snapshots=2,
                             demand={"N": (3.0, 1.0)},
                             technologies=(("N", gas),), voll=50.0,
                             discount_rate=0.0)
        oracle = brute_force_oracle(system)
        assert oracle.status == "optimal"
        assert max(oracle.prices) <= 50.0 + 1e-9
