import json

import numpy as np
import pytest

import powermarket.verify
from powermarket.formulate import build_lp
from powermarket.model import (
    Co2Cap,
    LineSpec,
    PolicyConfig,
    PowerSystem,
    SupportDispatched,
    TechnologySpec,
)
from powermarket.solve import solve
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

from conftest import random_desk_system, tiny_instance, two_tech_system


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


class TestEquivalence:
    def test_non_unique_cap_prices_are_inconclusive(self):
        system, policy, lp = capped_ring()
        result = check_cap_tax_equivalence(system, lp, solve(lp), policy)
        assert result.detail["price_deviation"] > 1e-3
        assert result.verdict == "inconclusive"

    def test_tax_prices_that_are_not_cap_prices_fail(self, monkeypatch):
        def tampered(lp, *args, _solve=solve, **kwargs):
            sol = _solve(lp, *args, **kwargs)
            if not lp.has_row("co2-cap"):  # the tax LP
                sol.y = sol.y * 1.001
            return sol
        monkeypatch.setattr(powermarket.verify, "solve", tampered)
        system, policy, lp = capped_ring()
        result = check_cap_tax_equivalence(system, lp, solve(lp), policy)
        assert result.verdict == "fail"

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
