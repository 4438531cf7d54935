"""Relabellings that leave the LP's optimum and its policy prices unchanged.

Rotating every series in time (storage levels close cyclically), reversing
the order of the technology placements and storage units, and, on a
storage-free system, repeating each hour twice at twice the annual costs and
caps are the same market written another way.  The objective keeps its
value (doubles, for the repeated hours) and the policy prices keep theirs.
Hourly prices, capacities and market values are not compared: a degenerate
LP may end at another optimal vertex of the relabelled problem.
"""

from dataclasses import replace

import numpy as np
import pytest

from powermarket.formulate import build_lp
from powermarket.metrics import policy_prices
from powermarket.model import Co2Cap
from powermarket.scenario import load_scenario
from powermarket.solve import solve

from conftest import BUNDLED_SCENARIOS, scenario_path

STORAGE_FREE = ("fig1_no_policy.json", "fig1_support.json", "fig1_co2_cap.json",
                "wind_gas_168h.json")
TOL = 1e-9


def outcome(system, policy):
    """The objective and the policy prices (``mu_co2``, ``mu_gamma``)."""
    sol = solve(build_lp(system, policy))
    assert sol.status == "optimal"
    prices = policy_prices(system, sol, policy)
    return sol.objective, {key: prices[key] for key in ("mu_co2", "mu_gamma")}


def with_series(system, change):
    """``system`` with ``change`` applied to every demand and availability series."""
    technologies = tuple(
        (node, spec if spec.availability is None
         else replace(spec, availability=tuple(change(spec.availability))))
        for node, spec in system.technologies)
    demand = {node: tuple(change(d)) for node, d in system.demand.items()}
    return replace(system, demand=demand, technologies=technologies,
                   snapshots=len(next(iter(demand.values()))))


def assert_same_prices(got, want):
    for key, mu in want.items():
        if mu is None:
            assert got[key] is None, key
        else:
            assert abs(got[key] - mu) <= TOL * max(1.0, abs(mu)), (key, got[key], mu)


@pytest.fixture(scope="module")
def bundled():
    """name -> (system, policy, outcome) of every bundled scenario."""
    out = {}
    for name in BUNDLED_SCENARIOS:
        system, policy, _ = load_scenario(scenario_path(name))
        out[name] = (system, policy, outcome(system, policy))
    return out


@pytest.mark.parametrize("hours", [6, 24])
@pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
def test_rotating_every_series_keeps_the_optimum(bundled, name, hours):
    system, policy, (objective, prices) = bundled[name]
    got_objective, got_prices = outcome(
        with_series(system, lambda s: np.roll(s, hours)), policy)
    assert abs(got_objective - objective) <= TOL * abs(objective)
    assert_same_prices(got_prices, prices)


@pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
def test_reversing_the_placements_keeps_the_optimum(bundled, name):
    system, policy, (objective, prices) = bundled[name]
    reversed_system = replace(system, technologies=system.technologies[::-1],
                              storages=system.storages[::-1])
    got_objective, got_prices = outcome(reversed_system, policy)
    assert abs(got_objective - objective) <= TOL * abs(objective)
    assert_same_prices(got_prices, prices)


@pytest.mark.parametrize("name", STORAGE_FREE)
def test_each_hour_twice_doubles_the_objective(bundled, name):
    # twice the hours at twice the annual cost is the LP scaled by 2, each
    # policy row included (a quota's share scales with the demand it is of)
    system, policy, (objective, prices) = bundled[name]
    assert not system.storages and not system.lines
    doubled = with_series(system, lambda s: np.repeat(s, 2))
    doubled = replace(doubled, technologies=tuple(
        (node, replace(spec, capex=2 * spec.capex, fixed_om=2 * spec.fixed_om))
        for node, spec in doubled.technologies))
    if isinstance(policy.co2, Co2Cap):
        policy = replace(policy, co2=replace(policy.co2, cap=2 * policy.co2.cap))
    got_objective, got_prices = outcome(doubled, policy)
    assert abs(got_objective - 2 * objective) <= TOL * abs(2 * objective)
    assert_same_prices(got_prices, prices)
