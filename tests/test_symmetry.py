"""Relabellings that leave the LP's optimum and its policy prices unchanged.

Rotating every series in time (storage levels close cyclically), reversing
the order of the technology placements and storage units, renaming the nodes
and reversing their order, and, on a storage-free system, repeating each
hour twice at twice the annual costs and caps are the same market written
another way.  The objective keeps its value (doubles, for the repeated
hours) and the policy prices keep theirs.  Doubling every cost is the same
market in another currency: the objective and the policy prices double.
Hourly prices, capacities and market values are not compared: a degenerate
LP may end at another optimal vertex of the relabelled problem.

Second formulations write the same market as another LP: the voltage law
with voltage angles instead of cycle rows, and a fixed line as an
expandable one whose capacity is pinned at the existing one.  Their optimum
and policy prices agree with the bundled LP's, and their solution passes the
KKT check; the angle LP's line books break even too.

Besides the bundled scenarios, the rotations and the reversed order run on
drawn systems (four seeded desk systems and a 48-h one with storage), each
under a binding CO2 cap and under a binding wind and solar quota.
"""

from dataclasses import replace

import numpy as np
import pytest

from powermarket.formulate import build_lp
from powermarket.metrics import Ledger
from powermarket.model import Co2Cap, Co2Tax, FixedFip, PolicyConfig, SupportDispatched
from powermarket.scenario import load_scenario
from powermarket.solve import solve
from powermarket.verify import check_zero_profit

from conftest import (
    BUNDLED_SCENARIOS,
    flexible_system,
    kkt_passes,
    random_desk_system,
    scenario_path,
)

STORAGE_FREE = ("fig1_no_policy.json", "fig1_support.json", "fig1_co2_cap.json",
                "wind_gas_168h.json")
DRAWN_SYSTEMS = {**{f"desk-{seed}": (random_desk_system, seed) for seed in range(1, 5)},
                 "flexible-48": (flexible_system, 48)}
DRAWN = tuple(f"{system}-{policy}" for system in DRAWN_SYSTEMS for policy in ("cap", "quota"))
TOL = 1e-9


def outcome(system, policy, lp=None):
    """The objective and the policy prices (``mu_co2``, ``mu_gamma``) of
    ``lp``, by default the LP of ``system`` under ``policy``; the solution
    of a given ``lp``, a second formulation, must pass the KKT check."""
    sol = solve(build_lp(system, policy) if lp is None else lp)
    assert sol.status == "optimal"
    assert lp is None or kkt_passes(sol)
    prices = Ledger.of(system, sol, policy).policy_prices
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


def twice(spec, *fields):
    """The named fields of ``spec`` that are set, doubled."""
    return {f: 2 * getattr(spec, f) for f in fields if getattr(spec, f) is not None}


def assert_same_prices(got, want):
    for key, mu in want.items():
        if mu is None:
            assert got[key] is None, key
        else:
            assert abs(got[key] - mu) <= TOL * max(1.0, abs(mu)), (key, got[key], mu)


@pytest.fixture(scope="module")
def cases():
    """name -> (system, policy, outcome) of every bundled scenario and every
    drawn system, the latter under a CO2 cap at half its policy-free
    emissions (``-cap``) and a dispatched quota of 0.9 on wind and solar
    (``-quota``); the policy price of each drawn case is positive."""
    out = {}
    for name in BUNDLED_SCENARIOS:
        system, policy, _ = load_scenario(scenario_path(name))
        out[name] = (system, policy, outcome(system, policy))
    for name, (draw, arg) in DRAWN_SYSTEMS.items():
        system = draw(arg)
        free = solve(build_lp(system, PolicyConfig()))
        emissions = Ledger.of(system, free, PolicyConfig()).emissions
        for kind, policy, price in (
                ("cap", PolicyConfig(co2=Co2Cap(emissions / 2)), "mu_co2"),
                ("quota", PolicyConfig(support=SupportDispatched(("wind", "solar"), share=0.9)),
                 "mu_gamma")):
            objective, prices = outcome(system, policy)
            assert prices[price] > 0.0, (name, kind)
            out[f"{name}-{kind}"] = (system, policy, (objective, prices))
    return out


@pytest.mark.parametrize("hours", [6, 24])
@pytest.mark.parametrize("name", BUNDLED_SCENARIOS + DRAWN)
def test_rotating_every_series_keeps_the_optimum(cases, name, hours):
    system, policy, (objective, prices) = cases[name]
    got_objective, got_prices = outcome(
        with_series(system, lambda s: np.roll(s, hours)), policy)
    assert abs(got_objective - objective) <= TOL * abs(objective)
    assert_same_prices(got_prices, prices)


@pytest.mark.parametrize("name", BUNDLED_SCENARIOS + DRAWN)
def test_reversing_the_placements_keeps_the_optimum(cases, name):
    system, policy, (objective, prices) = cases[name]
    reversed_system = replace(system, technologies=system.technologies[::-1],
                              storages=system.storages[::-1])
    got_objective, got_prices = outcome(reversed_system, policy)
    assert abs(got_objective - objective) <= TOL * abs(objective)
    assert_same_prices(got_prices, prices)


@pytest.mark.parametrize("name", STORAGE_FREE)
def test_each_hour_twice_doubles_the_objective(cases, name):
    # twice the hours at twice the annual cost is the LP scaled by 2, each
    # policy row included (a quota's share scales with the demand it is of)
    system, policy, (objective, prices) = cases[name]
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


@pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
def test_renaming_and_reordering_the_nodes_keeps_the_optimum(cases, name):
    system, policy, (objective, prices) = cases[name]
    new = {node: f"renamed-{i}" for i, node in enumerate(system.nodes)}
    renamed = replace(
        system, nodes=tuple(new[node] for node in system.nodes[::-1]),
        demand={new[node]: system.demand[node] for node in system.nodes[::-1]},
        technologies=tuple((new[node], spec) for node, spec in system.technologies),
        storages=tuple((new[node], sto) for node, sto in system.storages),
        lines=tuple(replace(line, from_node=new[line.from_node], to_node=new[line.to_node])
                    for line in system.lines))
    got_objective, got_prices = outcome(renamed, policy)
    assert abs(got_objective - objective) <= TOL * abs(objective)
    assert_same_prices(got_prices, prices)


@pytest.mark.parametrize("name, policy", [
    *((name, None) for name in BUNDLED_SCENARIOS),
    ("wind_gas_168h.json", PolicyConfig(support=FixedFip(("wind",), 5.0), co2=Co2Tax(30.0))),
], ids=[*BUNDLED_SCENARIOS, "wind_gas_168h.json-premium-tax"])
def test_doubling_every_cost_doubles_the_optimum(cases, name, policy):
    system, own_policy, (objective, prices) = cases[name]
    if policy is None:
        policy = own_policy
    else:
        objective, prices = outcome(system, policy)
    doubled = replace(
        system,
        technologies=tuple(
            (node, replace(spec, **twice(spec, "capex", "fixed_om", "variable_cost",
                                         "fuel_cost")))
            for node, spec in system.technologies),
        storages=tuple(
            (node, replace(sto, **twice(sto, "capex_discharge", "capex_charge",
                                        "capex_energy")))
            for node, sto in system.storages),
        lines=tuple(replace(line, **twice(line, "capex")) for line in system.lines),
        **twice(system, "voll"))
    if isinstance(policy.co2, Co2Tax):
        policy = replace(policy, co2=Co2Tax(2 * policy.co2.rate))
    if isinstance(policy.support, FixedFip):
        policy = replace(policy, support=replace(policy.support,
                                                 premium=2 * policy.support.premium))
    got_objective, got_prices = outcome(doubled, policy)
    assert abs(got_objective - 2 * objective) <= TOL * abs(2 * objective)
    assert_same_prices(got_prices, {key: None if mu is None else 2 * mu
                                    for key, mu in prices.items()})


def angle_lp(system, policy):
    """The LP of ``system`` under ``policy`` with the voltage law written with
    voltage angles: one free angle per node and snapshot, and one row
    x_l·f_l − θ_from + θ_to = 0 per line and snapshot instead of the
    ``kvl-cycle`` rows."""
    lp = build_lp(replace(system, kvl=False), policy)
    theta = {node: lp.add_columns(("theta", node), count=system.snapshots, lower=-np.inf)
             for node in system.nodes}
    for li, line in enumerate(system.lines):
        row = lp.add_rows(("kvl-angle", f"L{li}"), count=system.snapshots, sense="=")
        lp.add_entries(row, lp.col("f", f"L{li}"), line.reactance)
        lp.add_entries(row, theta[line.from_node], -1.0)
        lp.add_entries(row, theta[line.to_node], 1.0)
    return lp


def test_voltage_angles_keep_the_optimum(cases):
    # Hourly prices are not asserted: on this LP they are not unique, and the
    # angle LP ends at other ones.  The line books read the voltage-law rent
    # off the angle rows' duals, so both expandable lines break even.
    system, policy, (objective, prices) = cases["mesh_kvl_48h.json"]
    assert system.kvl
    lp = angle_lp(system, policy)
    got_objective, got_prices = outcome(system, policy, lp)
    assert abs(got_objective - objective) <= TOL * abs(objective)
    assert_same_prices(got_prices, prices)
    lines = [c for c in check_zero_profit(Ledger.of(system, solve(lp), policy))
             if c.check == "zero-profit-line"]
    assert [c.entity for c in lines] == ["L0", "L1"]
    assert all(c.verdict == "pass" for c in lines), [(c.entity, c.residual) for c in lines]


def test_a_pinned_expandable_line_is_the_fixed_line(cases):
    # mesh_kvl_48h's fixed line, made expandable at a cost with its capacity
    # column's upper bound set to its lower one, the existing capacity
    system, policy, (objective, prices) = cases["mesh_kvl_48h.json"]
    (li, line), = ((li, line) for li, line in enumerate(system.lines) if not line.expandable)
    assert line.existing_capacity > 0.0 and line.reverse_capacity() == line.existing_capacity
    expandable = replace(system, lines=tuple(
        replace(other, expandable=True, capex=219.18) if i == li else other
        for i, other in enumerate(system.lines)))
    lp = build_lp(expandable, policy)
    F = lp.col("F", f"L{li}")
    lp.columns.upper[F] = lp.columns.lower[F]
    got_objective, got_prices = outcome(expandable, policy, lp)
    cost = expandable.lines[li].annual_cost(system.discount_rate) * line.existing_capacity
    assert cost > 0.0
    assert abs(got_objective - cost - objective) <= TOL * abs(objective)
    assert_same_prices(got_prices, prices)
