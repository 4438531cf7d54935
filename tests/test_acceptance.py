"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The suite exercises the equilibrium theorems on seeded desk-scale systems
(1-5 nodes, 48-672 snapshots) plus exact tiny-instance oracles; run with
``pytest -v -s tests/test_acceptance.py`` to see the per-criterion lines.
"""

import dataclasses
import time

import numpy as np

from powermarket.formulate import build_lp
from powermarket.metrics import Ledger, build_report, nodal_prices
from powermarket.model import (
    Co2Cap,
    LineSpec,
    PolicyConfig,
    PowerSystem,
    SupportDispatched,
    TechnologySpec,
    tech_key,
)
from powermarket.scenario import load_scenario
from powermarket.solve import solve
from powermarket.verify import (
    brute_force_oracle,
    check_cap_tax_equivalence,
    check_subsidy_tax_lift,
    check_zero_profit,
)

from conftest import (
    energy_of,
    flexible_system,
    random_desk_system,
    scenario_path,
    tiny_instance,
    two_tech_system,
)


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _solved(system, policy=PolicyConfig()):
    lp = build_lp(system, policy)
    sol = solve(lp)
    assert sol.status == "optimal"
    return lp, sol


def _emissions(system, sol) -> float:
    return Ledger.of(system, sol, PolicyConfig()).emissions


SEEDS = range(50)


def test_criterion_01_zero_profit_no_policy():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in SEEDS:
        system = random_desk_system(seed)
        lp, sol = _solved(system)
        prices = nodal_prices(system, sol)["N"]
        for node, spec in system.technologies:
            G = sol.primal("G", tech_key(spec.name, node))
            if G <= 1e-9:
                continue
            g = sol.primal("g", tech_key(spec.name, node))
            revenue = float(prices @ g)
            cost = spec.annual_cost(system.discount_rate) * G \
                + spec.marginal_cost * float(g.sum())
            worst = max(worst, abs(revenue - cost) / cost)
    elapsed = time.perf_counter() - t0
    _report(1, worst <= 1e-6 and elapsed < 300.0,
            f"50 systems, max |revenue-cost|/cost = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_total_cost_identity():
    worst = 0.0
    for seed in SEEDS:
        system = random_desk_system(seed)
        lp, sol = _solved(system)
        prices = nodal_prices(system, sol)["N"]
        payments = float(prices @ np.array(system.demand["N"]))
        # every placement's cost, load shedding included
        total = sum(a.cost for a in Ledger.of(system, sol, PolicyConfig()).accounts)
        worst = max(worst, abs(payments - total) / abs(total))
    _report(2, worst <= 1e-8,
            f"max |payments - total cost| / cost = {worst:.2e}")


GAMMAS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


def _support_sweep_solutions():
    system = two_tech_system(wind_capex=90000.0)
    out = []
    for gamma in GAMMAS:
        policy = PolicyConfig(support=SupportDispatched(("wind",), share=gamma))
        lp, sol = _solved(system, policy)
        out.append((gamma, system, policy, sol))
    return out


def test_criterion_03_support_relation_and_cannibalisation():
    points = _support_sweep_solutions()
    worst = 0.0
    mvs = []
    for gamma, system, policy, sol in points:
        mu = sol.dual("vre-dispatched")
        assert mu > 1e-9, "support must bind at every grid point"
        wind = build_report(Ledger.of(system, sol, policy)).technologies["wind"]
        mv, lc = wind.mv, wind.lcoe
        worst = max(worst, abs(mv - (lc - mu)) / max(1.0, abs(lc)))
        mvs.append(mv)
    decreasing = all(b <= a + 1e-9 for a, b in zip(mvs, mvs[1:]))
    reaches_zero = min(mvs) <= 0.0
    _report(3, worst <= 1e-6 and decreasing and reaches_zero,
            f"max |MV-(LCOE-mu)| = {worst:.2e}, weakly decreasing={decreasing}, "
            f"min MV = {min(mvs):.1f}")


def test_criterion_04_co2_relation():
    system = two_tech_system(wind_capex=90000.0)
    lp0, sol0 = _solved(system)
    e0 = _emissions(system, sol0)
    worst = worst_clean = 0.0
    for frac in (0.8, 0.6, 0.4, 0.2):
        policy = PolicyConfig(co2=Co2Cap(frac * e0))
        lp, sol = _solved(system, policy)
        mu = -sol.dual("co2-cap")
        ledger = Ledger.of(system, sol, policy)
        report = build_report(ledger)
        for _, spec in system.technologies:
            if energy_of(ledger, spec.name) <= 0.0:
                continue
            mv, lc = report.technologies[spec.name].mv, report.technologies[spec.name].lcoe
            dev = abs(mv - (lc + spec.emission_factor * mu)) / max(1.0, abs(lc))
            worst = max(worst, dev)
            if spec.emission_factor == 0.0:
                worst_clean = max(worst_clean, abs(mv - lc) / max(1.0, abs(lc)))
    _report(4, worst <= 1e-6,
            f"max |MV-(LCOE+e*mu)| = {worst:.2e}, "
            f"emission-free MV=LCOE dev = {worst_clean:.2e}")


def test_criterion_05_cap_tax_equivalence():
    verdicts = []
    worst = 0.0
    for seed in range(20):
        system = random_desk_system(seed)
        lp0, sol0 = _solved(system)
        cap = 0.35 * max(_emissions(system, sol0), 1.0)
        policy = PolicyConfig(co2=Co2Cap(cap))
        result, = check_cap_tax_equivalence(
            Ledger.of(system, _solved(system, policy)[1], policy))
        verdicts.append(result.verdict)
        worst = max(worst, result.detail.get("price_deviation", float("nan")))
    ok = all(v == "pass" for v in verdicts)
    _report(5, ok, f"20 instances, verdicts={set(verdicts)}, "
                   f"max relative price deviation = {worst:.2e}")


def test_criterion_06_subsidy_tax_lift():
    verdicts = []
    worst = 0.0
    for seed in range(20):
        system = random_desk_system(seed)
        policy = PolicyConfig(
            support=SupportDispatched(("wind", "solar"), share=0.8))
        result, = check_subsidy_tax_lift(
            Ledger.of(system, _solved(system, policy)[1], policy))
        verdicts.append(result.verdict)
        worst = max(worst,
                    result.detail.get("price_deviation", float("nan")),
                    result.detail.get("mv_deviation", float("nan")))
    ok = all(v == "pass" for v in verdicts)
    _report(6, ok, f"20 instances, verdicts={set(verdicts)}, "
                   f"max lift deviation = {worst:.2e}")


def test_criterion_07_storage_arbitrage():
    system = flexible_system()
    policy = PolicyConfig(co2=Co2Cap(0.0))
    lp, sol = _solved(system, policy)
    storage = [b.detail for b in Ledger.of(system, sol, policy).books
               if b.check == "zero-profit-storage"]
    built = [(d["arbitrage_revenue"], d["cost"]) for d in storage if d["cost"] > 1.0]
    assert built, "the tight-cap run must actually build storage"
    worst = max(abs(arb - c) / c for arb, c in built)
    _report(7, worst <= 1e-6,
            f"{len(built)} storage(s) built, max |arbitrage-cost|/cost = {worst:.2e}")


def test_criterion_08_congestion_revenue():
    T = 24
    rng = np.random.default_rng(5)
    cheap = TechnologySpec(name="cheap", capex=300.0, lifetime=1.0, variable_cost=20.0)
    mid = TechnologySpec(name="mid", capex=250.0, lifetime=1.0, variable_cost=60.0)
    dear = TechnologySpec(name="dear", capex=200.0, lifetime=1.0, variable_cost=100.0)
    lines = (LineSpec("A", "B", expandable=True, capex=80.0, reactance=1.0),
             LineSpec("B", "C", expandable=True, capex=60.0, reactance=1.0),
             LineSpec("A", "C", expandable=True, capex=70.0, reactance=1.0))
    system = PowerSystem(
        nodes=("A", "B", "C"), snapshots=T,
        demand={"A": tuple((10 + 5 * rng.random(T)).tolist()),
                "B": tuple((60 + 30 * rng.random(T)).tolist()),
                "C": tuple((50 + 25 * rng.random(T)).tolist())},
        technologies=(("A", cheap), ("B", mid), ("C", dear)),
        lines=lines, discount_rate=0.0)

    # KCL only: price-difference revenue covers the line cost directly
    lp, sol = _solved(system)
    results = [r for r in check_zero_profit(Ledger.of(system, sol, PolicyConfig()))
               if r.check == "zero-profit-line"]
    worst_kcl = max(r.residual for r in results)
    cycle_terms_kcl = max(abs(r.detail["kvl_term"]) for r in results)

    # with the voltage law the cycle term appears and closes the identity
    lp, sol = _solved(dataclasses.replace(system, kvl=True))
    results = [r for r in check_zero_profit(Ledger.of(system, sol, PolicyConfig()))
               if r.check == "zero-profit-line"]
    worst_kvl = max(r.residual for r in results)
    cycle_terms_kvl = max(abs(r.detail["kvl_term"]) for r in results)
    ok = worst_kcl <= 1e-6 and worst_kvl <= 1e-6 and \
        cycle_terms_kcl == 0.0 and cycle_terms_kvl > 1.0
    _report(8, ok, f"KCL residual = {worst_kcl:.2e}, KVL residual = {worst_kvl:.2e}, "
                   f"cycle term magnitude = {cycle_terms_kvl:.1f}")


def test_criterion_09_oracle_equivalence():
    worst_obj = worst_dual = 0.0
    n_infeasible = n_unique = 0
    for seed in range(200):
        system = tiny_instance(seed)
        lp = build_lp(system, PolicyConfig())
        sol = solve(lp)
        oracle = brute_force_oracle(system)
        assert sol.status == oracle.status
        if sol.status != "optimal":
            n_infeasible += 1
            continue
        worst_obj = max(worst_obj,
                        abs(sol.objective - oracle.objective)
                        / max(1.0, abs(oracle.objective)))
        for t in range(system.snapshots):
            if oracle.price_unique[t]:
                n_unique += 1
                worst_dual = max(worst_dual,
                                 abs(sol.dual("balance", "N")[t] - oracle.prices[t])
                                 / max(1.0, abs(oracle.prices[t])))
    ok = worst_obj <= 1e-9 and worst_dual <= 1e-6
    _report(9, ok, f"200 instances ({n_infeasible} infeasible), "
                   f"max objective dev = {worst_obj:.2e}, "
                   f"max dual dev over {n_unique} unique prices = {worst_dual:.2e}")


def test_criterion_10_negative_price_suppression():
    raw, suppressed = [], []
    for gamma, system, policy, sol in _support_sweep_solutions():
        ledger = Ledger.of(system, sol, policy)
        raw.append(ledger.market_values()["wind"])
        report = build_report(ledger, suppress_negative=True)
        suppressed.append(report.suppressed["market_values"]["wind"])
    dominates = all(s >= r - 1e-9 for s, r in zip(suppressed, raw))
    ok = dominates and min(suppressed) >= 0.0
    _report(10, ok, f"suppressed >= raw pointwise = {dominates}, "
                    f"min suppressed MV = {min(suppressed):.2f} "
                    f"(raw min = {min(raw):.2f})")


def test_criterion_11_two_day_policy_comparison():
    sys_a, pol_a, _ = load_scenario(scenario_path("fig1_no_policy.json"))
    sys_b, pol_b, _ = load_scenario(scenario_path("fig1_support.json"))
    sys_c, pol_c, _ = load_scenario(scenario_path("fig1_co2_cap.json"))
    lp_a, sol_a = _solved(sys_a, pol_a)
    lp_b, sol_b = _solved(sys_b, pol_b)
    lp_c, sol_c = _solved(sys_c, pol_c)
    lam_a = nodal_prices(sys_a, sol_a)["DE"]
    lam_b = nodal_prices(sys_b, sol_b)["DE"]
    lam_c = nodal_prices(sys_c, sol_c)["DE"]

    # (a) no policy: solar earns exactly its cost
    solar_a = build_report(Ledger.of(sys_a, sol_a, pol_a)).technologies["solar"]
    mv_a, lc_a = solar_a.mv, solar_a.lcoe
    a_ok = abs(mv_a - lc_a) <= 1e-6 * max(1.0, abs(lc_a))

    # (b) support: negative prices appear and equal -mu in solar hours
    mu = sol_b.dual("vre-dispatched")
    neg = lam_b < -1e-6
    solar_avail_b = np.array([sys_b.technologies[0][1].availability_at(t)
                              for t in range(48)])
    b_ok = bool(neg.any()) and mu > 0.0 \
        and np.all(np.abs(lam_b[neg] + mu) <= 1e-6 * max(1.0, mu)) \
        and np.all(solar_avail_b[neg] > 0.0)

    # (c) cap at the same solar share: zero (not negative) prices in the
    # solar-curtailment hours, higher prices in some fossil hour
    share_b = energy_of(Ledger.of(sys_b, sol_b, pol_b), "solar") / sys_b.total_demand()
    share_c = energy_of(Ledger.of(sys_c, sol_c, pol_c), "solar") / sys_c.total_demand()
    zero_hours = np.abs(lam_c) <= 1e-6
    fossil_hours = np.array([sys_a.technologies[0][1].availability_at(t) == 0.0
                             for t in range(48)])
    c_ok = abs(share_c - share_b) <= 2e-3 \
        and lam_c.min() >= -1e-9 and bool(zero_hours.any()) \
        and bool((lam_c[fossil_hours] > lam_a[fossil_hours] + 1e-6).any())
    _report(11, a_ok and b_ok and c_ok,
            f"(a) |MV-LCOE| ok={a_ok}; (b) {int(neg.sum())} negative-price "
            f"hours at -mu ok={b_ok}; (c) share {share_c:.4f} vs {share_b:.4f}, "
            f"{int(zero_hours.sum())} zero-price hours ok={c_ok}")


def test_fig1_cap_is_the_cap_at_the_quota_share():
    """``fig1_co2_cap.json``'s cap, to the 4 decimals it holds, is the one at
    which solar reaches ``fig1_support.json``'s quota share on the
    no-policy system: 45 bisection steps between 0 and the policy-free
    emissions, each a cold solve."""
    system, _, _ = load_scenario(scenario_path("fig1_no_policy.json"))
    _, quota, _ = load_scenario(scenario_path("fig1_support.json"))
    _, capped, _ = load_scenario(scenario_path("fig1_co2_cap.json"))
    target = quota.support.share
    lo, hi = 0.0, _emissions(system, _solved(system)[1])
    for _ in range(45):
        mid = 0.5 * (lo + hi)
        policy = PolicyConfig(co2=Co2Cap(mid))
        sol = solve(build_lp(system, policy))
        if sol.status != "optimal" or energy_of(
                Ledger.of(system, sol, policy), "solar") / system.total_demand() > target:
            lo = mid
        else:
            hi = mid
    assert round(hi, 4) == capped.co2.cap, f"the cap at solar share {target} is {hi:.4f}"


def test_criterion_12_rmv_identity():
    worst = 0.0
    for seed in range(10):
        system = random_desk_system(seed)
        lp, sol = _solved(system)
        report = build_report(Ledger.of(system, sol, PolicyConfig()))
        for _, spec in system.technologies:
            r = report.technologies[spec.name].rmv
            d = report.technologies[spec.name].rmv_shares
            if r is None:
                continue
            worst = max(worst, abs(r - d))
    gas = TechnologySpec(name="gas", capex=50.0, lifetime=1.0, variable_cost=10.0)
    single = PowerSystem(nodes=("N",), snapshots=6,
                         demand={"N": (5.0, 7.0, 9.0, 4.0, 8.0, 6.0)},
                         technologies=(("N", gas),), discount_rate=0.0)
    lp, sol = _solved(single)
    single_rmv = build_report(Ledger.of(single, sol, PolicyConfig())).technologies["gas"].rmv
    ok = worst <= 1e-6 and single_rmv == 1.0
    _report(12, ok, f"max |RMV - cost-share/energy-share| = {worst:.2e}, "
                    f"single-tech RMV = {single_rmv!r}")
