import json
from dataclasses import replace

import numpy as np
import pytest

import powermarket.verify
from powermarket.formulate import apply_equivalence_substitution, build_lp, cycle_basis
from powermarket.metrics import Ledger, build_report, reduced_costs, report_to_json
from powermarket.model import (
    Co2Cap,
    Co2Tax,
    FixedFip,
    LineSpec,
    PolicyConfig,
    PowerSystem,
    StorageSpec,
    SupportAvailable,
    SupportDispatched,
    TechnologySpec,
    synth_profiles,
    tech_key,
)
from powermarket.scenario import load_scenario
from powermarket.solve import Session, Solution, solve, solve_external, write_solution_file
from powermarket.verify import (
    DEFAULT_TOL,
    OracleError,
    brute_force_oracle,
    check_cap_tax_equivalence,
    check_kkt,
    check_subsidy_tax_lift,
    check_zero_profit,
    verify_solution,
)

from conftest import (
    BUNDLED_SCENARIOS,
    flexible_system,
    kkt_passes,
    random_desk_system,
    scenario_path,
    tiny_instance,
    two_tech_system,
)


class TestKkt:
    def test_optimal_solution_passes(self, desk_system):
        lp = build_lp(desk_system, PolicyConfig())
        sol = solve(lp)
        report = {r.entity: r for r in check_kkt(sol)}
        assert all(r.verdict == "pass" for r in report.values())
        assert report["primal"].residual <= 1e-9

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
        assert np.all(np.abs(reduced_costs(sol) - reference) <= bound)

    def test_tampered_primal_fails(self, desk_system):
        lp = build_lp(desk_system, PolicyConfig())
        sol = solve(lp)
        sol.x[0] += 5.0
        assert not kkt_passes(sol)

    def test_rounded_duals_fail(self, desk_system):
        # a solution file with duals rounded to integers must be caught
        lp = build_lp(desk_system, PolicyConfig())
        sol = solve(lp)
        sol.y = np.round(sol.y)
        assert not kkt_passes(sol)

    def test_nan_residual_fails(self, desk_system):
        lp = build_lp(desk_system, PolicyConfig())
        sol = solve(lp)
        lp.rows.rhs[:] = np.nan
        report = {r.entity: r for r in check_kkt(sol)}
        # the first residual is finite, so max() would drop the NaNs after it
        assert report["stationarity"].residual <= 1e-6 and np.isnan(report["primal"].residual)
        assert not kkt_passes(sol)
        # each row is judged on its own residual
        assert report["stationarity"].verdict == "pass" and report["primal"].verdict == "fail"


def bounded_desk_system() -> PowerSystem:
    """``random_desk_system(0, 48)`` with wind's potential at 50 MW and
    CCGT's at 40 MW, both of which bind under each policy of
    ``BOUNDED_PAYMENTS``."""
    base = random_desk_system(0, 48)
    potential = {"wind": 50.0, "ccgt": 40.0}
    return replace(base, technologies=tuple(
        (node, replace(spec, max_potential=potential.get(spec.name)))
        for node, spec in base.technologies))


def negative_cost_system(seed: int):
    """One node, 168 h, a daily load swing of ±30 % around 1e5 MW and four
    technologies with variable costs drawn down to -800 EUR/MWh, two of
    them wind-like and two emitters, under a drawn CO2 tax: placements
    whose costs are negative and of order 1e10 EUR."""
    rng = np.random.default_rng(seed)
    techs = []
    for i in range(4):
        capex, cost = float(rng.uniform(1e4, 2e5)), float(rng.uniform(-800.0, 80.0))
        extra = ({"availability": synth_profiles(10 * seed + i, 168, "wind-autocorrelated")}
                 if i < 2 else {"emission_factor": float(rng.uniform(0.0, 1.0))})
        techs.append(("N", TechnologySpec(name=f"t{i}", capex=capex, variable_cost=cost,
                                          **extra)))
    tax = Co2Tax(float(rng.uniform(0.0, 100.0)))
    demand = 1e5 * (1.0 + 0.3 * np.sin(2.0 * np.pi * np.arange(168) / 24.0))
    system = PowerSystem(nodes=("N",), snapshots=168, demand={"N": tuple(demand)},
                         technologies=tuple(techs))
    return system, PolicyConfig(co2=tax)


SUPPORTED = ("wind", "solar")
# (policy, the bounded placement it pays or charges, that payment from the solve)
BOUNDED_PAYMENTS = [
    (PolicyConfig(support=SupportDispatched(SUPPORTED, share=0.5)), "wind@N",
     lambda sol, acct: sol.dual("vre-dispatched") * acct.energy),
    (PolicyConfig(support=SupportAvailable(SUPPORTED, share=0.6)), "wind@N",
     lambda sol, acct: sol.dual("vre-available") * acct.available),
    (PolicyConfig(support=FixedFip(SUPPORTED, 10.0)), "wind@N",
     lambda sol, acct: 10.0 * acct.energy),
    (PolicyConfig(co2=Co2Cap(1000.0)), "ccgt@N",
     lambda sol, acct: sol.dual("co2-cap") * acct.spec.emission_factor * acct.energy),
    (PolicyConfig(co2=Co2Tax(30.0)), "ccgt@N",
     lambda sol, acct: -30.0 * acct.spec.emission_factor * acct.energy),
]


class TestZeroProfit:
    def test_no_policy_generators(self, desk_system):
        lp = build_lp(desk_system, PolicyConfig())
        sol = solve(lp)
        results = check_zero_profit(Ledger.of(desk_system, sol, PolicyConfig()))
        assert results and all(r.verdict == "pass" for r in results)

    def test_policy_terms_balance_the_books(self):
        system = two_tech_system()
        policy = PolicyConfig(support=SupportDispatched(("wind",), share=0.85),
                              co2=None)
        lp = build_lp(system, policy)
        sol = solve(lp)
        results = check_zero_profit(Ledger.of(system, sol, policy))
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
        lp = build_lp(system, PolicyConfig())
        sol = solve(lp)
        results = check_zero_profit(Ledger.of(system, sol, PolicyConfig()))
        assert all(r.verdict == "pass" for r in results)
        entry = next(r for r in results if r.entity == "cheap@N")
        assert entry.detail["scarcity_rent"] > 0.0

    @pytest.mark.parametrize("policy, entity, payment", BOUNDED_PAYMENTS,
                             ids=["dispatched", "available", "premium", "cap", "tax"])
    def test_a_binding_potential_under_each_instrument(self, policy, entity, payment):
        # the potential binds on the placement the instrument pays or charges
        system = bounded_desk_system()
        sol = solve(build_lp(system, policy))
        ledger = Ledger.of(system, sol, policy)
        rows = check_zero_profit(ledger)
        row = next(r for r in rows if r.entity == entity)
        acct = next(a for a in ledger.accounts if tech_key(a.name, a.node) == entity)
        assert all(r.verdict == "pass" for r in rows)
        assert row.detail["capacity"] == acct.spec.max_potential
        assert row.detail["scarcity_rent"] > 0.0 and abs(payment(sol, acct)) > 1.0
        assert row.detail["adjustment"] == pytest.approx(payment(sol, acct), rel=1e-12)

    @pytest.mark.parametrize("policy, entity, off", [
        (PolicyConfig(support=FixedFip(SUPPORTED, 10.0)), "wind@N",
         PolicyConfig(support=FixedFip(SUPPORTED, 10.01))),
        (PolicyConfig(co2=Co2Tax(30.0)), "ccgt@N", PolicyConfig(co2=Co2Tax(30.03))),
    ], ids=["premium", "tax"])
    def test_a_price_a_thousandth_off_fails(self, policy, entity, off):
        system = bounded_desk_system()
        sol = solve(build_lp(system, policy))
        row = next(r for r in check_zero_profit(Ledger.of(system, sol, off))
                   if r.entity == entity)
        assert row.verdict == "fail"

    @pytest.mark.parametrize("shift, verdict", [(0.0, "pass"), (10.0, "fail")])
    def test_a_negative_cost_is_judged_relative_to_its_size(self, shift, verdict):
        # t0's revenue and cost are both about -8.9e9 EUR, and the round-off
        # of their difference, 3.8e-6, is far within DEFAULT_TOL of that
        # size; a residual ten tolerances of it off still fails
        system, policy = negative_cost_system(3)
        ledger = Ledger.of(system, solve(build_lp(system, policy)), policy)
        shifted = [replace(b, residual=b.residual + shift * DEFAULT_TOL * abs(b.detail["cost"]))
                   if b.entity == "t0@N" else b for b in ledger.books]
        vars(ledger)["books"] = shifted  # the ledger's books, read once, are kept as its own
        row = next(r for r in check_zero_profit(ledger) if r.entity == "t0@N")
        assert row.detail["cost"] < -1e9 and row.verdict == verdict

    @pytest.mark.parametrize("premium, mv, lcoe", [(5.0, 42.478, 47.478),
                                                   (20.0, 29.442, 49.442)])
    def test_fixed_premium_balances_the_books(self, premium, mv, lcoe):
        # the premium is paid outside the market: wind's books balance with
        # it, and its market value falls short of its LCOE by exactly it
        system, _, _ = load_scenario(scenario_path("wind_gas_168h.json"))
        policy = PolicyConfig(support=FixedFip(("wind",), premium))
        ledger = Ledger.of(system, solve(build_lp(system, policy)), policy)
        row = next(r for r in check_zero_profit(ledger) if r.entity == "wind@N")
        wind = build_report(ledger).technologies["wind"]
        assert row.verdict == "pass" and wind.energy > 0.0
        assert row.detail["adjustment"] == pytest.approx(premium * wind.energy, rel=1e-12)
        assert (wind.mv, wind.lcoe) == pytest.approx((mv, lcoe), abs=1e-3)
        assert wind.mv == pytest.approx(wind.lcoe - premium, rel=1e-9)
        # with output, the premium equivalent is read off the books
        assert wind.fip_equivalent == pytest.approx(premium, rel=1e-9)

    def test_fixed_ratio_storage_and_a_fixed_line(self):
        # a battery whose energy capacity is four hours of its discharge
        # power pays for both through its discharge capacity; a line that
        # cannot be expanded costs nothing
        base = random_desk_system(3, 48)
        battery = StorageSpec(name="battery", capex_discharge=1000.0, capex_energy=500.0,
                              lifetime=20.0, eta_discharge=0.9, eta_charge=0.9,
                              fixed_energy_power_ratio=4.0)
        system = replace(base, nodes=("N", "M"),
                         demand={"N": base.demand["N"], "M": (20.0,) * 48},
                         storages=(("N", battery),),
                         lines=(LineSpec("N", "M", existing_capacity=30.0),))
        policy = PolicyConfig()
        sol = solve(build_lp(system, policy))
        row = next(r for r in verify_solution(Ledger.of(system, sol, policy))
                   if r.check == "zero-profit-storage")
        costs = battery.annual_costs(system.discount_rate)
        power = sol.primal("Gdis", "battery@N")
        assert row.verdict == "pass" and power > 0.0
        assert row.detail["cost"] == pytest.approx((costs["dis"] + 4.0 * costs["ene"]) * power,
                                                   rel=1e-12)
        assert build_report(Ledger.of(system, sol, policy)).cost_breakdown["line:L0"] == 0.0

    def test_report_json_is_valid(self, desk_system):
        lp = build_lp(desk_system, PolicyConfig())
        sol = solve(lp)
        doc = json.loads(report_to_json(
            verify_solution(Ledger.of(desk_system, sol, PolicyConfig()))))
        assert all(d["verdict"] in ("pass", "fail", "inconclusive") for d in doc)

    def test_report_sums_the_checked_accounts(self):
        # coal has three placements: the report's totals are the sums of
        # the books the check balances, bit for bit
        system, policy, lp = capped_ring()
        sol = solve(lp)
        coal = build_report(Ledger.of(system, sol, policy)).technologies["coal"]
        rows = [r for r in check_zero_profit(Ledger.of(system, sol, policy))
                if r.entity.startswith("coal@")]
        assert [r.entity for r in rows] == ["coal@N0", "coal@N1", "coal@N2"]
        assert coal.energy > 0.0 and coal.cost > 0.0
        assert coal.energy == sum(sol.primal("g", r.entity).sum() for r in rows)
        assert coal.revenue == sum(r.detail["revenue"] for r in rows)
        assert coal.cost == sum(r.detail["cost"] for r in rows)

    @pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
    def test_bundled_reports_sum_the_checked_costs(self, name):
        system, policy, _ = load_scenario(scenario_path(name))
        lp = build_lp(system, policy)
        sol = solve(lp)
        report = build_report(Ledger.of(system, sol, policy))
        rows = check_zero_profit(Ledger.of(system, sol, policy))
        for tech in system.tech_names():
            assert report.technologies[tech].cost == sum(
                r.detail["cost"] for r in rows if r.entity.startswith(f"{tech}@"))
        # storage units and expandable lines: the report holds the checked books
        storage = [r for r in rows if r.check == "zero-profit-storage"]
        lines = [r for r in rows if r.check == "zero-profit-line"]
        assert len(storage) == len(system.storages)
        assert len(lines) == sum(line.expandable for line in system.lines)
        for r in storage:
            assert report.storage_arbitrage[r.entity] == r.detail["arbitrage_revenue"]
            assert report.cost_breakdown[f"storage:{r.entity}"] == r.detail["cost"]
        for r in lines:
            assert report.congestion_revenue[r.entity] == r.detail["congestion_revenue"]
            assert report.cost_breakdown[f"line:{r.entity}"] == r.detail["cost"]


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
        voll=1000.0, discount_rate=0.0, kvl=True)
    policy = PolicyConfig(co2=Co2Cap(8.0))
    lp = build_lp(system, policy)
    return system, policy, lp


def quota_ring():
    """Wind and two coal units on a voltage-law triangle with flat load and
    a binding wind quota.  Several prices are not unique: the objective's
    slopes in an hour's demand differ on the two sides."""
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
        voll=1000.0, discount_rate=0.0, kvl=True)
    policy = PolicyConfig(support=SupportDispatched(("wind",), share=0.6))
    return system, policy, build_lp(system, policy)


def kvl_terms_by_cycle_basis(system, sol):
    """Reference for verify's cycle-dual term of each line, summed over the
    network's cycle basis, cycle by cycle."""
    out = {f"L{li}": 0.0 for li in range(len(system.lines))}
    for ci, cyc in enumerate(cycle_basis(system.lines)):
        y = sol.dual("kvl-cycle", f"c{ci}")
        for li, sign in cyc.items():
            f = sol.primal("f", f"L{li}")
            out[f"L{li}"] += float((y * (sign * system.lines[li].reactance) * f).sum())
    return out


class TestKvlTerms:
    def test_lp_entries_give_the_cycle_basis_terms(self):
        system, policy, lp = quota_ring()
        # a second line between N0 and N2 closes a second cycle
        chord = replace(system, lines=system.lines + (
            LineSpec("N0", "N2", expandable=True, capex=20.0, reactance=0.3),))
        for system, lp in ((system, lp), (chord, build_lp(chord, policy))):
            sol = solve(lp)
            terms = {b.entity: b.detail["kvl_term"]
                     for b in Ledger.of(system, sol, policy).books
                     if b.check == "zero-profit-line"}
            reference = kvl_terms_by_cycle_basis(system, sol)
            if len(cycle_basis(system.lines)) == 1:
                assert terms == reference
            else:  # a line's terms from two cycles are summed in another order
                scale = max(abs(v) for v in reference.values())
                assert terms == pytest.approx(reference, rel=0, abs=1e-12 * scale)
            assert max(abs(v) for v in terms.values()) > 1.0


class TestEquivalence:
    def test_non_unique_cap_prices_are_inconclusive(self, tmp_path):
        # a solution read from a file has no session to start the tax LP
        # from, so the tax LP is solved cold and lands on other prices than
        # a one-run cold solve of the cap LP
        system, policy, lp = capped_ring()
        write_solution_file(Session()._run(lp, False), tmp_path / "ring.sol")
        sol = solve_external(lp, tmp_path / "ring.sol")
        result, = check_cap_tax_equivalence(Ledger.of(system, sol, policy))
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
        result, = check_cap_tax_equivalence(Ledger.of(system, solve(lp), policy))
        assert result.verdict == "fail"

    def test_mirror_prices_that_are_not_quota_prices_fail(self, monkeypatch):
        def tampered(lp, *args, _solve=solve, **kwargs):
            sol = _solve(lp, *args, **kwargs)
            if lp.has_row("vre-dispatched", "mirror"):
                sol.y = sol.y * 1.001
            return sol
        monkeypatch.setattr(powermarket.verify, "solve", tampered)
        system, policy, lp = quota_ring()
        result, = check_subsidy_tax_lift(Ledger.of(system, solve(lp), policy))
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
        check_subsidy_tax_lift(Ledger.of(system, sol, policy))
        mirror, = solved
        quota = lp.row("vre-dispatched")
        tax = apply_equivalence_substitution(lp, {quota: sol.dual("vre-dispatched")})
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
        # it caps the dispatch blocks outside the quota row: coal, load shedding
        capped = mirror.entries.col[mirror.entries.row == n]
        outside = ("coal@N1", "coal@N2", "load-shedding@N0", "load-shedding@N1",
                   "load-shedding@N2")
        assert capped.tolist() == [j for key in outside
                                   for j in range(len(lp.columns))[lp.col("g", key)]]

    def test_cap_tax_resolves_warm(self):
        system, policy, _ = load_scenario(scenario_path("fig1_co2_cap.json"))
        lp = build_lp(system, policy)
        # from the basis of a one-run cold cap solve, in its model switched
        # to Devex; a cold solve of the tax LP takes 106
        sol = Session()._run(lp, False)
        result, = check_cap_tax_equivalence(Ledger.of(system, sol, policy))
        assert result.verdict == "pass"
        assert result.detail["warm_start"] is True
        assert result.detail["tax_iterations"] == 2

    def test_warm_start_does_not_make_the_check_vacuous(self, monkeypatch):
        def off(lp, prices, _substitute=apply_equivalence_substitution):
            return _substitute(lp, {row: 1.01 * mu for row, mu in prices.items()})
        monkeypatch.setattr(powermarket.verify, "apply_equivalence_substitution", off)
        system, policy, _ = load_scenario(scenario_path("fig1_co2_cap.json"))
        lp = build_lp(system, policy)
        result, = check_cap_tax_equivalence(Ledger.of(system, solve(lp), policy))
        assert result.detail["warm_start"] is True
        assert result.verdict != "pass"

    def test_non_unique_quota_prices_are_inconclusive(self):
        system, policy, lp = quota_ring()
        sol = solve(lp)
        # the solved prices are optimal duals, at whichever vertex the
        # solver ends ...
        assert kkt_passes(sol)
        # ... yet the price of N0 at t0 is not unique: the objective falls by
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
        result, = check_subsidy_tax_lift(Ledger.of(system, sol, policy))
        assert result.residual > 1e-6
        assert result.verdict == "inconclusive"

    def test_cap_tax_on_desk_system(self, desk_system):
        policy = PolicyConfig(co2=Co2Cap(900.0))
        lp = build_lp(desk_system, policy)
        result, = check_cap_tax_equivalence(Ledger.of(desk_system, solve(lp), policy))
        assert result.verdict == "pass"
        assert result.detail["mu_co2"] > 0.0

    @pytest.mark.parametrize("name", ["flexible_system", "vre_flex_168h"])
    def test_cap_tax_on_storage_lp_with_a_binding_cap(self, name):
        # a storage LP takes one cold run (no sample), and its cap here is
        # half of its policy-free emissions, so it binds
        if name == "flexible_system":
            system = flexible_system()
        else:
            system, _, _ = load_scenario(scenario_path(f"{name}.json"))
        free = solve(build_lp(system, PolicyConfig()))
        emissions = Ledger.of(system, free, PolicyConfig()).emissions
        policy = PolicyConfig(co2=Co2Cap(0.5 * emissions))
        lp = build_lp(system, policy)
        result, = check_cap_tax_equivalence(Ledger.of(system, solve(lp), policy))
        assert result.detail["mu_co2"] > 0.0
        assert result.verdict == "pass"

    def test_subsidy_tax_lift_on_two_tech(self):
        system = two_tech_system()
        policy = PolicyConfig(support=SupportDispatched(("wind",), share=0.85))
        lp = build_lp(system, policy)
        result, = check_subsidy_tax_lift(Ledger.of(system, solve(lp), policy))
        assert result.verdict == "pass"
        assert result.detail["mu_gamma"] > 0.0

    @pytest.mark.parametrize("check, system_of, what", [
        (check_cap_tax_equivalence, capped_ring, "tax"),
        (check_subsidy_tax_lift, quota_ring, "mirror"),
    ], ids=["cap-tax", "subsidy-lift"])
    def test_a_solve_that_is_not_optimal_is_inconclusive(self, monkeypatch, check,
                                                         system_of, what):
        system, policy, lp = system_of()
        # a solution as solve returns it for an LP without an optimum has
        # no ledger, so no check runs on it
        with pytest.raises(ValueError, match="got 'infeasible'"):
            Ledger.of(system, Solution(lp, status="infeasible"), policy)
        sol = solve(lp)
        monkeypatch.setattr(powermarket.verify, "solve",
                            lambda relaxed, **kwargs: Solution(relaxed, "iteration-limit"))
        result, = check(Ledger.of(system, sol, policy))
        assert (result.verdict, result.detail) == \
            ("inconclusive", {"reason": f"{what} solve iteration-limit"})
        assert np.isnan(result.residual)

    def test_requires_matching_policy_kind(self, desk_system):
        # a policy without the check's instrument gets no result
        lp = build_lp(desk_system, PolicyConfig())
        sol = solve(lp)
        assert check_cap_tax_equivalence(Ledger.of(desk_system, sol, PolicyConfig())) == []
        assert check_subsidy_tax_lift(Ledger.of(desk_system, sol, PolicyConfig())) == []


def assert_oracle_agrees(system: PowerSystem) -> None:
    """The oracle's status, objective and unique prices are the solver's."""
    sol = solve(build_lp(system, PolicyConfig()))
    oracle = brute_force_oracle(system)
    assert oracle.status == sol.status
    if sol.status != "optimal":
        return
    assert sol.objective == pytest.approx(oracle.objective, rel=1e-9)
    for t in range(system.snapshots):
        if oracle.price_unique[t]:
            assert sol.dual("balance", "N")[t] == pytest.approx(
                oracle.prices[t], abs=1e-6 * max(1.0, abs(oracle.prices[t])))


def one_node(demand, *techs, voll=50.0, max_potential=None) -> PowerSystem:
    """A single-node system of ``techs``, each (marginal cost, availability);
    ``max_potential`` bounds the first."""
    return PowerSystem(nodes=("N",), snapshots=len(demand), demand={"N": demand},
                       technologies=tuple(
                           ("N", TechnologySpec(name=f"t{i}", capex=1.0 + i, lifetime=1.0,
                                                variable_cost=cost, availability=avail,
                                                max_potential=None if i else max_potential))
                           for i, (cost, avail) in enumerate(techs)),
                       voll=voll, discount_rate=0.0)


class TestOracle:
    def test_agrees_with_solver_on_tiny_instances(self):
        for seed in range(20):
            assert_oracle_agrees(tiny_instance(seed))

    @pytest.mark.parametrize("system", [
        # the cheapest unit is dark in hour 0: its merit-order prefix spans no plane there
        one_node((2.0, 3.0, 1.0), (1.0, (0.0, 1.0, 0.5)), (5.0, None)),
        # without VOLL every hour must be served by capacity
        one_node((2.0, 3.0), (1.0, (0.5, 1.0)), (5.0, None), voll=None),
        # at a demand of 1e9 the covering capacity leaves a rounding residual
        # of an ulp, which an absolute tolerance read as unserved load
        one_node((1e9,), (1.0, (0.7,)), voll=None),
        # demand below 2 eps: no left difference quotient, the right one prices it
        one_node((1e-6, 2.0), (1.0, None)),
        # three units, each available at 1e-4 in one hour only: the vertex that
        # serves all three hours has a determinant of 1e-12 but full rank
        one_node((1.0, 1.0, 1.0), *((1.0 + i, tuple(1e-4 * (t == i) for t in range(3)))
                                    for i in range(3)), voll=None),
    ], ids=["dark-merit-order-prefix", "no-voll", "no-voll-large-demand",
            "tiny-demand-hour", "covering-vertex-of-tiny-determinant"])
    def test_agrees_with_solver_at_the_edges(self, system):
        assert_oracle_agrees(system)

    def test_zero_demand_hour_has_no_unique_price(self):
        # every price from 0 (HiGHS' dual here) to the unit's marginal cost 1 is a dual
        oracle = brute_force_oracle(one_node((0.0, 2.0), (1.0, None)))
        assert oracle.prices.tolist() == pytest.approx([1.0, 2.0])
        assert oracle.price_unique.tolist() == [False, True]

    def test_rejects_large_instances(self, desk_system):
        with pytest.raises(OracleError, match="too large"):
            brute_force_oracle(desk_system)

    @pytest.mark.parametrize("system, message", [
        (flexible_system(4), "oracle needs 1 node, no storage/network"),
        (PowerSystem(nodes=("N",), snapshots=1, demand={"N": (1.0,)}, technologies=()),
         "instance too large or without technologies"),
        # the potential bound is no plane of the enumeration
        (one_node((3.0, 2.0), (1.0, None), (5.0, None), max_potential=1.0),
         "no max_potential allowed"),
        # hour 0 is served only at an availability of 1e-17, which shares a
        # matrix with a 1: every vertex serving it has rank 1, and HiGHS, which
        # drops the entry, reports the LP infeasible
        (one_node((1.0, 1.0), (1.0, (1e-17, 1.0)), (5.0, (0.0, 1.0)), voll=None),
         "no enumerated capacity vertex serves the demand"),
    ], ids=["storage", "no-technologies", "max-potential", "rank-deficient-covering-vertex"])
    def test_rejects_what_it_cannot_enumerate(self, system, message):
        with pytest.raises(OracleError, match=message):
            brute_force_oracle(system)

    def test_infeasible_without_shedding(self):
        dark = TechnologySpec(name="dark", capex=1.0, lifetime=1.0,
                              availability=(0.0, 1.0))
        system = PowerSystem(nodes=("N",), snapshots=2,
                             demand={"N": (1.0, 1.0)},
                             technologies=(("N", dark),), voll=None,
                             discount_rate=0.0)
        assert brute_force_oracle(system).status == "infeasible"
        assert solve(build_lp(system, PolicyConfig())).status == "infeasible"

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
