import csv
import json

import numpy as np
import pytest

from powermarket.formulate import build_lp
from powermarket.metrics import (
    Ledger,
    build_report,
    nodal_prices,
    penetration_of,
    report_to_json,
    write_report_csv,
)
from powermarket.model import (
    Co2Cap,
    FixedFip,
    PolicyConfig,
    PowerSystem,
    SupportDispatched,
    TechnologySpec,
    tech_key,
)
from powermarket.scenario import load_scenario
from powermarket.solve import Session, solve

from conftest import (
    energy_of,
    scenario_path,
    solar_gas_system,
    two_tech_system,
)


def solved(system, policy=PolicyConfig()):
    lp = build_lp(system, policy)
    sol = solve(lp)
    assert sol.status == "optimal"
    return lp, sol


class TestHeadlineMetrics:
    def test_mv_equals_lcoe_without_policy(self, desk_system):
        lp, sol = solved(desk_system)
        ledger = Ledger.of(desk_system, sol, PolicyConfig())
        report = build_report(ledger)
        for name in ("wind", "solar", "ccgt", "ocgt"):
            energy = energy_of(ledger, name)
            if energy <= 0.0:
                continue
            tech = report.technologies[name]
            assert tech.mv == pytest.approx(tech.lcoe, rel=1e-6)

    def test_mv_none_for_unbuilt_tech(self):
        system = two_tech_system(wind_capex=1e9)
        lp, sol = solved(system)
        wind = build_report(Ledger.of(system, sol, PolicyConfig())).technologies["wind"]
        assert wind.mv is None
        assert wind.lcoe is None

    def test_support_drives_wedge_between_mv_and_lcoe(self):
        system = two_tech_system()
        policy = PolicyConfig(support=SupportDispatched(("wind",), share=0.85))
        lp, sol = solved(system, policy)
        mu = sol.dual("vre-dispatched")
        assert mu > 1e-6
        wind = build_report(Ledger.of(system, sol, policy)).technologies["wind"]
        assert wind.mv == pytest.approx(wind.lcoe - mu, rel=1e-6)

    def test_co2_cap_wedge_per_emission_factor(self, desk_system):
        policy = PolicyConfig(co2=Co2Cap(900.0))
        lp, sol = solved(desk_system, policy)
        mu = -sol.dual("co2-cap")
        assert mu > 0.0
        ledger = Ledger.of(desk_system, sol, policy)
        report = build_report(ledger)
        for _, spec in desk_system.technologies:
            if energy_of(ledger, spec.name) <= 0.0:
                continue
            tech = report.technologies[spec.name]
            assert tech.mv == pytest.approx(tech.lcoe + spec.emission_factor * mu, rel=1e-6)

    @pytest.mark.parametrize("dispatch", [1e-13, -1e-13])
    def test_round_off_dispatch_reads_as_none(self, dispatch):
        # an unbuilt technology left with round-off dispatch, as a warm
        # start can leave it, has no market value, LCOE or share
        system = two_tech_system(wind_capex=1e9)
        lp, sol = solved(system)
        wind = lp.col("g", tech_key("wind", "N"))
        assert not sol.x[wind].any()
        sol.x[wind.start] = dispatch
        ledger = Ledger.of(system, sol, PolicyConfig())
        assert energy_of(ledger, "wind") == dispatch
        assert ledger.market_values().get("wind") is None
        wind = build_report(ledger).technologies["wind"]
        assert wind.mv is None
        assert wind.lcoe is None
        assert wind.rmv is None
        assert wind.energy == dispatch
        assert (wind.mv, wind.lcoe, wind.rmv, wind.rmv_shares) == (None,) * 4
        assert penetration_of(ledger, ("wind",)) == 0.0

    def test_unbuilt_premium_tech_reports_the_premium(self):
        # without output there is no LCOE - MV to read: the report names
        # the premium itself
        system = two_tech_system(wind_capex=1e9)
        policy = PolicyConfig(support=FixedFip(("wind",), 5.0))
        lp, sol = solved(system, policy)
        wind = build_report(Ledger.of(system, sol, policy)).technologies["wind"]
        assert wind.energy == 0.0 and (wind.mv, wind.lcoe) == (None, None)
        assert wind.fip_equivalent == 5.0


class TestRmv:
    def test_single_tech_rmv_is_one(self):
        gas = TechnologySpec(name="gas", capex=50.0, lifetime=1.0,
                             variable_cost=10.0)
        system = PowerSystem(nodes=("N",), snapshots=6,
                             demand={"N": (5.0, 7.0, 9.0, 4.0, 8.0, 6.0)},
                             technologies=(("N", gas),), discount_rate=0.0)
        lp, sol = solved(system)
        report = build_report(Ledger.of(system, sol, PolicyConfig()))
        assert report.technologies["gas"].rmv == 1.0

    def test_share_decomposition_matches(self, desk_system):
        lp, sol = solved(desk_system)
        report = build_report(Ledger.of(desk_system, sol, PolicyConfig()))
        for name in ("wind", "solar", "ccgt", "ocgt"):
            r = report.technologies[name].rmv
            d = report.technologies[name].rmv_shares
            if r is None:
                assert d is None
                continue
            assert r == pytest.approx(d, rel=1e-6)


class TestSuppression:
    def test_suppressed_mv_dominates_raw(self):
        system = two_tech_system()
        policy = PolicyConfig(support=SupportDispatched(("wind",), share=0.9))
        lp, sol = solved(system, policy)
        report = build_report(Ledger.of(system, sol, policy), suppress_negative=True)
        raw, sup = report.technologies["wind"].mv, report.suppressed
        # the averages are those of the raw prices floored at 0
        floored = np.maximum(nodal_prices(system, sol)["N"], 0.0)
        assert sup["average_price"] == float(np.mean(floored))
        assert sup["market_values"]["wind"] >= raw
        assert sup["market_values"]["wind"] >= 0.0

    def test_noop_when_prices_positive(self, desk_system):
        lp, sol = solved(desk_system)
        ledger = Ledger.of(desk_system, sol, PolicyConfig())
        report = build_report(ledger, suppress_negative=True)
        sup = report.suppressed
        raw = ledger.market_values()
        assert sup["market_values"].keys() == raw.keys()
        assert np.allclose(
            [*sup["market_values"].values(), sup["load_weighted_price"], sup["average_price"]],
            [*raw.values(), report.load_weighted_price, report.average_price])


class TestReport:
    def test_report_fields_and_json(self, desk_system):
        lp, sol = solved(desk_system)
        report = build_report(Ledger.of(desk_system, sol, PolicyConfig()),
                              suppress_negative=True)
        doc = json.loads(report_to_json(report))
        assert set(doc["technologies"]) >= {"wind", "solar", "ccgt", "ocgt"}
        assert doc["mu_gamma"] is None and doc["mu_co2"] is None
        assert doc["suppressed"] is not None
        assert doc["average_system_cost"] > 0.0
        assert len(doc["price_duration"]["N"]) == desk_system.snapshots
        prices = doc["price_duration"]["N"]
        assert prices == sorted(prices, reverse=True)

    def test_a_solution_that_is_not_optimal_has_no_report(self):
        # a zero cap leaves the dark hours unservable without shedding
        system, policy = solar_gas_system(), PolicyConfig(co2=Co2Cap(0.0))
        sol = solve(build_lp(system, policy))
        assert sol.status == "infeasible"
        with pytest.raises(ValueError, match="got 'infeasible'"):
            Ledger.of(system, sol, policy)

    def test_total_cost_identity(self, desk_system):
        # payments by consumers equal total system cost without policy
        lp, sol = solved(desk_system)
        prices = nodal_prices(desk_system, sol)["N"]
        payments = float(np.dot(prices, desk_system.demand["N"]))
        assert payments == pytest.approx(sol.objective, rel=1e-8)

    def test_csv_output_is_stable(self, tmp_path, desk_system):
        lp, sol = solved(desk_system)
        report = build_report(Ledger.of(desk_system, sol, PolicyConfig()))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report_csv(report, p1, scenario="x")
        write_report_csv(report, p2, scenario="x")
        assert p1.read_bytes() == p2.read_bytes()
        rows = list(csv.DictReader(open(p1)))
        assert {r["technology"] for r in rows} >= {"wind", "solar"}

    def test_load_weighted_price_uses_demand(self, desk_system):
        lp, sol = solved(desk_system)
        prices = nodal_prices(desk_system, sol)["N"]
        d = np.array(desk_system.demand["N"])
        expected = float(np.dot(prices, d) / d.sum())
        report = build_report(Ledger.of(desk_system, sol, PolicyConfig()))
        assert report.load_weighted_price == pytest.approx(expected)


class TestOptimalVertices:
    def test_paper_sums_agree_across_optimal_vertices(self):
        # fig1_support's two-run cold solve (Session.solve) and a one-run
        # cold solve end at different optimal vertices of this degenerate
        # LP: hourly prices differ, the quantities the paper plots do not
        system, policy, _ = load_scenario(scenario_path("fig1_support.json"))
        lp = build_lp(system, policy)
        two_runs, one_run = Session().solve(lp), Session()._run(lp, False)
        assert not np.array_equal(nodal_prices(system, two_runs)["DE"],
                                  nodal_prices(system, one_run)["DE"])
        a, b = (build_report(Ledger.of(system, sol, policy)) for sol in (two_runs, one_run))

        def agree(x, y):
            x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
            return np.abs(x - y).max() <= 1e-9 * max(1.0, np.abs(x).max())
        assert a.technologies.keys() == b.technologies.keys()
        for name, tech in a.technologies.items():
            assert agree(tech.mv, b.technologies[name].mv), name
            assert agree(tech.lcoe, b.technologies[name].lcoe), name
        assert a.mu_gamma > 0.0 and agree(a.mu_gamma, b.mu_gamma)
        for curves, other in ((a.price_duration, b.price_duration),
                              (a.revenue_duration, b.revenue_duration)):
            assert curves.keys() == other.keys()
            for key, curve in curves.items():
                assert agree(curve, other[key]), key
