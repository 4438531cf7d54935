import csv
import io
import json

import pytest

import powermarket.sweep
from powermarket.scenario import load_plan, load_scenario
from powermarket.solve import Session
from powermarket.sweep import (
    SweepPlan,
    SweepResult,
    _solve_point,
    run_sweep,
    sweep_csv_text,
    sweep_manifest,
)

from conftest import scenario_path, solar_gas_system, two_tech_system


@pytest.fixture(scope="module")
def support_plan():
    return SweepPlan(system=two_tech_system(), axis="support_share",
                     values=(0.2, 0.5, 0.8, 0.95),
                     policy_set=("wind",), name="t")


class TestPlanValidation:
    def test_unknown_axis(self):
        with pytest.raises(ValueError, match="axis"):
            SweepPlan(system=two_tech_system(), axis="voll", values=(1.0,))

    def test_unsorted_values(self):
        with pytest.raises(ValueError, match="sorted"):
            SweepPlan(system=two_tech_system(), axis="co2_tax",
                      values=(2.0, 1.0))

    def test_support_axis_needs_policy_set(self):
        with pytest.raises(ValueError, match="policy_set"):
            SweepPlan(system=two_tech_system(), axis="support_share",
                      values=(0.1,))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_values(self, bad):
        with pytest.raises(ValueError, match="finite"):
            SweepPlan(system=two_tech_system(), axis="co2_tax", values=(1.0, bad))

    def test_intensity_converts_to_absolute_cap(self):
        system = two_tech_system()
        plan = SweepPlan(system=system, axis="co2_intensity", values=(0.1,))
        policy = plan.policy_at(0.1)
        assert policy.co2.cap == pytest.approx(0.1 * system.total_demand())


class TestRunSweep:
    def test_single_point_no_policy(self):
        plan = SweepPlan(system=two_tech_system(), axis="support_share",
                         values=(0.0,), policy_set=("wind",))
        result = run_sweep(plan)
        point = result.points[0]
        assert point.status == "optimal" and point.verdict == "pass"
        assert point.report.mu_gamma is None

    def test_points_in_axis_order_and_verified(self, support_plan):
        result = run_sweep(support_plan)
        assert [p.value for p in result.points] == list(support_plan.values)
        assert result.all_verified

    def test_infeasible_tail_is_recorded_not_fatal(self):
        # a zero cap without storage leaves the dark hours unservable when
        # shedding is disabled; the point is recorded, the grid continues
        plan = SweepPlan(system=solar_gas_system(), axis="co2_cap", values=(0.0, 1e9))
        result = run_sweep(plan)
        assert result.points[0].status == "infeasible"
        assert result.points[0].verdict == "skipped"
        assert result.points[1].status == "optimal"

    def test_a_point_that_raises_is_recorded_not_fatal(self):
        # a negative cap fails validation: the point keeps the error, the
        # grid goes on and the next point is solved and verified
        system, _, _ = load_scenario(scenario_path("wind_gas_168h.json"))
        plan = SweepPlan(system=system, axis="co2_cap", values=(-1.0, 855.558),
                         policy_set=("wind",))
        result = run_sweep(plan)
        bad, good = result.points
        assert (bad.status, bad.verdict, bad.report) == ("error", "skipped", None)
        assert bad.message.startswith(
            "FormulationError: invalid system/policy: policy: co2-cap")
        assert (good.status, good.verdict) == ("optimal", "pass")
        assert good.penetration == pytest.approx(0.9, abs=1e-6)
        assert result.all_verified
        rows = list(csv.reader(io.StringIO(sweep_csv_text(plan, result))))
        assert rows[1] == ["-1.0", "error", "skipped"] + [""] * (len(rows[0]) - 3)

    def test_binding_support_hits_share_exactly(self, support_plan):
        result = run_sweep(support_plan)
        last = result.points[-1]
        assert last.report.mu_gamma > 0.0
        assert last.penetration == pytest.approx(0.95, abs=1e-9)

    def test_manifest_digest_is_stable(self, support_plan):
        r1 = run_sweep(support_plan)
        m1 = sweep_manifest(support_plan, r1)
        m2 = sweep_manifest(support_plan, run_sweep(support_plan))
        assert m1 == m2
        assert len(m1["config_sha256"]) == 64
        json.dumps(m1)  # must be serializable


class TestInstrumentAxes:
    """The available-energy quota and CO2 tax axes on ``wind_gas_168h``."""

    @staticmethod
    def sweep(axis: str, values: tuple) -> list:
        system, _, _ = load_scenario(scenario_path("wind_gas_168h.json"))
        result = run_sweep(SweepPlan(system=system, axis=axis, values=values,
                                     policy_set=("wind",)))
        assert {(p.status, p.verdict) for p in result.points} == {("optimal", "pass")}
        return result.points

    def test_available_target_axis(self):
        points = self.sweep("available_target", (0.5, 0.7, 0.9, 1.0))
        # below the policy-free penetration (0.743) the row does not bind
        for point in points[:-1]:
            wind = point.report.technologies["wind"]
            assert point.report.mu_theta == 0.0
            assert wind.mv == pytest.approx(wind.lcoe, rel=1e-9)
        # at share 1.0 wind earns its cost less μ_θ per available MWh
        top = points[-1].report
        wind, equivalent = top.technologies["wind"], top.mu_theta_equivalent["wind"]
        assert top.mu_theta == pytest.approx(3.237, abs=1e-3)
        assert equivalent == pytest.approx(4.244, abs=1e-3)
        assert wind.mv == pytest.approx(wind.lcoe - equivalent, rel=1e-9)

    def test_co2_tax_axis(self):
        values = (0.0, 50.0, 150.0)
        points = self.sweep("co2_tax", values)
        for value, point in zip(values, points):
            wind = point.report.technologies["wind"]
            # built wind recovers its cost from the market alone
            assert point.report.mu_co2 == value and wind.energy > 0.0
            assert wind.mv == pytest.approx(wind.lcoe, rel=1e-9)
        # penetration rises with the tax
        assert points[0].penetration < points[1].penetration < points[2].penetration


@pytest.fixture
def warm(monkeypatch):
    """The warm-start flag of each solve a sweep makes, in order."""
    flags = []

    def recording(lp, *args, _solve=powermarket.sweep.solve, **kwargs):
        sol = _solve(lp, *args, **kwargs)
        flags.append(sol.warm_start)
        return sol
    monkeypatch.setattr(powermarket.sweep, "solve", recording)
    return flags


class TestChains:
    def test_a_sweep_makes_one_cold_solve(self, warm):
        # 42 points: three chains of at most 20 points each, had the axis
        # still been cut into chains
        plan = SweepPlan(system=two_tech_system(snapshots=48), axis="co2_intensity",
                         values=tuple(0.05 * k for k in range(1, 2 * 20 + 3)))
        result = run_sweep(plan)
        assert result.all_verified
        assert warm == [False] + [True] * (len(plan.values) - 1)

    def test_point_after_a_failed_one_starts_cold(self, warm):
        plan = SweepPlan(system=solar_gas_system(), axis="co2_cap", values=(0.0, 1e9))
        result = run_sweep(plan)
        assert [p.status for p in result.points] == ["infeasible", "optimal"]
        assert warm == [False, False]


class TestSolvePath:
    @pytest.mark.parametrize("name", ["support_sweep", "co2_sweep_flex"])
    def test_warm_chain_writes_the_cold_points(self, name, warm):
        # the warm-chained sweep and one cold session per point give the
        # same table, every number to 1e-9 relative
        plan = load_plan(scenario_path(f"{name}.json"))
        chained = run_sweep(plan)
        assert warm == [False] + [True] * (len(plan.values) - 1)
        cold = SweepResult(plan.name, plan.axis,
                           [_solve_point(plan, v, Session()) for v in plan.values],
                           chained.config_digest)
        tables = [list(csv.reader(io.StringIO(sweep_csv_text(plan, result))))
                  for result in (chained, cold)]
        assert [len(row) for row in tables[0]] == [len(row) for row in tables[1]]
        for row, other in zip(*tables):
            for cell, cold_cell in zip(row, other):
                try:
                    value = float(cold_cell)
                except ValueError:
                    assert cell == cold_cell
                else:
                    assert float(cell) == pytest.approx(value, rel=1e-9), (row[0], cell)
