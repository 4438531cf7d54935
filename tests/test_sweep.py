import csv
import dataclasses
import io
import json

import pytest

import powermarket.sweep
from powermarket.formulate import FormulationError
from powermarket.model import Co2Cap, Co2Tax, PolicyConfig, SupportDispatched
from powermarket.scenario import load_plan, load_scenario
from powermarket.solve import NO_OPTIMUM, Session
from powermarket.sweep import (
    SweepPlan,
    SweepPoint,
    _solve_point,
    all_verified,
    run_sweep,
    sweep_csv_text,
    sweep_manifest,
)
from powermarket.verify import DEFAULT_TOL

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

    @pytest.mark.parametrize("axis, values, message", [
        ("co2_cap", (-1.0, 10.0), r"sweep value -1\.0: policy: co2-cap \(cap must be >= 0\)"),
        ("co2_intensity", (-0.1, 0.1), "policy: co2-cap"),
        ("co2_tax", (-1.0, 10.0), "policy: co2-tax"),
        ("support_share", (0.5, 1.5), r"sweep value 1\.5: policy: target \(share must"),
        # the axis ends stand for every value, so the last one is named
        ("support_share", (0.5, 1.2, 1.5), r"sweep value 1\.5: policy: target"),
        ("support_share", (-0.1, 0.5), "'support_share' values must be >= 0"),
        ("available_target", (-0.1, 0.5), "'available_target' values must be >= 0"),
    ], ids=["negative-cap", "negative-intensity", "negative-tax", "share-above-one",
            "shares-above-one", "negative-share", "negative-available-share"])
    def test_a_value_the_model_rejects(self, axis, values, message):
        with pytest.raises(ValueError, match=message):
            SweepPlan(system=two_tech_system(), axis=axis, values=values,
                      policy_set=("wind",))

    def test_the_axis_ends_stand_for_every_value(self, monkeypatch):
        validated = []

        def counting(system, policy, _validate=powermarket.sweep.validate):
            validated.append(policy.support.share)
            return _validate(system, policy)
        monkeypatch.setattr(powermarket.sweep, "validate", counting)
        SweepPlan(system=two_tech_system(), axis="support_share",
                  values=tuple(i / 10 for i in range(1, 10)), policy_set=("wind",))
        assert validated == [0.1, 0.9]

    def test_intensity_converts_to_absolute_cap(self):
        system = two_tech_system()
        plan = SweepPlan(system=system, axis="co2_intensity", values=(0.1,))
        policy = plan.policy_at(0.1)
        assert policy.co2.cap == pytest.approx(0.1 * system.total_demand())


class TestRunSweep:
    def test_single_point_no_policy(self):
        plan = SweepPlan(system=two_tech_system(), axis="support_share",
                         values=(0.0,), policy_set=("wind",))
        point = run_sweep(plan)[0]
        assert point.status == "optimal" and point.verdict == "pass"
        assert point.report.mu_gamma is None

    def test_points_in_axis_order_and_verified(self, support_plan):
        points = run_sweep(support_plan)
        assert [p.value for p in points] == list(support_plan.values)
        assert all_verified(points)

    def test_infeasible_tail_is_recorded_not_fatal(self):
        # a zero cap without storage leaves the dark hours unservable when
        # shedding is disabled; the point is recorded, the grid continues
        plan = SweepPlan(system=solar_gas_system(), axis="co2_cap", values=(0.0, 1e9))
        points = run_sweep(plan)
        assert points[0].status == "infeasible"
        assert points[0].verdict == "skipped"
        assert points[1].status == "optimal"

    def test_a_point_that_raises_is_recorded_not_fatal(self, monkeypatch):
        # the first point's build raises: the point keeps the error, the
        # grid goes on and the next point is solved and verified, but the
        # sweep as a whole is not verified
        system, _, _ = load_scenario(scenario_path("wind_gas_168h.json"))
        plan = SweepPlan(system=system, axis="co2_cap", values=(0.0, 855.558),
                         policy_set=("wind",))

        def faulty(system, policy, _build=powermarket.sweep.build_lp):
            if policy.co2.cap == 0.0:
                raise FormulationError("invalid system/policy: policy: co2-cap (fault)")
            return _build(system, policy)
        monkeypatch.setattr(powermarket.sweep, "build_lp", faulty)
        points = run_sweep(plan)
        bad, good = points
        assert (bad.status, bad.verdict, bad.report) == ("error", "skipped", None)
        assert bad.message.startswith(
            "FormulationError: invalid system/policy: policy: co2-cap")
        assert (good.status, good.verdict) == ("optimal", "pass")
        assert good.penetration == pytest.approx(0.9, abs=1e-6)
        assert not all_verified(points)
        assert sweep_manifest(plan, points)["all_verified"] is False
        rows = list(csv.reader(io.StringIO(sweep_csv_text(plan, points))))
        assert rows[1] == ["0.0", "error", "skipped"] + [""] * (len(rows[0]) - 3)

    @pytest.mark.parametrize("status, verdict, verified", [
        *[(status, "skipped", True) for status in NO_OPTIMUM],
        ("optimal", "fail", False),
        *[(status, "skipped", False)
          for status in ("error", "iteration-limit", "time-limit", "numerical")],
    ])
    def test_verified_unless_a_point_fails_raises_or_hits_a_limit(self, status, verdict,
                                                                 verified):
        points = [SweepPoint(1.0, "optimal", "pass"), SweepPoint(2.0, status, verdict)]
        assert all_verified(points) is verified

    def test_binding_support_hits_share_exactly(self, support_plan):
        last = run_sweep(support_plan)[-1]
        assert last.report.mu_gamma > 0.0
        assert last.penetration == pytest.approx(0.95, abs=1e-9)

    def test_manifest_digest_is_stable(self, support_plan):
        m1 = sweep_manifest(support_plan, run_sweep(support_plan))
        m2 = sweep_manifest(support_plan, run_sweep(support_plan))
        assert m1 == m2
        assert len(m1["config_sha256"]) == 64
        json.dumps(m1)  # must be serializable

    def test_every_field_moves_the_digest(self, support_plan):
        # the digest hashes the plan's repr, which holds every field
        changed = {"system": two_tech_system(wind_capex=30001.0), "axis": "co2_tax",
                   "values": (0.2, 0.5), "policy_set": ("wind", "gas"),
                   "base_policy": PolicyConfig(co2=Co2Tax(1.0)),
                   "suppress_negative_prices": True, "name": "u"}
        assert set(changed) == {f.name for f in dataclasses.fields(SweepPlan)}
        digests = {support_plan.config_digest()} | {
            dataclasses.replace(support_plan, **{name: value}).config_digest()
            for name, value in changed.items()}
        assert len(digests) == 1 + len(changed)


class TestInstrumentAxes:
    """The available-energy quota and CO2 tax axes on ``wind_gas_168h``."""

    @staticmethod
    def sweep(axis: str, values: tuple) -> list:
        system, _, _ = load_scenario(scenario_path("wind_gas_168h.json"))
        points = run_sweep(SweepPlan(system=system, axis=axis, values=values,
                                     policy_set=("wind",)))
        assert {(p.status, p.verdict) for p in points} == {("optimal", "pass")}
        return points

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


class TestBasePolicy:
    """A point's policy is its scenario's with the axis's instrument replaced."""

    @staticmethod
    def plan(tmp_path, scenario: str, axis: str, values: list) -> SweepPlan:
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"scenario": scenario_path(scenario), "axis": axis,
                                    "values": values, "policy_set": ["solar"]}))
        return load_plan(path)

    @pytest.mark.parametrize("scenario, axis, value, replaced", [
        ("fig1_support.json", "co2_cap", 1500.0, {"co2": Co2Cap(1500.0)}),
        ("fig1_support.json", "co2_tax", 10.0, {"co2": Co2Tax(10.0)}),
        ("fig1_co2_cap.json", "support_share", 0.3,
         {"support": SupportDispatched(("solar",), share=0.3)}),
        ("fig1_co2_cap.json", "support_share", 0.0, {"support": None}),
    ], ids=["cap-keeps-quota", "tax-keeps-quota", "quota-keeps-cap", "no-quota-keeps-cap"])
    def test_a_point_replaces_one_instrument(self, tmp_path, scenario, axis, value,
                                             replaced):
        _, policy, _ = load_scenario(scenario_path(scenario))
        plan = self.plan(tmp_path, scenario, axis, [value])
        assert plan.base_policy == policy
        assert plan.policy_at(value) == dataclasses.replace(policy, **replaced)

    def test_a_co2_sweep_keeps_the_scenario_quota(self, tmp_path):
        # fig1's solar quota of 0.4 under a cap: the cap binds at 1500 t,
        # the quota at 2000 t
        plan = self.plan(tmp_path, "fig1_support.json", "co2_cap", [1500.0, 2000.0])
        tight, loose = csv.DictReader(io.StringIO(sweep_csv_text(plan, run_sweep(plan))))
        assert {(row["status"], row["verdict"]) for row in (tight, loose)} == \
            {("optimal", "pass")}
        assert float(tight["mu_gamma"]) == 0.0 and float(tight["mu_co2"]) > 0.0
        assert float(loose["mu_gamma"]) > 0.0 and float(loose["mu_co2"]) == 0.0


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
        assert all_verified(run_sweep(plan))
        assert warm == [False] + [True] * (len(plan.values) - 1)

    def test_point_after_a_failed_one_starts_cold(self, warm):
        plan = SweepPlan(system=solar_gas_system(), axis="co2_cap", values=(0.0, 1e9))
        assert [p.status for p in run_sweep(plan)] == ["infeasible", "optimal"]
        assert warm == [False, False]


class TestSolvePath:
    @pytest.mark.parametrize("name", ["support_sweep", "co2_sweep_flex"])
    def test_warm_chain_writes_the_cold_points(self, name, warm):
        # the warm-chained sweep and one cold session per point give the
        # same table, every number to 1e-9 relative
        plan = load_plan(scenario_path(f"{name}.json"))
        chained = run_sweep(plan)
        assert warm == [False] + [True] * (len(plan.values) - 1)
        cold = [_solve_point(plan, v, Session()) for v in plan.values]
        tables = [list(csv.reader(io.StringIO(sweep_csv_text(plan, points))))
                  for points in (chained, cold)]
        assert [len(row) for row in tables[0]] == [len(row) for row in tables[1]]
        for row, other in zip(*tables):
            for cell, cold_cell in zip(row, other):
                try:
                    value = float(cold_cell)
                except ValueError:
                    assert cell == cold_cell
                else:
                    assert float(cell) == pytest.approx(value, rel=1e-9), (row[0], cell)


@pytest.fixture(scope="module")
def envelopes():
    """plan name -> (value, z, slope) of each point of the bundled plans: the
    optimal cost z is convex in a quota share or a CO2 intensity, and its
    slope is μ_γ·D in the share and −μ_CO2·D in the intensity, D the total
    demand."""
    out = {}
    for name in ("support_sweep", "co2_sweep_flex"):
        plan = load_plan(scenario_path(f"{name}.json"))
        points = run_sweep(plan)
        assert {p.status for p in points} == {"optimal"}
        demand = plan.system.total_demand()
        out[name] = [(p.value, p.report.objective, demand * (
            p.report.mu_gamma if plan.axis == "support_share" else -p.report.mu_co2))
            for p in points]
    return out


def envelope_excess(envelope) -> float:
    """Between consecutive points a < b, Δ = b − a, convexity bounds
    slope(a)·Δ <= z(b) − z(a) <= slope(b)·Δ.  The largest excess over either
    bound, in units of ``DEFAULT_TOL``·max(1, |z(b)|); at most 1 is a pass."""
    return max(max(slope_a * (b - a) - (z_b - z_a), (z_b - z_a) - slope_b * (b - a))
               / (DEFAULT_TOL * max(1.0, abs(z_b)))
               for (a, z_a, slope_a), (b, z_b, slope_b) in zip(envelope, envelope[1:]))


class TestEnvelope:
    """The paper's monotonicity: μ_γ cannot fall as the quota rises, nor
    μ_CO2 rise as the cap loosens, and the objectives between show it."""

    @pytest.mark.parametrize("name", ["support_sweep", "co2_sweep_flex"])
    def test_the_bundled_plans_keep_the_envelope(self, envelopes, name):
        assert envelope_excess(envelopes[name]) <= 1.0

    @pytest.mark.parametrize("name, first, second", [
        ("support_sweep", 0.8, 0.9), ("co2_sweep_flex", 0.05, 0.1)])
    def test_swapped_objectives_break_it(self, envelopes, name, first, second):
        envelope = {value: (z, slope) for value, z, slope in envelopes[name]}
        (z_1, slope_1), (z_2, slope_2) = envelope[first], envelope[second]
        envelope[first], envelope[second] = (z_2, slope_1), (z_1, slope_2)
        assert envelope_excess([(value, *rest) for value, rest in envelope.items()]) > 1.0

    def test_a_co2_price_one_percent_high_breaks_it(self, envelopes):
        envelope = [(value, z, 1.01 * slope if value == 0.1 else slope)
                    for value, z, slope in envelopes["co2_sweep_flex"]]
        assert envelope_excess(envelope) > 1.0
