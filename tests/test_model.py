import dataclasses

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from powermarket.model import (
    Co2Cap,
    LineSpec,
    PolicyConfig,
    PowerSystem,
    StorageSpec,
    SupportAvailable,
    SupportDispatched,
    TechnologySpec,
    annuitize,
    synth_profiles,
    validate,
)

from conftest import random_desk_system


class TestAnnuitize:
    def test_reference_value(self):
        # 1 MEUR over 25 years at 7%: standard annuity factor 0.0858105...
        assert annuitize(1_000_000.0, 25.0, 0.07) == pytest.approx(85_810.517, abs=0.5)

    def test_long_lived_plant(self):
        # 6 MEUR over 50 years at 7%; high-precision value 434_759.0968...
        assert annuitize(6_000_000.0, 50.0, 0.07) == pytest.approx(434_759.097, abs=0.01)

    def test_zero_rate_is_straight_line(self):
        assert annuitize(1000.0, 20.0, 0.0) == pytest.approx(50.0)

    def test_fixed_om_is_additive(self):
        base = annuitize(1000.0, 10.0, 0.05)
        assert annuitize(1000.0, 10.0, 0.05, fixed_om=7.5) == pytest.approx(base + 7.5)

    # annuitize is public: outside validate's gate a bad input raises, where
    # it would otherwise return a cost (NaN, or one below straight-line)
    @pytest.mark.parametrize("args, message", [
        ((float("nan"), 25.0, 0.07), "non-finite input"),
        ((1000.0, 0.5, 0.07), "lifetime must be >= 1 year"),
        ((1000.0, 25.0, -0.1), "discount rate must be >= 0"),
    ], ids=["nan-capex", "half-year-lifetime", "negative-rate"])
    def test_rejects_inputs_outside_its_domain(self, args, message):
        with pytest.raises(ValueError, match=message):
            annuitize(*args)

    @given(capex=st.floats(1.0, 1e7), lifetime=st.floats(1.0, 60.0),
           r1=st.floats(0.0, 0.2), r2=st.floats(0.0, 0.2))
    # a subnormal rate once divided by a rounded subnormal denominator
    @example(capex=1.0, lifetime=1.5, r1=0.0, r2=5e-324)
    def test_monotone_in_rate(self, capex, lifetime, r1, r2):
        lo, hi = sorted((r1, r2))
        assert annuitize(capex, lifetime, lo) <= annuitize(capex, lifetime, hi) + 1e-9

    @given(capex=st.floats(1.0, 1e7), lifetime=st.floats(1.0, 60.0))
    def test_continuous_at_zero_rate(self, capex, lifetime):
        a0 = annuitize(capex, lifetime, 0.0)
        a_eps = annuitize(capex, lifetime, 1e-9)
        assert abs(a_eps - a0) <= 1e-6 * capex / lifetime + 1e-9


class TestTechnologySpec:
    def test_marginal_cost_includes_fuel_conversion(self):
        gas = TechnologySpec(name="gas", capex=1.0, fuel_cost=50.0, efficiency=0.39)
        assert gas.marginal_cost == pytest.approx(50.0 / 0.39)

    def test_marginal_cost_without_fuel(self):
        wind = TechnologySpec(name="wind", capex=1.0, variable_cost=2.0)
        assert wind.marginal_cost == 2.0

    def test_missing_availability_means_firm(self):
        gas = TechnologySpec(name="gas", capex=1.0)
        assert gas.availability_at(0) == 1.0
        assert gas.availability_at(1000) == 1.0


class TestValidate:
    def test_clean_system_has_no_violations(self):
        assert validate(random_desk_system(0), PolicyConfig.none()) == []

    def test_profile_out_of_range(self):
        bad = TechnologySpec(name="w", capex=1.0, availability=(0.5, 1.5))
        system = PowerSystem(nodes=("N",), snapshots=2,
                             demand={"N": (1.0, 1.0)},
                             technologies=(("N", bad),))
        rules = {v.rule for v in validate(system, PolicyConfig.none())}
        assert any("profile" in r or "availability" in r for r in rules)

    def test_unresolved_policy_member(self):
        system = random_desk_system(0)
        policy = PolicyConfig(support=SupportDispatched(("geothermal",), share=0.1))
        violations = validate(system, policy)
        assert violations and any("geothermal" in v.message or
                                  "geothermal" in v.entity for v in violations)

    def test_empty_support_set(self):
        policy = PolicyConfig(support=SupportDispatched((), share=0.1))
        assert [v.rule for v in validate(random_desk_system(0), policy)] == ["support-set"]

    def test_placement_at_an_unknown_node(self):
        # the scenario loader rejects these first; a system built in code
        # reaches validate with them
        gas = TechnologySpec(name="gas", capex=1.0)
        system = PowerSystem(nodes=("N",), snapshots=1, demand={"N": (1.0,)},
                             technologies=(("N", gas), ("M", gas)),
                             storages=(("M", StorageSpec(name="battery")),))
        assert [(v.entity, v.rule) for v in validate(system, PolicyConfig.none())] == \
            [("gas@M", "unresolved-node"), ("battery@M", "unresolved-node")]

    @pytest.mark.parametrize("fixed_om, rules", [(-1.0, []), (-1e6, ["annual-cost"])],
                             ids=["outweighed", "negative-annual-cost"])
    def test_a_negative_annualized_cost(self, fixed_om, rules):
        # a negative cost per MW built makes the LP unbounded; a negative
        # fixed O&M that the annuitized capex outweighs does not
        unit = TechnologySpec(name="gas", capex=1000.0, lifetime=1.0, fixed_om=fixed_om)
        system = PowerSystem(nodes=("N",), snapshots=1, demand={"N": (1.0,)},
                             technologies=(("N", unit),))
        assert [v.rule for v in validate(system, PolicyConfig.none())] == rules

    @pytest.mark.parametrize("reverse, rules", [(2.0, ["capacity"]), (10.0, [])],
                             ids=["asymmetric", "equal"])
    def test_an_expandable_line_has_one_capacity(self, reverse, rules):
        # build_lp bounds an expandable line's flow by one capacity F in both
        # directions, so a reverse capacity of its own would be ignored
        line = LineSpec("A", "B", existing_capacity=10.0, existing_capacity_reverse=reverse,
                        expandable=True, capex=1e6)
        unit = TechnologySpec(name="cheap", capex=1.0, lifetime=1.0, variable_cost=1.0)
        system = PowerSystem(nodes=("A", "B"), snapshots=1, demand={"A": (8.0,), "B": (0.0,)},
                             technologies=(("B", unit),), lines=(line,))
        assert [v.rule for v in validate(system, PolicyConfig.none())] == rules

    @pytest.mark.parametrize("entity, name", [
        ("w@A", "availability"), ("w@A", "emission_factor"), ("battery@A", "eta_discharge"),
        ("battery@A", "eta_charge"), ("battery@A", "eta_standing"),
        ("battery@A", "fixed_energy_power_ratio"), ("A+B", "reactance")])
    @pytest.mark.parametrize("value, rejected", [
        (1e-9, True), (-1e-12, True), (2e-9, False), (0.0, False)],
        ids=["at-bound", "negative", "above-bound", "zero"])
    def test_a_matrix_coefficient_highs_would_drop(self, entity, name, value, rejected):
        # each field becomes an LP matrix entry (eta_discharge as its
        # reciprocal), and HiGHS drops entries of magnitude 1e-9 or less;
        # zero is no entry, and other rules judge the sign
        specs = {"w@A": TechnologySpec(name="w", capex=1.0, availability=(1.0,)),
                 "battery@A": StorageSpec(name="battery"),
                 "A+B": LineSpec("A", "B", existing_capacity=1.0, reactance=0.1)}
        specs[entity] = dataclasses.replace(
            specs[entity], **{name: (value,) if name == "availability" else value})
        tech, storage, line = specs.values()
        system = PowerSystem(nodes=("A", "B"), snapshots=1, demand={"A": (1.0,), "B": (1.0,)},
                             technologies=(("A", tech),), storages=(("A", storage),),
                             lines=(line,))
        found = [(v.entity, v.message) for v in validate(system, PolicyConfig.none())
                 if v.rule == "nonzero within ±1e-09"]
        assert found == ([(entity, f"{name} holds {value}")] if rejected else [])

    def test_never_raises_on_garbage(self):
        system = PowerSystem(nodes=("N", "M"), snapshots=0, demand={},
                             technologies=())
        assert isinstance(validate(system, PolicyConfig(co2=Co2Cap(-1.0))), list)


class TestEnergyQuota:
    def test_the_two_quotas_share_a_definition_not_an_identity(self):
        system = random_desk_system(0)
        dispatched = SupportDispatched(("wind",), share=0.4)
        available = SupportAvailable(("wind",), share=0.4)
        assert dispatched.energy_target(system) == available.energy_target(system) \
            == 0.4 * system.total_demand()
        assert dispatched != available
        assert repr(available) == \
            "SupportAvailable(technologies=('wind',), share=0.4, target=None)"


class TestSynthProfiles:
    @pytest.mark.parametrize("kind", ["solar-diurnal", "wind-autocorrelated",
                                      "flat-demand"])
    def test_availability_kinds_in_unit_interval(self, kind):
        series = synth_profiles(5, 240, kind)
        assert len(series) == 240
        assert min(series) >= 0.0 and max(series) <= 1.0

    def test_deterministic_per_seed(self):
        assert synth_profiles(9, 96, "wind-autocorrelated") == \
            synth_profiles(9, 96, "wind-autocorrelated")
        assert synth_profiles(9, 96, "wind-autocorrelated") != \
            synth_profiles(10, 96, "wind-autocorrelated")

    def test_two_day_shape_requires_48(self):
        with pytest.raises(ValueError):
            synth_profiles(0, 24, "two-day-fig1")
        series = synth_profiles(0, 48, "two-day-fig1")
        assert min(series) >= 0.4 and max(series) <= 1.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            synth_profiles(0, 24, "tidal")

    def test_solar_is_dark_at_night(self):
        series = synth_profiles(1, 48, "solar-diurnal")
        assert series[0] == 0.0 and series[12] > 0.5
