import json

import pytest

from powermarket.cli import main
from powermarket.model import Co2Cap, SupportDispatched
from powermarket.scenario import (
    DEFAULT_TECHNOLOGIES,
    ScenarioError,
    load_plan,
    load_scenario,
    loads_scenario,
    serialize_scenario,
)

from conftest import BUNDLED_SCENARIOS, gate_document, scenario_path


def minimal_doc():
    return {
        "name": "mini",
        "snapshots": 4,
        "nodes": ["N"],
        "demand": {"N": [10.0, 12.0, 9.0, 11.0]},
        "technologies": [
            {"node": "N", "name": "gas", "capex": 100.0, "lifetime": 1.0,
             "variable_cost": 10.0}
        ],
    }


class TestLoad:
    def test_bundled_scenarios_load(self):
        for name in BUNDLED_SCENARIOS:
            system, policy, options = load_scenario(scenario_path(name))
            assert system.snapshots in (48, 168)
            assert options["name"]

    def test_defaults_carry_fuel_conversion(self):
        doc = minimal_doc()
        doc["technologies"] = [{"node": "N", "default": "ocgt"}]
        system, _, _ = loads_scenario(doc)
        spec = system.technologies[0][1]
        assert spec.marginal_cost == pytest.approx(50.0 / 0.39)
        assert spec.capex == DEFAULT_TECHNOLOGIES["ocgt"]["capex"]

    def test_override_wins_over_default(self):
        doc = minimal_doc()
        doc["technologies"] = [{"node": "N", "default": "solar", "capex": 7.0}]
        system, _, _ = loads_scenario(doc)
        assert system.technologies[0][1].capex == 7.0

    def test_policy_sections(self):
        doc = minimal_doc()
        doc["policy"] = {"support": {"type": "dispatched",
                                     "technologies": ["gas"], "share": 0.5},
                         "co2": {"type": "cap", "cap": 12.0}}
        _, policy, _ = loads_scenario(doc)
        assert isinstance(policy.support, SupportDispatched)
        assert isinstance(policy.co2, Co2Cap)

    def test_csv_timeseries(self, tmp_path):
        csv_path = tmp_path / "series.csv"
        csv_path.write_text(
            "timestamp,N_demand\n" +
            "".join(f"2010-01-01T{t:02d}:00,{10 + t}\n" for t in range(4)))
        doc = minimal_doc()
        doc["timeseries"] = "series.csv"
        doc["demand"] = {"N": {"series": "N_demand"}}
        scen = tmp_path / "s.json"
        scen.write_text(json.dumps(doc))
        system, _, _ = load_scenario(scen)
        assert system.demand["N"] == (10.0, 11.0, 12.0, 13.0)


class TestErrors:
    def test_errors_are_listed_exhaustively(self):
        doc = minimal_doc()
        doc["technologies"] = [
            {"node": "N", "default": "fusion"},
            {"node": "M", "default": "solar"},
        ]
        doc["policy"] = {"co2": {"type": "floor"}}
        with pytest.raises(ScenarioError) as err:
            loads_scenario(doc)
        message = str(err.value)
        assert "fusion" in message and "'M'" in message and "floor" in message

    def test_unknown_default_lists_available(self):
        doc = minimal_doc()
        doc["technologies"] = [{"node": "N", "default": "fusion"}]
        with pytest.raises(ScenarioError, match="solar"):
            loads_scenario(doc)

    def test_json_syntax_error_has_location(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"nodes": [,]}')
        with pytest.raises(ScenarioError, match="line 1"):
            load_scenario(bad)

    def test_verify_tol_is_an_unknown_option(self):
        doc = minimal_doc()
        doc["options"] = {"verify_tol": 1e-4}
        with pytest.raises(ScenarioError, match="unknown option 'verify_tol'"):
            loads_scenario(doc)

    def test_timeseries_that_is_not_utf8_is_reported(self, tmp_path):
        (tmp_path / "series.csv").write_bytes(b"timestamp,N_load\n0,\xff1\n")
        doc = minimal_doc()
        doc["timeseries"] = "series.csv"
        with pytest.raises(ScenarioError, match="not UTF-8"):
            loads_scenario(doc, base_dir=str(tmp_path))


# case -> (path of keys and list indices in wind_gas_168h.json, value set
# there, message expected)
WRONG_TYPES = {
    "capex-a-string": (("technologies", 1, "capex"), "abc",
                       "technologies[1]: 'capex' must be a number, not a string"),
    "lifetime-a-string": (("technologies", 1, "lifetime"), "25",
                          "technologies[1]: 'lifetime' must be a number, not a string"),
    "capex-a-bool": (("technologies", 1, "capex"), True,
                     "technologies[1]: 'capex' must be a number, not true/false"),
    "voll-a-string": (("options", "voll"), "abc",
                      "options: 'voll' must be a number or null, not a string"),
    "cap-a-string": (("policy",), {"co2": {"type": "cap", "cap": "abc"}},
                     "policy.co2: 'cap' must be a number, not a string"),
    "snapshots-a-string": (("snapshots",), "x",
                           "scenario: 'snapshots' must be an integer, not a string"),
    "nodes-a-number": (("nodes",), 5,
                       "scenario: 'nodes' must be a list of strings, not a number"),
    "technology-a-number": (("technologies", 1), 5,
                            "scenario: 'technologies' must be a list of objects"),
    "support-set-a-string": (
        ("policy",), {"support": {"type": "dispatched", "technologies": "wind",
                                  "share": 0.3}},
        "policy.support: 'technologies' must be a list of strings, not a string"),
    "series-value-a-string": (("demand", "N"), ["1.0"] * 168,
                              "demand[N]: non-numeric value in series"),
    "profile-seed-a-string": (
        ("technologies", 0, "availability", "seed"), "7",
        "availability of 'wind': 'seed' must be an integer, not a string"),
    "kvl-a-string": (("options", "kvl"), "false",
                     "options: 'kvl' must be true or false, not a string"),
    "line-capex-a-string": (("lines",), [{"from_node": "N", "to_node": "M", "capex": "1"}],
                            "lines[0]: 'capex' must be a number, not a string"),
    "co2-unknown-key": (("policy",), {"co2": {"type": "cap", "cap": 12.0, "rate": 5.0}},
                        "policy.co2: unknown field 'rate'"),
    "line-without-to-node": (("lines",), [{"from_node": "N", "capex": 1.0}],
                             "lines[0]: missing field 'to_node'"),
    "fuel-without-efficiency": (("technologies", 1, "efficiency"), 0,
                                "ocgt: fuel_cost given without a nonzero efficiency"),
    # an integer beyond the float range is infinite
    "capex-beyond-float-range": (("technologies", 1, "capex"), 10 ** 400,
                                 "ocgt@N: non-finite (capex is inf)"),
    "discount-rate-beyond-float-range": (("options", "discount_rate"), 10 ** 400,
                                         "system: non-finite (discount_rate is inf)"),
    "series-scale-beyond-float-range": (("demand", "N", "scale"), 10 ** 400,
                                        "N: demand out of range (non-finite value)"),
}


class TestWrongTypes:
    @pytest.mark.parametrize("case", list(WRONG_TYPES))
    def test_wrong_type_is_one_error_line(self, tmp_path, capsys, case):
        (*parents, last), value, message = WRONG_TYPES[case]
        with open(scenario_path("wind_gas_168h.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        entry = doc
        for key in parents:
            entry = entry[key]
        entry[last] = value
        path = tmp_path / "wrong.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as err:
            main(["validate", str(path)])
        assert err.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err

    def test_a_scenario_is_an_object(self):
        with pytest.raises(ScenarioError, match="a scenario is a JSON object"):
            loads_scenario([minimal_doc()])


class TestRoundTrip:
    def test_load_serialize_load_identity(self, tmp_path):
        # the bundled scenarios hold a quota and a cap; the gate document
        # lines, storage, a premium and a tax
        gate = gate_document(tmp_path)
        available = {**gate, "policy": {"support": {
            "type": "available", "technologies": ["wind"], "target": 3.0}}}
        for source in [scenario_path(name) for name in BUNDLED_SCENARIOS] + [gate, available]:
            loaded = load_scenario(source) if isinstance(source, str) \
                else loads_scenario(source, base_dir=str(tmp_path))
            text = serialize_scenario(*loaded)
            assert loads_scenario(json.loads(text)) == loaded, source

    def test_serialization_is_canonical(self):
        system, policy, options = load_scenario(scenario_path("fig1_support.json"))
        assert serialize_scenario(system, policy, options) == \
            serialize_scenario(system, policy, options)


class TestPlans:
    def test_bundled_plans_load(self):
        for name in ("support_sweep.json", "co2_sweep_flex.json"):
            assert load_plan(scenario_path(name)).values

    @pytest.mark.parametrize("change, message", [
        ({"values": 5}, "'values' must be a list of numbers"),
        ({"values": [None]}, "'values' must be a list of numbers"),
        ({"values": ["1.0"]}, "'values' must be a list of numbers"),
        ({"values": [1.0, float("nan")]}, "values must be finite"),
        ({"values": [10 ** 400]}, "values must be finite"),
        ({"policy_set": 5}, "'policy_set' must be a list of technology names"),
        ({"policy_set": "gas"}, "'policy_set' must be a list of technology names"),
        ({"scenario": 5}, "'scenario' must be a path or an inline document"),
        ({"polcy_set": ["gas"]}, "unknown plan key 'polcy_set'"),
        ({"jobs": 1}, "unknown plan key 'jobs'"),
        ({"suppress_negative_prices": "no"},
         "'suppress_negative_prices' must be true or false, not a string"),
        ({"name": ["a"]}, "'name' must be a string, not a list"),
        ({"name": "../escaped"}, "'name' must be a plain file name, not \"../escaped\""),
    ], ids=["values-not-a-list", "value-null", "value-a-string", "value-nan",
            "value-beyond-float-range",
            "policy-set-not-a-list", "policy-set-a-string", "scenario-a-number",
            "misspelt-key", "stale-jobs-key", "suppress-a-string", "name-a-list",
            "name-a-path"])
    def test_bad_plan_is_one_error_line(self, tmp_path, capsys, change, message):
        p = tmp_path / "p.json"
        p.write_text(json.dumps({"scenario": minimal_doc(), "axis": "co2_tax",
                                 "values": [1.0], **change}))
        with pytest.raises(ScenarioError, match=message):
            load_plan(p)
        with pytest.raises(SystemExit) as exit_:
            main(["sweep", str(p), "--out-dir", str(tmp_path)])
        assert exit_.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert str(p) in err

    @pytest.mark.parametrize("inline", [True, False], ids=["inline", "path"])
    def test_scenario_error_names_its_file(self, tmp_path, capsys, inline):
        # an inline scenario's errors name the plan, a scenario file's the file
        doc, p = {**minimal_doc(), "snapshots": "x"}, tmp_path / "p.json"
        where = p
        if not inline:
            where = tmp_path / "s.json"
            where.write_text(json.dumps(doc))
            doc = where.name
        p.write_text(json.dumps({"scenario": doc, "axis": "co2_tax", "values": [1.0]}))
        message = f"{where}: scenario: 'snapshots' must be an integer, not a string"
        with pytest.raises(ScenarioError) as err:
            load_plan(p)
        assert str(err.value) == message
        with pytest.raises(SystemExit) as exit_:
            main(["sweep", str(p), "--out-dir", str(tmp_path)])
        assert exit_.value.code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_plan_that_is_not_an_object(self, tmp_path):
        p = tmp_path / "p.json"
        p.write_text("[]")
        with pytest.raises(ScenarioError, match="JSON object"):
            load_plan(p)

    def test_plan_without_axis(self, tmp_path):
        p = tmp_path / "p.json"
        p.write_text(json.dumps({"scenario": minimal_doc(), "values": [1.0]}))
        with pytest.raises(ScenarioError, match="axis"):
            load_plan(p)
