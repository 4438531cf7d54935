"""Scenario files: a single JSON document describing system, policy, options.

The document has sections {name, snapshots, nodes, demand, technologies,
storages, lines, policy, options}.  Time series can be written inline, pulled
from a CSV with ``timestamp,<node>_<series>`` columns, or generated from the
named synthetic profile kinds.  Technology entries can start from one of the
bundled defaults and override individual fields.

Cost defaults follow widely used long-run technology assumptions (overnight
capex in EUR/MW, fuel in EUR/MWh thermal).  Thermal efficiencies and the
implied per-MWh-electric emission factors are conventional engineering
values, since capex/fuel tables usually omit them: OCGT 0.39, CCGT 0.58,
hard coal 0.46, lignite 0.43, nuclear 0.33, with fuel CO2 contents of 0.2
(gas), 0.34 (coal) and 0.4 (lignite) tCO2 per MWh thermal.
"""

from __future__ import annotations

import csv
import io
import json
import os
from typing import Optional, get_type_hints

from .model import (
    Co2Cap,
    Co2Tax,
    FixedFip,
    LineSpec,
    PROFILE_KINDS,
    PolicyConfig,
    PowerSystem,
    StorageSpec,
    SupportAvailable,
    SupportDispatched,
    TechnologySpec,
    synth_profiles,
    validate,
)

__all__ = ["ScenarioError", "DEFAULT_TECHNOLOGIES", "DEFAULT_STORAGES",
           "load_scenario", "loads_scenario", "serialize_scenario",
           "load_plan"]


class ScenarioError(ValueError):
    """Scenario schema violation; the message lists every problem found."""


DEFAULT_TECHNOLOGIES = {
    "wind": dict(capex=1_040_000.0, lifetime=25.0),
    "solar": dict(capex=510_000.0, lifetime=25.0),
    "nuclear": dict(capex=6_000_000.0, lifetime=50.0, fuel_cost=3.0,
                    efficiency=0.33),
    "lignite": dict(capex=2_200_000.0, lifetime=25.0, fuel_cost=3.0,
                    efficiency=0.43, emission_factor=0.4 / 0.43),
    "coal": dict(capex=1_500_000.0, lifetime=25.0, fuel_cost=11.5,
                 efficiency=0.46, emission_factor=0.34 / 0.46),
    "ccgt": dict(capex=1_000_000.0, lifetime=25.0, fuel_cost=25.0,
                 efficiency=0.58, emission_factor=0.2 / 0.58),
    "ocgt": dict(capex=600_000.0, lifetime=25.0, fuel_cost=50.0,
                 efficiency=0.39, emission_factor=0.2 / 0.39),
}

DEFAULT_STORAGES = {
    "battery": dict(capex_discharge=333_000.0, capex_charge=0.0,
                    capex_energy=167_000.0, lifetime=20.0,
                    eta_discharge=0.9, eta_charge=0.9),
    "hydrogen": dict(capex_discharge=800_000.0, capex_charge=750_000.0,
                     capex_energy=500.0, lifetime=25.0,
                     eta_discharge=0.58, eta_charge=0.8),
}

_TECH_FIELDS = ("name", "capex", "lifetime", "fixed_om", "variable_cost",
                "fuel_cost", "efficiency", "emission_factor", "availability",
                "max_potential")
_STORAGE_FIELDS = ("name", "capex_discharge", "capex_charge", "capex_energy",
                   "lifetime", "eta_discharge", "eta_charge", "eta_standing",
                   "fixed_energy_power_ratio")
_LINE_FIELDS = ("from_node", "to_node", "existing_capacity",
                "existing_capacity_reverse", "expandable", "capex",
                "lifetime", "reactance")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# JSON type names; bool before number, as a bool is an int in Python
_JSON_TYPES = ((bool, "true/false"), (str, "a string"), (list, "a list"),
               (dict, "an object"), (type(None), "null"), ((int, float), "a number"))

# the kinds of value a scenario field can ask for
_KINDS = {
    "a number": _is_number,
    "a number or null": lambda v: v is None or _is_number(v),
    "an integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "a string": lambda v: isinstance(v, str),
    "true or false": lambda v: isinstance(v, bool),
    "an object": lambda v: isinstance(v, dict),
    "an object or null": lambda v: v is None or isinstance(v, dict),
    "a list of strings": lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
    "a list of objects": lambda v: isinstance(v, list) and all(isinstance(x, dict) for x in v),
}
# the kind a dataclass field's annotation asks for
_ANNOTATED = {float: "a number", Optional[float]: "a number or null", int: "an integer",
              str: "a string", bool: "true or false"}


def _field_kinds(*classes) -> dict:
    """Field name -> kind of every annotated field of the dataclasses."""
    return {name: _ANNOTATED[hint] for cls in classes
            for name, hint in get_type_hints(cls).items() if hint in _ANNOTATED}


_DOC_KINDS = {"name": "a string", "snapshots": "an integer", "timeseries": "a string",
              "nodes": "a list of strings", "demand": "an object",
              "technologies": "a list of objects", "storages": "a list of objects",
              "lines": "a list of objects", "policy": "an object or null",
              "options": "an object"}
_OPTION_KINDS = {"voll": "a number or null", "discount_rate": "a number",
                 "kvl": "true or false", "suppress_negative_prices": "true or false"}
_SERIES_KINDS = {"scale": "a number", "seed": "an integer", "kind": "a string",
                 "series": "a string"}
_TECH_KINDS = _field_kinds(TechnologySpec)
_STORAGE_KINDS = _field_kinds(StorageSpec)
_LINE_KINDS = _field_kinds(LineSpec)
_POLICY_KINDS = {"support": "an object or null", "co2": "an object or null"}
_SUPPORT_KINDS = {**_field_kinds(SupportDispatched, SupportAvailable, FixedFip),
                  "type": "a string", "technologies": "a list of strings"}
_CO2_KINDS = {**_field_kinds(Co2Cap, Co2Tax), "type": "a string"}


def _json_type(value) -> str:
    return next((name for kind, name in _JSON_TYPES if isinstance(value, kind)),
                type(value).__name__)


def _type_errors(entry: dict, kinds: dict, where: str) -> list:
    """One message per key of ``entry`` whose value is not of the kind
    ``kinds`` names for it; keys it does not name are left to other checks."""
    return [f"{where}: '{key}' must be {kinds[key]}, not {_json_type(value)}"
            for key, value in entry.items()
            if key in kinds and not _KINDS[kinds[key]](value)]


def _read_timeseries_csv(path, errors: list) -> dict:
    """Read `timestamp,<node>_<series>` columns into name -> list of floats."""
    if not os.path.exists(path):
        errors.append(f"timeseries: file '{path}' not found")
        return {}
    out: dict = {}
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            errors.append(f"timeseries: '{path}' is not UTF-8 text ({exc.reason})")
            return {}
    reader = csv.DictReader(io.StringIO(text, newline=""))
    cols = [c for c in (reader.fieldnames or []) if c != "timestamp"]
    if not cols:
        errors.append(f"timeseries: '{path}' has no data columns")
        return {}
    for c in cols:
        out[c] = []
    for i, row in enumerate(reader):
        for c in cols:
            try:
                out[c].append(float(row[c]))
            except (TypeError, ValueError):
                errors.append(f"timeseries: '{path}' row {i + 2} column "
                              f"'{c}' is not a number")
                return out
    return out


def _resolve_series(value, snapshots: int, series: dict, where: str,
                    errors: list) -> Optional[tuple]:
    """A series is an inline list, a {'kind','seed'} synth reference, or a
    {'series': <csv column>} reference, with an optional 'scale'."""
    if isinstance(value, (list, tuple)):
        if not all(_is_number(v) for v in value):
            errors.append(f"{where}: non-numeric value in series")
            return None
        return tuple(float(v) for v in value)
    if isinstance(value, dict):
        bad = _type_errors(value, _SERIES_KINDS, where)
        if bad:
            errors.extend(bad)
            return None
        scale = float(value.get("scale", 1.0))
        if "kind" in value:
            kind = value["kind"]
            if kind not in PROFILE_KINDS:
                errors.append(f"{where}: unknown profile kind '{kind}' "
                              f"(choose from {PROFILE_KINDS})")
                return None
            try:
                base = synth_profiles(value.get("seed", 0), snapshots, kind)
            except ValueError as exc:
                errors.append(f"{where}: {exc}")
                return None
            return tuple(scale * v for v in base)
        if "series" in value:
            name = value["series"]
            if name not in series:
                errors.append(f"{where}: timeseries column '{name}' not found "
                              f"(available: {sorted(series)})")
                return None
            return tuple(scale * v for v in series[name])
    errors.append(f"{where}: expected a list, a profile reference "
                  "{'kind': ..., 'seed': ...} or a column reference "
                  "{'series': ...}")
    return None


def _build_tech(entry: dict, snapshots: int, series: dict, where: str,
                errors: list) -> Optional[TechnologySpec]:
    kwargs = {}
    if "default" in entry:
        default = entry["default"]
        if default not in DEFAULT_TECHNOLOGIES:
            errors.append(f"{where}: unknown technology default '{default}' "
                          f"(available: {sorted(DEFAULT_TECHNOLOGIES)})")
            return None
        kwargs.update(DEFAULT_TECHNOLOGIES[default])
        kwargs["name"] = default
    for key, val in entry.items():
        if key in ("node", "default"):
            continue
        if key not in _TECH_FIELDS:
            errors.append(f"{where}: unknown technology field '{key}'")
            return None
        kwargs[key] = val
    bad = _type_errors(kwargs, _TECH_KINDS, where)
    if bad:
        errors.extend(bad)
        return None
    if "name" not in kwargs:
        errors.append(f"{where}: technology needs a 'name' or a 'default'")
        return None
    if "capex" not in kwargs:
        errors.append(f"{where}: technology '{kwargs['name']}' needs a capex")
        return None
    if kwargs.get("availability") is not None:
        kwargs["availability"] = _resolve_series(
            kwargs["availability"], snapshots, series,
            f"{where}: availability of '{kwargs['name']}'", errors)
        if kwargs["availability"] is None:
            return None
    try:
        return TechnologySpec(**kwargs)
    except (TypeError, ValueError) as exc:
        errors.append(f"{where}: {exc}")
        return None


def _build_storage(entry: dict, where: str, errors: list) -> Optional[StorageSpec]:
    kwargs = {}
    if "default" in entry:
        default = entry["default"]
        if default not in DEFAULT_STORAGES:
            errors.append(f"{where}: unknown storage default '{default}' "
                          f"(available: {sorted(DEFAULT_STORAGES)})")
            return None
        kwargs.update(DEFAULT_STORAGES[default])
        kwargs["name"] = default
    for key, val in entry.items():
        if key in ("node", "default"):
            continue
        if key not in _STORAGE_FIELDS:
            errors.append(f"{where}: unknown storage field '{key}'")
            return None
        kwargs[key] = val
    bad = _type_errors(kwargs, _STORAGE_KINDS, where)
    if bad:
        errors.extend(bad)
        return None
    if "name" not in kwargs:
        errors.append(f"{where}: storage needs a 'name' or a 'default'")
        return None
    try:
        return StorageSpec(**kwargs)
    except (TypeError, ValueError) as exc:
        errors.append(f"{where}: {exc}")
        return None


def _build_policy(doc: dict, errors: list) -> PolicyConfig:
    pol = doc.get("policy") or {}
    support = None
    co2 = None
    bad = _type_errors(pol, _POLICY_KINDS, "policy")
    if not bad:
        bad = (_type_errors(pol.get("support") or {}, _SUPPORT_KINDS, "policy.support")
               + _type_errors(pol.get("co2") or {}, _CO2_KINDS, "policy.co2"))
    if bad:
        errors.extend(bad)
        return PolicyConfig()
    sup = pol.get("support")
    if sup is not None:
        kind = sup.get("type")
        techs = tuple(sup.get("technologies", ()))
        if not techs:
            errors.append("policy.support: empty technology set")
        if kind == "dispatched":
            support = SupportDispatched(techs, share=sup.get("share"),
                                        target=sup.get("target"))
        elif kind == "available":
            support = SupportAvailable(techs, share=sup.get("share"),
                                       target=sup.get("target"))
        elif kind == "fip":
            if "premium" not in sup:
                errors.append("policy.support: fip needs a 'premium'")
            else:
                support = FixedFip(techs, premium=float(sup["premium"]))
        else:
            errors.append(f"policy.support: unknown type '{kind}' "
                          "(dispatched | available | fip)")
        if kind in ("dispatched", "available") and \
                (sup.get("share") is None) == (sup.get("target") is None):
            errors.append("policy.support: exactly one of 'share'/'target' required")
    cd = pol.get("co2")
    if cd is not None:
        kind = cd.get("type")
        if kind == "cap":
            if "cap" not in cd:
                errors.append("policy.co2: cap needs a 'cap' value")
            else:
                co2 = Co2Cap(float(cd["cap"]))
        elif kind == "tax":
            if "rate" not in cd:
                errors.append("policy.co2: tax needs a 'rate'")
            else:
                co2 = Co2Tax(float(cd["rate"]))
        else:
            errors.append(f"policy.co2: unknown type '{kind}' (cap | tax)")
    return PolicyConfig(support=support, co2=co2)


def loads_scenario(doc: dict, base_dir: str = "."):
    """Build (PowerSystem, PolicyConfig, options) from a parsed document.

    Schema violations are collected exhaustively and raised as one
    ScenarioError.
    """
    if not isinstance(doc, dict):
        raise ScenarioError("a scenario is a JSON object")
    errors: list = [f"missing required section '{key}'"
                    for key in ("snapshots", "nodes", "demand", "technologies")
                    if key not in doc]
    errors += _type_errors(doc, _DOC_KINDS, "scenario")
    if errors:
        raise ScenarioError("; ".join(errors))

    snapshots = doc["snapshots"]
    nodes = tuple(doc["nodes"])
    series: dict = {}
    if "timeseries" in doc:
        series = _read_timeseries_csv(
            os.path.join(base_dir, doc["timeseries"]), errors)

    demand = {}
    for n in nodes:
        if n not in doc["demand"]:
            errors.append(f"demand: no series for node '{n}'")
            continue
        d = _resolve_series(doc["demand"][n], snapshots, series,
                            f"demand[{n}]", errors)
        if d is not None:
            demand[n] = d
    for n in doc["demand"]:
        if n not in nodes:
            errors.append(f"demand: series for unknown node '{n}'")

    technologies = []
    for i, entry in enumerate(doc["technologies"]):
        where = f"technologies[{i}]"
        node = entry.get("node")
        if node not in nodes:
            errors.append(f"{where}: unknown or missing node '{node}'")
            continue
        spec = _build_tech(entry, snapshots, series, where, errors)
        if spec is not None:
            technologies.append((node, spec))

    storages = []
    for i, entry in enumerate(doc.get("storages", ())):
        where = f"storages[{i}]"
        node = entry.get("node")
        if node not in nodes:
            errors.append(f"{where}: unknown or missing node '{node}'")
            continue
        spec = _build_storage(entry, where, errors)
        if spec is not None:
            storages.append((node, spec))

    lines = []
    kvl = doc.get("options", {}).get("kvl") is True
    for i, entry in enumerate(doc.get("lines", ())):
        where = f"lines[{i}]"
        bad = [k for k in entry if k not in _LINE_FIELDS]
        if bad:
            errors.append(f"{where}: unknown line fields {bad}")
            continue
        bad = _type_errors(entry, _LINE_KINDS, where)
        if bad:
            errors.extend(bad)
            continue
        try:
            line = LineSpec(**entry)
        except (TypeError, ValueError) as exc:
            errors.append(f"{where}: {exc}")
            continue
        if kvl and line.reactance is None:
            errors.append(f"{where}: line {line.name} has no reactance, "
                          "which options.kvl needs")
        lines.append(line)

    policy = _build_policy(doc, errors)
    options = dict(doc.get("options", {}))
    errors += _type_errors(options, _OPTION_KINDS, "options")
    voll = options.pop("voll", 1000.0)
    discount = options.pop("discount_rate", 0.07)
    for key in options:
        if key not in ("kvl", "suppress_negative_prices"):
            errors.append(f"options: unknown option '{key}'")

    if errors:
        raise ScenarioError("; ".join(errors))

    system = PowerSystem(nodes=nodes, snapshots=snapshots, demand=demand,
                         technologies=tuple(technologies),
                         storages=tuple(storages), lines=tuple(lines),
                         voll=voll, discount_rate=float(discount))
    violations = validate(system, policy)
    if violations:
        raise ScenarioError("; ".join(
            f"{v.entity}: {v.rule} ({v.message})" for v in violations))
    options["kvl"] = bool(doc.get("options", {}).get("kvl", False))
    options["suppress_negative_prices"] = bool(
        doc.get("options", {}).get("suppress_negative_prices", False))
    options["name"] = doc.get("name", "scenario")
    return system, policy, options


def _read_json(path):
    """The document in a JSON file; syntax errors keep their location."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(
                f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
                f"{exc.msg}") from None
        except UnicodeDecodeError as exc:
            raise ScenarioError(f"{path}: not UTF-8 text ({exc.reason})") from None


def load_scenario(path):
    """Parse a scenario JSON file; JSON syntax errors keep their location."""
    doc = _read_json(path)
    return loads_scenario(doc, base_dir=os.path.dirname(os.path.abspath(path)))


def serialize_scenario(system: PowerSystem, policy: PolicyConfig,
                       options: Optional[dict] = None) -> str:
    """Canonical JSON for a resolved model; loading it back yields an
    identical system (all series inlined)."""
    options = options or {}
    doc: dict = {
        "name": options.get("name", "scenario"),
        "snapshots": system.snapshots,
        "nodes": list(system.nodes),
        "demand": {n: list(system.demand[n]) for n in system.nodes},
        "technologies": [],
        "options": {"voll": system.voll, "discount_rate": system.discount_rate,
                    "kvl": bool(options.get("kvl", False)),
                    "suppress_negative_prices":
                        bool(options.get("suppress_negative_prices", False))},
    }
    for node, spec in system.technologies:
        entry = {"node": node, "name": spec.name, "capex": spec.capex,
                 "lifetime": spec.lifetime}
        for f in ("fixed_om", "variable_cost", "fuel_cost", "efficiency",
                  "emission_factor", "max_potential"):
            v = getattr(spec, f)
            if v not in (None, 0.0):
                entry[f] = v
        if spec.availability is not None:
            entry["availability"] = list(spec.availability)
        doc["technologies"].append(entry)
    if system.storages:
        doc["storages"] = []
        for node, sto in system.storages:
            entry = {"node": node}
            for f in _STORAGE_FIELDS:
                v = getattr(sto, f)
                if v is not None:
                    entry[f] = v
            doc["storages"].append(entry)
    if system.lines:
        doc["lines"] = []
        for line in system.lines:
            entry = {}
            for f in _LINE_FIELDS:
                v = getattr(line, f)
                if v is not None:
                    entry[f] = v
            doc["lines"].append(entry)
    pol: dict = {}
    sup = policy.support
    if isinstance(sup, SupportDispatched):
        pol["support"] = {"type": "dispatched", "technologies": list(sup.technologies)}
    elif isinstance(sup, SupportAvailable):
        pol["support"] = {"type": "available", "technologies": list(sup.technologies)}
    elif isinstance(sup, FixedFip):
        pol["support"] = {"type": "fip", "technologies": list(sup.technologies),
                          "premium": sup.premium}
    if isinstance(sup, (SupportDispatched, SupportAvailable)):
        if sup.share is not None:
            pol["support"]["share"] = sup.share
        else:
            pol["support"]["target"] = sup.target
    if isinstance(policy.co2, Co2Cap):
        pol["co2"] = {"type": "cap", "cap": policy.co2.cap}
    elif isinstance(policy.co2, Co2Tax):
        pol["co2"] = {"type": "tax", "rate": policy.co2.rate}
    if pol:
        doc["policy"] = pol
    return json.dumps(doc, indent=2, sort_keys=True)


_PLAN_KEYS = ("name", "scenario", "axis", "values", "policy_set",
              "suppress_negative_prices")


def load_plan(path):
    """Parse a sweep plan file: a scenario (path or inline document) plus
    {axis, values, policy_set, name, suppress_negative_prices} keys."""
    from .sweep import SweepPlan

    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: a plan is a JSON object")
    errors = [f"unknown plan key '{k}'" for k in doc if k not in _PLAN_KEYS]
    errors += [f"missing plan key '{k}'" for k in ("scenario", "axis", "values")
               if k not in doc]
    scenario, values = doc.get("scenario", ""), doc.get("values", [])
    policy_set = doc.get("policy_set", [])
    if not isinstance(scenario, (str, dict)):
        errors.append("plan key 'scenario' must be a path or an inline document")
    if not isinstance(values, list) or not all(_is_number(v) for v in values):
        errors.append("plan key 'values' must be a list of numbers")
    if not isinstance(policy_set, list) or not all(isinstance(t, str) for t in policy_set):
        errors.append("plan key 'policy_set' must be a list of technology names")
    if errors:
        raise ScenarioError("; ".join(errors))
    base_dir = os.path.dirname(os.path.abspath(path))
    if isinstance(scenario, str):
        system, policy, options = load_scenario(os.path.join(base_dir, scenario))
    else:
        system, policy, options = loads_scenario(scenario, base_dir)
    try:
        return SweepPlan(
            system=system,
            axis=doc["axis"],
            values=tuple(float(v) for v in values),
            policy_set=tuple(policy_set),
            base_co2=policy.co2,
            suppress_negative_prices=bool(
                doc.get("suppress_negative_prices",
                        options.get("suppress_negative_prices", False))),
            enforce_kvl=bool(options.get("kvl", False)),
            name=doc.get("name", options.get("name", "sweep")),
        )
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None
