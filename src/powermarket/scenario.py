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
import math
import os
from dataclasses import MISSING, fields
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

__all__ = ["ScenarioError", "DEFAULT_TECHNOLOGIES", "DEFAULT_STORAGES", "MAX_SNAPSHOTS",
           "load_scenario", "loads_scenario", "serialize_scenario",
           "load_plan"]


class ScenarioError(ValueError):
    """Scenario schema violation; the message lists every problem found."""


# The most snapshots a scenario may ask for, a century of hours: checked before
# any series is resolved into that many floats, as validate runs only after.
MAX_SNAPSHOTS = 10**6


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

# the instrument classes a policy section's 'type' names
_SUPPORT_TYPES = {"dispatched": SupportDispatched, "available": SupportAvailable,
                  "fip": FixedFip}
_CO2_TYPES = {"cap": Co2Cap, "tax": Co2Tax}


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
    "a list of numbers": lambda v: isinstance(v, list) and all(_is_number(x) for x in v),
    "a list of technology names":
        lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
    "a path or an inline document": lambda v: isinstance(v, (str, dict)),
    "a series": lambda v: True,  # _resolve_series checks it
}
# the kind a dataclass field's annotation asks for
_ANNOTATED = {float: "a number", Optional[float]: "a number or null", str: "a string",
              bool: "true or false", tuple: "a list of strings",
              Optional[tuple]: "a series"}

_DOC_KINDS = {"name": "a string", "snapshots": "an integer", "timeseries": "a string",
              "nodes": "a list of strings", "demand": "an object",
              "technologies": "a list of objects", "storages": "a list of objects",
              "lines": "a list of objects", "policy": "an object or null",
              "options": "an object"}
_OPTION_KINDS = {"voll": "a number or null", "discount_rate": "a number",
                 "kvl": "true or false", "suppress_negative_prices": "true or false"}
_SERIES_KINDS = {"scale": "a number", "seed": "an integer", "kind": "a string",
                 "series": "a string"}
_POLICY_KINDS = {"support": "an object or null", "co2": "an object or null"}
_PLAN_KINDS = {"name": "a string", "scenario": "a path or an inline document",
               "axis": "a string", "values": "a list of numbers",
               "policy_set": "a list of technology names",
               "suppress_negative_prices": "true or false"}


def _json_type(value) -> str:
    return next((name for kind, name in _JSON_TYPES if isinstance(value, kind)),
                type(value).__name__)


def _type_errors(entry: dict, kinds: dict, where: str, noun: str = "field") -> list:
    """One message per key of ``entry`` that ``kinds`` does not name, or
    whose value is not of the kind ``kinds`` names for it."""
    return [f"{where}: unknown {noun} '{key}'" if key not in kinds else
            f"{where}: '{key}' must be {kinds[key]}, not {_json_type(value)}"
            for key, value in entry.items()
            if key not in kinds or not _KINDS[kinds[key]](value)]


def _name_errors(doc: dict, where) -> list:
    """A message if the document's 'name', the stem of its output files, is
    a string but not a plain file name."""
    name = doc.get("name")
    if isinstance(name, str) and (os.path.basename(name) != name or "\0" in name
                                  or name in ("", ".", "..")):
        return [f"{where}: 'name' must be a plain file name, not {json.dumps(name)}"]
    return []


def _float(value) -> Optional[float]:
    """A JSON number as a float, null as None; an integer beyond the float
    range becomes an infinity, which validate reports like any other."""
    if value is None:
        return None
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


# how _build turns a JSON value of a kind into a field value
_CONVERT = {"a number": _float, "a number or null": _float, "a list of strings": tuple}


def _read_timeseries_csv(path, errors: list) -> dict:
    """Read `timestamp,<node>_<series>` columns into name -> list of floats."""
    if not os.path.exists(path):
        errors.append(f"timeseries: file '{path}' not found")
        return {}
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
    out = {c: [] for c in cols}
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
        return tuple(_float(v) for v in value)
    if isinstance(value, dict):
        bad = _type_errors(value, _SERIES_KINDS, where)
        if bad:
            errors.extend(bad)
            return None
        scale = _float(value.get("scale", 1.0))
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


def _build(cls, entry: dict, where: str, errors: list, defaults=None, series=None):
    """An instance of the dataclass ``cls`` from the JSON object ``entry``,
    or None after adding what is wrong with it to ``errors``.

    ``entry`` takes the fields of ``cls``, each of the JSON kind its
    annotation asks for, and, where ``defaults`` is given, a 'default' that
    names one of them for the entry's fields to override.  A series field is
    resolved with ``series``, a (snapshots, timeseries columns) pair.
    """
    hints = get_type_hints(cls)
    kinds = {f.name: _ANNOTATED[hints[f.name]] for f in fields(cls) if f.init}
    if defaults is not None:
        kinds["default"] = "a string"
    bad = _type_errors(entry, kinds, where)
    if not bad and "default" in entry and entry["default"] not in defaults:
        bad = [f"{where}: unknown default '{entry['default']}' "
               f"(available: {sorted(defaults)})"]
    if bad:
        errors.extend(bad)
        return None
    kwargs = {}
    if "default" in entry:
        kwargs = {**defaults[entry["default"]], "name": entry["default"]}
    for key, value in entry.items():
        if key != "default":
            convert = _CONVERT.get(kinds[key])
            kwargs[key] = convert(value) if convert else value
    missing = [f"{where}: missing field '{f.name}'" for f in fields(cls)
               if f.init and f.name not in kwargs
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        errors.extend(missing)
        return None
    for key, kind in kinds.items():
        if kind == "a series" and kwargs.get(key) is not None:
            kwargs[key] = _resolve_series(kwargs[key], *series,
                                          f"{where}: {key} of '{kwargs['name']}'", errors)
            if kwargs[key] is None:
                return None
    try:
        return cls(**kwargs)
    except ValueError as exc:
        errors.append(f"{where}: {exc}")
        return None


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
    errors += _type_errors(doc, _DOC_KINDS, "scenario", "section")
    errors += _name_errors(doc, "scenario")
    if isinstance(doc.get("snapshots"), int) and doc["snapshots"] > MAX_SNAPSHOTS:
        errors.append(f"scenario: 'snapshots' must be at most {MAX_SNAPSHOTS}")
    pol, options = doc.get("policy") or {}, doc.get("options", {})
    if isinstance(pol, dict):
        errors += _type_errors(pol, _POLICY_KINDS, "policy")
    if isinstance(options, dict):
        errors += _type_errors(options, _OPTION_KINDS, "options", "option")
    if errors:
        raise ScenarioError("; ".join(errors))

    snapshots = doc["snapshots"]
    nodes = tuple(doc["nodes"])
    columns: dict = {}
    if "timeseries" in doc:
        columns = _read_timeseries_csv(
            os.path.join(base_dir, doc["timeseries"]), errors)
    series = (snapshots, columns)

    # unknown and missing demand nodes are left to validate
    demand = {n: _resolve_series(d, *series, f"demand[{n}]", errors)
              for n, d in doc["demand"].items()}

    placed: dict = {}
    for section, cls, defaults in (("technologies", TechnologySpec, DEFAULT_TECHNOLOGIES),
                                   ("storages", StorageSpec, DEFAULT_STORAGES)):
        placed[section] = []
        for i, entry in enumerate(doc.get(section, ())):
            where = f"{section}[{i}]"
            node = entry.get("node")
            if node not in nodes:
                errors.append(f"{where}: unknown or missing node '{node}'")
                continue
            spec = _build(cls, {k: v for k, v in entry.items() if k != "node"},
                          where, errors, defaults, series)
            if spec is not None:
                placed[section].append((node, spec))

    lines = [_build(LineSpec, entry, f"lines[{i}]", errors)
             for i, entry in enumerate(doc.get("lines", ()))]

    instruments = {}
    for key, types in (("support", _SUPPORT_TYPES), ("co2", _CO2_TYPES)):
        entry, where = pol.get(key), f"policy.{key}"
        if entry is None:
            continue
        kind = entry.get("type")
        if not isinstance(kind, str):
            errors.append(f"{where}: 'type' must be a string, not {_json_type(kind)}")
        elif kind not in types:
            errors.append(f"{where}: unknown type '{kind}' ({' | '.join(types)})")
        else:
            instruments[key] = _build(types[kind], {k: v for k, v in entry.items()
                                                    if k != "type"}, where, errors)

    if errors:
        raise ScenarioError("; ".join(errors))

    policy = PolicyConfig(**instruments)
    system = PowerSystem(nodes=nodes, snapshots=snapshots, demand=demand,
                         technologies=tuple(placed["technologies"]),
                         storages=tuple(placed["storages"]), lines=tuple(lines),
                         voll=_float(options.get("voll", 1000.0)),
                         discount_rate=_float(options.get("discount_rate", 0.07)),
                         kvl=options.get("kvl", False))
    violations = validate(system, policy)
    if violations:
        raise ScenarioError("; ".join(map(str, violations)))
    return system, policy, {"suppress_negative_prices":
                                options.get("suppress_negative_prices", False),
                            "name": doc.get("name", "scenario")}


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


def _entry(obj) -> dict:
    """The fields of the dataclass ``obj`` that are set, as JSON values."""
    entry = {f.name: getattr(obj, f.name) for f in fields(obj) if f.init}
    return {k: list(v) if isinstance(v, tuple) else v
            for k, v in entry.items() if v is not None}


def serialize_scenario(system: PowerSystem, policy: PolicyConfig,
                       options: Optional[dict] = None) -> str:
    """Canonical JSON for a resolved model; loading it back yields an
    identical system (all series inlined)."""
    options = options or {}
    doc: dict = {
        "name": options.get("name", "scenario"),
        "snapshots": system.snapshots,
        "nodes": list(system.nodes),
        "demand": {n: list(d) for n, d in system.demand.items()},
        "technologies": [{"node": n, **_entry(s)} for n, s in system.technologies],
        "storages": [{"node": n, **_entry(s)} for n, s in system.storages],
        "lines": [_entry(line) for line in system.lines],
        "policy": {},
        "options": {"voll": system.voll, "discount_rate": system.discount_rate,
                    "kvl": system.kvl,
                    "suppress_negative_prices":
                        bool(options.get("suppress_negative_prices", False))},
    }
    for key, types in (("support", _SUPPORT_TYPES), ("co2", _CO2_TYPES)):
        instrument = getattr(policy, key)
        if instrument is not None:
            kind = next(k for k, cls in types.items() if type(instrument) is cls)
            doc["policy"][key] = {"type": kind, **_entry(instrument)}
    return json.dumps(doc, indent=2, sort_keys=True)


def load_plan(path):
    """Parse a sweep plan file: a scenario (path or inline document) plus
    {axis, values, policy_set, name, suppress_negative_prices} keys, each of
    the kind ``_PLAN_KINDS`` names."""
    from .sweep import SweepPlan

    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: a plan is a JSON object")
    errors = _type_errors(doc, _PLAN_KINDS, path, "plan key") + _name_errors(doc, path)
    errors += [f"{path}: missing plan key '{k}'" for k in ("scenario", "axis", "values")
               if k not in doc]
    if errors:
        raise ScenarioError("; ".join(errors))
    where, scenario = path, doc["scenario"]  # the file a scenario error names
    if isinstance(scenario, str):
        where = os.path.join(os.path.dirname(os.path.abspath(path)), scenario)
        scenario = _read_json(where)
    try:
        system, policy, options = loads_scenario(scenario, os.path.dirname(os.path.abspath(where)))
    except ScenarioError as exc:
        raise ScenarioError(f"{where}: {exc}") from None
    try:
        return SweepPlan(system=system, axis=doc["axis"], base_policy=policy,
                         values=tuple(_float(v) for v in doc["values"]),
                         policy_set=tuple(doc.get("policy_set", ())),
                         suppress_negative_prices=doc.get(
                             "suppress_negative_prices", options["suppress_negative_prices"]),
                         name=doc.get("name", options["name"]))
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from None
