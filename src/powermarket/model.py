"""Domain types for long-term electricity market equilibrium studies.

Holds the techno-economic specifications (generators, storage, lines), the
assembled power system, the policy configuration, capital-cost annuitization
and input validation.  All types are immutable after construction and safe to
share across concurrent scenario evaluations.
"""

from __future__ import annotations

import math
import sys
import re
from dataclasses import dataclass, field, fields
from typing import Optional, Union

import numpy as np

__all__ = [
    "TechnologySpec",
    "StorageSpec",
    "LineSpec",
    "PowerSystem",
    "tech_key",
    "SupportDispatched",
    "SupportAvailable",
    "FixedFip",
    "Co2Cap",
    "Co2Tax",
    "PolicyConfig",
    "Violation",
    "annuitize",
    "validate",
    "synth_profiles",
    "PROFILE_KINDS",
    "SHEDDING_NAME",
    "MAX_MAGNITUDE",
    "MIN_COEFFICIENT",
]

# Pseudo-technology automatically added to represent load shedding at VOLL.
SHEDDING_NAME = "load-shedding"

# No input number, nor the marginal cost or annualized cost validate
# derives, may reach this.  HiGHS (1.12.0) rejects matrix values of 1e15 and
# row bounds of 1e20 or more, and reads costs of 1e20 or more as infinite; a
# snapshot sample weights costs and scalar rows' entries by up to
# solve.SAMPLE_STRIDE (11), and a quota row sums demand over the system.
MAX_MAGNITUDE = 1e13

# A field marked _COEFFICIENT becomes an LP matrix entry (eta_discharge as its
# inverse), so it may not be nonzero at or below this: HiGHS drops such entries.
MIN_COEFFICIENT = 1e-9
_COEFFICIENT = {"coefficient": True}

# Identifiers end up embedded in LP row/column names, where '.' separates
# tag fields and whitespace would break the interchange format.
_IDENT_RE = re.compile(r"^[A-Za-z0-9_@+-]+$")


def _check_ident(name: str) -> bool:
    return bool(_IDENT_RE.match(name))


def annuitize(capex: float, lifetime: float, discount_rate: float,
              fixed_om: float = 0.0) -> float:
    """Annualized capital cost in EUR/MW/a via the standard annuity factor.

    For a zero discount rate this degenerates to straight-line capex/lifetime.
    """
    for v in (capex, lifetime, discount_rate, fixed_om):
        if not math.isfinite(v):
            raise ValueError("annuitize: non-finite input")
    if lifetime < 1:
        raise ValueError("annuitize: lifetime must be >= 1 year")
    if discount_rate < 0:
        raise ValueError("annuitize: discount rate must be >= 0")
    r = discount_rate
    straight = capex / lifetime
    if lifetime * r <= sys.float_info.epsilon:
        # the rate's first-order effect, r (lifetime+1)/2, is below one ulp of
        # the straight line (this also covers subnormal rates, whose ratio to
        # the rounded denominator is meaningless): straight-line depreciation
        return straight + fixed_om
    return max(capex * r / -math.expm1(-lifetime * math.log1p(r)), straight) + fixed_om


@dataclass(frozen=True)
class TechnologySpec:
    """Techno-economic parameters of a generation technology.

    ``availability`` is a per-snapshot capacity factor series in [0, 1];
    ``None`` means a constant 1 (dispatchable unit).  The effective marginal
    cost (variable plus fuel converted at the thermal efficiency) is computed
    once at construction.
    """

    name: str
    capex: float                      # EUR/MW overnight
    lifetime: float = 25.0            # years
    fixed_om: float = 0.0             # EUR/MW/a
    variable_cost: float = 0.0        # EUR/MWh_el
    fuel_cost: Optional[float] = None  # EUR/MWh_th
    efficiency: Optional[float] = None  # MWh_el / MWh_th
    emission_factor: float = field(default=0.0, metadata=_COEFFICIENT)  # tCO2/MWh_el
    availability: Optional[tuple] = field(default=None, metadata=_COEFFICIENT)
    max_potential: Optional[float] = None  # MW
    marginal_cost: float = field(init=False)

    def __post_init__(self):
        if self.availability is not None:
            object.__setattr__(self, "availability", tuple(float(v) for v in self.availability))
        mc = self.variable_cost
        if self.fuel_cost is not None:
            if not self.efficiency:
                raise ValueError(f"{self.name}: fuel_cost given without a nonzero efficiency")
            mc = self.variable_cost + self.fuel_cost / self.efficiency
        object.__setattr__(self, "marginal_cost", float(mc))

    def annual_cost(self, discount_rate: float) -> float:
        """Annualized fixed cost c_s in EUR/MW/a."""
        return annuitize(self.capex, self.lifetime, discount_rate, self.fixed_om)

    def availability_at(self, t: int) -> float:
        return 1.0 if self.availability is None else self.availability[t]

    def availability_sum(self, snapshots: int) -> float:
        """Full-load hours available over the horizon (summed in order)."""
        return float(snapshots) if self.availability is None else sum(self.availability)


@dataclass(frozen=True)
class StorageSpec:
    """Storage unit with separate charge, discharge and energy capacities.

    ``fixed_energy_power_ratio`` ties the energy capacity to the discharge
    power capacity (in hours); when set, no independent energy capacity
    variable is created and the energy capex is folded into the discharge
    capacity cost.
    """

    name: str
    capex_discharge: float = 0.0   # EUR/MW
    capex_charge: float = 0.0      # EUR/MW
    capex_energy: float = 0.0      # EUR/MWh
    lifetime: float = 25.0
    eta_discharge: float = field(default=1.0, metadata=_COEFFICIENT)
    eta_charge: float = field(default=1.0, metadata=_COEFFICIENT)
    eta_standing: float = field(default=1.0, metadata=_COEFFICIENT)  # per hour
    fixed_energy_power_ratio: Optional[float] = field(default=None, metadata=_COEFFICIENT)  # hours

    def annual_costs(self, discount_rate: float) -> dict:
        """Annualized costs per component, EUR/MW/a (dis, sto) and EUR/MWh/a (ene)."""
        return {
            "dis": annuitize(self.capex_discharge, self.lifetime, discount_rate),
            "sto": annuitize(self.capex_charge, self.lifetime, discount_rate),
            "ene": annuitize(self.capex_energy, self.lifetime, discount_rate),
        }


@dataclass(frozen=True)
class LineSpec:
    """Transmission line between two nodes.

    ``capex`` is interpreted as an annuitized EUR/MW/a cost when ``lifetime``
    is None, otherwise as an overnight EUR/MW cost annuitized with the system
    discount rate.  ``existing_capacity_reverse`` allows asymmetric limits on a
    fixed line and defaults to the forward capacity; an expandable line has one
    capacity in both directions.
    """

    from_node: str
    to_node: str
    existing_capacity: float = 0.0      # MW
    existing_capacity_reverse: Optional[float] = None
    expandable: bool = False
    capex: float = 0.0
    lifetime: Optional[float] = None
    reactance: Optional[float] = field(default=None, metadata=_COEFFICIENT)  # per unit; KVL only

    @property
    def name(self) -> str:
        return f"{self.from_node}+{self.to_node}"

    def annual_cost(self, discount_rate: float) -> float:
        if self.lifetime is None:
            return self.capex
        return annuitize(self.capex, self.lifetime, discount_rate)

    def reverse_capacity(self) -> float:
        if self.existing_capacity_reverse is None:
            return self.existing_capacity
        return self.existing_capacity_reverse


@dataclass(frozen=True)
class PowerSystem:
    """A complete model instance: nodes, demand, fleet, storage and network.

    Demand is perfectly price-inelastic up to ``voll``; snapshots carry a
    uniform weight of one hour.  With ``kvl`` the line flows also obey the
    voltage law around every cycle of the network.
    """

    nodes: tuple
    snapshots: int
    demand: dict          # node -> tuple of MW, one per snapshot
    technologies: tuple   # of (node, TechnologySpec)
    storages: tuple = ()  # of (node, StorageSpec)
    lines: tuple = ()     # of LineSpec
    voll: Optional[float] = 1000.0
    discount_rate: float = 0.07
    kvl: bool = False

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(
            self, "demand",
            {n: tuple(float(v) for v in d) for n, d in dict(self.demand).items()})
        object.__setattr__(self, "technologies", tuple(self.technologies))
        object.__setattr__(self, "storages", tuple(self.storages))
        object.__setattr__(self, "lines", tuple(self.lines))

    def total_demand(self) -> float:
        return float(sum(sum(d) for d in self.demand.values()))

    def tech_names(self) -> list:
        """Distinct technology names in order of first placement."""
        return list(dict.fromkeys(spec.name for _, spec in self.technologies))


def tech_key(tech_name: str, node: str) -> str:
    """Entity id of a technology or storage unit placed at a node."""
    return f"{tech_name}@{node}"


@dataclass(frozen=True)
class EnergyQuota:
    """An energy target for a technology set: an absolute energy in MWh or
    a share of total demand."""
    technologies: tuple
    share: Optional[float] = None     # of total demand
    target: Optional[float] = None    # MWh

    def energy_target(self, system: PowerSystem) -> float:
        if self.target is not None:
            return self.target
        return self.share * system.total_demand()


@dataclass(frozen=True)
class SupportDispatched(EnergyQuota):
    """Force technologies in the set to dispatch at least a target energy."""


@dataclass(frozen=True)
class SupportAvailable(EnergyQuota):
    """Force the pre-curtailment available energy of the set to a target."""


@dataclass(frozen=True)
class FixedFip:
    """Fixed per-MWh premium paid outside the market to the listed set."""
    technologies: tuple
    premium: float  # EUR/MWh


@dataclass(frozen=True)
class Co2Cap:
    cap: float  # tCO2/a


@dataclass(frozen=True)
class Co2Tax:
    rate: float  # EUR/tCO2


SupportPolicy = Union[SupportDispatched, SupportAvailable, FixedFip]
Co2Policy = Union[Co2Cap, Co2Tax]


@dataclass(frozen=True)
class PolicyConfig:
    """At most one technology-support instrument plus at most one CO2 instrument."""

    support: Optional[SupportPolicy] = None
    co2: Optional[Co2Policy] = None

    def support_set(self) -> tuple:
        if self.support is None:
            return ()
        return tuple(self.support.technologies)


@dataclass(frozen=True)
class Violation:
    entity: str
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.entity}: {self.rule} ({self.message})"


def _check_profile(out, entity, series, length, rule, lo=0.0, hi=MAX_MAGNITUDE):
    if len(series) != length:
        out.append(Violation(entity, "profile-length",
                             f"expected {length} values, got {len(series)}"))
        return
    for v in series:
        if not math.isfinite(v):
            out.append(Violation(entity, rule, "non-finite value"))
            return
        if v < lo or v > hi:
            out.append(Violation(entity, rule, f"value {v} out of range"))
            return


def _check_numbers(out, entity, spec):
    """One violation per float field of the dataclass ``spec`` that is NaN,
    infinite, or of a magnitude at or above ``MAX_MAGNITUDE``, and per
    coefficient field holding a nonzero of magnitude at most ``MIN_COEFFICIENT``."""
    for f in fields(spec):
        v = getattr(spec, f.name)
        if f.init and isinstance(v, float) and not abs(v) < MAX_MAGNITUDE:
            rule = f"beyond ±{MAX_MAGNITUDE:g}" if math.isfinite(v) else "non-finite"
            out.append(Violation(entity, rule, f"{f.name} is {v}"))
        small = [x for x in (v if isinstance(v, tuple) else (v,))
                 if "coefficient" in f.metadata and x and abs(x) <= MIN_COEFFICIENT]
        if small:
            out.append(Violation(entity, f"nonzero within ±{MIN_COEFFICIENT:g}",
                                 f"{f.name} holds {small[0]}"))


def _check_derived(out, entity, rule, what, cost, ok=True, lo=-math.inf):
    """A violation ``rule`` when ``cost()``, the ``what`` that the entity's
    fields give, is below ``lo`` (a negative annualized cost pays for each MW
    built, so the LP is unbounded) or not below ``MAX_MAGNITUDE`` in magnitude
    (inf, say, from fields in range).  It is computed only when ``ok`` and for
    an entity without other violations, as annuitize raises on what those reject."""
    if ok and all(v.entity != entity for v in out):
        value = cost()
        if not (abs(value) < MAX_MAGNITUDE and value >= lo):
            out.append(Violation(entity, rule, f"{what} is {value}"))


def validate(system: PowerSystem, policy: PolicyConfig) -> list:
    """Check all model invariants; returns structured violations, never raises."""
    out: list = []
    T = system.snapshots
    r = system.discount_rate
    rate_ok = math.isfinite(r) and r >= 0
    if T < 1:
        out.append(Violation("system", "snapshots", "at least one snapshot required"))

    if not system.nodes:
        out.append(Violation("system", "nodes", "at least one node required"))
    for i, n in enumerate(system.nodes):
        if not _check_ident(n):
            out.append(Violation(n, "identifier", "node name has invalid characters"))
        if n in system.nodes[:i]:
            out.append(Violation(n, "duplicate", "duplicate node name"))
        if n not in system.demand:
            out.append(Violation(n, "demand-missing", "no demand series for node"))
    for n, d in system.demand.items():
        if n not in system.nodes:
            out.append(Violation(n, "unresolved-node", "demand for unknown node"))
        else:
            _check_profile(out, n, d, T, "demand out of range", lo=0.0)
    if system.demand and system.total_demand() <= 0:
        out.append(Violation("system", "demand", "total demand must be > 0"))

    names = set()
    for node, spec in system.technologies:
        ent = tech_key(spec.name, node)
        if node not in system.nodes:
            out.append(Violation(ent, "unresolved-node", f"unknown node {node}"))
        if not _check_ident(spec.name):
            out.append(Violation(ent, "identifier", "technology name has invalid characters"))
        if spec.name == SHEDDING_NAME:
            out.append(Violation(ent, "reserved-name",
                                 f"'{SHEDDING_NAME}' is reserved for the VOLL pseudo-technology"))
        if (spec.name, node) in names:
            out.append(Violation(ent, "duplicate", "duplicate technology at node"))
        names.add((spec.name, node))
        _check_numbers(out, ent, spec)
        if spec.capex < 0:
            out.append(Violation(ent, "capex", "capex must be >= 0"))
        if spec.lifetime < 1:
            out.append(Violation(ent, "lifetime", "lifetime must be >= 1"))
        if spec.emission_factor < 0:
            out.append(Violation(ent, "emission-factor", "emission factor must be >= 0"))
        if spec.efficiency is not None and not (0.0 < spec.efficiency <= 1.0):
            out.append(Violation(ent, "efficiency", "efficiency must be in (0, 1]"))
        if spec.availability is not None:
            _check_profile(out, ent, spec.availability, T, "profile out of [0,1]", 0.0, 1.0)
        if spec.max_potential is not None and spec.max_potential < 0:
            out.append(Violation(ent, "potential", "max potential must be >= 0"))
        _check_derived(out, ent, "marginal-cost", "marginal cost", lambda: spec.marginal_cost)
        _check_derived(out, ent, "annual-cost", "annualized cost",
                       lambda: spec.annual_cost(r), rate_ok, lo=0.0)

    names = set()
    for node, sto in system.storages:
        ent = tech_key(sto.name, node)
        if node not in system.nodes:
            out.append(Violation(ent, "unresolved-node", f"unknown node {node}"))
        if not _check_ident(sto.name):
            out.append(Violation(ent, "identifier", "storage name has invalid characters"))
        if (sto.name, node) in names:
            out.append(Violation(ent, "duplicate", "duplicate storage at node"))
        names.add((sto.name, node))
        _check_numbers(out, ent, sto)
        if sto.lifetime < 1:
            out.append(Violation(ent, "lifetime", "lifetime must be >= 1"))
        for eta in (sto.eta_discharge, sto.eta_charge, sto.eta_standing):
            if not (0.0 < eta <= 1.0):
                out.append(Violation(ent, "efficiency", "efficiencies must be in (0, 1]"))
        for cap in (sto.capex_discharge, sto.capex_charge, sto.capex_energy):
            if cap < 0:
                out.append(Violation(ent, "capex", "capex must be >= 0"))
        if sto.fixed_energy_power_ratio is not None and sto.fixed_energy_power_ratio <= 0:
            out.append(Violation(ent, "energy-power-ratio", "ratio must be > 0"))
        _check_derived(out, ent, "annual-cost", "annualized cost",
                       lambda: sum(sto.annual_costs(r).values()), rate_ok, lo=0.0)

    for line in system.lines:
        ent = line.name
        if line.from_node == line.to_node:
            out.append(Violation(ent, "self-loop", "line endpoints must differ"))
        _check_numbers(out, ent, line)
        for n in (line.from_node, line.to_node):
            if n not in system.nodes:
                out.append(Violation(ent, "unresolved-node", f"unknown node {n}"))
        if line.existing_capacity < 0 or line.reverse_capacity() < 0:
            out.append(Violation(ent, "capacity", "existing capacity must be >= 0"))
        if line.expandable and line.existing_capacity_reverse not in (None, line.existing_capacity):
            out.append(Violation(ent, "capacity", "an expandable line has one capacity, so "
                                 "existing_capacity_reverse must equal existing_capacity"))
        if line.lifetime is not None and line.lifetime < 1:
            out.append(Violation(ent, "lifetime", "lifetime must be >= 1"))
        if system.kvl and line.reactance is None:
            out.append(Violation(ent, "reactance", "kvl needs a reactance on every line"))
        if line.expandable:
            _check_derived(out, ent, "annual-cost", "annualized cost",
                           lambda: line.annual_cost(r), rate_ok, lo=0.0)

    known = {spec.name for _, spec in system.technologies}
    sup = policy.support
    for instrument in (sup, policy.co2):
        if instrument is not None:
            _check_numbers(out, "policy", instrument)
    if sup is not None:
        if not sup.technologies:
            out.append(Violation("policy", "support-set", "empty technology set"))
        for t in sup.technologies:
            if t not in known:
                out.append(Violation(t, "unresolved policy set member",
                                     f"policy references unknown technology '{t}'"))
        if isinstance(sup, EnergyQuota):
            if (sup.share is None) == (sup.target is None):
                out.append(Violation("policy", "target",
                                     "exactly one of share and target must be set"))
            if sup.share is not None and not (0.0 <= sup.share <= 1.0):
                out.append(Violation("policy", "target", "share must be in [0, 1]"))
            if sup.target is not None and sup.target < 0:
                out.append(Violation("policy", "target", "target must be >= 0"))
        elif isinstance(sup, FixedFip) and sup.premium < 0:
            out.append(Violation("policy", "premium", "premium must be >= 0"))
    co2 = policy.co2
    if isinstance(co2, Co2Cap) and co2.cap < 0:
        out.append(Violation("policy", "co2-cap", "cap must be >= 0"))
    if isinstance(co2, Co2Tax) and co2.rate < 0:
        out.append(Violation("policy", "co2-tax", "tax must be >= 0"))

    _check_numbers(out, "system", system)
    if system.voll is not None and system.voll <= 0:
        out.append(Violation("system", "voll", "value of lost load must be > 0"))
    if r < 0:
        out.append(Violation("system", "discount-rate", "discount rate must be >= 0"))
    return out


PROFILE_KINDS = ("solar-diurnal", "wind-autocorrelated", "flat-demand", "two-day-fig1")


def synth_profiles(seed: int, snapshots: int, kind: str) -> tuple:
    """Deterministic synthetic time series for desk-scale scenarios.

    Availability kinds return values in [0, 1]; ``two-day-fig1`` returns a
    48-point demand shape with evening peaks and a fixed min/max band.
    """
    if snapshots < 1:
        raise ValueError("snapshots must be >= 1")
    rng = np.random.default_rng(seed)
    if kind == "flat-demand":
        return tuple([1.0] * snapshots)
    if kind == "solar-diurnal":
        hours = np.arange(snapshots) % 24
        bell = np.clip(np.sin((hours - 6.0) * np.pi / 12.0), 0.0, None)
        bell[hours == 18] = 0.0  # sin(pi) is 1.2e-16 in floating point
        days = np.arange(snapshots) // 24
        amp = 0.85 + 0.15 * rng.random(int(days.max()) + 1)
        return tuple((bell * amp[days]).tolist())
    if kind == "wind-autocorrelated":
        # AR(1) in a transformed space, squashed back into [0, 1]
        x = np.empty(snapshots)
        x[0] = rng.normal()
        for t in range(1, snapshots):
            x[t] = 0.95 * x[t - 1] + 0.4 * rng.normal()
        return tuple((1.0 / (1.0 + np.exp(-x))).tolist())
    if kind == "two-day-fig1":
        if snapshots != 48:
            raise ValueError("two-day-fig1 is a 48-hour shape")
        hours = np.arange(48) % 24
        base = 0.55 + 0.25 * np.sin((hours - 9.0) * np.pi / 12.0)
        evening = 0.2 * np.exp(-0.5 * ((hours - 19.0) / 2.0) ** 2)
        shape = np.clip(base + evening, 0.4, 1.0)
        return tuple(shape.tolist())
    raise ValueError(f"unknown profile kind '{kind}' (choose from {PROFILE_KINDS})")
