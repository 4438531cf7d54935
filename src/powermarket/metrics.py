"""Economic quantities derived from a solved market equilibrium.

Market value, LCOE, relative market value, equivalent feed-in premium,
policy shadow prices, penetration, curtailment, system-cost breakdown,
duration curves and the negative-price-suppressed variants.  Each solution
is walked once, into a :class:`Ledger` built from ``(system, sol,
policy)``: the nodal and policy prices, one :class:`Account` per placement
(hourly dispatch and revenue, energy, cost, capacity, available energy,
emissions), the accounts' sums per name and, on first read, the zero-profit
:class:`Books` of every entity (:attr:`Ledger.books`), which the report
reads and ``verify`` judges.  Every reader takes the ledger.
:func:`build_report` is the one reader of the report-level quantities:
market value, LCOE and relative market value (:class:`TechMetrics`), the
load-weighted and average prices, the price and revenue duration curves and
the values with prices floored at zero (:attr:`MetricsReport.suppressed`,
read off the ledger's accounts); :func:`write_report_csv` writes its table.
The LP is ``sol.lp``.  All functions are pure over immutable solutions.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .model import (
    SHEDDING_NAME,
    Co2Tax,
    FixedFip,
    PolicyConfig,
    PowerSystem,
    SupportAvailable,
    TechnologySpec,
    tech_key,
)
from .solve import FEAS_TOL, Solution

__all__ = [
    "Account",
    "Ledger",
    "Books",
    "reduced_costs",
    "nodal_prices",
    "TechMetrics",
    "MetricsReport",
    "penetration_of",
    "build_report",
    "report_to_json",
    "csv_cell",
    "write_report_csv",
]


# -- the ledger ---------------------------------------------------------------------


def nodal_prices(system: PowerSystem, sol: Solution) -> dict:
    """node -> array of balance duals over snapshots."""
    return {n: sol.dual("balance", n) for n in system.nodes}


def reduced_costs(sol: Solution) -> np.ndarray:
    """z = c - A^T y, from the LP of ``sol`` and its duals."""
    cols, e = sol.lp.columns, sol.lp.entries
    return cols.objective - np.bincount(e.col, weights=e.value * sol.y[e.row],
                                        minlength=len(cols))


@dataclass(frozen=True)
class Account:
    """One placement's books at the ledger's prices.  ``cost`` is annualized
    fixed cost plus true marginal cost (no tax or premium shifts) and
    ``available`` the energy its capacity could have produced;
    ``hourly_revenue`` is price times ``dispatch``, and ``revenue`` its sum.
    Load shedding has no spec, capacity, available energy or emissions."""

    name: str
    node: str
    spec: Optional[TechnologySpec]
    dispatch: np.ndarray
    hourly_revenue: np.ndarray
    energy: float
    revenue: float
    cost: float
    capacity: float
    available: float
    emissions: float


_SUMMED = ("hourly_revenue", "energy", "revenue", "cost", "capacity", "available")


@dataclass(frozen=True)
class Ledger:
    """The accounting of one optimal solution, built once by :meth:`of`
    (which raises ValueError for any other) and read by the report, the
    checks and the sweep: the nodal ``prices`` and the ``policy_prices``;
    the :class:`Account` of every placement in placement order, then load
    shedding per node where the system has a value of lost load; ``totals``,
    name -> {field: sum over its placements' accounts} in placement order;
    the total ``emissions``; and the :attr:`books`, worked out on first read."""

    system: PowerSystem
    sol: Solution
    policy: PolicyConfig
    prices: dict
    policy_prices: dict
    accounts: tuple
    totals: dict
    emissions: float

    @classmethod
    def of(cls, system: PowerSystem, sol: Solution, policy: PolicyConfig) -> "Ledger":
        if sol.status != "optimal":
            raise ValueError(f"metrics require an optimal solution, got '{sol.status}'")
        prices = nodal_prices(system, sol)
        placements = list(system.technologies)
        if system.voll is not None:
            placements += [(node, None) for node in system.nodes]
        accounts = []
        for node, spec in placements:
            name = SHEDDING_NAME if spec is None else spec.name
            key = tech_key(name, node)
            g = sol.primal("g", key)
            energy = float(g.sum())
            hourly = prices[node] * g
            revenue = float(hourly.sum())
            if spec is None:
                accounts.append(Account(name, node, None, g, hourly, energy, revenue,
                                        system.voll * energy, 0.0, 0.0, 0.0))
                continue
            G = sol.primal("G", key)
            cost = spec.annual_cost(system.discount_rate) * G + spec.marginal_cost * energy
            accounts.append(Account(
                name, node, spec, g, hourly, energy, revenue, float(cost), G,
                float(G * spec.availability_sum(system.snapshots)),
                spec.emission_factor * energy))
        by_name = {}
        for acct in accounts:
            by_name.setdefault(acct.name, []).append(acct)
        totals = {name: {key: sum(getattr(acct, key) for acct in mine) for key in _SUMMED}
                  for name, mine in by_name.items()}
        return cls(system, sol, policy, prices, _policy_prices(system, sol, policy, totals),
                   tuple(accounts), totals, sum(acct.emissions for acct in accounts))

    def market_values(self, prices: Optional[dict] = None) -> dict:
        """name -> generation-weighted average market price, EUR/MWh, of every
        name with output (load shedding included), at the ledger's prices or
        at ``prices``, node -> array."""
        paid = [(acct.name, acct.revenue if prices is None
                 else float((prices[acct.node] * acct.dispatch).sum())) for acct in self.accounts]
        energy = {name: _significant(self.system, sums["energy"])
                  for name, sums in self.totals.items()}
        return {name: sum(r for n, r in paid if n == name) / e
                for name, e in energy.items() if e > 0.0}

    @cached_property
    def books(self) -> list:
        """The :class:`Books` of every technology placement in placement order
        (load shedding has none), then of every storage unit and line.  A
        supported placement is paid (μ_γ + premium)·energy + μ_θ·available
        and an emitter charged e·μ_CO2·energy, at the ledger's policy prices
        (0.0 where the policy lacks one); a line's congestion revenue is
        offset by its voltage-law term.  Every capacity rent is read off the
        reduced costs z: −z_G·G for a generator at its potential, z_F·F for
        a line."""
        system, sol, prices, z = self.system, self.sol, self.prices, reduced_costs(self.sol)
        mu_co2, mu_gamma, mu_theta, premium = (
            0.0 if self.policy_prices[k] is None else self.policy_prices[k]
            for k in ("mu_co2", "mu_gamma", "mu_theta", "premium"))
        support_set = set(self.policy.support_set())
        upper = sol.lp.columns.upper
        out = []
        for acct in self.accounts:
            if acct.spec is None:
                continue
            key = tech_key(acct.name, acct.node)
            adjust = -acct.spec.emission_factor * mu_co2 * acct.energy
            if acct.name in support_set:
                adjust += (mu_gamma + premium) * acct.energy + mu_theta * acct.available
            G = sol.lp.col("G", key)
            scarcity = -float(z[G]) * acct.capacity if upper[G] < np.inf else 0.0
            out.append(Books("zero-profit", key, acct.revenue - acct.cost + adjust - scarcity,
                             {"revenue": acct.revenue, "cost": acct.cost, "adjustment": adjust,
                              "scarcity_rent": scarcity, "capacity": acct.capacity}))

        for node, sto in system.storages:
            key = tech_key(sto.name, node)
            costs = sto.annual_costs(system.discount_rate)
            gdis = sol.primal("Gdis", key)
            cost = costs["dis"] * gdis + costs["sto"] * sol.primal("Gsto", key)
            if sto.fixed_energy_power_ratio is None:
                cost += costs["ene"] * sol.primal("Gene", key)
            else:
                cost += costs["ene"] * sto.fixed_energy_power_ratio * gdis
            net = sol.primal("gdis", key) - sol.primal("gsto", key)
            arbitrage, cost = float((prices[node] * net).sum()), float(cost)
            out.append(Books("zero-profit-storage", key, arbitrage - cost,
                             {"arbitrage_revenue": arbitrage, "cost": cost}))

        kvl = _kvl_terms(sol)
        for li, line in enumerate(system.lines):
            key = f"L{li}"
            f = sol.primal("f", key)
            congestion = float(((prices[line.to_node] - prices[line.from_node]) * f).sum())
            detail = {"congestion_revenue": congestion, "cost": 0.0,
                      "kvl_term": kvl.get(key, 0.0)}
            residual = None
            if line.expandable:
                F = sol.primal("F", key)
                cost = float(line.annual_cost(system.discount_rate) * F)
                rent = float(z[sol.lp.col("F", key)]) * F
                detail.update(cost=cost, capacity=F, lower_bound_rent=rent)
                residual = congestion - cost + detail["kvl_term"] + rent
            out.append(Books("zero-profit-line", key, residual, detail))
        return out


def _significant(system: PowerSystem, energy: float) -> float:
    """``energy``, read as zero at or below round-off: the solver's
    feasibility tolerance times total demand.  An unbuilt technology can end
    a warm-started solve with dispatch of order 1e-13 MWh of either sign."""
    return energy if energy > FEAS_TOL * system.total_demand() else 0.0


def _per_mwh(system: PowerSystem, sums: Optional[dict], key: str) -> Optional[float]:
    """A name's ``key`` total per MWh dispatched; None for zero output."""
    energy = 0.0 if sums is None else _significant(system, sums["energy"])
    return sums[key] / energy if energy > 0.0 else None


def _averages(system: PowerSystem, prices: dict) -> dict:
    """The load-weighted and the plain average of the nodal ``prices``, under
    the report's field names."""
    num = sum(float((prices[n] * np.array(system.demand[n])).sum()) for n in system.nodes)
    return {"load_weighted_price": num / system.total_demand(),
            "average_price": float(np.mean(np.concatenate(list(prices.values()))))}


def penetration_of(ledger: Ledger, techs) -> float:
    """Share of total demand dispatched by the named set; may exceed 1 when
    the set also covers storage losses."""
    system, totals = ledger.system, ledger.totals
    total = sum(_significant(system, totals[name]["energy"])
                for name in techs if name in totals)
    return total / system.total_demand()


def _policy_prices(system: PowerSystem, sol: Solution, policy: PolicyConfig,
                   totals: dict) -> dict:
    """Shadow prices of the policy rows of ``sol.lp``, reported as
    non-negative prices, and the prices a policy sets without a row: a CO2
    tax as ``mu_co2`` and a fixed premium as ``premium``.  A price the
    policy lacks is None."""
    out = {"mu_gamma": None, "mu_theta": None, "mu_theta_equivalent": {},
           "mu_co2": None, "premium": None}
    if sol.lp.has_row("vre-dispatched"):
        out["mu_gamma"] = sol.dual("vre-dispatched")
    if sol.lp.has_row("vre-available"):
        mu = sol.dual("vre-available")
        out["mu_theta"] = mu
        if isinstance(policy.support, SupportAvailable):
            for name in policy.support.technologies:
                t = totals.get(name)
                if t is not None and _significant(system, t["energy"]) > 0.0:
                    out["mu_theta_equivalent"][name] = mu * t["available"] / t["energy"]
    if sol.lp.has_row("co2-cap"):
        out["mu_co2"] = 0.0 - sol.dual("co2-cap")  # a zero price reads 0.0, not -0.0
    elif isinstance(policy.co2, Co2Tax):
        out["mu_co2"] = float(policy.co2.rate)
    if isinstance(policy.support, FixedFip):
        out["premium"] = float(policy.support.premium)
    return out


# -- zero-profit books --------------------------------------------------------------


def _kvl_terms(sol: Solution) -> dict:
    """Voltage-law term per line: sum y·a·f over the entries of its flow
    block in every row of the LP of ``sol`` but its ``balance``,
    ``line-upper`` and ``line-lower`` rows, however that law is written (by
    cycle rows or by angles), keyed by the flow block's entity; empty for an
    LP without flow blocks."""
    lp = sol.lp
    flows = {entity: index for (family, entity), index in lp.col_index.items()
             if family == "f"}
    if not flows:
        return {}
    law = np.ones(len(lp.rows), dtype=bool)
    for (family, _), index in lp.row_index.items():
        law[index] = family not in ("balance", "line-upper", "line-lower")
    e = lp.entries
    k = law[e.row]
    terms = np.bincount(e.col[k], weights=sol.y[e.row[k]] * e.value[k] * sol.x[e.col[k]],
                        minlength=len(lp.columns))
    return {entity: float(terms[index].sum()) for entity, index in flows.items()}


@dataclass(frozen=True)
class Books:
    """One entity's zero-profit books: the terms of its identity and its
    ``cost`` in ``detail``, what is left of the identity in ``residual``
    (None for a fixed line, whose capacity no one chose), and the name of
    the ``check`` that judges entities of its kind."""

    check: str
    entity: str
    residual: Optional[float]
    detail: dict


# -- full report ----------------------------------------------------------------------


@dataclass
class TechMetrics:
    name: str
    mv: Optional[float]
    lcoe: Optional[float]
    rmv: Optional[float]
    rmv_shares: Optional[float]
    fip_equivalent: Optional[float]
    revenue: float
    cost: float
    energy: float
    capacity: float
    curtailment_share: Optional[float]


@dataclass
class MetricsReport:
    technologies: dict                 # name -> TechMetrics
    load_weighted_price: float
    average_price: float
    mu_gamma: Optional[float]
    mu_theta: Optional[float]
    mu_theta_equivalent: dict
    mu_co2: Optional[float]
    penetration: Optional[float]
    average_system_cost: float         # EUR/MWh of demand, excl. CO2 payments
    cost_breakdown: dict               # entity -> EUR/a
    storage_arbitrage: dict
    congestion_revenue: dict
    price_duration: dict               # node -> descending list
    revenue_duration: dict             # tech -> descending list, per MW built
    objective: float = float("nan")
    # market_values, load_weighted_price and average_price at prices floored at 0
    suppressed: Optional[dict] = field(default=None)


def build_report(ledger: Ledger, *, suppress_negative: bool = False) -> MetricsReport:
    """The report of the ledger's solution.  With ``suppress_negative`` its
    ``suppressed`` values are read off the ledger's accounts at its nodal
    prices floored at zero, so suppressed market values are pointwise >= the
    raw ones."""
    system, sol, totals, pol = ledger.system, ledger.sol, ledger.totals, ledger.policy_prices
    support_set = set(ledger.policy.support_set())
    averages = _averages(system, ledger.prices)
    avg = averages["load_weighted_price"]
    storage = {b.entity: b.detail for b in ledger.books if b.check == "zero-profit-storage"}
    lines = {b.entity: b.detail for b in ledger.books if b.check == "zero-profit-line"}
    total_cost = sum(t["cost"] for t in totals.values()) \
        + sum(d["cost"] for d in storage.values()) + sum(d["cost"] for d in lines.values())

    techs = {}
    breakdown = {}
    for name, t in totals.items():
        if name == SHEDDING_NAME and not t["energy"] > 0.0:
            continue
        breakdown[name] = t["cost"]
        mv, lc = _per_mwh(system, t, "revenue"), _per_mwh(system, t, "cost")
        fip = None
        if name in support_set and mv is not None and lc is not None:
            fip = lc - mv
        elif name in support_set and pol["premium"] is not None:
            fip = pol["premium"]
        # cost share over energy share: the value factor when no policy binds
        shares = None
        if mv is not None and total_cost > 0.0:
            shares = (t["cost"] / total_cost) / (t["energy"] / system.total_demand())
        techs[name] = TechMetrics(
            name=name, mv=mv, lcoe=lc, rmv=None if mv is None or avg <= 0.0 else mv / avg,
            rmv_shares=shares, fip_equivalent=fip, revenue=t["revenue"], cost=t["cost"],
            energy=t["energy"], capacity=t["capacity"], curtailment_share=(
                1.0 - t["energy"] / t["available"] if t["available"] > 0.0 else None),
        )
    for key, d in storage.items():
        breakdown[f"storage:{key}"] = d["cost"]
    for key, d in lines.items():
        breakdown[f"line:{key}"] = d["cost"]

    pen = None
    if support_set:
        pen = penetration_of(ledger, sorted(support_set))

    report = MetricsReport(
        technologies=techs,
        **averages,
        mu_gamma=pol["mu_gamma"], mu_theta=pol["mu_theta"],
        mu_theta_equivalent=pol["mu_theta_equivalent"], mu_co2=pol["mu_co2"],
        penetration=pen,
        average_system_cost=sum(breakdown.values()) / system.total_demand(),
        cost_breakdown=breakdown,
        storage_arbitrage={key: d["arbitrage_revenue"] for key, d in storage.items()},
        congestion_revenue={key: d["congestion_revenue"] for key, d in lines.items()},
        price_duration={n: np.sort(p)[::-1].tolist() for n, p in ledger.prices.items()},
        revenue_duration={name: np.sort(t["hourly_revenue"] / t["capacity"])[::-1].tolist()
                          for name, t in totals.items() if t["capacity"] > 0.0},
        objective=sol.objective,
    )
    if suppress_negative:
        floored = {node: np.maximum(p, 0.0) for node, p in ledger.prices.items()}
        report.suppressed = {"market_values": ledger.market_values(floored),
                             **_averages(system, floored)}
    return report


def report_to_json(report) -> str:
    """JSON of a report: a :class:`MetricsReport` or a list of verify's
    check results, each object written as its fields, keys sorted."""
    return json.dumps(report, default=vars, indent=2, sort_keys=True)


_CSV_FIELDS = [
    "scenario", "technology", "mv", "lcoe", "rmv", "fip_equivalent",
    "revenue", "cost", "energy", "capacity", "curtailment_share",
    "mu_gamma", "mu_co2", "penetration", "load_weighted_price",
    "average_price", "average_system_cost",
]


def csv_cell(value):
    """A CSV cell of the metrics and sweep tables: "" for None, ``repr`` for
    a float, so that re-runs write the same bytes, and the value otherwise."""
    return "" if value is None else repr(float(value)) if isinstance(value, float) else value


def write_report_csv(report: MetricsReport, path, scenario: str = "") -> None:
    """One row per technology, in name order: the fields of ``_CSV_FIELDS``,
    each read from the technology's metrics or the report of that name."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=_CSV_FIELDS)
        writer.writeheader()
        for name, tm in sorted(report.technologies.items()):
            row = {**vars(report), **vars(tm), "scenario": scenario, "technology": name}
            writer.writerow({key: csv_cell(row[key]) for key in _CSV_FIELDS})
