"""Economic quantities derived from a solved market equilibrium.

Market value, LCOE, relative market value, equivalent feed-in premium,
policy shadow prices, penetration, curtailment, system-cost breakdown,
duration curves and the negative-price-suppressed variants.  All functions
are pure over immutable solutions.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .formulate import LinearProgram, tech_key
from .model import (
    SHEDDING_NAME,
    Co2Tax,
    FixedFip,
    PolicyConfig,
    PowerSystem,
    SupportAvailable,
    SupportDispatched,
)
from .solve import FEAS_TOL, Solution

__all__ = [
    "TechMetrics",
    "MetricsReport",
    "market_value",
    "lcoe",
    "rmv",
    "policy_prices",
    "suppress_negative_prices",
    "duration_curves",
    "penetration_of",
    "build_report",
    "report_to_json",
    "report_csv_rows",
    "write_report_csv",
]


# -- low-level extraction -------------------------------------------------------


def nodal_prices(system: PowerSystem, sol: Solution) -> dict:
    """node -> array of balance duals over snapshots."""
    return {n: sol.dual("balance", n) for n in system.nodes}


def _tech_nodes(system: PowerSystem, name: str) -> list:
    if name == SHEDDING_NAME:
        return [(n, None) for n in system.nodes] if system.voll is not None else []
    return [(node, spec) for node, spec in system.technologies if spec.name == name]


def tech_dispatch(system: PowerSystem, sol: Solution, name: str) -> dict:
    """node -> dispatch array for one technology name."""
    return {node: sol.primal("g", tech_key(name, node))
            for node, _ in _tech_nodes(system, name)}


def tech_energy(system: PowerSystem, sol: Solution, name: str) -> float:
    return float(sum(g.sum() for g in tech_dispatch(system, sol, name).values()))


def significant_energy(system: PowerSystem, sol: Solution, name: str) -> float:
    """:func:`tech_energy`, read as zero at or below round-off: the solver's
    feasibility tolerance times total demand.  An unbuilt technology can end
    a warm-started solve with dispatch of order 1e-13 MWh of either sign."""
    energy = tech_energy(system, sol, name)
    return energy if energy > FEAS_TOL * system.total_demand() else 0.0


def tech_revenue(system: PowerSystem, sol: Solution, name: str,
                 prices: Optional[dict] = None) -> float:
    prices = prices if prices is not None else nodal_prices(system, sol)
    disp = tech_dispatch(system, sol, name)
    return float(sum((prices[node] * g).sum() for node, g in disp.items()))


def tech_cost(system: PowerSystem, sol: Solution, name: str) -> float:
    """Annualized fixed cost plus true marginal cost (excl. tax/premium shifts)."""
    if name == SHEDDING_NAME:
        return system.voll * tech_energy(system, sol, name)
    total = 0.0
    for node, spec in _tech_nodes(system, name):
        key = tech_key(name, node)
        G = sol.primal("G", key)
        energy = sum(sol.primal("g", key).tolist())
        total += spec.annual_cost(system.discount_rate) * G + spec.marginal_cost * energy
    return float(total)


def tech_capacity(system: PowerSystem, sol: Solution, name: str) -> float:
    if name == SHEDDING_NAME:
        return 0.0
    return float(sum(sol.primal("G", tech_key(name, node))
                     for node, _ in _tech_nodes(system, name)))


def tech_available_energy(system: PowerSystem, sol: Solution, name: str) -> float:
    total = 0.0
    for node, spec in _tech_nodes(system, name):
        if spec is None:
            continue
        G = sol.primal("G", tech_key(name, node))
        total += G * spec.availability_sum(system.snapshots)
    return float(total)


def storage_arbitrage(system: PowerSystem, sol: Solution,
                      prices: Optional[dict] = None) -> dict:
    """name@node -> market revenue from charging low and discharging high."""
    prices = prices if prices is not None else nodal_prices(system, sol)
    out = {}
    for node, sto in system.storages:
        key = tech_key(sto.name, node)
        dis, cha = sol.primal("gdis", key), sol.primal("gsto", key)
        out[key] = float((prices[node] * (dis - cha)).sum())
    return out


def storage_cost(system: PowerSystem, sol: Solution) -> dict:
    out = {}
    for node, sto in system.storages:
        costs = sto.annual_costs(system.discount_rate)
        ratio = sto.fixed_energy_power_ratio
        key = tech_key(sto.name, node)
        gdis, gsto = sol.primal("Gdis", key), sol.primal("Gsto", key)
        total = costs["dis"] * gdis + costs["sto"] * gsto
        if ratio is None:
            total += costs["ene"] * sol.primal("Gene", key)
        else:
            total += costs["ene"] * ratio * gdis
        out[key] = float(total)
    return out


def congestion_revenue(system: PowerSystem, sol: Solution,
                       prices: Optional[dict] = None) -> dict:
    """line name -> flow times nodal price difference, summed over snapshots."""
    prices = prices if prices is not None else nodal_prices(system, sol)
    out = {}
    for li, line in enumerate(system.lines):
        f = sol.primal("f", f"L{li}")
        out[f"L{li}"] = float(((prices[line.to_node] - prices[line.from_node]) * f).sum())
    return out


def line_cost(system: PowerSystem, sol: Solution) -> dict:
    out = {}
    for li, line in enumerate(system.lines):
        if line.expandable:
            F = sol.primal("F", f"L{li}")
            out[f"L{li}"] = float(line.annual_cost(system.discount_rate) * F)
        else:
            out[f"L{li}"] = 0.0
    return out


# -- headline per-technology metrics ----------------------------------------------


def market_value(system: PowerSystem, sol: Solution, tech: str,
                 prices: Optional[dict] = None) -> Optional[float]:
    """Generation-weighted average market price, EUR/MWh; None for zero output."""
    energy = significant_energy(system, sol, tech)
    if energy <= 0.0:
        return None
    return tech_revenue(system, sol, tech, prices) / energy


def lcoe(system: PowerSystem, sol: Solution, tech: str) -> Optional[float]:
    """Annualized total cost over dispatched (post-curtailment) energy."""
    energy = significant_energy(system, sol, tech)
    if energy <= 0.0:
        return None
    return tech_cost(system, sol, tech) / energy


def load_weighted_price(system: PowerSystem, sol: Solution,
                        prices: Optional[dict] = None) -> float:
    prices = prices if prices is not None else nodal_prices(system, sol)
    num = sum(float((prices[n] * np.array(system.demand[n])).sum()) for n in system.nodes)
    return num / system.total_demand()


def average_price(system: PowerSystem, sol: Solution,
                  prices: Optional[dict] = None) -> float:
    prices = prices if prices is not None else nodal_prices(system, sol)
    return float(np.mean(np.concatenate([prices[n] for n in system.nodes])))


def rmv(system: PowerSystem, sol: Solution, tech: str,
        prices: Optional[dict] = None) -> Optional[float]:
    """Market value over load-weighted average price (the value factor)."""
    mv = market_value(system, sol, tech, prices)
    avg = load_weighted_price(system, sol, prices)
    if mv is None or avg <= 0.0:
        return None
    return mv / avg


def rmv_share_decomposition(system: PowerSystem, sol: Solution, tech: str) -> Optional[float]:
    """Cost share over energy share; equals the value factor when no policy
    constraint binds."""
    energy = significant_energy(system, sol, tech)
    if energy <= 0.0:
        return None
    total_cost = _total_system_cost(system, sol)
    if total_cost <= 0.0:
        return None
    cost_share = tech_cost(system, sol, tech) / total_cost
    energy_share = energy / system.total_demand()
    return cost_share / energy_share


def penetration_of(system: PowerSystem, sol: Solution, techs) -> float:
    """Share of total demand dispatched by the named set; may exceed 1 when
    the set also covers storage losses."""
    total = sum(significant_energy(system, sol, name) for name in techs)
    return total / system.total_demand()


def _total_system_cost(system: PowerSystem, sol: Solution) -> float:
    total = sum(tech_cost(system, sol, name) for name in system.tech_names())
    if system.voll is not None:
        total += tech_cost(system, sol, SHEDDING_NAME)
    total += sum(storage_cost(system, sol).values())
    total += sum(line_cost(system, sol).values())
    return float(total)


def policy_prices(system: PowerSystem, sol: Solution, lp: LinearProgram,
                  policy: PolicyConfig) -> dict:
    """Shadow prices of the policy rows, reported as non-negative prices."""
    out = {"mu_gamma": None, "mu_theta": None, "mu_theta_equivalent": {},
           "mu_co2": None}
    if lp.has_row("vre-dispatched"):
        out["mu_gamma"] = sol.dual("vre-dispatched")
    if lp.has_row("vre-available"):
        mu = sol.dual("vre-available")
        out["mu_theta"] = mu
        if isinstance(policy.support, SupportAvailable):
            for name in policy.support.technologies:
                energy = significant_energy(system, sol, name)
                if energy > 0.0:
                    avail = tech_available_energy(system, sol, name)
                    out["mu_theta_equivalent"][name] = mu * avail / energy
    if lp.has_row("co2-cap"):
        out["mu_co2"] = -sol.dual("co2-cap")
    elif isinstance(policy.co2, Co2Tax):
        out["mu_co2"] = float(policy.co2.rate)
    return out


# -- negative price suppression ----------------------------------------------------


def clip_prices(prices) -> np.ndarray:
    """Forbid negative prices by flooring at zero; idempotent and
    order-preserving."""
    return np.maximum(np.asarray(prices, dtype=float), 0.0)


@dataclass
class SuppressedPrices:
    prices: dict                   # node -> clipped price array
    market_values: dict            # tech -> MV under clipped prices
    load_weighted_price: float
    average_price: float


def suppress_negative_prices(system: PowerSystem, sol: Solution) -> SuppressedPrices:
    """Recompute market values and averages with prices floored at zero.

    The original solution is untouched; suppressed market values are
    pointwise >= the raw ones.
    """
    clipped = {n: clip_prices(p) for n, p in nodal_prices(system, sol).items()}
    mvs = {}
    names = system.tech_names()
    if system.voll is not None:
        names.append(SHEDDING_NAME)
    for name in names:
        mv = market_value(system, sol, name, prices=clipped)
        if mv is not None:
            mvs[name] = mv
    return SuppressedPrices(
        prices=clipped,
        market_values=mvs,
        load_weighted_price=load_weighted_price(system, sol, prices=clipped),
        average_price=average_price(system, sol, prices=clipped),
    )


# -- duration curves ----------------------------------------------------------------


def duration_curves(system: PowerSystem, sol: Solution) -> dict:
    """Descending-sorted price duration per node and per-capacity revenue
    duration per technology; curves are absent for unbuilt technologies."""
    prices = nodal_prices(system, sol)
    price_duration = {n: np.sort(p)[::-1] for n, p in prices.items()}
    revenue_duration = {}
    for name in system.tech_names():
        G = tech_capacity(system, sol, name)
        if G <= 0.0:
            continue
        rev_t = np.zeros(system.snapshots)
        for node, g in tech_dispatch(system, sol, name).items():
            rev_t += prices[node] * g
        revenue_duration[name] = np.sort(rev_t / G)[::-1]
    return {"price": price_duration, "revenue": revenue_duration}


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
    revenue_duration: dict             # tech -> descending list
    objective: float = float("nan")
    suppressed: Optional[dict] = field(default=None)


def build_report(system: PowerSystem, lp: LinearProgram, sol: Solution,
                 policy: PolicyConfig, *, suppress_negative: bool = False) -> MetricsReport:
    if sol.status != "optimal":
        raise ValueError(f"metrics require an optimal solution, got '{sol.status}'")
    prices = nodal_prices(system, sol)
    pol = policy_prices(system, sol, lp, policy)
    support_set = set(policy.support_set())

    names = system.tech_names()
    if system.voll is not None and tech_energy(system, sol, SHEDDING_NAME) > 0.0:
        names.append(SHEDDING_NAME)

    techs = {}
    breakdown = {}
    for name in names:
        energy = tech_energy(system, sol, name)
        cost = tech_cost(system, sol, name)
        breakdown[name] = cost
        mv = market_value(system, sol, name, prices)
        lc = lcoe(system, sol, name)
        fip = None
        if name in support_set and mv is not None and lc is not None:
            fip = lc - mv
        elif isinstance(policy.support, FixedFip) and name in support_set:
            fip = policy.support.premium
        curt = None
        avail = tech_available_energy(system, sol, name)
        if avail > 0.0:
            curt = 1.0 - energy / avail
        techs[name] = TechMetrics(
            name=name, mv=mv, lcoe=lc, rmv=rmv(system, sol, name, prices),
            rmv_shares=rmv_share_decomposition(system, sol, name),
            fip_equivalent=fip,
            revenue=tech_revenue(system, sol, name, prices), cost=cost,
            energy=energy, capacity=tech_capacity(system, sol, name),
            curtailment_share=curt,
        )
    for key, cost in storage_cost(system, sol).items():
        breakdown[f"storage:{key}"] = cost
    for key, cost in line_cost(system, sol).items():
        breakdown[f"line:{key}"] = cost

    curves = duration_curves(system, sol)
    pen = None
    if support_set:
        pen = penetration_of(system, sol, sorted(support_set))

    report = MetricsReport(
        technologies=techs,
        load_weighted_price=load_weighted_price(system, sol, prices),
        average_price=average_price(system, sol, prices),
        mu_gamma=pol["mu_gamma"], mu_theta=pol["mu_theta"],
        mu_theta_equivalent=pol["mu_theta_equivalent"], mu_co2=pol["mu_co2"],
        penetration=pen,
        average_system_cost=sum(breakdown.values()) / system.total_demand(),
        cost_breakdown=breakdown,
        storage_arbitrage=storage_arbitrage(system, sol, prices),
        congestion_revenue=congestion_revenue(system, sol, prices),
        price_duration={n: p.tolist() for n, p in curves["price"].items()},
        revenue_duration={k: v.tolist() for k, v in curves["revenue"].items()},
        objective=sol.objective,
    )
    if suppress_negative:
        sup = suppress_negative_prices(system, sol)
        report.suppressed = {
            "market_values": sup.market_values,
            "load_weighted_price": sup.load_weighted_price,
            "average_price": sup.average_price,
        }
    return report


def report_to_json(report: MetricsReport) -> str:
    def enc(obj):
        if isinstance(obj, (TechMetrics,)):
            return vars(obj)
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        raise TypeError(type(obj).__name__)
    return json.dumps(vars(report), default=enc, indent=2, sort_keys=True)


_CSV_FIELDS = [
    "scenario", "technology", "mv", "lcoe", "rmv", "fip_equivalent",
    "revenue", "cost", "energy", "capacity", "curtailment_share",
    "mu_gamma", "mu_co2", "penetration", "load_weighted_price",
    "average_price", "average_system_cost",
]


def report_csv_rows(report: MetricsReport, scenario: str = "") -> list:
    rows = []
    for name in sorted(report.technologies):
        tm = report.technologies[name]
        rows.append({
            "scenario": scenario, "technology": name,
            "mv": tm.mv, "lcoe": tm.lcoe, "rmv": tm.rmv,
            "fip_equivalent": tm.fip_equivalent, "revenue": tm.revenue,
            "cost": tm.cost, "energy": tm.energy, "capacity": tm.capacity,
            "curtailment_share": tm.curtailment_share,
            "mu_gamma": report.mu_gamma, "mu_co2": report.mu_co2,
            "penetration": report.penetration,
            "load_weighted_price": report.load_weighted_price,
            "average_price": report.average_price,
            "average_system_cost": report.average_system_cost,
        })
    return rows


def write_report_csv(report: MetricsReport, path, scenario: str = "") -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=_CSV_FIELDS)
        writer.writeheader()
        for row in report_csv_rows(report, scenario):
            writer.writerow({k: ("" if v is None else repr(float(v)) if isinstance(v, float) else v)
                             for k, v in row.items()})
