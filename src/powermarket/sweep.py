"""Deterministic scenario grids: penetration sweeps, cap tightening, tax grids.

A sweep solves one equilibrium per axis value, in axis order, and reads the
point's report, checks and penetration off its one
:class:`~powermarket.metrics.Ledger`.  All points run in one HiGHS session
in the calling process, each warm from the basis of the point before it
where the LPs allow it, so a sweep pays for one cold solve.  A warm point
costs in proportion to its pivots, since warm solves price with Devex (see
:class:`~powermarket.solve.Session`).  A cold point starts from its
snapshot sample's capacities.  Infeasible tail points (a cap of zero
without flexibility, say) are recorded as such instead of aborting the grid.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass, field, replace
from typing import Optional

from .formulate import build_lp
from .metrics import Ledger, MetricsReport, build_report, csv_cell, penetration_of
from .model import (
    Co2Cap,
    Co2Tax,
    PolicyConfig,
    PowerSystem,
    SupportAvailable,
    SupportDispatched,
    validate,
)
from .solve import NO_OPTIMUM, Session, solve
from .verify import verify_solution

__all__ = ["SweepPlan", "SweepPoint", "run_sweep", "all_verified",
           "sweep_csv_text", "write_sweep_csv", "sweep_manifest"]

QUOTAS = {"support_share": SupportDispatched, "available_target": SupportAvailable}
AXES = (*QUOTAS, "co2_cap", "co2_intensity", "co2_tax")


@dataclass(frozen=True)
class SweepPlan:
    """One axis, many points, over a fixed base system and policy.

    A point's policy is ``base_policy`` with the axis's instrument replaced:
    a quota axis replaces the support instrument (none at 0) and keeps the
    CO2 one, a CO2 axis replaces the CO2 instrument and keeps the support.
    Quota values are shares of total demand, ``co2_cap`` values tCO2/a and
    ``co2_intensity`` values tCO2 per MWh of demand, made an absolute cap
    per point.  The ``policy_set``, technologies of the system named once
    each, names the supported set of a quota axis and defines the
    penetration reported on every axis.
    """

    system: PowerSystem
    axis: str
    values: tuple
    policy_set: tuple = ()
    base_policy: PolicyConfig = PolicyConfig()
    suppress_negative_prices: bool = False
    name: str = "sweep"

    def __post_init__(self):
        if self.axis not in AXES:
            raise ValueError(f"unknown sweep axis '{self.axis}'; one of {AXES}")
        if not self.values:
            raise ValueError("sweep axis needs at least one value")
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError("sweep axis values must be finite")
        if list(self.values) != sorted(self.values):
            raise ValueError("sweep axis values must be sorted ascending")
        if self.axis in QUOTAS:
            if not self.policy_set:
                raise ValueError(f"axis '{self.axis}' needs a non-empty policy_set")
            if self.values[0] < 0.0:
                raise ValueError(f"axis '{self.axis}' values must be >= 0")
        for i, name in enumerate(self.policy_set):
            if name not in self.system.tech_names():
                raise ValueError(f"policy_set names unknown technology '{name}'")
            if name in self.policy_set[:i]:
                raise ValueError(f"policy_set names '{name}' twice")
        # every rule on a point's policy is an interval in the value, and the
        # values are sorted, so the two ends stand for all of them
        for value in dict.fromkeys((self.values[0], self.values[-1])):
            violations = validate(self.system, self.policy_at(value))
            if violations:
                raise ValueError(f"sweep value {value!r}: "
                                 + "; ".join(map(str, violations)))

    def policy_at(self, value: float) -> PolicyConfig:
        if self.axis in QUOTAS:
            support = QUOTAS[self.axis](tuple(self.policy_set), share=value) \
                if value > 0.0 else None
            return replace(self.base_policy, support=support)
        if self.axis == "co2_intensity":
            value *= self.system.total_demand()
        co2 = Co2Tax(value) if self.axis == "co2_tax" else Co2Cap(value)
        return replace(self.base_policy, co2=co2)

    def config_digest(self) -> str:
        """SHA-256 of the plan's repr, which holds every field."""
        return hashlib.sha256(repr(self).encode()).hexdigest()


@dataclass
class SweepPoint:
    value: float
    status: str                         # optimal | infeasible | unbounded | error
    verdict: str                        # pass | fail | skipped
    report: Optional[MetricsReport] = None
    penetration: Optional[float] = None
    failures: list = field(default_factory=list)
    message: str = ""


def _solve_point(plan: SweepPlan, value: float, session: Session) -> SweepPoint:
    try:
        policy = plan.policy_at(value)
        lp = build_lp(plan.system, policy)
        sol = solve(lp, session=session)
        if sol.status != "optimal":
            return SweepPoint(value=value, status=sol.status, verdict="skipped",
                              message=sol.message)
        ledger = Ledger.of(plan.system, sol, policy)
        report = build_report(ledger, suppress_negative=plan.suppress_negative_prices)
        checks = verify_solution(ledger)
        failures = [f"{c.check}:{c.entity}" for c in checks if c.verdict == "fail"]
        pen = penetration_of(ledger, plan.policy_set) if plan.policy_set else None
        return SweepPoint(value=value, status="optimal",
                          verdict="pass" if not failures else "fail",
                          report=report, penetration=pen, failures=failures)
    except Exception as exc:  # per-point isolation: a bad point must not kill the grid
        return SweepPoint(value=value, status="error", verdict="skipped",
                          message=f"{type(exc).__name__}: {exc}")


def run_sweep(plan: SweepPlan) -> list:
    """Solve and verify every point of the plan, in axis order, in one
    HiGHS session: each point starts from the basis of the one before it,
    or cold after a point that did not end optimal.  Returns the
    :class:`SweepPoint` of each value, in axis order."""
    session = Session()
    return [_solve_point(plan, v, session) for v in plan.values]


def all_verified(points: list) -> bool:
    """Every point passes its checks or ends without an optimum; a point
    that raised or stopped at a solver limit is not verified."""
    return all(p.verdict == "pass" or p.status in NO_OPTIMUM for p in points)


def sweep_csv_text(plan: SweepPlan, points: list) -> str:
    """Render the sweep table; cells follow :func:`~powermarket.metrics.csv_cell`,
    so re-runs are byte-identical."""
    names = plan.system.tech_names()
    fields = [plan.axis, "status", "verdict", "penetration", "mu_gamma",
              "mu_theta", "mu_co2", "load_weighted_price", "average_price",
              "system_cost", "objective"]
    for name in names:
        fields += [f"mv_{name}", f"lcoe_{name}", f"rmv_{name}"]
        if plan.suppress_negative_prices:
            fields.append(f"mv_suppressed_{name}")

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for p in points:
        row = {plan.axis: float(p.value), "status": p.status,
               "verdict": p.verdict, "penetration": p.penetration}
        if p.report is not None:
            rep = p.report
            row.update({
                "mu_gamma": rep.mu_gamma, "mu_theta": rep.mu_theta, "mu_co2": rep.mu_co2,
                "load_weighted_price": rep.load_weighted_price,
                "average_price": rep.average_price,
                "system_cost": rep.average_system_cost,
                "objective": rep.objective,
            })
            for name in names:
                tm = rep.technologies.get(name)
                if tm is not None:
                    row[f"mv_{name}"] = tm.mv
                    row[f"lcoe_{name}"] = tm.lcoe
                    row[f"rmv_{name}"] = tm.rmv
                if plan.suppress_negative_prices and rep.suppressed is not None:
                    row[f"mv_suppressed_{name}"] = rep.suppressed["market_values"].get(name)
        writer.writerow({k: csv_cell(row.get(k)) for k in fields})
    return buf.getvalue()


def write_sweep_csv(plan: SweepPlan, points: list, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(sweep_csv_text(plan, points))


def sweep_manifest(plan: SweepPlan, points: list) -> dict:
    return {
        "name": plan.name,
        "axis": plan.axis,
        "values": [float(v) for v in plan.values],
        "config_sha256": plan.config_digest(),
        "points": [{"value": float(p.value), "status": p.status,
                    "verdict": p.verdict, "failures": p.failures,
                    "message": p.message} for p in points],
        "all_verified": all_verified(points),
    }
