"""Executable theorem checks over solved market equilibria.

Each check turns one of the equilibrium results (KKT optimality, per-entity
zero profit, cap/tax equivalence, the subsidy-to-tax price lift) into a
pass/fail/inconclusive verdict with a numerical residual.  A brute-force
enumeration oracle provides solver-independent optima and prices for tiny
instances.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .formulate import (
    LinearProgram,
    apply_equivalence_substitution,
    build_lp,  # not called here, but bench/spans.py wraps verify.build_lp
    cycle_basis,
    tech_key,
)
from .metrics import (
    congestion_revenue,
    line_cost,
    market_value,
    nodal_prices,
    policy_prices,
    storage_arbitrage,
    storage_cost,
)
from .model import (
    SHEDDING_NAME,
    Co2Cap,
    FixedFip,
    PolicyConfig,
    PowerSystem,
    SupportAvailable,
    SupportDispatched,
)
from .solve import Solution, solve

__all__ = [
    "CheckResult",
    "KktReport",
    "reduced_costs",
    "check_kkt",
    "check_zero_profit",
    "check_cap_tax_equivalence",
    "check_subsidy_tax_lift",
    "OracleError",
    "OracleResult",
    "brute_force_oracle",
    "verify_solution",
    "report_to_json",
]

DEFAULT_TOL = 1e-6


@dataclass
class CheckResult:
    check: str
    entity: str
    residual: float
    verdict: str          # pass | fail | inconclusive
    detail: dict = field(default_factory=dict)


# -- KKT residuals ---------------------------------------------------------------


@dataclass
class KktReport:
    stationarity: float
    primal: float
    dual: float
    complementarity: float
    tol: float

    @property
    def passed(self) -> bool:
        """Every residual is at most ``tol``; a NaN residual fails."""
        return all(r <= self.tol for r in (self.stationarity, self.primal, self.dual,
                                           self.complementarity))

    def results(self) -> list:
        verdict = "pass" if self.passed else "fail"
        return [CheckResult("kkt", kind, getattr(self, kind), verdict)
                for kind in ("stationarity", "primal", "dual", "complementarity")]


def reduced_costs(lp: LinearProgram, sol: Solution) -> np.ndarray:
    """z = c - A^T y, from the LP and the solution's duals."""
    e = lp.entries
    return lp.columns.objective - np.bincount(e.col, weights=e.value * sol.y[e.row],
                                              minlength=len(lp.columns))


def _pos(v: np.ndarray) -> np.ndarray:
    """Positive part (never -0.0)."""
    return np.where(v > 0.0, v, 0.0)


def check_kkt(lp: LinearProgram, sol: Solution) -> KktReport:
    """Maximum scale-normalized residuals of stationarity, primal/dual
    feasibility and complementary slackness."""
    x, y = sol.x, sol.y
    cols, rows, e = lp.columns, lp.rows, lp.entries
    row_norm = np.ones(len(rows))
    np.maximum.at(row_norm, e.row, np.abs(e.value))

    scale = np.maximum(row_norm, np.abs(rows.rhs))
    slack = rows.rhs - np.bincount(e.row, weights=e.value * x[e.col], minlength=len(rows))
    le, ge = rows.sense == "<=", rows.sense == ">="
    violation = np.where(le, _pos(-slack), np.where(ge, _pos(slack), np.abs(slack)))
    primal = float((violation / scale).max(initial=0.0))
    dual = float(max(_pos(y[le]).max(initial=0.0), _pos(-y[ge]).max(initial=0.0)))
    comp = float((np.abs(y * slack) / scale)[le | ge].max(initial=0.0))

    lower, upper = cols.lower, cols.upper
    primal = max(primal, float(_pos(lower - x).max(initial=0.0)),
                 float(_pos(x - upper).max(initial=0.0)))
    z = reduced_costs(lp, sol)
    at_lower = (lower > -np.inf) \
        & (x - lower <= DEFAULT_TOL * np.maximum(1.0, np.abs(lower)))
    at_upper = (upper < np.inf) \
        & (upper - x <= DEFAULT_TOL * np.maximum(1.0, np.abs(upper)))
    wrong_sign = np.where(at_lower, _pos(-z), np.where(at_upper, _pos(z), np.abs(z)))
    wrong_sign[at_lower & at_upper] = 0.0
    stat = float((wrong_sign / np.maximum(1.0, np.abs(cols.objective))).max(initial=0.0))
    return KktReport(stationarity=stat, primal=primal, dual=dual,
                     complementarity=comp, tol=DEFAULT_TOL)


# -- zero-profit checks -------------------------------------------------------------


def check_zero_profit(system: PowerSystem, lp: LinearProgram, sol: Solution,
                      policy: PolicyConfig) -> list:
    """Per-entity profit report: market revenue minus cost, corrected for the
    policy terms (premium, CO2 charge, scarcity rent) that apply to each
    entity.  The residual is zero at equilibrium."""
    results = []
    prices = nodal_prices(system, sol)
    pol = policy_prices(system, sol, lp, policy)
    mu_co2, mu_gamma, mu_theta = (0.0 if pol[k] is None else pol[k]
                                  for k in ("mu_co2", "mu_gamma", "mu_theta"))
    support = policy.support
    support_set = set(policy.support_set())

    for node, spec in system.technologies:
        key = tech_key(spec.name, node)
        g = sol.primal("g", key)
        G = sol.primal("G", key)
        energy = float(g.sum())
        revenue = float((prices[node] * g).sum())
        cost = spec.annual_cost(system.discount_rate) * G \
            + spec.marginal_cost * energy
        adjust = -spec.emission_factor * mu_co2 * energy
        if spec.name in support_set:
            if isinstance(support, SupportDispatched):
                adjust += mu_gamma * energy
            elif isinstance(support, SupportAvailable):
                adjust += mu_theta * G * spec.availability_sum(system.snapshots)
            elif isinstance(support, FixedFip):
                adjust += support.premium * energy
        scarcity = 0.0
        if lp.has_row("potential", key):
            scarcity = -sol.dual("potential", key) * G   # mu_s^max >= 0
        residual = revenue - cost + adjust - scarcity
        scale = max(1.0, cost)
        results.append(CheckResult(
            "zero-profit", key, abs(residual) / scale,
            "pass" if abs(residual) <= DEFAULT_TOL * scale else "fail",
            detail={"revenue": revenue, "cost": cost, "adjustment": adjust,
                    "scarcity_rent": scarcity, "capacity": G}))

    if system.storages:
        arb = storage_arbitrage(system, sol, prices)
        costs = storage_cost(system, sol)
        for key in arb:
            residual = arb[key] - costs[key]
            scale = max(1.0, costs[key])
            results.append(CheckResult(
                "zero-profit-storage", key, abs(residual) / scale,
                "pass" if abs(residual) <= DEFAULT_TOL * scale else "fail",
                detail={"arbitrage_revenue": arb[key], "cost": costs[key]}))

    if system.lines:
        cong = congestion_revenue(system, sol, prices)
        costs = line_cost(system, sol)
        kvl_terms = _kvl_profit_terms(system, lp, sol)
        z = reduced_costs(lp, sol)
        for li, line in enumerate(system.lines):
            if not line.expandable:
                continue
            key = f"L{li}"
            F = sol.primal("F", key)
            rent = float(z[lp.col("F", key)]) * F
            residual = cong[key] - costs[key] + kvl_terms.get(key, 0.0) + rent
            scale = max(1.0, costs[key])
            results.append(CheckResult(
                "zero-profit-line", key, abs(residual) / scale,
                "pass" if abs(residual) <= DEFAULT_TOL * scale else "fail",
                detail={"congestion_revenue": cong[key], "cost": costs[key],
                        "kvl_term": kvl_terms.get(key, 0.0), "capacity": F,
                        "lower_bound_rent": rent}))
    return results


def _kvl_profit_terms(system: PowerSystem, lp: LinearProgram, sol: Solution) -> dict:
    """Cycle-dual distortion term per line: sum_t,c y_c C_lc x_l f_lt, where
    ``lp`` carries voltage-law rows."""
    out: dict = {}
    if not lp.has_row("kvl-cycle", "c0"):
        return out
    for ci, cyc in enumerate(cycle_basis(system.lines)):
        y = sol.dual("kvl-cycle", f"c{ci}")
        for li, sign in cyc.items():
            f = sol.primal("f", f"L{li}")
            term = float((y * (sign * system.lines[li].reactance) * f).sum())
            out[f"L{li}"] = out.get(f"L{li}", 0.0) + term
    return out


# -- policy-equivalence checks ---------------------------------------------------------


def _balance_dual_vector(system: PowerSystem, sol: Solution) -> np.ndarray:
    return np.concatenate([nodal_prices(system, sol)[n] for n in system.nodes])


def _unsolved(check: str, sol: Solution, what: str) -> Optional[CheckResult]:
    if sol.status == "optimal":
        return None
    return CheckResult(check, "system", float("nan"), "inconclusive",
                       {"reason": f"{what} solve {sol.status}"})


def _prices_not_unique(system: PowerSystem, lp: LinearProgram, sol: Solution,
                       relaxed: Solution, family: str, dual: float,
                       shift: float) -> bool:
    """Whether the duals of ``relaxed``, the solution of the solved LP ``lp``
    with its policy row ``family`` freed, pass ``lp``'s KKT check at
    ``sol`` once mapped back onto ``lp``: the rows of ``lp`` come first in
    the relaxed LP, every balance dual is lowered by ``shift`` and the row
    ``family`` is given ``dual``.  Mapped duals that pass are optimal duals
    of ``lp``, so where their prices differ from ``sol``'s, ``lp``'s prices
    are not unique.  This is the one way an equivalence check reaches
    'inconclusive'."""
    y = relaxed.y[:len(lp.rows)].copy()
    for node in system.nodes:
        y[lp.row("balance", node)] -= shift
    y[lp.row(family)] = dual
    return check_kkt(lp, replace(sol, y=y)).passed


def check_cap_tax_equivalence(system: PowerSystem, lp: LinearProgram, sol: Solution,
                              policy: PolicyConfig) -> CheckResult:
    """Lift the emissions cap of the solved LP ``lp`` into the objective at
    its shadow price, re-solve (warm from the cap's basis where ``sol`` has
    a session), and compare the full price vectors.  Prices that differ
    are 'inconclusive' rather than 'fail' when the tax run's duals, with
    the cap's dual put back, are shown to be cap duals too.  By Lagrangian
    duality the tax optimum is the cap objective plus mu times emissions
    for every optimal mu, so a gap there is a 'fail'."""
    if not isinstance(policy.co2, Co2Cap):
        raise ValueError("check_cap_tax_equivalence requires a Co2Cap policy")
    unsolved = _unsolved("cap-tax-equivalence", sol, "cap")
    if unsolved:
        return unsolved
    mu = -sol.dual("co2-cap")
    emissions = sum(e for node, spec in system.technologies
                    for e in (spec.emission_factor
                              * sol.primal("g", tech_key(spec.name, node))).tolist())
    tax_lp = apply_equivalence_substitution(lp, "co2-cap", mu)
    # warm from the cap LP's basis in its session: the tax LP has the cap
    # LP's shape, with new costs and the cap row freed
    tax_sol = solve(tax_lp, session=sol.session)
    unsolved = _unsolved("cap-tax-equivalence", tax_sol, "tax")
    if unsolved:
        return unsolved
    lam = _balance_dual_vector(system, sol)
    lam_tax = _balance_dual_vector(system, tax_sol)
    scale = max(1.0, float(np.abs(lam).max()))
    dev = float(np.abs(lam - lam_tax).max()) / scale
    obj_dev = abs(tax_sol.objective - (sol.objective + mu * emissions)) \
        / max(1.0, abs(sol.objective))
    residual = max(dev, obj_dev)
    if residual <= DEFAULT_TOL:
        verdict = "pass"
    elif obj_dev <= DEFAULT_TOL and _prices_not_unique(system, lp, sol, tax_sol,
                                                       "co2-cap", -mu, 0.0):
        verdict = "inconclusive"
    else:
        verdict = "fail"
    return CheckResult("cap-tax-equivalence", "system", residual, verdict,
                       {"mu_co2": mu, "price_deviation": dev,
                        "objective_deviation": obj_dev, "emissions": emissions,
                        "tax_iterations": tax_sol.iterations,
                        "warm_start": tax_sol.warm_start})


def check_subsidy_tax_lift(system: PowerSystem, lp: LinearProgram, sol: Solution,
                           policy: PolicyConfig) -> CheckResult:
    """Replace 'force in the supported set' by 'cap everything else' in the
    solved LP ``lp`` (a copy with the quota row freed and the mirror row
    appended) and check that all prices and market values lift by
    exactly the premium.  Prices that differ are 'inconclusive' rather
    than 'fail' when the mirror's duals, lowered by the mirror row's price
    mu_m with mu_m on the quota row, are shown to be quota duals too."""
    support = policy.support
    if not isinstance(support, SupportDispatched):
        raise ValueError("check_subsidy_tax_lift requires SupportDispatched")
    unsolved = _unsolved("subsidy-tax-lift", sol, "support")
    if unsolved:
        return unsolved
    mu_gamma = sol.dual("vre-dispatched")
    gamma_energy = support.energy_target(system)

    mirror = lp.copy()
    mirror.free_row("vre-dispatched")
    row = mirror.add_rows(("vre-dispatched", "mirror"), sense="<=",
                          rhs=system.total_demand() - gamma_energy)
    support_set = set(support.technologies)
    for node, spec in system.technologies:
        if spec.name not in support_set:
            mirror.add_entries(row, mirror.col("g", tech_key(spec.name, node)), 1.0)
    if system.voll is not None:
        for n in system.nodes:
            mirror.add_entries(row, mirror.col("g", tech_key(SHEDDING_NAME, n)), 1.0)
    mirror_sol = solve(mirror)
    unsolved = _unsolved("subsidy-tax-lift", mirror_sol, "mirror")
    if unsolved:
        return unsolved

    lam = _balance_dual_vector(system, sol)
    lam_m = _balance_dual_vector(system, mirror_sol)
    scale = max(1.0, abs(mu_gamma))
    price_dev = float(np.abs(lam_m - lam - mu_gamma).max()) / scale

    mv_dev = 0.0
    for name in system.tech_names():
        mv = market_value(system, sol, name)
        mv_m = market_value(system, mirror_sol, name)
        if mv is None or mv_m is None:
            continue
        mv_dev = max(mv_dev, abs(mv_m - mv - mu_gamma) / scale)
    residual = max(price_dev, mv_dev)
    mu_m = -mirror_sol.dual("vre-dispatched", "mirror")
    if residual <= DEFAULT_TOL:
        verdict = "pass"
    elif _prices_not_unique(system, lp, sol, mirror_sol, "vre-dispatched", mu_m, mu_m):
        verdict = "inconclusive"
    else:
        verdict = "fail"
    return CheckResult("subsidy-tax-lift", "system", residual, verdict,
                       {"mu_gamma": mu_gamma, "price_deviation": price_dev,
                        "mv_deviation": mv_dev})


# -- brute-force oracle ------------------------------------------------------------------


class OracleError(ValueError):
    pass


@dataclass
class OracleResult:
    status: str                       # optimal | infeasible
    objective: float = float("nan")
    prices: Optional[np.ndarray] = None        # per snapshot
    price_unique: Optional[np.ndarray] = None  # bool per snapshot
    capacities: dict = field(default_factory=dict)


_MAX_ORACLE_TECHS = 3
_MAX_ORACLE_SNAPSHOTS = 6


def brute_force_oracle(system: PowerSystem) -> OracleResult:
    """Solver-independent optimum for tiny single-node systems without policy.

    Enumerates every candidate capacity vertex (intersections of zero planes
    and merit-order coverage planes), evaluates the exact merit-order
    dispatch cost at each, and takes the minimum.  Prices are one-sided
    finite differences of the optimal value in the hourly demand, which are
    exact for a piecewise-linear value function; a price is flagged unique
    when left and right derivatives coincide.
    """
    if len(system.nodes) != 1 or system.storages or system.lines:
        raise OracleError("instance too large: oracle needs 1 node, no storage/network")
    k = len(system.technologies)
    T = system.snapshots
    if k > _MAX_ORACLE_TECHS or T > _MAX_ORACLE_SNAPSHOTS:
        raise OracleError("instance too large")
    node = system.nodes[0]
    d0 = np.array(system.demand[node], dtype=float)
    voll = system.voll

    specs = [spec for _, spec in system.technologies]
    c = np.array([s.annual_cost(system.discount_rate) for s in specs])
    o = np.array([s.marginal_cost for s in specs])
    avail = np.array([[s.availability_at(t) for t in range(T)] for s in specs])
    order = np.argsort(o, kind="stable")

    if voll is None:
        for t in range(T):
            if d0[t] > 0 and (k == 0 or avail[:, t].max() == 0.0):
                return OracleResult(status="infeasible")
    if k == 0:
        if voll is None:
            return OracleResult(status="optimal", objective=0.0,
                                prices=np.zeros(T), price_unique=np.ones(T, bool)) \
                if d0.max() == 0 else OracleResult(status="infeasible")
        obj = float(voll * d0.sum())
        return OracleResult(status="optimal", objective=obj,
                            prices=np.full(T, float(voll)),
                            price_unique=np.ones(T, bool))

    # hyperplanes a.G = rhs: zero planes and merit-order prefix coverage planes
    planes = []           # (a_row, kind, hour)   rhs = 0 or d[hour]
    for s in range(k):
        a = np.zeros(k)
        a[s] = 1.0
        planes.append((a, "zero", -1))
    for j in range(1, k + 1):
        prefix = order[:j]
        for t in range(T):
            a = np.zeros(k)
            a[prefix] = avail[prefix, t]
            if np.abs(a).max() == 0.0:
                continue
            planes.append((a, "demand", t))

    combos = []
    mats = []
    for combo in itertools.combinations(range(len(planes)), k):
        A = np.stack([planes[i][0] for i in combo])
        if abs(np.linalg.det(A)) < 1e-10:
            continue
        combos.append(combo)
        mats.append(A)
    inv = np.linalg.inv(np.stack(mats))          # (ncomb, k, k)
    kinds = [[planes[i][1] for i in combo] for combo in combos]
    hours = [[planes[i][2] for i in combo] for combo in combos]

    def dispatch_cost(G: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Exact merit-order dispatch cost for a batch of capacity vectors."""
        total = np.zeros(G.shape[0])
        for t in range(T):
            residual = np.full(G.shape[0], d[t])
            for s in order:
                take = np.minimum(G[:, s] * avail[s, t], residual)
                total += o[s] * take
                residual -= take
            if voll is not None:
                total += voll * residual
            else:
                total += np.where(residual > 1e-9, np.inf, 0.0)
        return total

    def value(d: np.ndarray) -> float:
        b = np.array([[d[h] if kind == "demand" else 0.0
                       for kind, h in zip(ks, hs)]
                      for ks, hs in zip(kinds, hours)])
        G = np.einsum("nij,nj->ni", inv, b)
        ok = G.min(axis=1) >= -1e-9
        if not ok.any():
            return float("inf")
        G = np.clip(G[ok], 0.0, None)
        costs = G @ c + dispatch_cost(G, d)
        return float(costs.min())

    base = value(d0)
    if not np.isfinite(base):
        return OracleResult(status="infeasible")

    eps = 1e-5 * max(1.0, float(np.abs(d0).max()))
    prices = np.zeros(T)
    unique = np.zeros(T, dtype=bool)
    for t in range(T):
        e = np.zeros(T)
        e[t] = eps
        vr1, vr2 = value(d0 + e), value(d0 + 2 * e)
        right = (vr1 - base) / eps
        right_ok = np.isfinite(vr2) and abs((vr2 - vr1) / eps - right) <= 1e-6 * max(1.0, abs(right))
        if d0[t] >= 2 * eps:
            vl1, vl2 = value(d0 - e), value(d0 - 2 * e)
            left = (base - vl1) / eps
            left_ok = abs((vl1 - vl2) / eps - left) <= 1e-6 * max(1.0, abs(left))
        else:
            left, left_ok = right, right_ok
        prices[t] = right
        unique[t] = bool(right_ok and left_ok
                         and abs(left - right) <= 1e-6 * max(1.0, abs(right)))
    return OracleResult(status="optimal", objective=base, prices=prices,
                        price_unique=unique)


# -- aggregation -----------------------------------------------------------------------


def verify_solution(system: PowerSystem, lp: LinearProgram, sol: Solution,
                    policy: PolicyConfig) -> list:
    """Run the per-solution checks (KKT, zero profit) and return all results."""
    results = check_kkt(lp, sol).results()
    results.extend(check_zero_profit(system, lp, sol, policy))
    return results


def report_to_json(results: list) -> str:
    return json.dumps(
        [{"check": r.check, "entity": r.entity, "residual": r.residual,
          "verdict": r.verdict, "detail": r.detail} for r in results],
        indent=2, sort_keys=True)
