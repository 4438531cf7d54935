"""Executable theorem checks over solved market equilibria.

Each check turns one of the equilibrium results (KKT optimality, per-entity
zero profit, cap/tax equivalence, the subsidy-to-tax price lift) into a
pass/fail/inconclusive verdict with a numerical residual.  Every check
reads ``(system, sol[, policy])`` and judges the LP that was solved,
``sol.lp``.  The zero-profit check computes no term of its own: it judges
the residuals of :func:`powermarket.metrics.books`.  Check results are
written by :func:`powermarket.metrics.report_to_json`.  A brute-force
enumeration oracle provides solver-independent optima and prices for tiny
instances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .formulate import (
    apply_equivalence_substitution,
    build_lp,  # not called here, but bench/spans.py wraps verify.build_lp
)
from .metrics import (
    accounts,
    books,
    market_values,
    nodal_prices,
    policy_prices,
    reduced_costs,
)
from .model import Co2Cap, PolicyConfig, PowerSystem, SupportDispatched
from .solve import Solution, solve

__all__ = [
    "CheckResult",
    "check_kkt",
    "check_zero_profit",
    "check_cap_tax_equivalence",
    "check_subsidy_tax_lift",
    "OracleError",
    "OracleResult",
    "brute_force_oracle",
    "verify_solution",
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


def _pos(v: np.ndarray) -> np.ndarray:
    """Positive part (never -0.0)."""
    return np.where(v > 0.0, v, 0.0)


def check_kkt(sol: Solution) -> list:
    """One ``kkt`` :class:`CheckResult` per condition of ``sol`` in its LP
    (stationarity, primal and dual feasibility, complementary slackness),
    with the maximum scale-normalized residual; a residual passes at most
    ``DEFAULT_TOL``, and a NaN residual fails."""
    x, y = sol.x, sol.y
    cols, rows, e = sol.lp.columns, sol.lp.rows, sol.lp.entries
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
    z = reduced_costs(sol)
    at_lower = (lower > -np.inf) \
        & (x - lower <= DEFAULT_TOL * np.maximum(1.0, np.abs(lower)))
    at_upper = (upper < np.inf) \
        & (upper - x <= DEFAULT_TOL * np.maximum(1.0, np.abs(upper)))
    wrong_sign = np.where(at_lower, _pos(-z), np.where(at_upper, _pos(z), np.abs(z)))
    wrong_sign[at_lower & at_upper] = 0.0
    stat = float((wrong_sign / np.maximum(1.0, np.abs(cols.objective))).max(initial=0.0))
    return [CheckResult("kkt", kind, r, "pass" if r <= DEFAULT_TOL else "fail")
            for kind, r in (("stationarity", stat), ("primal", primal), ("dual", dual),
                            ("complementarity", comp))]


# -- zero-profit checks -------------------------------------------------------------


def check_zero_profit(system: PowerSystem, sol: Solution, policy: PolicyConfig) -> list:
    """One :class:`CheckResult` per entity of :func:`metrics.books` with a
    residual, which passes at most ``DEFAULT_TOL`` relative to the entity's
    cost, absolute below a cost of 1.  A fixed line has books but no check."""
    judged = [b for b in books(system, sol, policy) if b.residual is not None]
    scales = [max(1.0, b.detail["cost"]) for b in judged]
    return [CheckResult(b.check, b.entity, abs(b.residual) / scale,
                        "pass" if abs(b.residual) <= DEFAULT_TOL * scale else "fail", b.detail)
            for b, scale in zip(judged, scales)]


# -- policy-equivalence checks ---------------------------------------------------------


def _balance_dual_vector(system: PowerSystem, sol: Solution) -> np.ndarray:
    return np.concatenate([nodal_prices(system, sol)[n] for n in system.nodes])


def _equivalence(check: str, names: tuple, price: str, system: PowerSystem,
                 sol: Solution, policy: PolicyConfig, relax, compare) -> CheckResult:
    """The path of each policy-equivalence check.  ``relax(mu)`` solves the
    LP of ``sol`` with a policy row freed, given the policy price ``price``
    of ``sol`` (:func:`metrics.policy_prices`), and ``compare(mu,
    relaxed)`` returns the residual, the detail and the duals and shift
    that :func:`_verdict` maps.  The first of ``sol`` and the relaxed
    solution that is not optimal, named by ``names``, makes the result
    'inconclusive' with the reason '<name> solve <status>'."""
    mu = policy_prices(system, sol, policy)[price] if sol.status == "optimal" else None
    relaxed = relax(mu) if sol.status == "optimal" else sol
    for what, solved in zip(names, (sol, relaxed)):
        if solved.status != "optimal":
            return CheckResult(check, "system", float("nan"), "inconclusive",
                               {"reason": f"{what} solve {solved.status}"})
    residual, detail, duals, shift = compare(mu, relaxed)
    return CheckResult(check, "system", residual,
                       _verdict(system, sol, relaxed, residual, duals, shift), detail)


def _verdict(system: PowerSystem, sol: Solution, relaxed: Solution, residual: float,
             duals: Optional[dict], shift: float) -> str:
    """'pass' for a residual within ``DEFAULT_TOL``; else 'inconclusive'
    when the duals of ``relaxed`` pass the KKT check at ``sol`` once mapped
    back onto ``sol.lp``, whose rows come first in the relaxed LP: every
    balance dual lowered by ``shift``, and each row of ``duals``, ``{row
    position: dual}``, given its dual.  Mapped duals that pass are optimal
    duals of ``sol.lp``, so where their prices differ from ``sol``'s, its
    prices are not unique.  Else, and where ``duals`` is None, 'fail'."""
    if residual <= DEFAULT_TOL:
        return "pass"
    if duals is None:
        return "fail"
    y = relaxed.y[:len(sol.lp.rows)].copy()
    for node in system.nodes:
        y[sol.lp.row("balance", node)] -= shift
    for row, dual in duals.items():
        y[row] = dual
    kkt = check_kkt(replace(sol, y=y))
    return "inconclusive" if all(c.verdict == "pass" for c in kkt) else "fail"


def check_cap_tax_equivalence(system: PowerSystem, sol: Solution,
                              policy: PolicyConfig) -> list:
    """Lift the emissions cap of the LP of ``sol`` into the objective at
    its shadow price, re-solve (warm from the cap's basis where ``sol`` has
    a session), and compare the full price vectors.  Prices that differ
    are 'inconclusive' rather than 'fail' when the tax run's duals, with
    the cap's dual put back, are shown to be cap duals too.  By Lagrangian
    duality the tax optimum is the cap objective plus mu times emissions
    for every optimal mu, so a gap there is a 'fail'.  No result without a cap."""
    if not isinstance(policy.co2, Co2Cap):
        return []
    lp = sol.lp

    def tax(mu):
        # warm from the cap LP's basis in its session: the tax LP keeps its shape
        return solve(apply_equivalence_substitution(lp, {lp.row("co2-cap"): mu}),
                     session=sol.session)

    def compare(mu, tax_sol):
        emissions = sum(acct.spec.emission_factor * acct.energy
                        for acct in accounts(system, sol) if acct.spec is not None)
        lam = _balance_dual_vector(system, sol)
        lam_tax = _balance_dual_vector(system, tax_sol)
        dev = float(np.abs(lam - lam_tax).max()) / max(1.0, float(np.abs(lam).max()))
        obj_dev = abs(tax_sol.objective - (sol.objective + mu * emissions)) \
            / max(1.0, abs(sol.objective))
        detail = {"mu_co2": mu, "price_deviation": dev, "objective_deviation": obj_dev,
                  "emissions": emissions, "tax_iterations": tax_sol.iterations,
                  "warm_start": tax_sol.warm_start}
        duals = {lp.row("co2-cap"): -mu} if obj_dev <= DEFAULT_TOL else None
        return max(dev, obj_dev), detail, duals, 0.0

    return [_equivalence("cap-tax-equivalence", ("cap", "tax"), "mu_co2", system, sol,
                         policy, tax, compare)]


def check_subsidy_tax_lift(system: PowerSystem, sol: Solution,
                           policy: PolicyConfig) -> list:
    """Replace 'force in the supported set' by 'cap everything else' in the
    LP of ``sol`` (a copy relaxed at 0 on the quota row, with a mirror
    row appended over every dispatch block outside the quota row, load
    shedding included) and check that all prices and market values lift by
    exactly the premium.  Prices that differ are 'inconclusive' rather
    than 'fail' when the mirror's duals, lowered by the mirror row's price
    mu_m with mu_m on the quota row, are shown to be quota duals too.  No
    result without a :class:`SupportDispatched` quota."""
    support = policy.support
    if not isinstance(support, SupportDispatched):
        return []
    lp = sol.lp

    def mirror(_mu):  # the quota row is freed at 0
        quota = lp.row("vre-dispatched")
        out = apply_equivalence_substitution(lp, {quota: 0.0})
        row = out.add_rows(("vre-dispatched", "mirror"), sense="<=",
                           rhs=system.total_demand() - support.energy_target(system))
        in_quota = np.zeros(len(lp.columns), dtype=bool)
        in_quota[lp.entries.col[lp.entries.row == quota]] = True
        for (family, _), index in lp.col_index.items():
            if family == "g" and not in_quota[index].any():
                out.add_entries(row, index, 1.0)
        return solve(out)

    def compare(mu_gamma, mirror_sol):
        lam = _balance_dual_vector(system, sol)
        lam_m = _balance_dual_vector(system, mirror_sol)
        scale = max(1.0, abs(mu_gamma))
        price_dev = float(np.abs(lam_m - lam - mu_gamma).max()) / scale
        mv_dev = 0.0
        mvs, mvs_m = market_values(system, sol), market_values(system, mirror_sol)
        for name in system.tech_names():
            if name in mvs and name in mvs_m:
                mv_dev = max(mv_dev, abs(mvs_m[name] - mvs[name] - mu_gamma) / scale)
        mu_m = -mirror_sol.dual("vre-dispatched", "mirror")
        detail = {"mu_gamma": mu_gamma, "price_deviation": price_dev,
                  "mv_deviation": mv_dev}
        return max(price_dev, mv_dev), detail, {lp.row("vre-dispatched"): mu_m}, mu_m

    return [_equivalence("subsidy-tax-lift", ("support", "mirror"), "mu_gamma", system,
                         sol, policy, mirror, compare)]


# -- brute-force oracle ------------------------------------------------------------------


class OracleError(ValueError):
    pass


@dataclass
class OracleResult:
    status: str                       # optimal | infeasible
    objective: float = float("nan")
    prices: Optional[np.ndarray] = None        # per snapshot
    price_unique: Optional[np.ndarray] = None  # bool per snapshot


_MAX_ORACLE_TECHS = 3
_MAX_ORACLE_SNAPSHOTS = 6


def brute_force_oracle(system: PowerSystem) -> OracleResult:
    """Solver-independent optimum for tiny single-node systems without policy:
    1–3 technologies without a ``max_potential``, at most 6 snapshots, no
    storage or lines.

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
    if not 0 < k <= _MAX_ORACLE_TECHS or T > _MAX_ORACLE_SNAPSHOTS:
        raise OracleError(f"instance too large or without technologies: oracle needs 1–"
                          f"{_MAX_ORACLE_TECHS} technologies, up to {_MAX_ORACLE_SNAPSHOTS} hours")
    if any(spec.max_potential is not None for _, spec in system.technologies):
        raise OracleError("oracle enumerates no potential bound: no max_potential allowed")
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
            if d0[t] > 0 and avail[:, t].max() == 0.0:
                return OracleResult(status="infeasible")

    # hyperplanes a.G = rhs, each (a, hour): the zero planes (hour -1, rhs 0)
    # and merit-order prefix coverage planes (rhs d[hour])
    planes = [(a, -1) for a in np.eye(k)]
    for j in range(1, k + 1):
        prefix = order[:j]
        for t in range(T):
            a = np.zeros(k)
            a[prefix] = avail[prefix, t]
            if np.abs(a).max() == 0.0:
                continue
            planes.append((a, t))

    # vertices: the intersections of k planes of full rank
    combos = np.array(list(itertools.combinations(range(len(planes)), k)))
    mats = np.stack([a for a, _ in planes])[combos]          # (ncomb, k, k)
    keep = np.linalg.matrix_rank(mats) == k
    inv = np.linalg.inv(mats[keep])
    hours = np.array([hour for _, hour in planes])[combos[keep]]

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
                # relative: exact coverage leaves a residual of an ulp of d[t]
                total += np.where(residual > 1e-9 * max(1.0, d[t]), np.inf, 0.0)
        return total

    def value(d: np.ndarray) -> float:
        G = np.einsum("nij,nj->ni", inv, np.where(hours >= 0, d[hours], 0.0))
        # the k zero planes meet at G = 0, so some vertex always passes
        G = np.clip(G[G.min(axis=1) >= -1e-9], 0.0, None)
        costs = G @ c + dispatch_cost(G, d)
        return float(costs.min())

    base = value(d0)
    if not np.isfinite(base):
        # feasible after the scan above; each vertex serving it was rank-deficient
        raise OracleError("no enumerated capacity vertex serves the demand")

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
            # at zero demand every price up to the right derivative is a dual
            left, left_ok = right, right_ok and d0[t] > 0
        prices[t] = right
        unique[t] = bool(right_ok and left_ok
                         and abs(left - right) <= 1e-6 * max(1.0, abs(right)))
    return OracleResult(status="optimal", objective=base, prices=prices,
                        price_unique=unique)


# -- aggregation -----------------------------------------------------------------------


def verify_solution(system: PowerSystem, sol: Solution, policy: PolicyConfig) -> list:
    """Run the per-solution checks (KKT, zero profit) and return all results."""
    results = check_kkt(sol)
    results.extend(check_zero_profit(system, sol, policy))
    return results
