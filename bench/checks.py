"""Output checks, computed apart from the program.

Each check reads the files a pass wrote and recomputes what it asserts
from the generated inputs (demand, costs, emission factors, line data) and
from the raw solution file, or tests a property the equilibrium must have.
A check returns a list of problems; an empty list means the output holds.
None of them compares against a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import json
import math

REL_TOL = 1e-6


def annuity(capex: float, lifetime: float, rate: float) -> float:
    """Annualized cost of an overnight investment (standard annuity)."""
    if rate == 0.0:
        return capex / lifetime
    return capex * rate / (1.0 - (1.0 + rate) ** -lifetime)


def marginal_cost(tech: dict) -> float:
    mc = tech.get("variable_cost", 0.0)
    if tech.get("fuel_cost") is not None:
        mc += tech["fuel_cost"] / tech["efficiency"]
    return mc


def close(a: float, b: float, scale: float = 1.0) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(scale), abs(b))


def read_solution(path) -> tuple:
    """(objective, primal dict, dual dict) from a canonical solution file."""
    primal, dual, objective = {}, {}, math.nan
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            kind, key, *rest = line.split()
            if kind == "col":
                primal[key] = float(rest[0])
            elif kind == "row":
                dual[key] = float(rest[0])
            elif kind == "objective":
                objective = float(key)
    return objective, primal, dual


def verdict_problems(path, expected: list = None) -> list:
    """Every check in a verification report is 'pass'; with ``expected``,
    the report holds exactly those (check, entity) pairs."""
    with open(path, encoding="utf-8") as fh:
        checks = json.load(fh)
    out = [f"{c['check']} {c['entity']}: {c['verdict']}"
           for c in checks if c["verdict"] != "pass"]
    if expected is not None:
        got = sorted((c["check"], c["entity"]) for c in checks)
        if got != sorted(expected):
            out.append(f"verification holds {len(got)} checks, "
                       f"expected {len(expected)}")
    return out


def dispatch(primal: dict, name: str, node: str, hours: int) -> list:
    return [primal[f"g.{name}@{node}.t{t}"] for t in range(hours)]


def emissions(doc: dict, primal: dict) -> float:
    hours = doc["snapshots"]
    return sum(tech.get("emission_factor", 0.0)
               * sum(dispatch(primal, tech["name"], tech["node"], hours))
               for tech in doc["technologies"])


def co2_problems(doc: dict, primal: dict, dual: dict) -> list:
    """Emissions are at most the cap, and equal to it while the cap's
    price is positive."""
    cap = doc["policy"]["co2"]["cap"]
    e = emissions(doc, primal)
    mu = -dual["co2-cap"]
    out = []
    if e > cap * (1.0 + REL_TOL):
        out.append(f"emissions {e!r} above the cap {cap!r}")
    if mu > REL_TOL and not close(e, cap):
        out.append(f"cap priced at {mu!r} but emissions {e!r} != cap {cap!r}")
    return out


def balance_problems(doc: dict, primal: dict) -> list:
    """Nodal balance per hour: generation, shedding, storage and line
    flows against the generated demand."""
    hours = doc["snapshots"]
    out = []
    for node in doc["nodes"]:
        supply = [0.0] * hours
        units = [t["name"] for t in doc["technologies"] if t["node"] == node]
        for name in units + ["load-shedding"]:
            for t, g in enumerate(dispatch(primal, name, node, hours)):
                supply[t] += g
        for sto in doc.get("storages", ()):
            if sto["node"] == node:
                key = f"{sto['name']}@{node}"
                for t in range(hours):
                    supply[t] += primal[f"gdis.{key}.t{t}"] - primal[f"gsto.{key}.t{t}"]
        for li, line in enumerate(doc.get("lines", ())):
            sign = (node == line["to_node"]) - (node == line["from_node"])
            if sign:
                for t in range(hours):
                    supply[t] += sign * primal[f"f.L{li}.t{t}"]
        load = doc["demand"][node]
        bad = [t for t in range(hours) if not close(supply[t], load[t])]
        if bad:
            t = bad[0]
            out.append(f"balance at {node} fails in {len(bad)} hours, e.g. t{t}: "
                       f"supply {supply[t]!r} != demand {load[t]!r}")
    return out


def tech_economics(doc: dict, primal: dict, dual: dict, tech: dict) -> tuple:
    """(energy, market value, LCOE) of one placement, from the raw solution."""
    hours, node, name = doc["snapshots"], tech["node"], tech["name"]
    g = dispatch(primal, name, node, hours)
    energy = sum(g)
    if energy <= 0.0:
        return energy, None, None
    revenue = sum(dual[f"balance.{node}.t{t}"] * g[t] for t in range(hours))
    rate = doc["options"]["discount_rate"]
    cost = (annuity(tech["capex"], tech["lifetime"], rate)
            * primal[f"G.{name}@{node}"] + marginal_cost(tech) * energy)
    return energy, revenue / energy, cost / energy


def annual_cap(doc: dict, sol_path, metrics_path) -> list:
    objective, primal, dual = read_solution(sol_path)
    hours, rate = doc["snapshots"], doc["options"]["discount_rate"]
    out = balance_problems(doc, primal) + co2_problems(doc, primal, dual)

    cost = doc["options"]["voll"] * sum(dispatch(primal, "load-shedding", "N", hours))
    for tech in doc["technologies"]:
        g = dispatch(primal, tech["name"], "N", hours)
        cost += (annuity(tech["capex"], tech["lifetime"], rate)
                 * primal[f"G.{tech['name']}@N"] + marginal_cost(tech) * sum(g))
    if not close(cost, objective):
        out.append(f"objective {objective!r} != recomputed cost {cost!r}")

    total = sum(doc["demand"]["N"])
    vre = sum(sum(dispatch(primal, n, "N", hours)) for n in ("wind", "solar"))
    if not vre / total > 0.8:
        out.append(f"wind plus solar share {vre / total!r} is not above 0.8")

    mu = -dual["co2-cap"]
    with open(metrics_path, encoding="utf-8") as fh:
        reported = json.load(fh)["technologies"]
    for tech in doc["technologies"]:
        energy, mv, lc = tech_economics(doc, primal, dual, tech)
        if mv is None:
            continue
        wedge = tech.get("emission_factor", 0.0) * mu
        if not close(mv, lc + wedge, lc):
            out.append(f"{tech['name']}: MV {mv!r} != LCOE {lc!r} + e*mu_co2 {wedge!r}")
        rep = reported[tech["name"]]
        if not (close(rep["mv"], mv) and close(rep["lcoe"], lc)):
            out.append(f"{tech['name']}: reported MV/LCOE {rep['mv']!r}/"
                       f"{rep['lcoe']!r} != recomputed {mv!r}/{lc!r}")
    return out


# The one independent loop of the triangle N0 -> N1 -> N2 -> N0 of the
# meshed instance: (line index, direction) pairs.
MESH_LOOP = ((0, +1), (1, +1), (2, -1))


def mesh_storage(doc: dict, sol_path) -> list:
    _, primal, dual = read_solution(sol_path)
    hours, lines = doc["snapshots"], doc["lines"]
    out = balance_problems(doc, primal) + co2_problems(doc, primal, dual)
    for t in range(hours):
        terms = [sign * lines[li]["reactance"] * primal[f"f.L{li}.t{t}"]
                 for li, sign in MESH_LOOP]
        if abs(sum(terms)) > REL_TOL * max(1.0, max(abs(x) for x in terms)):
            out.append(f"KVL loop sum {sum(terms)!r} at t{t}")
            break
    for li, line in enumerate(lines):
        cap = primal[f"F.L{li}"]
        if cap < line["existing_capacity"] * (1.0 - REL_TOL):
            out.append(f"L{li}: capacity {cap!r} below existing")
        worst = max(abs(primal[f"f.L{li}.t{t}"]) for t in range(hours))
        if worst > cap * (1.0 + REL_TOL) + REL_TOL:
            out.append(f"L{li}: flow {worst!r} above capacity {cap!r}")
    return out


def mesh_expected_checks(doc: dict) -> list:
    """What `verify` must report on the meshed instance: the KKT family,
    one zero-profit check per generator, storage unit and expandable line,
    and the cap/tax equivalence."""
    expected = [("kkt", k) for k in ("stationarity", "primal", "dual",
                                     "complementarity")]
    expected += [("zero-profit", f"{t['name']}@{t['node']}")
                 for t in doc["technologies"]]
    expected += [("zero-profit-storage", f"{s['name']}@{s['node']}")
                 for s in doc["storages"]]
    expected += [("zero-profit-line", f"L{li}")
                 for li, line in enumerate(doc["lines"]) if line["expandable"]]
    expected.append(("cap-tax-equivalence", "system"))
    return expected


def _num(cell: str):
    return None if cell == "" else float(cell)


def sweep_points(plan: dict, csv_path) -> list:
    """(verdicts, problems) per sweep point, in axis order.

    Along the quota axis mu_gamma must not fall, and along the intensity
    axis mu_co2 must not rise: the optimal cost is convex in a row's
    right-hand side.  Penetration is at least the quota, supported
    technologies earn MV + mu_gamma = LCOE, and under a cap wind and
    solar earn MV = LCOE.
    """
    axis = plan["axis"]
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if [float(r[axis]) for r in rows] != [float(v) for v in plan["values"]]:
        return [([], ["sweep CSV does not hold the planned points"]) for _ in plan["values"]]
    out = []
    previous = None
    for row in rows:
        if row["status"] != "optimal" or row["verdict"] != "pass":
            out.append(([f"status {row['status']}, verdict {row['verdict']}"], []))
            continue
        problems = []
        if axis == "support_share":
            mu = _num(row["mu_gamma"]) or 0.0
            if previous is not None and mu < previous - REL_TOL * max(1.0, previous):
                problems.append(f"mu_gamma falls to {mu!r} from {previous!r}")
            if _num(row["penetration"]) < float(row[axis]) - REL_TOL:
                problems.append(f"penetration {row['penetration']} below the quota")
        else:
            mu = _num(row["mu_co2"]) or 0.0
            if previous is not None and mu > previous + REL_TOL * max(1.0, previous):
                problems.append(f"mu_co2 rises to {mu!r} from {previous!r}")
        previous = mu
        lift = mu if axis == "support_share" else 0.0
        for name in plan["policy_set"]:
            mv, lc = _num(row[f"mv_{name}"]), _num(row[f"lcoe_{name}"])
            if mv is not None and not close(mv + lift, lc, lc):
                problems.append(f"{name}: MV {mv!r} + {lift!r} != LCOE {lc!r}")
        out.append(([], problems))
    return out
