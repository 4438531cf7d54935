"""Solve block-indexed LPs to optimality with exact row duals.

The in-process backend is the HiGHS dual simplex (via scipy), which returns
vertex-exact duals; the module also reads and writes a canonical solution
file so external solvers can be bridged through the MPS interchange format.
scipy is imported on the first solve (:func:`load_highs`), not with the
package: commands that never solve do not pay for it.
The solution file names columns and rows; in memory a solution is two
arrays in LP order, read through the LP's block index.

Sign convention: ``dual[row]`` is the sensitivity of the optimal objective to
the row's right-hand side (dObj/dRHS).  Balance rows therefore carry
non-negative electricity prices whenever the price-setting marginal cost is
non-negative; shadow prices of ``<=`` rows are <= 0 and of ``>=`` rows >= 0.
Reduced costs are not carried: they follow from the LP and the duals
(:func:`powermarket.verify.reduced_costs`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .formulate import LinearProgram

__all__ = ["Solution", "SolveError", "load_highs", "solve", "solve_external",
           "write_solution_file"]


class SolveError(RuntimeError):
    pass


@dataclass
class Solution:
    """Primal/dual solution of a block-indexed LP."""

    lp: LinearProgram
    status: str                      # optimal | infeasible | unbounded | ...
    objective: float = float("nan")
    x: Optional[np.ndarray] = None   # column values in LP order
    y: Optional[np.ndarray] = None   # row duals dObj/dRHS in LP order
    iterations: int = 0
    wall_time: float = 0.0
    message: str = ""

    def primal(self, family: str, entity: Optional[str] = None):
        """Value of a scalar column block, or the array of a snapshot block."""
        return _read(self.x, self.lp.col(family, entity))

    def dual(self, family: str, entity: Optional[str] = None):
        return _read(self.y, self.lp.row(family, entity))

    def price(self, node: str, t: int) -> float:
        return float(self.dual("balance", node)[t])


def _read(values: np.ndarray, index):
    return values[index] if isinstance(index, slice) else float(values[index])


_STATUS = {0: "optimal", 1: "iteration-limit", 2: "infeasible", 3: "unbounded",
           4: "numerical"}


def load_highs():
    """Import scipy's HiGHS front end and return ``linprog``.

    Importing ``scipy.optimize`` costs more than importing the rest of the
    package, so it happens on the first call rather than at import."""
    from scipy.optimize import linprog
    return linprog


def solve(lp: LinearProgram, feas_tol: float = 1e-9, opt_tol: float = 1e-9) -> Solution:
    """Minimize the LP; infeasibility/unboundedness are reported as status,
    not raised."""
    linprog = load_highs()
    from scipy.sparse import csr_matrix

    lp.validate_structure()
    e = lp.entries  # duplicate (row, col) entries are summed
    A = csr_matrix((e.value, (e.row, e.col)), shape=(len(lp.rows), len(lp.columns)))
    sense, rhs = lp.rows.sense, lp.rows.rhs
    eq = sense == "="
    ub = ~eq
    # ">=" rows are negated into "<=" form on the way in
    sign = np.where(sense[ub] == ">=", -1.0, 1.0)
    A_ub = A[ub]
    A_ub.data *= np.repeat(sign, np.diff(A_ub.indptr))
    t0 = time.perf_counter()
    res = linprog(
        lp.columns.objective,
        A_ub=A_ub if ub.any() else None,
        b_ub=sign * rhs[ub] if ub.any() else None,
        A_eq=A[eq] if eq.any() else None,
        b_eq=rhs[eq] if eq.any() else None,
        bounds=np.column_stack((lp.columns.lower, lp.columns.upper)),
        method="highs-ds",
        options={
            "primal_feasibility_tolerance": max(feas_tol, 1e-10),
            "dual_feasibility_tolerance": max(opt_tol, 1e-10),
        },
    )
    wall = time.perf_counter() - t0
    status = _STATUS.get(res.status, "numerical")
    if status != "optimal":
        return Solution(lp, status=status, iterations=int(getattr(res, "nit", 0) or 0),
                        wall_time=wall, message=str(res.message))
    y = np.empty(len(lp.rows))
    if eq.any():
        y[eq] = res.eqlin.marginals
    if ub.any():
        y[ub] = sign * res.ineqlin.marginals
    return Solution(lp, status="optimal", objective=float(res.fun), x=np.asarray(res.x),
                    y=y, iterations=int(res.nit), wall_time=wall, message=str(res.message))


def write_solution_file(sol: Solution, path) -> None:
    """Canonical solution file: one `col`/`row` line per primal/dual value,
    each section sorted by name."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"status {sol.status}\n")
        fh.write(f"objective {sol.objective!r}\n")
        for kind, names, values in (("col", sol.lp.col_names(), sol.x),
                                    ("row", sol.lp.row_names(), sol.y)):
            values = values.tolist()
            fh.writelines(f"{kind} {names[i]} {values[i]!r}\n"
                          for i in sorted(range(len(names)), key=names.__getitem__))


def solve_external(lp: LinearProgram, solution_file) -> Solution:
    """Parse an externally produced solution file against the LP's names.

    The file must cover every column and every row; a missing dual section
    makes the solution unusable for theorem checks and is reported as an
    error.
    """
    sol = Solution(lp, status="optimal")
    x = np.full(len(lp.columns), np.nan)
    y = np.full(len(lp.rows), np.nan)
    positions = {kind: {name: i for i, name in enumerate(names)}
                 for kind, names in (("col", lp.col_names()), ("row", lp.row_names()))}

    def error(message):
        return SolveError(f"{solution_file}, line {lineno}: {message}")

    with open(solution_file, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, 1):
                tokens = line.split()
                if not tokens or tokens[0].startswith("#"):
                    continue
                kind = tokens[0]
                try:
                    if kind == "col" or kind == "row":
                        i = positions[kind].get(tokens[1])
                        if i is None:
                            what = "column" if kind == "col" else "row"
                            raise error(f"unmatched tag: unknown {what} '{tokens[1]}'")
                        (x if kind == "col" else y)[i] = float(tokens[2])
                    elif kind == "objective":
                        sol.objective = float(tokens[1])
                    elif kind == "status":
                        sol.status = tokens[1]
                    else:
                        raise error(f"unknown record '{kind}' in solution file")
                except IndexError:
                    raise error(f"'{kind}' record misses a field") from None
                except ValueError:
                    value = tokens[1 if kind == "objective" else 2]
                    raise error(f"'{value}' is not a number") from None
        except UnicodeDecodeError as exc:
            raise SolveError(f"{solution_file}: not UTF-8 text ({exc.reason})") from None
    if sol.status == "optimal":
        missing = np.flatnonzero(np.isnan(x))
        if missing.size:
            raise SolveError(f"{solution_file}: solution file misses columns, "
                             f"e.g. '{lp.col_names()[missing[0]]}'")
        missing = np.flatnonzero(np.isnan(y))
        if missing.size == len(y) and len(y):
            raise SolveError(f"{solution_file}: solution file has no dual section; "
                             "unusable for theorem checks")
        if missing.size:
            raise SolveError(f"{solution_file}: solution file misses rows, "
                             f"e.g. '{lp.row_names()[missing[0]]}'")
        sol.x, sol.y = x, y
        if np.isnan(sol.objective):
            sol.objective = float(lp.columns.objective @ x)
    return sol
