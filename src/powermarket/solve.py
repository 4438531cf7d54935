"""Solve block-indexed LPs to optimality with exact row duals.

The in-process backend is the HiGHS dual simplex, driven through scipy's
bindings of the HiGHS class (:func:`load_highs`), which returns
vertex-exact duals; the module also reads and writes a canonical solution
file so external solvers can be bridged through the MPS interchange format.
The bindings' extension module is loaded on the first solve, on its own:
the ``scipy.optimize`` package is never imported, and commands that never
solve load nothing of scipy.
The solution file names columns and rows; in memory a solution is two
arrays in LP order, read through the LP's block index.

A :class:`Session` keeps one HiGHS model across the solves of one LP
family: an LP of the same shape as the one it loaded (the same column and
row blocks, senses and matrix) is solved from the basis of the previous
solve.  The cap LP and its tax LP, which frees the cap row, form such a
family, and so do the points of a sweep.

Sign convention: ``dual[row]`` is the sensitivity of the optimal objective to
the row's right-hand side (dObj/dRHS).  Balance rows therefore carry
non-negative electricity prices whenever the price-setting marginal cost is
non-negative; shadow prices of ``<=`` rows are <= 0 and of ``>=`` rows >= 0.
Reduced costs are not carried: they follow from the LP and the duals
(:func:`powermarket.verify.reduced_costs`).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .formulate import LinearProgram, column_major

__all__ = ["NO_OPTIMUM", "Session", "Solution", "SolveError", "load_highs", "solve",
           "solve_external", "status_of", "write_solution_file"]


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
    warm_start: bool = False         # started from the basis of an earlier solve
    # the HiGHS session that solved it; None for a solution read from a file
    session: Optional["Session"] = field(default=None, repr=False, compare=False)

    def primal(self, family: str, entity: Optional[str] = None):
        """Value of a scalar column block, or the array of a snapshot block."""
        return _read(self.x, self.lp.col(family, entity))

    def dual(self, family: str, entity: Optional[str] = None):
        return _read(self.y, self.lp.row(family, entity))

    def price(self, node: str, t: int) -> float:
        return float(self.dual("balance", node)[t])


def _read(values: np.ndarray, index):
    return values[index] if isinstance(index, slice) else float(values[index])


# HiGHS model status (member name of ``HighsModelStatus``) -> Solution.status.
# Any other status is a solver failure and reads "numerical".
_STATUS = {
    "kOptimal": "optimal",
    "kInfeasible": "infeasible",
    "kUnbounded": "unbounded",
    "kUnboundedOrInfeasible": "infeasible-or-unbounded",
    "kIterationLimit": "iteration-limit",
    "kTimeLimit": "time-limit",
}
# primal and dual feasibility tolerances of every solve
FEAS_TOL = OPT_TOL = 1e-9

# statuses that prove the model has no optimum
NO_OPTIMUM = ("infeasible", "unbounded", "infeasible-or-unbounded")


def status_of(model_status) -> str:
    """Solution.status of a ``HighsModelStatus``."""
    return _STATUS.get(model_status.name, "numerical")


def _check(call: str, status) -> None:
    """Raise if a HiGHS call returned ``HighsStatus.kError``: the model it
    meant to change is not the one HiGHS holds (a NaN bound, say), and
    running it anyway can crash the interpreter."""
    if status.name == "kError":
        raise SolveError(f"HiGHS {call} returned an error")


# module name of scipy's bindings of the HiGHS library
_CORE = "scipy.optimize._highspy._core"


def load_highs():
    """Load and return scipy's bindings of the HiGHS library.

    ``scipy.optimize._highspy._core`` (scipy >= 1.15) holds the ``_Highs``
    class behind scipy's own LP front end.  It is private scipy API, and
    this is the one place that reaches it.  Only the extension file is
    loaded, on the first solve: importing it through ``scipy.optimize``
    would run that package and load hundreds of scipy modules the solve
    never uses.  The module goes into ``sys.modules`` under its own name,
    so later calls, and scipy's own package when user code imports it
    later, reuse it rather than load the extension twice.  Raises
    :class:`SolveError` when the file is missing."""
    core = sys.modules.get(_CORE)
    if core is not None:
        return core
    scipy = importlib.util.find_spec("scipy")  # locates scipy, runs none of it
    if scipy is None:
        raise SolveError("cannot load HiGHS: scipy is not installed "
                         "(powermarket needs scipy >= 1.15)")
    where = os.path.join(scipy.submodule_search_locations[0], "optimize", "_highspy")
    finder = importlib.machinery.FileFinder(where, (
        importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec(_CORE)
    if spec is None:
        raise SolveError(f"cannot load HiGHS: no extension module '_core' in {where} "
                         f"(powermarket needs scipy >= 1.15)")
    core = importlib.util.module_from_spec(spec)
    sys.modules[_CORE] = core
    try:
        spec.loader.exec_module(core)
    except BaseException:
        del sys.modules[_CORE]
        raise
    return core


class Session:
    """One HiGHS model kept across the solves of one LP family.

    The first solve loads its LP: ``<=`` rows first, then ``=`` rows, with
    ``>=`` rows negated into ``<=`` form, and runs the dual simplex with
    presolve on.  A later LP of the same shape (equal column and row
    blocks, row senses and matrix entries) is solved warm: only the costs
    and bounds that differ are pushed, and HiGHS starts from the basis the
    previous solve ended at.  A relaxed row is one with an infinite
    right-hand side, so an LP with one of its policy rows relaxed keeps the
    shape.  Any other LP, or any LP after a solve that did not end optimal,
    is loaded cold into a new HiGHS model.  A warm solve that does not end
    optimal is repeated cold in a new model, and the cold result is
    returned with the iterations and time of both runs.  An LP that HiGHS
    rejects raises :class:`SolveError`, and the next LP is loaded cold.
    """

    def __init__(self):
        # HiGHS options, set on every model the session loads
        self.options = [("output_flag", False), ("log_to_console", False),
                        ("presolve", "on"), ("solver", "simplex"),
                        ("simplex_strategy", 1),  # dual simplex
                        ("highs_debug_level", 0),
                        ("primal_feasibility_tolerance", FEAS_TOL),
                        ("dual_feasibility_tolerance", OPT_TOL)]
        self._loaded: Optional[LinearProgram] = None
        self._optimal = False

    def solve(self, lp: LinearProgram) -> Solution:
        """Minimize ``lp``, warm where the session's model allows it."""
        lp.validate_structure()
        sol = self._run(lp, self._optimal and self._same_shape(lp))
        if sol.warm_start and sol.status != "optimal":
            failed, sol = sol, self._run(lp, False)
            sol.iterations += failed.iterations
            sol.wall_time += failed.wall_time
        return sol

    def _run(self, lp: LinearProgram, warm: bool) -> Solution:
        """One HiGHS run of ``lp``: warm in the loaded model, or cold in a
        new one."""
        t0 = time.perf_counter()
        self._optimal = False
        if warm:
            self._push(lp)
        else:
            self._load(lp)
        highs = self._highs
        highs.run()
        wall = time.perf_counter() - t0
        model_status, info = highs.getModelStatus(), highs.getInfo()
        sol = Solution(lp, status=status_of(model_status),
                       iterations=int(info.simplex_iteration_count), wall_time=wall,
                       message=f"HiGHS model status {int(model_status)}: "
                               f"{highs.modelStatusToString(model_status)}",
                       warm_start=warm, session=self)
        if sol.status == "optimal":
            self._optimal = True
            solution = highs.getSolution()
            sol.objective = float(info.objective_function_value)
            sol.x = np.array(solution.col_value)
            sol.y = self._sign * np.array(solution.row_dual)[self._highs_row]
        return sol

    def _load(self, lp: LinearProgram) -> None:
        """Pass ``lp`` to a new HiGHS model."""
        core = load_highs()
        self._highs = core._Highs()
        for name, value in self.options:
            _check(f"setOptionValue({name})", self._highs.setOptionValue(name, value))
        sense = lp.rows.sense
        eq = sense == "="
        order = np.concatenate((np.flatnonzero(~eq), np.flatnonzero(eq)))
        self._highs_row = np.empty(len(order), dtype=np.int64)  # per loaded row
        self._highs_row[order] = np.arange(len(order))
        self._sign = np.where(sense == ">=", -1.0, 1.0)
        e, cols = lp.entries, lp.columns
        start, index, value = column_major(self._highs_row[e.row], e.col,
                                           self._sign[e.row] * e.value, len(cols))
        model = core.HighsLp()
        model.num_col_ = model.a_matrix_.num_col_ = len(cols)
        model.num_row_ = model.a_matrix_.num_row_ = len(order)
        model.a_matrix_.format_ = core.MatrixFormat.kColwise
        model.a_matrix_.start_ = start
        model.a_matrix_.index_ = index
        model.a_matrix_.value_ = value
        self._cost = cols.objective.copy()
        self._lower, self._upper = cols.lower.copy(), cols.upper.copy()
        model.col_cost_ = self._cost
        model.col_lower_, model.col_upper_ = self._lower, self._upper
        self._row_lower, self._row_upper = self._row_bounds(lp)
        model.row_lower_, model.row_upper_ = self._row_lower, self._row_upper
        _check("passModel", self._highs.passModel(model))
        self._loaded = lp

    def _row_bounds(self, lp: LinearProgram) -> tuple:
        """HiGHS row bounds of the rows of ``lp``, in the loaded model's
        order; an infinite right-hand side leaves its row free."""
        rhs = lp.rows.rhs
        lower, upper = np.empty(len(rhs)), np.empty(len(rhs))
        lower[self._highs_row] = np.where(lp.rows.sense == "=", rhs, -np.inf)
        upper[self._highs_row] = self._sign * rhs
        return lower, upper

    def _same_shape(self, lp: LinearProgram) -> bool:
        """Whether ``lp`` is the loaded LP up to costs and bounds."""
        base = self._loaded
        return (lp.col_index == base.col_index and lp.row_index == base.row_index
                and len(lp.columns) == len(base.columns)
                and np.array_equal(lp.rows.sense, base.rows.sense)
                and all(np.array_equal(getattr(lp.entries, name), getattr(base.entries, name))
                        for name in ("row", "col", "value")))

    def _push(self, lp: LinearProgram) -> None:
        """Change the loaded model's costs and bounds into those of ``lp``."""
        highs, cols = self._highs, lp.columns
        changed = np.flatnonzero(cols.objective != self._cost)
        if changed.size:
            self._cost = cols.objective.copy()
            _check("changeColsCost", highs.changeColsCost(
                changed.size, changed.astype(np.int32), self._cost[changed]))
        changed = np.flatnonzero((cols.lower != self._lower) | (cols.upper != self._upper))
        if changed.size:
            self._lower, self._upper = cols.lower.copy(), cols.upper.copy()
            _check("changeColsBounds", highs.changeColsBounds(
                changed.size, changed.astype(np.int32),
                self._lower[changed], self._upper[changed]))
        lower, upper = self._row_bounds(lp)
        for i in np.flatnonzero((lower != self._row_lower) | (upper != self._row_upper)):
            _check("changeRowBounds",
                   highs.changeRowBounds(int(i), float(lower[i]), float(upper[i])))
        self._row_lower, self._row_upper = lower, upper


def solve(lp: LinearProgram, session: Optional[Session] = None) -> Solution:
    """Minimize the LP; infeasibility/unboundedness are reported as status,
    not raised.  In ``session``, an LP of the family the session holds is
    solved warm (see :class:`Session`); without one, cold in a new session,
    which the solution keeps."""
    return (session or Session()).solve(lp)


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
