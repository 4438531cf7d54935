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
row blocks, column bounds, senses and matrix) is solved from the basis of
the previous solve, with Devex pricing.  The cap LP and its tax LP, which
frees the cap row, form such a family, and so do the points of a sweep.
A cold LP whose snapshot sample ends optimal first takes a held run, the
LP relaxed at the sample's prices (:func:`powermarket.formulate.relax`)
with its capacities held at the sample's optimum, and is then solved warm
from that basis; any other cold LP is solved in one plain run.

Sign convention: ``dual[row]`` is the sensitivity of the optimal objective to
the row's right-hand side (dObj/dRHS).  Balance rows therefore carry
non-negative electricity prices whenever the price-setting marginal cost is
non-negative; shadow prices of ``<=`` rows are <= 0 and of ``>=`` rows >= 0.
Reduced costs are not carried: they follow from the solution's LP and
duals (:func:`powermarket.metrics.reduced_costs`).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .formulate import LinearProgram, column_major, relax

__all__ = ["FEAS_TOL", "NO_OPTIMUM", "SAMPLE_STRIDE", "STATUSES", "Run", "Session", "Solution",
           "SolveError", "load_highs", "solve", "solve_external", "status_of",
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
    message: str = ""
    runs: tuple = ()                 # one Run per HiGHS run; () for a solution file
    # the HiGHS session that solved it; None for a solution read from a file
    session: Optional["Session"] = field(default=None, repr=False, compare=False)

    @property
    def iterations(self) -> int:
        """Simplex iterations of every run."""
        return sum(run.iterations for run in self.runs)

    @property
    def wall_time(self) -> float:
        """Wall time of every run."""
        return sum((run.wall_time for run in self.runs), 0.0)

    @property
    def warm_start(self) -> bool:
        """Whether it took one run, from the basis of an earlier solve."""
        return len(self.runs) == 1 and self.runs[0].warm

    def primal(self, family: str, entity: Optional[str] = None):
        """Value of a scalar column block, or the array of a snapshot block."""
        return _read(self.x, self.lp.col(family, entity))

    def dual(self, family: str, entity: Optional[str] = None):
        return _read(self.y, self.lp.row(family, entity))


@dataclass(frozen=True)
class Run:
    """One HiGHS run of a solve (see :class:`Session`)."""

    rows: int          # rows of the LP it ran; a snapshot sample has fewer
    warm: bool         # from the basis of the run before, in a Devex model
    relaxed: tuple     # (position, price) of each row it relaxed
    fixed: tuple       # positions of the columns it held at the sample's values
    pricing: int       # HiGHS simplex_dual_edge_weight_strategy of its model
    status: str
    iterations: int
    wall_time: float   # from loading or pushing the LP (a sample: building it) to the end
    objective: float   # of the LP it ran; NaN unless optimal


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
# every Solution.status, and so every status a solution file can give
STATUSES = (*_STATUS.values(), "numerical")
# primal and dual feasibility tolerances of every solve
FEAS_TOL = OPT_TOL = 1e-9
# multiplier of the dual simplex cost perturbation, which HiGHS sizes for
# its default dual feasibility tolerance of 1e-7: at that size it swamps the
# 1e-7 cost offsets that keep merit order unique, and a primal cleanup follows
COST_PERTURBATION = OPT_TOL / 1e-7
# dual simplex pricing of warm runs: Devex, which starts from unit edge
# weights where steepest edge first computes them for the whole basis
WARM_PRICING = ("simplex_dual_edge_weight_strategy", 1)
# snapshot stride of the sample that starts a cold LP (see Session)
SAMPLE_STRIDE = 11

# relative tolerance of a solution file's objective against c·x of its columns
OBJECTIVE_TOL = 1e-9

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

    A cold solve loads its LP, as it is, into a new model, inequality rows
    first and then ``=`` rows, and runs the dual simplex with presolve on.
    A later LP of the same shape (equal column and row blocks, column
    bounds, row senses and matrix entries) after an optimal solve is solved
    warm: only the costs and bounds that differ from the model HiGHS holds
    are pushed, and HiGHS starts from the basis the run before ended at.
    The loaded LP is the reference for the shape, so change its columns or
    matrix in a copy (:meth:`LinearProgram.copy`), not in place.  A relaxed
    row has an infinite right-hand side, so relaxing a policy row
    (:func:`powermarket.formulate.relax`) keeps the shape.

    The rules, each of which :attr:`Solution.runs` records run by run:

    - Cold stage.  A cold solve first solves the LP's snapshot sample
      (:meth:`LinearProgram.sampled`, every :data:`SAMPLE_STRIDE`-th
      snapshot).  When the sample ends optimal, the LP takes a held start:
      one run of the LP relaxed at the sample's prices, with each scalar
      column (a capacity) held at the sample's value, lower bound equal to
      upper, so that the LP falls apart into one small dispatch LP per
      snapshot.  The prices (:func:`_policy_rows`) relax every row with a
      finite right-hand side of the dense policy families, whose one entry
      per dispatch hour slows the dual simplex from its slack basis: the
      CO2 cap (``co2-cap``) at the sample's price μ̂ (which may be 0), so
      that a binding cap runs as its tax, and the dispatched quota
      (``vre-dispatched``) at 0.  The held run solves another LP: its
      solution is not read, and the LP itself is then solved as a warm
      solve from its basis, which releases the held columns and restores
      the rows and costs.  Without an optimal sample (an LP with storage
      has none) the LP is solved cold in one plain run.
    - Models.  One model per loaded LP, released before the next one is
      loaded: a held start loads two, the sample and the LP.  Each takes
      the session's :attr:`options`.  The held run's relaxation and held
      capacities, and a warm LP's costs and bounds, are pushed into it.
      The first warm run after a cold one switches it to
      :data:`WARM_PRICING` (Devex), keeping its basis; a cold run keeps
      HiGHS' default pricing.
    - Repeats.  A warm or held run that does not end optimal is repeated
      cold in one plain run.  An LP that HiGHS rejects raises
      :class:`SolveError`, and the next LP is loaded cold.

    The solution returned is the last run's, with the iterations and wall
    time of every run, the sample's build included.  Every run uses the
    tolerances :data:`FEAS_TOL` and :data:`OPT_TOL`, and the cost
    perturbation :data:`COST_PERTURBATION` sized to them.
    """

    def __init__(self):
        # HiGHS options, set on every model the session loads
        self.options = [("output_flag", False), ("log_to_console", False),
                        ("presolve", "on"), ("solver", "simplex"),
                        ("simplex_strategy", 1),  # dual simplex
                        ("highs_debug_level", 0),
                        ("primal_feasibility_tolerance", FEAS_TOL),
                        ("dual_feasibility_tolerance", OPT_TOL),
                        ("dual_simplex_cost_perturbation_multiplier", COST_PERTURBATION)]
        self._highs = None
        self._loaded: Optional[LinearProgram] = None
        self._optimal = False

    def solve(self, lp: LinearProgram) -> Solution:
        """Minimize ``lp``, warm where the session's model allows it."""
        lp.validate_structure()
        if self._optimal and self._same_shape(lp):
            sols = [self._run(lp, True)]
        else:
            sols = self._sample(lp)
            if sols and sols[0].status == "optimal":
                sample = sols[0]
                sols.append(self._run(lp, False, _policy_rows(lp, sample),
                                      _scalar_values(lp, sample)))
                if sols[-1].status == "optimal":
                    sols.append(self._run(lp, True))
        if not sols or sols[-1].status != "optimal":
            sols.append(self._run(lp, False))
        sol = sols[-1]
        sol.runs = tuple(run for each in sols for run in each.runs)
        return sol

    def _sample(self, lp: LinearProgram) -> list:
        """[solution of ``lp``'s snapshot sample], its run timed from the
        sample's build; [] when ``lp`` has no sample."""
        t0 = time.perf_counter()
        sample = lp.sampled(SAMPLE_STRIDE)
        if sample is None:
            return []
        sol = self._run(sample, False)
        sol.runs = (replace(sol.runs[0], wall_time=time.perf_counter() - t0),)
        return [sol]

    def _run(self, lp: LinearProgram, warm: bool, prices: Optional[dict] = None,
             held: Optional[dict] = None) -> Solution:
        """One HiGHS run of ``lp``: warm from the loaded model's basis, or
        cold in a new model; either of ``lp`` relaxed at ``prices`` (row
        position: μ) with each column of ``held`` (position: value) held at
        its value.  A run with rows relaxed or columns held solves another
        LP than ``lp``: it reads no solution, only status and objective."""
        t0 = time.perf_counter()
        self._optimal = False
        prices, held = prices or {}, held or {}
        if not warm:
            self._load(lp)
        elif self._highs.getOptionValue(WARM_PRICING[0])[1] != WARM_PRICING[1]:
            self._switch_pricing()
        self._push(lp, prices, held)
        highs = self._highs
        highs.run()
        wall = time.perf_counter() - t0
        model_status, info = highs.getModelStatus(), highs.getInfo()
        sol = Solution(lp, status=status_of(model_status),
                       message=f"HiGHS model status {int(model_status)}: "
                               f"{highs.modelStatusToString(model_status)}",
                       session=self)
        if sol.status == "optimal":
            self._optimal = True
            sol.objective = float(info.objective_function_value)
        if sol.status == "optimal" and not prices and not held:
            solution = highs.getSolution()
            # + 0.0 turns HiGHS' -0.0 into 0.0, as a solution file writes it
            sol.x = np.array(solution.col_value) + 0.0
            sol.y = np.array(solution.row_dual)[self._highs_row] + 0.0
        sol.runs = (Run(rows=len(lp.rows), warm=warm, relaxed=tuple(prices.items()),
                        fixed=tuple(held), pricing=highs.getOptionValue(WARM_PRICING[0])[1],
                        status=sol.status, iterations=int(info.simplex_iteration_count),
                        wall_time=wall, objective=sol.objective),)
        return sol

    def _switch_pricing(self) -> None:
        """Switch the loaded model to :data:`WARM_PRICING`, keeping its basis.
        HiGHS takes the option on a model that has run only once its solver
        data is cleared, the basis with it, so the basis is set again."""
        highs = self._highs
        basis = highs.getBasis()
        _check(f"setOptionValue({WARM_PRICING[0]})", highs.setOptionValue(*WARM_PRICING))
        _check("clearSolver", highs.clearSolver())
        _check("setBasis", highs.setBasis(basis))

    def _load(self, lp: LinearProgram) -> None:
        """Release the model and pass ``lp`` to a new one with the
        session's :attr:`options`."""
        core = load_highs()
        self._highs = None
        self._highs = core._Highs()
        for name, value in self.options:
            _check(f"setOptionValue({name})", self._highs.setOptionValue(name, value))
        eq = lp.rows.sense == "="
        order = np.concatenate((np.flatnonzero(~eq), np.flatnonzero(eq)))
        self._highs_row = np.empty(len(order), dtype=np.int64)  # per loaded row
        self._highs_row[order] = np.arange(len(order))
        e, cols = lp.entries, lp.columns
        start, index, value = column_major(self._highs_row[e.row], e.col, e.value, len(cols))
        model = core.HighsLp()
        model.num_col_ = model.a_matrix_.num_col_ = len(cols)
        model.num_row_ = model.a_matrix_.num_row_ = len(order)
        model.a_matrix_.format_ = core.MatrixFormat.kColwise
        model.a_matrix_.start_ = start
        model.a_matrix_.index_ = index
        model.a_matrix_.value_ = value
        model.col_cost_ = cols.objective
        model.col_lower_, model.col_upper_ = cols.lower, cols.upper
        model.row_lower_, model.row_upper_ = self._row_bounds(lp.rows.sense, lp.rows.rhs)
        _check("passModel", self._highs.passModel(model))
        self._loaded = lp

    def _row_bounds(self, sense: np.ndarray, rhs: np.ndarray) -> tuple:
        """HiGHS row bounds of rows of senses ``sense`` and right-hand sides
        ``rhs``, in the loaded model's order; an infinite right-hand side
        leaves its row free."""
        lower, upper = np.empty(len(rhs)), np.empty(len(rhs))
        lower[self._highs_row] = np.where(sense == "<=", -np.inf, rhs)
        upper[self._highs_row] = np.where(sense == ">=", np.inf, rhs)
        return lower, upper

    def _same_shape(self, lp: LinearProgram) -> bool:
        """Whether ``lp`` is the loaded LP up to costs and row bounds."""
        base = self._loaded
        return (lp.col_index == base.col_index and lp.row_index == base.row_index
                and all(np.array_equal(getattr(lp.columns, name), getattr(base.columns, name))
                        for name in ("lower", "upper"))
                and np.array_equal(lp.rows.sense, base.rows.sense)
                and all(np.array_equal(getattr(lp.entries, name), getattr(base.entries, name))
                        for name in ("row", "col", "value")))

    def _push(self, lp: LinearProgram, prices: dict, held: dict) -> None:
        """Change the loaded model into ``lp`` relaxed at ``prices`` with the
        columns of ``held`` held at its values: push the costs, column bounds
        and row bounds that differ from those of the model HiGHS holds."""
        highs, model, cols = self._highs, self._highs.getLp(), lp.columns
        cost, rhs = relax(lp, prices)
        changed = np.flatnonzero(cost != model.col_cost_)
        if changed.size:
            _check("changeColsCost", highs.changeColsCost(
                changed.size, changed.astype(np.int32), cost[changed]))
        lower, upper = cols.lower.copy(), cols.upper.copy()
        lower[list(held)] = upper[list(held)] = list(held.values())
        changed = np.flatnonzero((lower != model.col_lower_) | (upper != model.col_upper_))
        if changed.size:
            _check("changeColsBounds", highs.changeColsBounds(
                changed.size, changed.astype(np.int32), lower[changed], upper[changed]))
        lower, upper = self._row_bounds(lp.rows.sense, rhs)
        for i in np.flatnonzero((lower != model.row_lower_) | (upper != model.row_upper_)):
            _check("changeRowBounds",
                   highs.changeRowBounds(int(i), float(lower[i]), float(upper[i])))


def _scalar_values(lp: LinearProgram, sample: Solution) -> dict:
    """{position: value} of each scalar column of ``lp`` (a capacity) at the
    optimum of its snapshot ``sample``, which keeps every scalar block."""
    return {i: float(sample.x[sample.lp.col_index[key]])
            for key, i in lp.col_index.items() if isinstance(i, int)}


def _policy_rows(lp: LinearProgram, sample: Solution) -> dict:
    """Prices of the held run of ``lp`` (see :class:`Session`) on each row of
    the dense policy families with a finite right-hand side: the CO2 cap
    (``co2-cap``) at its price in the snapshot ``sample``, which may be 0,
    and then the dispatched quota (``vre-dispatched``) at 0."""
    return {i: max(0.0, -sample.dual(*key)) if family == "co2-cap" else 0.0
            for family in ("co2-cap", "vre-dispatched")
            for key, i in lp.row_index.items()
            if key[0] == family and np.isfinite(lp.rows.rhs[i])}


def solve(lp: LinearProgram, session: Optional[Session] = None) -> Solution:
    """Minimize the LP; infeasibility/unboundedness are reported as status,
    not raised.  In ``session``, an LP of the family the session holds is
    solved warm (see :class:`Session`); without one, cold in a new session,
    which the solution keeps."""
    return (session or Session()).solve(lp)


def write_solution_file(sol: Solution, path) -> None:
    """Canonical solution file: one `col`/`row` line per primal/dual value,
    each section sorted by name.  Every zero is written as ``0.0``: HiGHS
    returns some as ``-0.0``, a sign that depends only on its pivot path."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"status {sol.status}\n")
        fh.write(f"objective {sol.objective + 0.0!r}\n")
        for kind, names, values in (("col", sol.lp.col_names(), sol.x),
                                    ("row", sol.lp.row_names(), sol.y)):
            values = (values + 0.0).tolist()
            fh.writelines(f"{kind} {names[i]} {values[i]!r}\n"
                          for i in sorted(range(len(names)), key=names.__getitem__))


def solve_external(lp: LinearProgram, solution_file) -> Solution:
    """Parse an externally produced solution file against the LP's names.

    The file must cover every column and every row, each in one record of
    exactly its fields and with a finite number; a missing dual section
    makes the solution unusable for theorem checks and is reported as an
    error.  Its status, ``optimal`` when the file gives none, must be one of
    :data:`STATUSES`.  An optimal solution's objective is c·x of its
    columns; an ``objective`` record must agree with it to
    :data:`OBJECTIVE_TOL` relative.
    """
    sol = Solution(lp, status="optimal")
    x = np.full(len(lp.columns), np.nan)
    y = np.full(len(lp.rows), np.nan)
    positions = {kind: {name: i for i, name in enumerate(names)}
                 for kind, names in (("col", lp.col_names()), ("row", lp.row_names()))}

    # fields of each record, and which columns, rows, objective and status were read
    width = {"col": 3, "row": 3, "objective": 2, "status": 2}
    seen = {kind: bytearray(n) for kind, n in
            (("col", len(x)), ("row", len(y)), ("objective", 1), ("status", 1))}

    def error(message):
        return SolveError(f"{solution_file}, line {lineno}: {message}")

    def number(token):
        value = float(token)
        if not math.isfinite(value):
            raise error(f"'{token}' is not a finite number")
        return value

    with open(solution_file, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, 1):
                tokens = line.split()
                if not tokens or tokens[0].startswith("#"):
                    continue
                kind = tokens[0]
                if kind not in width:
                    raise error(f"unknown record '{kind}' in solution file")
                if len(tokens) > width[kind]:
                    raise error(f"'{kind}' record has an extra field '{tokens[width[kind]]}'")
                try:
                    i, what = 0, f"'{kind}'"
                    if kind == "col" or kind == "row":
                        what = f"{'column' if kind == 'col' else 'row'} '{tokens[1]}'"
                        i = positions[kind].get(tokens[1])
                        if i is None:
                            raise error(f"unmatched tag: unknown {what}")
                        (x if kind == "col" else y)[i] = number(tokens[2])
                    elif kind == "objective":
                        sol.objective, objective_line = number(tokens[1]), lineno
                    elif tokens[1] not in STATUSES:
                        raise error(f"unknown status '{tokens[1]}'")
                    else:
                        sol.status = tokens[1]
                    if seen[kind][i]:
                        raise error(f"second record of {what}")
                    seen[kind][i] = 1
                except IndexError:
                    raise error(f"'{kind}' record misses a field") from None
                except ValueError:
                    value = tokens[1 if kind == "objective" else 2]
                    raise error(f"'{value}' is not a number") from None
        except UnicodeDecodeError as exc:
            raise SolveError(f"{solution_file}: not UTF-8 text ({exc.reason})") from None
    if sol.status != "optimal":
        sol.message = f"status read from {solution_file}"
    else:
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
        cx = float(lp.columns.objective @ x)
        if np.isnan(sol.objective):
            sol.objective = cx
        elif abs(sol.objective - cx) > OBJECTIVE_TOL * max(1.0, abs(cx)):
            raise SolveError(f"{solution_file}, line {objective_line}: objective "
                             f"{sol.objective!r} differs from the columns' c·x {cx!r} "
                             f"by more than {OBJECTIVE_TOL:g} relative")
    return sol
