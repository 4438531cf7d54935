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
A cold LP with a dispatched quota is solved from its policy-free optimum,
and a cold LP with a CO2 cap from its tax LP at the cap price of a
snapshot sample.

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

from .formulate import LinearProgram, column_major, relaxation_shift

__all__ = ["NO_OPTIMUM", "STATUSES", "Session", "Solution", "SolveError", "load_highs",
           "solve", "solve_external", "status_of", "write_solution_file"]


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
# every Solution.status, and so every status a solution file can give
STATUSES = (*_STATUS.values(), "numerical")
# primal and dual feasibility tolerances of every solve
FEAS_TOL = OPT_TOL = 1e-9
# multiplier of the dual simplex cost perturbation, which HiGHS sizes for
# its default dual feasibility tolerance of 1e-7 (see Session)
COST_PERTURBATION = OPT_TOL / 1e-7
# dual simplex pricing of warm solves: Devex (see Session)
WARM_PRICING = ("simplex_dual_edge_weight_strategy", 1)
# snapshot stride of the sample that prices a cold CO2 cap (see Session)
SAMPLE_STRIDE = 11
# scaling of the cold runs of a cap LP's sample and of its priced tax LP:
# equilibration, applied even where HiGHS' own test declines it (see Session)
PRICED_SCALING = ("simplex_scale_strategy", 3)

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
    blocks, column bounds, row senses and matrix entries) is solved warm:
    only the costs and row bounds that differ are pushed, and HiGHS starts
    from the basis the previous solve ended at.  The loaded LP is the
    reference for the shape, so change its columns or matrix in a copy
    (:meth:`LinearProgram.copy`), not in place.  A relaxed row is one
    with an infinite right-hand side, so an LP with one of its policy rows
    relaxed keeps the shape.  Any other LP, or any LP after a solve that did not end optimal,
    is loaded cold into a new HiGHS model.

    A cold LP whose dispatched-quota row (``vre-dispatched``) has a target
    is run twice in the model it loads: first with that row free, which
    presolve drops, so HiGHS solves the policy-free LP; then with the
    target put back, warm from that basis.  From the slack basis the dual
    simplex would repair the violated quota row first and carry that dense
    row (one entry per dispatch hour of every supported technology) through
    every factorization after it, at several times the cost per
    iteration.  The second run solves the LP itself, so the result is an
    optimum of it; on a degenerate LP it can be another optimal vertex than
    a one-run cold solve finds.  An available-energy quota row is not
    opened first: measured, that made the cold solve slower.

    A cold LP whose CO2 cap row (``co2-cap``) has a right-hand side starts
    from its tax LP.  A binding cap and a tax at its shadow price μ have the
    same optimum, and the tax LP solves without the dense cap row (one
    entry per dispatch hour of every emitting technology) in its
    factorizations.  μ is priced on a sample first:
    :meth:`LinearProgram.sampled` keeps every :data:`SAMPLE_STRIDE`-th
    snapshot, weighted to the full horizon, and the sample is solved cold
    in a model of its own, μ̂ being minus its cap dual.  If the sample ends
    optimal with μ̂ > 0, the LP is loaded with the cap row free, and a
    dispatched-quota row with a target too, and with each column's cost
    raised by μ̂ times its cap coefficient.  Its optimal basis is then
    handed to a model that prices with Devex, as for a warm solve (below),
    the real costs and row bounds are pushed, and the LP itself runs warm.
    The sample and the priced run are scaled with :data:`PRICED_SCALING`:
    HiGHS' default strategy computes an equilibration of these LPs and then
    declines it by its own test, although applying it saves about a fifth
    of their pivots and makes each one cheaper.  The warm run of the LP
    itself, and every other run, keep HiGHS' default scaling, so every
    solution read comes from a model scaled as HiGHS chooses; forced on a
    meshed storage LP, the equilibration took 1.3–1.8 times as long.  Measured
    on an 8760-hour cap LP, the sample priced the cap within 7 % of μ, and
    the three runs took 3.0–3.3 s (1,275 + 13,741 + 170 iterations), 4.6–5.0 s
    unscaled, against 5.4–6.1 s for one cold run; opening the cap row
    unpriced, from the policy-free optimum, took three times as long.  On
    a degenerate LP the result can be another optimal vertex than a
    one-run cold solve finds.  The rule keeps peak memory
    where a one-run solve has it: the costs are shifted while loading,
    without a copy of the LP; each model, the sample's first, is released
    before the next one is loaded; and a run with rows left free solves
    another LP, so its solution is never read.  An LP whose rows
    link two snapshots, as a storage unit's state-of-charge rows do, has
    no sample, since a strided sample misprices storage; it takes one cold
    run, and so does an LP whose sample does not end optimal or prices the
    cap at 0.

    HiGHS sizes the dual simplex's cost perturbation for its default dual
    feasibility tolerance, 1e-7.  Every solve runs to :data:`OPT_TOL`, 1e-9,
    so the perturbation is scaled by the same factor, :data:`COST_PERTURBATION`.
    At the default size it swamps the 1e-7 EUR/MWh cost offsets that keep
    merit order and duals unique, and removing it at the end leaves dual
    infeasibilities that a primal simplex cleanup mends one pivot at a
    time; measured on an 8760-hour CO2-cap LP, scaled it ends without one.

    A warm solve prices with Devex, a cold run with HiGHS' default dual
    steepest edge.  A warm run skips presolve, and from a basis handed to
    it HiGHS first computes exact steepest-edge weights, about one solve
    with the transposed basis matrix per row, before its first pivot; on
    an 8760-hour CO2-cap LP a warm point of 1,434 iterations took as long
    as the cold solve before it.  Devex starts from unit weights instead.
    Cold runs keep steepest edge: with Devex a cold solve of a meshed
    storage LP took twice the iterations, and a binding CO2 cap got other
    optimal duals.  HiGHS reads the pricing option only when a model is
    passed, so the first warm solve after a cold load passes the loaded LP
    and its optimal basis to a new model that prices with Devex, and later
    warm solves stay in it; the handoff's time counts with that solve.
    The second run of a cold quota LP is part of its cold solve and stays
    in the model it was loaded in.

    A warm solve, or a run of a cold quota LP or of a priced cap LP, that
    does not end optimal is repeated cold in one run in a new model.  The
    result is returned with the iterations and time of every run, the
    sample's build and solve included.  An LP that HiGHS rejects raises
    :class:`SolveError`, and the next LP is loaded cold.
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
        self._loaded: Optional[LinearProgram] = None
        self._optimal = False
        self._devex = False  # whether the model prices with Devex

    def solve(self, lp: LinearProgram) -> Solution:
        """Minimize ``lp``, warm where the session's model allows it."""
        lp.validate_structure()
        warm = self._optimal and self._same_shape(lp)
        runs, opened, tax = [], (), 0.0
        if not warm:
            cap = _policy_row(lp, "co2-cap")
            if cap is not None:
                tax, sample = self._sample_price(lp)
                runs += [] if sample is None else [sample]
            opened = tuple(row for row in (cap if tax > 0.0 else None,
                                           _policy_row(lp, "vre-dispatched"))
                           if row is not None)
        runs.append(self._run(lp, warm, opened, tax, devex=warm))
        if opened and runs[-1].status == "optimal":
            # the LP itself, warm; from a priced cap LP in a Devex model
            runs.append(self._run(lp, True, devex=tax > 0.0))
        if runs[-1].status != "optimal" and (warm or opened):
            runs.append(self._run(lp, False))
        sol = runs[-1]
        sol.iterations = sum(run.iterations for run in runs)
        sol.wall_time = sum(run.wall_time for run in runs)
        sol.warm_start = warm and len(runs) == 1
        return sol

    def _sample_price(self, lp: LinearProgram) -> tuple:
        """(μ̂, run): the CO2 price of ``lp``'s snapshot sample, solved in a
        model of its own that is released on return, and that run with its
        build time and without its solution.  μ̂ is 0 when the sample does not
        end optimal; the run is None when ``lp`` has no sample."""
        t0 = time.perf_counter()
        sample = lp.sampled(SAMPLE_STRIDE)
        if sample is None:
            return 0.0, None
        sampler = Session()
        sampler.options = [*self.options, PRICED_SCALING]
        run = sampler._run(sample, False)
        price = -run.dual("co2-cap") if run.status == "optimal" else 0.0
        run.x = run.y = run.session = None
        run.wall_time = time.perf_counter() - t0
        return price, run

    def _run(self, lp: LinearProgram, warm: bool, opened: tuple = (), tax: float = 0.0,
             devex: bool = False) -> Solution:
        """One HiGHS run of ``lp``: warm in the loaded model, handed over
        to a Devex-pricing one first if ``devex``, or cold in a new model
        with the rows ``opened`` left free and the CO2 cap row's costs
        raised by ``tax`` times its coefficients.  A run with rows left free
        solves another LP than ``lp``: it reads no solution, only status,
        iterations and objective."""
        t0 = time.perf_counter()
        self._optimal = False
        if warm:
            if devex and not self._devex:
                self._hand_over()
            self._push(lp)
        else:
            self._load(lp, opened, tax)
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
            sol.objective = float(info.objective_function_value)
        if sol.status == "optimal" and not opened:
            solution = highs.getSolution()
            sol.x = np.array(solution.col_value)
            sol.y = self._sign * np.array(solution.row_dual)[self._highs_row]
        return sol

    def _new_model(self, options: list):
        """A new HiGHS model with ``options`` set."""
        highs = load_highs()._Highs()
        for name, value in options:
            _check(f"setOptionValue({name})", highs.setOptionValue(name, value))
        return highs

    def _hand_over(self) -> None:
        """Move the loaded LP and its optimal basis into a new model that
        prices with Devex.  The old model is released first and the LP is
        passed again from its arrays, so that no two copies of it are held
        at once: measured on an 8760-hour cap LP, passing a copy taken from
        the old model (``getLp``) raised the process's peak memory."""
        basis = self._highs.getBasis()
        self._highs = None
        self._load(self._loaded, devex=True)
        _check("setBasis", self._highs.setBasis(basis))

    def _load(self, lp: LinearProgram, opened: tuple = (), tax: float = 0.0,
              devex: bool = False) -> None:
        """Pass ``lp`` to a new HiGHS model, pricing with Devex if ``devex``,
        with the rows ``opened`` free and the costs of the CO2 cap row's
        columns raised by ``tax`` times their coefficients in it, scaled
        with :data:`PRICED_SCALING` if they are."""
        core = load_highs()
        extra = [WARM_PRICING] if devex else [PRICED_SCALING] if tax else []
        self._highs = self._new_model([*self.options, *extra])
        self._devex = devex
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
        if tax:
            taxed, shift = relaxation_shift(lp, "co2-cap", tax)
            self._cost[taxed] += shift
        model.col_cost_ = self._cost
        model.col_lower_, model.col_upper_ = cols.lower, cols.upper
        self._row_lower, self._row_upper = self._row_bounds(lp)
        i = self._highs_row[list(opened)]
        self._row_lower[i], self._row_upper[i] = -np.inf, np.inf
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
        """Whether ``lp`` is the loaded LP up to costs and row bounds."""
        base = self._loaded
        return (lp.col_index == base.col_index and lp.row_index == base.row_index
                and all(np.array_equal(getattr(lp.columns, name), getattr(base.columns, name))
                        for name in ("lower", "upper"))
                and np.array_equal(lp.rows.sense, base.rows.sense)
                and all(np.array_equal(getattr(lp.entries, name), getattr(base.entries, name))
                        for name in ("row", "col", "value")))

    def _push(self, lp: LinearProgram) -> None:
        """Change the loaded model's costs and row bounds into those of ``lp``."""
        highs, cols = self._highs, lp.columns
        changed = np.flatnonzero(cols.objective != self._cost)
        if changed.size:
            self._cost = cols.objective.copy()
            _check("changeColsCost", highs.changeColsCost(
                changed.size, changed.astype(np.int32), self._cost[changed]))
        lower, upper = self._row_bounds(lp)
        for i in np.flatnonzero((lower != self._row_lower) | (upper != self._row_upper)):
            _check("changeRowBounds",
                   highs.changeRowBounds(int(i), float(lower[i]), float(upper[i])))
        self._row_lower, self._row_upper = lower, upper


def _policy_row(lp: LinearProgram, family: str) -> Optional[int]:
    """Position of the scalar policy row ``family`` of ``lp`` if it has a
    finite right-hand side."""
    if lp.has_row(family):
        row = lp.row(family)
        if np.isfinite(lp.rows.rhs[row]):
            return row
    return None


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

    The file must cover every column and every row, each in one record of
    exactly its fields; a missing dual section makes the solution unusable
    for theorem checks and is reported as an error.  Its status, ``optimal``
    when the file gives none, must be one of :data:`STATUSES`.
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
                        (x if kind == "col" else y)[i] = float(tokens[2])
                    elif kind == "objective":
                        sol.objective = float(tokens[1])
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
        if np.isnan(sol.objective):
            sol.objective = float(lp.columns.objective @ x)
    return sol
