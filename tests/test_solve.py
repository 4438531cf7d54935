import importlib.machinery
import importlib.util
import inspect
import json
import re
import sys
import time
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from powermarket.formulate import LinearProgram, apply_equivalence_substitution, build_lp
from powermarket.metrics import policy_prices, reduced_costs
from powermarket.model import (
    MAX_MAGNITUDE,
    Co2Cap,
    LineSpec,
    PolicyConfig,
    PowerSystem,
    SupportDispatched,
    TechnologySpec,
)
from powermarket.scenario import DEFAULT_TECHNOLOGIES, load_scenario, loads_scenario
from powermarket.solve import (
    SAMPLE_STRIDE,
    STATUSES,
    Session,
    SolveError,
    load_highs,
    solve,
    solve_external,
    status_of,
    write_solution_file,
)
from powermarket.verify import (
    check_cap_tax_equivalence,
    check_kkt,
    check_subsidy_tax_lift,
    verify_solution,
)

from conftest import (
    flexible_system,
    kkt_passes,
    random_desk_system,
    scenario_path,
    solar_gas_system,
)

BUNDLED = ("fig1_co2_cap", "fig1_no_policy", "fig1_support", "vre_flex_168h",
           "wind_gas_168h")


def one_tech_two_hours():
    gas = TechnologySpec(name="gas", capex=0.0, lifetime=1.0, fixed_om=100.0,
                         variable_cost=10.0)
    return PowerSystem(nodes=("N",), snapshots=2, demand={"N": (100.0, 50.0)},
                       technologies=(("N", gas),), discount_rate=0.0)


class TestSolve:
    def test_trivial_bound(self):
        lp = LinearProgram()
        lp.add_columns("x", lower=3.0, objective=1.0)
        sol = solve(lp)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(3.0)
        assert sol.primal("x") == pytest.approx(3.0)

    def test_single_tech_duals(self):
        # capacity pinned by the peak hour: the peak price carries the
        # annualized capacity cost, the off-peak price the marginal cost,
        # so the price sum is c + 2 o = 120
        lp = build_lp(one_tech_two_hours(), PolicyConfig())
        sol = solve(lp)
        assert sol.status == "optimal"
        # the sample, the LP at the sample's capacity, the LP itself warm
        assert [(run.warm, run.relaxed, run.fixed) for run in sol.runs] == [
            (False, (), ()), (False, (), (lp.col("G", "gas@N"),)), (True, (), ())]
        assert sol.objective == pytest.approx(11_500.0)
        assert sol.dual("balance", "N")[0] == pytest.approx(110.0)
        assert sol.dual("balance", "N")[1] == pytest.approx(10.0)

    def test_reduced_cost_of_unbuilt_column(self):
        lp = LinearProgram()
        x = lp.add_columns("x", lower=0.0, objective=1.0)
        y = lp.add_columns("y", lower=0.0, objective=3.0)
        cover = lp.add_rows("cover", sense=">=", rhs=5.0)
        lp.add_entries(cover, x, 1.0)
        lp.add_entries(cover, y, 1.0)
        sol = solve(lp)
        assert sol.primal("y") == 0.0
        # y's cost exceeds the row price by 2
        assert reduced_costs(sol)[y] == pytest.approx(2.0)
        assert sol.dual("cover") == pytest.approx(1.0)

    def test_infeasible_status(self):
        lp = LinearProgram()
        x = lp.add_columns("x", lower=0.0, upper=1.0, objective=1.0)
        lp.add_entries(lp.add_rows("need", sense=">=", rhs=5.0), x, 1.0)
        sol = solve(lp)
        assert sol.status == "infeasible"

    def test_unbounded_status(self):
        lp = LinearProgram()
        lp.add_columns("x", lower=float("-inf"), objective=1.0)
        sol = solve(lp)
        assert sol.status == "unbounded"


class TestSolutionFiles:
    def test_round_trip(self, tmp_path):
        lp = build_lp(one_tech_two_hours(), PolicyConfig())
        sol = solve(lp)
        path = tmp_path / "model.sol"
        write_solution_file(sol, path)
        back = solve_external(lp, path)
        assert back.runs == ()
        assert (back.iterations, back.wall_time, back.warm_start) == (0, 0.0, False)
        assert back.objective == pytest.approx(sol.objective, rel=1e-12)
        assert back.x.tolist() == sol.x.tolist()
        assert back.y.tolist() == sol.y.tolist()

    def test_comment_and_blank_lines_are_skipped(self, tmp_path):
        lp = build_lp(one_tech_two_hours(), PolicyConfig())
        sol = solve(lp)
        path = tmp_path / "model.sol"
        write_solution_file(sol, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(["# written by hand", ""] + lines[:2]
                                  + ["   ", "  # the columns"] + lines[2:]) + "\n")
        back = solve_external(lp, path)
        assert back.objective == sol.objective
        assert back.x.tolist() == sol.x.tolist() and back.y.tolist() == sol.y.tolist()

    def test_zeros_are_written_as_positive_zero(self, tmp_path, desk_system):
        lp = build_lp(desk_system, PolicyConfig())
        sol = solve(lp)
        zero_x, zero_y = sol.x == 0.0, sol.y == 0.0
        assert zero_x.any() and zero_y.any()
        # a solve holds them as the file writes them
        assert not np.signbit(sol.x[zero_x]).any() and not np.signbit(sol.y[zero_y]).any()
        sol.x[zero_x], sol.y[zero_y] = -0.0, -0.0
        path = tmp_path / "model.sol"
        write_solution_file(sol, path)
        assert " -0.0\n" not in path.read_text()
        back = solve_external(lp, path)
        assert back.x.tolist() == sol.x.tolist() and back.y.tolist() == sol.y.tolist()
        assert not np.signbit(back.x[zero_x]).any() and not np.signbit(back.y[zero_y]).any()

    def test_zero_cap_price_reads_positive_zero(self, desk_system):
        # a cap that does not bind has price 0.0, in the metrics and the check
        policy = PolicyConfig(co2=Co2Cap(1e9))
        lp = build_lp(desk_system, policy)
        sol = solve(lp)
        prices = (policy_prices(desk_system, sol, policy)["mu_co2"],
                  check_cap_tax_equivalence(desk_system, sol, policy)[0].detail["mu_co2"])
        assert prices == (0.0, 0.0) and not np.signbit(prices).any()

    def test_unknown_column_is_rejected(self, tmp_path):
        lp = build_lp(one_tech_two_hours(), PolicyConfig())
        path = tmp_path / "bad.sol"
        path.write_text("status optimal\ncol g.phantom.t0 1.0\n")
        with pytest.raises(SolveError, match="unmatched tag"):
            solve_external(lp, path)

    @pytest.mark.parametrize("status", STATUSES)
    def test_every_status_is_read(self, tmp_path, status):
        lp = build_lp(one_tech_two_hours(), PolicyConfig())
        path = tmp_path / "model.sol"
        write_solution_file(solve(lp), path)
        path.write_text(path.read_text().replace("status optimal", f"status {status}"))
        sol = solve_external(lp, path)
        assert sol.status == status
        assert sol.message == ("" if status == "optimal" else f"status read from {path}")

    def test_unknown_status_is_rejected(self, tmp_path):
        lp = build_lp(one_tech_two_hours(), PolicyConfig())
        path = tmp_path / "model.sol"
        write_solution_file(solve(lp), path)
        path.write_text(path.read_text().replace("status optimal", "status optimall"))
        with pytest.raises(SolveError,
                           match=r"model\.sol, line 1: unknown status 'optimall'$"):
            solve_external(lp, path)

    @pytest.mark.parametrize("kind, value", [
        ("col", "nan"), ("col", "inf"), ("row", "-inf"), ("objective", "nan"),
        ("objective", "inf")])
    def test_non_finite_number_is_rejected(self, tmp_path, kind, value):
        lp = build_lp(one_tech_two_hours(), PolicyConfig())
        path = tmp_path / "model.sol"
        write_solution_file(solve(lp), path)
        lines = path.read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith(f"{kind} "))
        lines[at] = " ".join([*lines[at].split()[:-1], value])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SolveError, match=rf"model\.sol, line {at + 1}: "
                                             rf"'{value}' is not a finite number$"):
            solve_external(lp, path)

    def test_objective_must_agree_with_the_columns(self, tmp_path):
        lp = build_lp(one_tech_two_hours(), PolicyConfig())
        sol = solve(lp)
        path = tmp_path / "model.sol"
        write_solution_file(sol, path)
        text = path.read_text()

        def read_with(objective):
            path.write_text(text.replace(f"objective {sol.objective!r}",
                                         f"objective {objective!r}"))
            return solve_external(lp, path)
        near = sol.objective * (1 + 1e-10)
        assert read_with(near).objective == near
        for objective in (sol.objective * (1 + 1e-8), 1.0):
            with pytest.raises(SolveError, match=rf"model\.sol, line 2: objective "
                                                 rf"{objective!r} differs from the columns' "
                                                 rf"c·x .* by more than 1e-09 relative$"):
                read_with(objective)

    def test_missing_duals_are_rejected(self, tmp_path):
        lp = build_lp(one_tech_two_hours(), PolicyConfig())
        sol = solve(lp)
        path = tmp_path / "primal_only.sol"
        with open(path, "w") as fh:
            fh.write("status optimal\n")
            for cid, v in sorted(zip(lp.col_names(), sol.x.tolist())):
                fh.write(f"col {cid} {v!r}\n")
        with pytest.raises(SolveError, match="dual"):
            solve_external(lp, path)

    def test_line_rent_survives_the_solution_file(self, tmp_path):
        # a line far larger than any flow stays at its existing capacity;
        # its lower-bound rent is a reduced cost, which the file omits
        gas = TechnologySpec(name="gas", capex=10.0, lifetime=1.0, variable_cost=5.0)
        line = LineSpec("A", "B", existing_capacity=50.0, expandable=True, capex=4.0)
        system = PowerSystem(nodes=("A", "B"), snapshots=3,
                             demand={"A": (1.0, 2.0, 3.0), "B": (2.0, 1.0, 2.0)},
                             technologies=(("A", gas),), lines=(line,),
                             discount_rate=0.0)
        lp = build_lp(system, PolicyConfig())
        path = tmp_path / "line.sol"
        write_solution_file(solve(lp), path)
        ext = solve_external(lp, path)
        results = verify_solution(system, ext, PolicyConfig())
        assert [(r.check, r.entity) for r in results if r.verdict != "pass"] == []
        rent = next(r for r in results if r.check == "zero-profit-line")
        assert rent.detail["lower_bound_rent"] == pytest.approx(4.0 * 50.0)

    def test_external_duals_feed_the_checks(self, tmp_path, desk_system):
        lp = build_lp(desk_system, PolicyConfig())
        sol = solve(lp)
        path = tmp_path / "ext.sol"
        write_solution_file(sol, path)
        ext = solve_external(lp, path)
        assert kkt_passes(ext)


def linprog_reference(lp: LinearProgram):
    """The LP solved through scipy's ``linprog`` as the package did before
    it drove HiGHS itself: (result, duals dObj/dRHS in LP order)."""
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    e = lp.entries
    A = csr_matrix((e.value, (e.row, e.col)), shape=(len(lp.rows), len(lp.columns)))
    sense, rhs = lp.rows.sense, lp.rows.rhs
    eq = sense == "="
    ub = ~eq
    sign = np.where(sense[ub] == ">=", -1.0, 1.0)
    A_ub = A[ub]
    A_ub.data *= np.repeat(sign, np.diff(A_ub.indptr))
    res = linprog(lp.columns.objective,
                  A_ub=A_ub if ub.any() else None, b_ub=sign * rhs[ub] if ub.any() else None,
                  A_eq=A[eq] if eq.any() else None, b_eq=rhs[eq] if eq.any() else None,
                  bounds=np.column_stack((lp.columns.lower, lp.columns.upper)),
                  method="highs-ds",
                  options={"primal_feasibility_tolerance": 1e-9,
                           "dual_feasibility_tolerance": 1e-9})
    y = np.empty(len(lp.rows))
    y[eq] = res.eqlin.marginals
    y[ub] = sign * res.ineqlin.marginals
    return res, y


def linprog_perturbation() -> Session:
    """A session with HiGHS' default cost perturbation, the one scipy's
    ``linprog`` runs with; ``Session`` scales it to its dual tolerance."""
    session = Session()
    session.options.append(("dual_simplex_cost_perturbation_multiplier", 1.0))
    return session


class TestHighsBindings:
    """``solve`` drives scipy's private HiGHS class; these tests pin it."""

    def test_every_method_solve_uses_exists(self):
        core = load_highs()
        source = inspect.getsource(sys.modules[Session.__module__])
        methods = set(re.findall(r"highs\.(\w+)\(", source))
        assert {"passModel", "run", "changeColsCost", "changeRowBounds",
                "getBasis", "setBasis", "clearSolver"} <= methods
        for name in methods:
            assert callable(getattr(core._Highs, name)), name
        for name in set(re.findall(r"(?:\bcore|load_highs\(\))\.(\w+)", source)):
            assert hasattr(core, name), name

    def test_validated_magnitudes_are_within_the_limits(self):
        # model.MAX_MAGNITUDE, weighted by a snapshot sample, stays below the
        # matrix values, row bounds and costs HiGHS takes
        highs = load_highs()._Highs()
        limit = {name: highs.getOptionValue(name)[1]
                 for name in ("large_matrix_value", "infinite_bound", "infinite_cost")}
        assert MAX_MAGNITUDE * SAMPLE_STRIDE < limit["large_matrix_value"] \
            <= min(limit["infinite_bound"], limit["infinite_cost"])

    def test_a_bound_highs_rejects_raises(self, desk_system):
        # HiGHS answers a NaN bound with kError and keeps its old model:
        # neither the cold load nor the warm push may run that model
        lp = build_lp(desk_system, PolicyConfig())
        session = Session()
        session.solve(lp)
        lp = build_lp(desk_system, PolicyConfig())
        lp.rows.rhs[0] = np.nan
        with pytest.raises(SolveError, match="HiGHS changeRowBounds returned an error"):
            session.solve(lp)
        with pytest.raises(SolveError, match="HiGHS passModel returned an error"):
            Session().solve(lp)

    @pytest.mark.parametrize("failure", ["no-scipy", "no-core-file", "core-fails"])
    def test_load_failures(self, monkeypatch, tmp_path, failure):
        # the extension is found by path, never imported through scipy: each
        # way that fails is an error of its own, and a module whose body
        # raised is not left in sys.modules for the next call to reuse
        core = sys.modules[Session.__module__]._CORE
        monkeypatch.delitem(sys.modules, core)
        if failure == "no-scipy":
            monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
            with pytest.raises(SolveError, match="scipy is not installed"):
                load_highs()
        elif failure == "no-core-file":
            monkeypatch.setattr(importlib.util, "find_spec", lambda name: SimpleNamespace(
                submodule_search_locations=[str(tmp_path)]))
            with pytest.raises(SolveError, match="no extension module '_core'"):
                load_highs()
        else:
            def exec_module(self, module):
                raise ImportError("module body raised")
            monkeypatch.setattr(importlib.machinery.ExtensionFileLoader, "exec_module",
                                exec_module)
            with pytest.raises(ImportError, match="module body raised"):
                load_highs()
        assert core not in sys.modules

    def test_options_are_known(self):
        highs = load_highs()._Highs()
        for name, value in Session().options:
            assert highs.setOptionValue(name, value) == load_highs().HighsStatus.kOk, name

    @pytest.mark.parametrize("name", BUNDLED)
    def test_solve_matches_linprog(self, name):
        system, policy, _ = load_scenario(scenario_path(f"{name}.json"))
        lp = build_lp(system, policy)
        res, y = linprog_reference(lp)
        sol = solve(lp)
        assert sol.status == "optimal" and not sol.warm_start
        # a cold LP starts from its sample's capacities, with a quota row
        # free and a cap priced (see Session), and on vre_flex_168h, which has
        # no sample, the smaller cost perturbation takes another pivot path:
        # each may end at another optimal vertex of these degenerate LPs
        assert sol.objective == pytest.approx(res.fun, rel=1e-12)
        assert kkt_passes(sol)
        # one plain cold run with linprog's perturbation is linprog's solve
        sol = linprog_perturbation()._run(lp, False)
        assert sol.iterations == res.nit
        assert sol.objective == res.fun
        assert sol.x.tolist() == res.x.tolist()
        assert sol.y.tolist() == y.tolist()


class TestStatus:
    @pytest.mark.parametrize("member, status", [
        ("kOptimal", "optimal"),
        ("kInfeasible", "infeasible"),
        ("kUnbounded", "unbounded"),
        ("kUnboundedOrInfeasible", "infeasible-or-unbounded"),
        ("kIterationLimit", "iteration-limit"),
        ("kTimeLimit", "time-limit"),
        ("kSolveError", "numerical"),
        ("kUnknown", "numerical"),
        ("kNotset", "numerical"),
    ])
    def test_highs_status_table(self, member, status):
        assert status_of(load_highs().HighsModelStatus.__members__[member]) == status

    def test_iteration_limit_is_reported(self, desk_system):
        session = Session()
        session.options.append(("simplex_iteration_limit", 1))
        sol = session.solve(build_lp(desk_system, PolicyConfig()))
        assert sol.status == "iteration-limit" and sol.x is None


# Runs in a fresh interpreter: HiGHS crashes it when it runs a model it
# rejected.  Prints (status, warm start) or the error of each solve.
NAN_RHS_PROBE = """
import json, math
from powermarket.formulate import LinearProgram
from powermarket.solve import Session, SolveError, solve

def lp_needing(rhs):
    lp = LinearProgram()
    x = lp.add_columns("x", lower=0.0, upper=1.0, objective=1.0)
    need = lp.add_rows("need", sense=">=", rhs=rhs)
    lp.add_entries(need, x, 1.0)
    return lp

def outcome(solve, lp):
    try:
        sol = solve(lp)
    except SolveError as exc:
        return str(exc)
    return [sol.status, sol.warm_start]

session = Session()
print(json.dumps([outcome(solve, lp_needing(math.nan))]
                 + [outcome(session.solve, lp_needing(rhs))
                    for rhs in (0.5, math.nan, 0.5)]))
"""


PRICING = "simplex_dual_edge_weight_strategy"


def scalar_columns(lp: LinearProgram) -> tuple:
    """Positions of the scalar columns of ``lp`` (its capacities)."""
    return tuple(i for i in lp.col_index.values() if isinstance(i, int))


def held_at_sample(lp: LinearProgram) -> LinearProgram:
    """A copy of ``lp`` with each scalar column held at its value in the
    optimum of ``lp``'s snapshot sample."""
    sample = lp.sampled(SAMPLE_STRIDE)
    x = Session()._run(sample, False).x
    held, sample_names = lp.copy(), sample.col_names()
    for i in scalar_columns(lp):
        held.columns.lower[i] = held.columns.upper[i] = \
            x[sample_names.index(lp.col_names()[i])]
    return held


def fig1_support_lp(share: float = 0.4, **solar):
    """``fig1_support.json`` at quota ``share``, with the ``solar`` fields set
    on its solar plant: (system, policy, lp)."""
    with open(scenario_path("fig1_support.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["policy"]["support"]["share"] = share
    doc["technologies"][0].update(solar)
    system, policy, _ = loads_scenario(doc)
    return system, policy, build_lp(system, policy)


def coal_gas_system() -> PowerSystem:
    """``random_desk_system``'s demand, wind and sun over 504 h with six
    technologies at the bundled costs, capex scaled to the horizon:
    untaxed, lignite and coal run before gas."""
    base = random_desk_system(0, 504)
    availability = {tech.name: tech.availability for _, tech in base.technologies}
    techs = []
    for i, name in enumerate(("wind", "solar", "lignite", "coal", "ccgt", "ocgt")):
        spec = dict(DEFAULT_TECHNOLOGIES[name])
        spec["capex"] *= base.snapshots / 8760
        techs.append(("N", TechnologySpec(name=name, variable_cost=(i + 1) * 1e-7,
                                          availability=availability.get(name), **spec)))
    return replace(base, technologies=tuple(techs), voll=1000.0, discount_rate=0.07)


class TestSession:
    def test_rejected_lp_raises_and_the_next_one_loads_cold(self):
        from test_cli import run_fresh

        assert run_fresh(NAN_RHS_PROBE) == [
            "HiGHS passModel returned an error", ["optimal", False],
            "HiGHS changeRowBounds returned an error", ["optimal", False]]

    def test_tax_lp_resolves_warm_from_the_cap_basis(self, desk_system):
        lp = build_lp(desk_system, PolicyConfig(co2=Co2Cap(900.0)))
        sol = solve(lp)
        tax_lp = apply_equivalence_substitution(lp, {lp.row("co2-cap"): -sol.dual("co2-cap")})
        warm = solve(tax_lp, session=sol.session)
        cold = solve(tax_lp)
        assert warm.warm_start and not cold.warm_start
        assert warm.iterations < cold.iterations
        assert warm.objective == pytest.approx(cold.objective, rel=1e-12)
        assert len(warm.y) == len(tax_lp.rows)
        np.testing.assert_allclose(warm.dual("balance", "N"), sol.dual("balance", "N"),
                                   rtol=1e-9, atol=1e-9)

    def test_same_family_back_and_forth(self, desk_system):
        lp = build_lp(desk_system, PolicyConfig(co2=Co2Cap(900.0)))
        session = Session()
        first = session.solve(lp)
        tighter = build_lp(desk_system, PolicyConfig(co2=Co2Cap(800.0)))
        second = session.solve(tighter)
        assert second.warm_start
        assert second.objective == pytest.approx(solve(tighter).objective, rel=1e-12)
        again = session.solve(lp)
        assert again.warm_start
        assert again.objective == pytest.approx(first.objective, rel=1e-12)

    def test_changed_column_bound_loads_cold(self, desk_system):
        lp = build_lp(desk_system, PolicyConfig(co2=Co2Cap(900.0)))
        session = Session()
        wind = session.solve(lp).primal("G", "wind@N")
        bounded = lp.copy()
        bounded.columns.upper[lp.col("G", "wind@N")] = wind / 2
        sol = session.solve(bounded)
        fresh = Session().solve(bounded)
        assert not sol.warm_start
        assert sol.primal("G", "wind@N") == wind / 2
        assert sol.objective == fresh.objective
        assert np.array_equal(sol.x, fresh.x) and np.array_equal(sol.y, fresh.y)

    def test_other_matrix_or_failed_solve_starts_cold(self, desk_system):
        session = Session()
        session.solve(build_lp(desk_system, PolicyConfig(co2=Co2Cap(900.0))))
        # the LP without the cap row has another shape
        assert not session.solve(build_lp(desk_system, PolicyConfig())).warm_start
        other = random_desk_system(0, snapshots=24)
        assert not session.solve(build_lp(other, PolicyConfig())).warm_start
        lp = LinearProgram()
        x = lp.add_columns("x", lower=0.0, upper=1.0, objective=1.0)
        need = lp.add_rows("need", sense=">=", rhs=5.0)
        lp.add_entries(need, x, 1.0)
        assert session.solve(lp).status == "infeasible"
        lp.rows.rhs[need] = 0.5
        sol = session.solve(lp)
        assert sol.status == "optimal" and not sol.warm_start

    def test_warm_solve_without_optimum_is_repeated_cold(self):
        lp = LinearProgram()
        x = lp.add_columns("x", lower=0.0, upper=1.0, objective=1.0)
        need = lp.add_rows("need", sense=">=", rhs=0.5)
        lp.add_entries(need, x, 1.0)
        session = Session()
        assert session.solve(lp).status == "optimal"
        lp.rows.rhs[need] = 5.0
        sol = session.solve(lp)
        assert sol.status == "infeasible" and not sol.warm_start

        # the work of the failed warm run counts with the cold one
        system = solar_gas_system()
        session = Session()
        assert session.solve(build_lp(system, PolicyConfig(co2=Co2Cap(1e9)))).status \
            == "optimal"
        sol = session.solve(build_lp(system, PolicyConfig(co2=Co2Cap(100.0))))
        assert sol.status == "infeasible" and not sol.warm_start
        warm, cold = sol.runs
        assert warm.warm and not cold.warm and warm.iterations > 0
        assert (cold.relaxed, cold.status) == ((), "infeasible")

    def test_cold_lp_runs_at_its_sample_capacities(self, desk_system):
        lp = build_lp(desk_system, PolicyConfig())
        sol = Session().solve(lp)
        sample, held, warm = sol.runs
        assert (sample.warm, sample.relaxed, sample.fixed) == (False, (), ())
        assert sample.rows == len(lp.sampled(SAMPLE_STRIDE).rows) < len(lp.rows)
        # every capacity is held at the sample's value, and that run's
        # solution, of another LP, is not read
        assert (held.warm, held.relaxed, held.fixed) == (False, (), scalar_columns(lp))
        assert len(held.fixed) == 4
        assert held.objective == Session()._run(held_at_sample(lp), False).objective
        assert Session()._run(lp, False, held={held.fixed[0]: 1.0}).x is None
        # the LP itself runs warm, with the capacities released
        assert (warm.warm, warm.relaxed, warm.fixed) == (True, (), ())
        assert sol.status == "optimal" and not sol.warm_start
        assert sol.objective == pytest.approx(Session()._run(lp, False).objective, rel=1e-9)
        assert kkt_passes(sol)

    def test_held_start_matches_a_plain_run(self):
        for seed in range(10):
            lp = build_lp(random_desk_system(seed), PolicyConfig())
            sol = Session().solve(lp)
            assert [bool(run.fixed) for run in sol.runs] == [False, True, False], seed
            assert sol.objective == pytest.approx(Session()._run(lp, False).objective,
                                                  rel=1e-9), seed

    def test_hand_over_releases_capacities_held_at_their_upper_bound(self, desk_system):
        lp = build_lp(desk_system, PolicyConfig())
        capacities = held_at_sample(lp).columns.lower
        session = Session()
        session._run(lp, False, held={i: capacities[i] for i in scalar_columns(lp)})
        status = session._highs.getBasis().col_status
        # the Devex model takes these as they are, with no upper bound left
        assert [i for i in scalar_columns(lp) if status[i].name == "kUpper"]
        warm = session._run(lp, True)
        assert warm.status == "optimal"
        assert warm.objective == pytest.approx(Session()._run(lp, False).objective, rel=1e-9)

    def test_held_start_without_optimum_is_repeated_cold(self):
        # no load shedding, and a demand spike at an hour the sample skips
        # that the sample's capacities cannot serve
        base = random_desk_system(0)
        demand = np.array(base.demand["N"])
        assert 5 % SAMPLE_STRIDE
        demand[5] *= 3.0
        system = replace(base, voll=None, demand={"N": tuple(demand)})
        lp = build_lp(system, PolicyConfig())
        sol = Session().solve(lp)
        assert sol.status == "optimal" and not sol.warm_start
        assert [(run.warm, bool(run.fixed), run.status) for run in sol.runs] == [
            (False, False, "optimal"), (False, True, "infeasible"), (False, False, "optimal")]
        one_run = Session()._run(lp, False)
        assert sol.objective == one_run.objective
        assert np.array_equal(sol.x, one_run.x) and np.array_equal(sol.y, one_run.y)

    def test_cold_quota_lp_starts_from_its_policy_free_optimum(self):
        _, _, lp = fig1_support_lp()
        _, _, other = fig1_support_lp(share=0.5)
        one_run, other_one_run = (Session()._run(quota, False) for quota in (lp, other))
        free = apply_equivalence_substitution(held_at_sample(lp),
                                              {lp.row("vre-dispatched"): 0.0})
        session = Session()
        sol = session.solve(lp)
        sample, held, warm = sol.runs
        # after the sample, the LP runs policy-free at the sample's
        # capacities; the warm run restores the target and the capacities
        assert not sample.warm and sample.rows < len(lp.rows)
        assert (held.warm, held.relaxed, held.fixed) == (
            False, ((lp.row("vre-dispatched"), 0.0),), scalar_columns(lp))
        assert held.objective == Session()._run(free, False).objective
        assert (warm.warm, warm.relaxed, warm.fixed) == (True, (), ())
        assert sol.status == "optimal" and not sol.warm_start
        assert sol.objective == pytest.approx(one_run.objective, rel=1e-9)
        assert kkt_passes(sol)
        # the session holds the quota LP: another share is one warm run
        again = session.solve(other)
        assert again.warm_start and len(again.runs) == 1
        assert again.objective == pytest.approx(other_one_run.objective, rel=1e-9)

    def test_lp_with_the_quota_row_free_takes_one_run(self, monkeypatch):
        system, policy, lp = fig1_support_lp()
        sol = solve(lp)
        premium = apply_equivalence_substitution(
            lp, {lp.row("vre-dispatched"): sol.dual("vre-dispatched")})
        sols = [Session().solve(premium)]
        monkeypatch.setattr(sys.modules[check_kkt.__module__], "solve",
                            lambda mirror: sols.append(solve(mirror)) or sols[-1])
        check_subsidy_tax_lift(system, sol, policy)  # solves the quota mirror
        # each: the sample, then the LP at the sample's capacities, then warm;
        # the premium LP's freed quota row stays free, and the mirror's
        # appended row is left free in its held run
        mirror = sols[1].lp.row("vre-dispatched", "mirror")
        assert [(run.warm, run.relaxed, run.status) for each in sols for run in each.runs] \
            == [(False, (), "optimal"), (False, (), "optimal"), (True, (), "optimal"),
                (False, (), "optimal"), (False, ((mirror, 0.0),), "optimal"),
                (True, (), "optimal")]

    def test_cold_cap_lp_starts_from_its_priced_tax_lp(self, desk_system):
        lp = build_lp(desk_system, PolicyConfig(co2=Co2Cap(900.0)))
        tighter = build_lp(desk_system, PolicyConfig(co2=Co2Cap(800.0)))
        one_run = Session()._run(lp, False)
        sample_price = -Session()._run(lp.sampled(SAMPLE_STRIDE), False).dual("co2-cap")
        tax_lp = apply_equivalence_substitution(held_at_sample(lp),
                                                {lp.row("co2-cap"): sample_price})
        tax_objective = Session().solve(tax_lp).objective
        session = Session()
        sol = session.solve(lp)
        sample, priced, warm = sol.runs
        # the sample prices the cap in a model of its own
        assert sample.rows == len(lp.sampled(SAMPLE_STRIDE).rows) < len(lp.rows)
        assert not sample.warm and sample.relaxed == ()
        # the LP runs as the tax LP at that price and the sample's
        # capacities: cap row free, costs raised, capacities held
        cap = lp.row("co2-cap")
        assert (priced.warm, priced.relaxed, priced.fixed) == (
            False, ((cap, sample_price),), scalar_columns(lp))
        assert sample_price > 0.0
        assert Session()._run(lp, False, {cap: sample_price}).x is None
        assert priced.objective == pytest.approx(tax_objective, rel=1e-9)
        # then switches its model to Devex and puts the cap back
        assert (warm.warm, warm.relaxed, warm.fixed, warm.pricing) == (True, (), (), 1)
        assert sol.status == "optimal" and not sol.warm_start
        assert sol.objective == pytest.approx(one_run.objective, rel=1e-9)
        assert kkt_passes(sol)
        # the session holds the cap LP: another cap is one warm run
        again = session.solve(tighter)
        assert again.warm_start and len(again.runs) == 1
        assert again.objective == pytest.approx(Session()._run(tighter, False).objective,
                                                rel=1e-9)

    def test_sample_price_keeps_the_taxed_merit_order(self):
        system = coal_gas_system()
        lp = build_lp(system, PolicyConfig(co2=Co2Cap(0.03 * float(np.sum(system.demand["N"])))))
        sol = Session().solve(lp)
        _, priced, warm = sol.runs
        mu = -sol.dual("co2-cap")
        techs = {tech.name: tech for _, tech in system.technologies}

        def cost(name, price):
            return techs[name].marginal_cost + techs[name].emission_factor * price
        # the tax moves lignite and coal from before gas to after it
        assert max(cost("lignite", 0.0), cost("coal", 0.0)) < cost("ccgt", 0.0)
        assert min(cost("lignite", mu), cost("coal", mu)) > cost("ccgt", mu)
        assert dict(priced.relaxed)[lp.row("co2-cap")] > 0.0
        assert warm.warm and sol.status == "optimal"
        # held unpriced, the capacities leave the warm run to reorder dispatch
        capacities = held_at_sample(lp).columns.lower
        session = Session()
        session._run(lp, False, {lp.row("co2-cap"): 0.0},
                     {i: capacities[i] for i in priced.fixed})
        unpriced = session._run(lp, True)
        assert unpriced.objective == pytest.approx(sol.objective, rel=1e-9)
        assert 3 * warm.iterations < unpriced.iterations

    def test_each_model_is_released_before_the_next_load(self, monkeypatch, desk_system):
        core, models, alive = load_highs(), [], []

        def new_model():
            alive.append([model() is not None for model in models])
            models.append(weakref.ref(highs := core._Highs()))
            return highs
        monkeypatch.setattr(sys.modules[Session.__module__], "load_highs", lambda: SimpleNamespace(
            _Highs=new_model, HighsLp=core.HighsLp, MatrixFormat=core.MatrixFormat))
        sol = Session().solve(build_lp(desk_system, PolicyConfig(co2=Co2Cap(900.0))))
        # models of the sample and of the LP, which the priced run and the
        # warm run share: each finds every model before it released
        assert len(sol.runs) == 3 and alive == [[], [False]]

    def test_cap_and_quota_lp_frees_both_rows(self, desk_system):
        # both rows bind
        policy = PolicyConfig(support=SupportDispatched(("wind",), share=0.62),
                              co2=Co2Cap(1000.0))
        lp = build_lp(desk_system, policy)
        one_run = Session()._run(lp, False)
        sample_price = -Session()._run(lp.sampled(SAMPLE_STRIDE), False).dual("co2-cap")
        sol = Session().solve(lp)
        assert [(run.warm, run.relaxed, run.fixed) for run in sol.runs] == [
            (False, (), ()),
            (False, ((lp.row("co2-cap"), sample_price), (lp.row("vre-dispatched"), 0.0)),
             scalar_columns(lp)),
            (True, (), ())]
        assert sol.dual("co2-cap") < 0.0 < sol.dual("vre-dispatched")
        assert sol.objective == pytest.approx(one_run.objective, rel=1e-9)
        assert kkt_passes(sol)

    @pytest.mark.parametrize("case", ["storage", "infeasible-sample"])
    def test_cap_lp_without_a_sample_price_takes_one_run(self, case):
        if case == "storage":  # a row links two snapshots: no sample
            system = flexible_system(24)
            cap = 0.05 * float(np.sum(system.demand["N"]))
        else:  # the sample's dark hours emit more than the cap, the LP's do not
            system, cap = solar_gas_system(), 110.0
        lp = build_lp(system, PolicyConfig(co2=Co2Cap(cap)))
        one_run = Session()._run(lp, False)
        sol = Session().solve(lp)
        sampled = [] if case == "storage" else [
            (len(lp.sampled(SAMPLE_STRIDE).rows), False, (), (), "infeasible")]
        # without an optimal sample the LP takes one plain run
        assert [(run.rows, run.warm, run.relaxed, run.fixed, run.status)
                for run in sol.runs] == sampled + [(len(lp.rows), False, (), (), "optimal")]
        assert sol.objective == one_run.objective
        assert np.array_equal(sol.x, one_run.x) and np.array_equal(sol.y, one_run.y)

    def test_cap_lp_without_a_sample_price_is_held_with_its_cap_row_free(self):
        # the sample's cap does not bind: the held run leaves the cap row
        # free at μ̂ = 0, and the LP itself then runs warm with the cap back
        lp = build_lp(random_desk_system(0), PolicyConfig(co2=Co2Cap(5000.0)))
        sol = Session().solve(lp)
        assert [(run.rows, run.warm, run.relaxed, run.fixed, run.status)
                for run in sol.runs] == [
            (len(lp.sampled(SAMPLE_STRIDE).rows), False, (), (), "optimal"),
            (len(lp.rows), False, ((lp.row("co2-cap"), 0.0),), scalar_columns(lp), "optimal"),
            (len(lp.rows), True, (), (), "optimal")]
        assert sol.objective == pytest.approx(Session()._run(lp, False).objective, rel=1e-9)
        assert kkt_passes(sol)

    def test_storage_quota_lp_takes_one_plain_run(self):
        # a storage LP has no sample: nothing is held and no row left free
        system = flexible_system(168)
        lp = build_lp(system, PolicyConfig(support=SupportDispatched(("solar",), share=0.5)))
        sol = Session().solve(lp)
        one_run = Session()._run(lp, False)
        assert [(run.warm, run.relaxed, run.fixed, run.status) for run in sol.runs] == [
            (False, (), (), "optimal")]
        assert sol.objective == one_run.objective
        assert np.array_equal(sol.x, one_run.x) and np.array_equal(sol.y, one_run.y)

    def test_priced_start_without_optimum_is_repeated_cold(self):
        # the sampled hours 0 and 11 can be served clean, the others only by
        # the emitting column: the sample prices the cap, the LP is infeasible
        T = 12
        lp = LinearProgram()
        clean, dirty = lp.add_columns("clean", "dirty", count=T, objective=(2.0, 1.0))
        lp.columns.upper[clean] = [1.0] + [0.0] * (T - 2) + [1.0]
        balance = lp.add_rows("balance", count=T, sense="=", rhs=1.0)
        lp.add_entries(balance, clean, 1.0)
        lp.add_entries(balance, dirty, 1.0)
        cap = lp.add_rows("co2-cap", sense="<=", rhs=1.0)
        lp.add_entries(cap, dirty, 1.0)
        sol = Session().solve(lp)
        assert sol.status == "infeasible" and not sol.warm_start
        assert [(run.warm, [row for row, mu in run.relaxed if mu > 0], run.status)
                for run in sol.runs] == [
            (False, [], "optimal"), (False, [cap], "optimal"), (True, [], "infeasible"),
            (False, [], "infeasible")]

    def test_cost_perturbation_spares_the_cleanup(self):
        # one node, 1512 h, a binding CO2 cap, marginal costs 1e-7 apart: at
        # HiGHS' default size the perturbation swamps those offsets, and a
        # primal simplex cleanup follows the dual simplex (one cold run each)
        system = random_desk_system(0, 1512)
        cap = Co2Cap(0.01 * float(np.sum(system.demand["N"])))
        lp = build_lp(system, PolicyConfig(co2=cap))
        sol = Session()._run(lp, False)
        default = linprog_perturbation()._run(lp, False)
        assert sol.dual("co2-cap") < 0.0
        assert sol.objective == default.objective
        assert sol.x.tolist() == default.x.tolist()
        assert sol.y.tolist() == default.y.tolist()
        assert sol.iterations < default.iterations

    def test_warm_solves_price_with_devex(self, desk_system):
        default = load_highs()._Highs().getOptionValue(PRICING)[1]
        assert default != 1
        session = Session()
        cold = session._run(build_lp(desk_system, PolicyConfig(co2=Co2Cap(900.0))), False)
        assert cold.runs[0].pricing == default
        loaded = session._highs
        warm = session.solve(build_lp(desk_system, PolicyConfig(co2=Co2Cap(800.0))))
        assert warm.warm_start and warm.runs[0].pricing == 1
        # the warm solves run in the loaded model
        assert session._highs is loaded
        assert session.solve(build_lp(desk_system, PolicyConfig(co2=Co2Cap(700.0)))) \
            .warm_start
        assert session._highs is loaded
        # the second run of a cold quota LP is a warm run too
        _, _, lp = fig1_support_lp()
        _, _, other = fig1_support_lp(share=0.5)
        first, again = session.solve(lp), session.solve(other)
        assert not first.warm_start and again.warm_start
        assert [(run.warm, run.pricing) for run in (*first.runs, *again.runs)] == [
            (False, default), (False, default), (True, 1), (True, 1)]

    def test_pricing_switch_in_place_matches_a_new_devex_model(self, desk_system):
        lp = build_lp(desk_system, PolicyConfig(co2=Co2Cap(900.0)))
        session = Session()
        cap = session._run(lp, False)
        basis = session._highs.getBasis()
        tax_lp = apply_equivalence_substitution(lp, {lp.row("co2-cap"): -cap.dual("co2-cap")})
        warm = session._run(tax_lp, True)

        def from_basis(pricing):
            """Iterations, x and y of the tax LP in a new model with
            ``pricing``, run from the cap LP's optimal basis."""
            fresh = Session()
            fresh.options.append((PRICING, pricing))
            fresh._load(tax_lp)
            highs = fresh._highs
            highs.setBasis(basis)
            highs.run()
            solution = highs.getSolution()
            return (int(highs.getInfo().simplex_iteration_count), np.array(solution.col_value),
                    np.array(solution.row_dual)[fresh._highs_row])
        iterations, x, y = from_basis(1)
        assert warm.status == "optimal" and warm.runs[0].pricing == 1
        assert warm.iterations == iterations
        assert np.array_equal(warm.x, x) and np.array_equal(warm.y, y)
        # HiGHS' default pricing takes another path from the same basis
        default = load_highs()._Highs().getOptionValue(PRICING)[1]
        assert from_basis(default)[0] != iterations

    def test_warm_chain_matches_cold_solves(self):
        system = random_desk_system(0, 1512)
        demand = float(np.sum(system.demand["N"]))
        session = Session()
        for intensity in (0.005, 0.01, 0.02, 0.03):
            lp = build_lp(system, PolicyConfig(co2=Co2Cap(intensity * demand)))
            warm = session.solve(lp)
            cold = Session().solve(lp)
            assert warm.warm_start == (intensity > 0.005) and not cold.warm_start
            assert warm.dual("co2-cap") < 0.0
            assert warm.objective == pytest.approx(cold.objective, rel=1e-12)
            assert kkt_passes(warm)
        assert warm.runs[-1].pricing == 1

    def test_wall_time_covers_the_handoff(self, monkeypatch, desk_system):
        def slow(self, _switch_pricing=Session._switch_pricing):
            time.sleep(0.05)
            _switch_pricing(self)
        monkeypatch.setattr(Session, "_switch_pricing", slow)
        session = Session()
        session._run(build_lp(desk_system, PolicyConfig(co2=Co2Cap(900.0))), False)
        sol = session.solve(build_lp(desk_system, PolicyConfig(co2=Co2Cap(800.0))))
        assert sol.warm_start and sol.wall_time >= 0.05

    def test_wall_time_covers_the_sample(self, monkeypatch, desk_system):
        def slow(self, stride, _sampled=LinearProgram.sampled):
            time.sleep(0.05)
            return _sampled(self, stride)
        monkeypatch.setattr(LinearProgram, "sampled", slow)
        sol = Session().solve(build_lp(desk_system, PolicyConfig(co2=Co2Cap(900.0))))
        assert len(sol.runs) == 3 and sol.runs[0].wall_time >= 0.05

    def test_infeasible_quota_counts_every_run(self):
        _, _, lp = fig1_support_lp(share=0.9, max_potential=10.0)
        sol = Session().solve(lp)
        assert sol.status == "infeasible" and not sol.warm_start
        # the sample cannot meet the quota either, so the LP takes one plain run
        assert [(run.warm, bool(run.relaxed), bool(run.fixed), run.status)
                for run in sol.runs] == [
            (False, False, False, "infeasible"), (False, False, False, "infeasible")]
