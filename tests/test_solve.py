import inspect
import re
import sys

import numpy as np
import pytest

from powermarket.formulate import LinearProgram, apply_equivalence_substitution, build_lp
from powermarket.model import Co2Cap, LineSpec, PolicyConfig, PowerSystem, TechnologySpec
from powermarket.scenario import load_scenario
from powermarket.solve import (
    Session,
    SolveError,
    load_highs,
    solve,
    solve_external,
    status_of,
    write_solution_file,
)
from powermarket.verify import reduced_costs, verify_solution

from conftest import random_desk_system, scenario_path, solar_gas_system

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
        lp = build_lp(one_tech_two_hours(), PolicyConfig.none())
        sol = solve(lp)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(11_500.0)
        assert sol.price("N", 0) == pytest.approx(110.0)
        assert sol.price("N", 1) == pytest.approx(10.0)

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
        assert reduced_costs(lp, sol)[y] == pytest.approx(2.0)
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
        lp = build_lp(one_tech_two_hours(), PolicyConfig.none())
        sol = solve(lp)
        path = tmp_path / "model.sol"
        write_solution_file(sol, path)
        back = solve_external(lp, path)
        assert back.objective == pytest.approx(sol.objective, rel=1e-12)
        assert back.x.tolist() == sol.x.tolist()
        assert back.y.tolist() == sol.y.tolist()

    def test_unknown_column_is_rejected(self, tmp_path):
        lp = build_lp(one_tech_two_hours(), PolicyConfig.none())
        path = tmp_path / "bad.sol"
        path.write_text("status optimal\ncol g.phantom.t0 1.0\n")
        with pytest.raises(SolveError, match="unmatched tag"):
            solve_external(lp, path)

    def test_missing_duals_are_rejected(self, tmp_path):
        lp = build_lp(one_tech_two_hours(), PolicyConfig.none())
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
        lp = build_lp(system, PolicyConfig.none())
        path = tmp_path / "line.sol"
        write_solution_file(solve(lp), path)
        ext = solve_external(lp, path)
        results = verify_solution(system, lp, ext, PolicyConfig.none())
        assert [(r.check, r.entity) for r in results if r.verdict != "pass"] == []
        rent = next(r for r in results if r.check == "zero-profit-line")
        assert rent.detail["lower_bound_rent"] == pytest.approx(4.0 * 50.0)

    def test_external_duals_feed_the_checks(self, tmp_path, desk_system):
        from powermarket.verify import check_kkt

        lp = build_lp(desk_system, PolicyConfig.none())
        sol = solve(lp)
        path = tmp_path / "ext.sol"
        write_solution_file(sol, path)
        ext = solve_external(lp, path)
        assert check_kkt(lp, ext).passed


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


class TestHighsBindings:
    """``solve`` drives scipy's private HiGHS class; these tests pin it."""

    def test_every_method_solve_uses_exists(self):
        core = load_highs()
        source = inspect.getsource(sys.modules[Session.__module__])
        methods = set(re.findall(r"highs\.(\w+)\(", source))
        assert {"passModel", "run", "changeColsCost", "changeRowBounds"} <= methods
        for name in methods:
            assert callable(getattr(core._Highs, name)), name
        for name in set(re.findall(r"(?:\bcore|load_highs\(\))\.(\w+)", source)):
            assert hasattr(core, name), name

    def test_options_are_known(self):
        highs = load_highs()._Highs()
        for name, value in Session().options:
            assert highs.setOptionValue(name, value) == load_highs().HighsStatus.kOk, name

    @pytest.mark.parametrize("name", BUNDLED)
    def test_solve_matches_linprog(self, name):
        system, policy, options = load_scenario(scenario_path(f"{name}.json"))
        lp = build_lp(system, policy, enforce_kvl=options.get("kvl", False))
        res, y = linprog_reference(lp)
        sol = solve(lp)
        assert sol.status == "optimal" and not sol.warm_start
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
        sol = session.solve(build_lp(desk_system, PolicyConfig.none()))
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


class TestSession:
    def test_rejected_lp_raises_and_the_next_one_loads_cold(self):
        from test_cli import run_fresh

        assert run_fresh(NAN_RHS_PROBE) == [
            "HiGHS passModel returned an error", ["optimal", False],
            "HiGHS changeRowBounds returned an error", ["optimal", False]]

    def test_tax_lp_resolves_warm_from_the_cap_basis(self, desk_system):
        lp = build_lp(desk_system, PolicyConfig(co2=Co2Cap(900.0)))
        sol = solve(lp)
        tax_lp = apply_equivalence_substitution(lp, "co2-cap", -sol.dual("co2-cap"))
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

    def test_other_matrix_or_failed_solve_starts_cold(self, desk_system):
        session = Session()
        session.solve(build_lp(desk_system, PolicyConfig(co2=Co2Cap(900.0))))
        # the LP without the cap row has another shape
        assert not session.solve(build_lp(desk_system, PolicyConfig.none())).warm_start
        other = random_desk_system(0, snapshots=24)
        assert not session.solve(build_lp(other, PolicyConfig.none())).warm_start
        lp = LinearProgram()
        x = lp.add_columns("x", lower=0.0, upper=1.0, objective=1.0)
        need = lp.add_rows("need", sense=">=", rhs=5.0)
        lp.add_entries(need, x, 1.0)
        assert session.solve(lp).status == "infeasible"
        lp.rows.rhs[need] = 0.5
        sol = session.solve(lp)
        assert sol.status == "optimal" and not sol.warm_start

    def test_warm_solve_without_optimum_is_repeated_cold(self, monkeypatch):
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
        runs = []

        def recording(self, lp, warm, _run=Session._run):
            sol = _run(self, lp, warm)
            runs.append((sol.warm_start, sol.iterations, sol.wall_time))
            return sol
        monkeypatch.setattr(Session, "_run", recording)
        system = solar_gas_system()
        session = Session()
        assert session.solve(build_lp(system, PolicyConfig(co2=Co2Cap(1e9)))).status \
            == "optimal"
        sol = session.solve(build_lp(system, PolicyConfig(co2=Co2Cap(100.0))))
        assert sol.status == "infeasible" and not sol.warm_start
        _, warm, cold = runs
        assert warm[0] and not cold[0] and warm[1] > 0
        assert sol.iterations == warm[1] + cold[1]
        assert sol.wall_time == pytest.approx(warm[2] + cold[2], rel=1e-12)
