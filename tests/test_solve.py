import pytest

from powermarket.formulate import LinearProgram, build_lp
from powermarket.model import LineSpec, PolicyConfig, PowerSystem, TechnologySpec
from powermarket.solve import (
    SolveError,
    solve,
    solve_external,
    write_solution_file,
)
from powermarket.verify import reduced_costs, verify_solution


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
