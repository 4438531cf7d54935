from dataclasses import replace

import numpy as np
import pytest

from powermarket.formulate import (
    FormulationError,
    LinearProgram,
    apply_equivalence_substitution,
    build_lp,
    cycle_basis,
    relax,
    write_mps,
)
from powermarket.model import (
    Co2Cap,
    Co2Tax,
    LineSpec,
    PolicyConfig,
    PowerSystem,
    StorageSpec,
    SupportAvailable,
    SupportDispatched,
    TechnologySpec,
    Violation,
    validate,
)

from powermarket.scenario import load_scenario
from powermarket.solve import SAMPLE_STRIDE, Session

from conftest import assert_highs_reads, flexible_system, random_desk_system, scenario_path


def simple_system(snapshots=4):
    gas = TechnologySpec(name="gas", capex=100.0, lifetime=1.0,
                         variable_cost=10.0, emission_factor=0.4)
    return PowerSystem(nodes=("N",), snapshots=snapshots,
                       demand={"N": tuple([50.0] * snapshots)},
                       technologies=(("N", gas),), discount_rate=0.0)


def one_snapshot_storage(eta_standing: float) -> PowerSystem:
    gas = TechnologySpec(name="gas", capex=5.0, lifetime=1.0, variable_cost=2.0)
    battery = StorageSpec(name="bat", capex_discharge=1.0, capex_energy=1.0, lifetime=1.0,
                          eta_charge=0.9, eta_standing=eta_standing)
    return PowerSystem(nodes=("N",), snapshots=1, demand={"N": (3.0,)},
                       technologies=(("N", gas),), storages=(("N", battery),))


class TestBuildLp:
    def test_row_and_column_counts(self):
        system = simple_system(4)
        lp = build_lp(system, PolicyConfig())
        # columns: 1 capacity + 4 dispatch + 4 shedding
        assert len(lp.columns) == 9
        # rows: 4 balance + 4 dispatch-capacity links
        assert len(lp.rows) == 8

    def test_policy_rows_present(self):
        system = random_desk_system(0)
        policy = PolicyConfig(support=SupportDispatched(("wind",), share=0.3),
                              co2=Co2Cap(100.0))
        lp = build_lp(system, policy)
        assert lp.has_row("vre-dispatched")
        assert lp.has_row("co2-cap")
        assert lp.rows.sense[lp.row("vre-dispatched")] == ">="
        assert lp.rows.sense[lp.row("co2-cap")] == "<="

    def test_tax_shifts_objective_not_rows(self):
        system = simple_system()
        lp_none = build_lp(system, PolicyConfig())
        lp_tax = build_lp(system, PolicyConfig(co2=Co2Tax(50.0)))
        assert not lp_tax.has_row("co2-cap")
        o_none = lp_none.columns.objective[lp_none.col("g", "gas@N")][0]
        o_tax = lp_tax.columns.objective[lp_tax.col("g", "gas@N")][0]
        assert o_tax - o_none == pytest.approx(0.4 * 50.0)

    def test_potential_bounds_capacity_not_rows(self):
        system = simple_system()
        gas = replace(system.technologies[0][1], max_potential=30.0)
        lp = build_lp(replace(system, technologies=(("N", gas),)), PolicyConfig())
        unbounded = build_lp(system, PolicyConfig())
        assert lp.columns.upper[lp.col("G", "gas@N")] == 30.0
        assert unbounded.columns.upper[unbounded.col("G", "gas@N")] == np.inf
        assert lp.row_index == unbounded.row_index

    def test_invalid_system_raises_with_diagnostics(self):
        system = PowerSystem(nodes=("N",), snapshots=2, demand={},
                             technologies=())
        with pytest.raises(FormulationError, match="demand"):
            build_lp(system, PolicyConfig())

    def test_kvl_needs_reactance(self):
        gas = TechnologySpec(name="gas", capex=10.0, lifetime=1.0)
        lines = (LineSpec("A", "B", existing_capacity=10.0, reactance=0.1),
                 LineSpec("B", "C", existing_capacity=10.0),
                 LineSpec("A", "C", existing_capacity=10.0, reactance=0.1))
        system = PowerSystem(nodes=("A", "B", "C"), snapshots=1,
                             demand={"A": (1.0,), "B": (1.0,), "C": (1.0,)},
                             technologies=(("A", gas),), lines=lines, kvl=True)
        assert validate(system, PolicyConfig()) == [
            Violation("B+C", "reactance", "kvl needs a reactance on every line")]
        with pytest.raises(FormulationError, match="B\\+C: reactance"):
            build_lp(system, PolicyConfig())
        # without the voltage law the reactance is not needed
        assert validate(replace(system, kvl=False), PolicyConfig()) == []

    @pytest.mark.parametrize("family, quota, share", [
        ("vre-dispatched", SupportDispatched, 0.9), ("vre-available", SupportAvailable, 1.0)])
    def test_quota_target_is_its_share_of_demand(self, family, quota, share):
        # an absolute target in MWh gives the LP, and the price, of its share
        system, _, _ = load_scenario(scenario_path("wind_gas_168h.json"))
        target = share * system.total_demand()
        a, b = (build_lp(system, PolicyConfig(support=support))
                for support in (quota(("wind",), share=share), quota(("wind",), target=target)))
        assert a.col_index == b.col_index and a.row_index == b.row_index
        for table in ("columns", "rows", "entries"):
            ta, tb = getattr(a, table), getattr(b, table)
            for name in ta.defaults:
                assert np.array_equal(getattr(ta, name), getattr(tb, name)), (table, name)
        mus = [Session().solve(lp).dual(family) for lp in (a, b)]
        assert mus[0] > 0.0 and mus[0] == mus[1]


def bounded_lp() -> LinearProgram:
    """Columns x in [-inf, 5] and y in [0, 1] covering one >= row."""
    lp = LinearProgram()
    x, y = lp.add_columns("x", "y", lower=(-np.inf, 0.0), upper=(5.0, 1.0),
                          objective=(-1.0, 1.0))
    lp.add_entries(lp.add_rows("cover", sense=">=", rhs=1.0), (x, y), 1.0)
    return lp


class TestLinearProgramGuards:
    @pytest.mark.parametrize("spoil, message", [
        (lambda lp: lp.add_columns("x"), "duplicate block 'x'"),
        (lambda lp: lp.add_rows("r", sense="<"), "bad sense '<'"),
        (lambda lp: lp.add_entries(0, 2, 1.0), "entry references missing row or column"),
        (lambda lp: lp.add_columns("z", lower=2.0, upper=1.0),
         "column 'z' has lower > upper")],
        ids=["duplicate-block", "bad-sense", "entry-outside", "lower-above-upper"])
    def test_malformed_lp_is_rejected(self, spoil, message):
        lp = bounded_lp()
        lp.validate_structure()
        with pytest.raises(FormulationError, match=f"^{message}$"):
            spoil(lp)
            lp.validate_structure()


class TestCycleBasis:
    @staticmethod
    def assert_closed(lines, cycle):
        """Walking the signed edges of a cycle must return to the start."""
        nodes = sorted({l.from_node for l in lines} | {l.to_node for l in lines})
        idx = {n: i for i, n in enumerate(nodes)}
        net = np.zeros(len(nodes))
        for li, sign in cycle.items():
            net[idx[lines[li].to_node]] += sign
            net[idx[lines[li].from_node]] -= sign
        assert np.abs(net).max() == 0

    def test_triangle(self):
        lines = (LineSpec("A", "B"), LineSpec("B", "C"), LineSpec("A", "C"))
        cycles = cycle_basis(lines)
        assert len(cycles) == 1
        assert set(cycles[0]) == {0, 1, 2}
        self.assert_closed(lines, cycles[0])

    def test_two_triangles_share_an_edge(self):
        lines = (LineSpec("A", "B"), LineSpec("B", "C"), LineSpec("A", "C"),
                 LineSpec("C", "D"), LineSpec("B", "D"))
        cycles = cycle_basis(lines)
        assert len(cycles) == 2
        for cyc in cycles:
            self.assert_closed(lines, cyc)

    def test_tree_has_no_cycles(self):
        lines = (LineSpec("A", "B"), LineSpec("B", "C"), LineSpec("B", "D"))
        assert cycle_basis(lines) == []

    def test_parallel_lines_form_a_cycle(self):
        lines = (LineSpec("A", "B"), LineSpec("A", "B"))
        cycles = cycle_basis(lines)
        assert len(cycles) == 1
        self.assert_closed(lines, cycles[0])


class TestEquivalenceSubstitution:
    @staticmethod
    def policy_lp():
        """Gas (e=0.4, o=90) and wind (o=1) under a CO2 cap, a ``<=`` row,
        and a dispatched wind quota, a ``>=`` row."""
        gas = TechnologySpec(name="gas", capex=100.0, lifetime=1.0,
                             variable_cost=90.0, emission_factor=0.4)
        wind = TechnologySpec(name="wind", capex=50.0, lifetime=1.0, variable_cost=1.0,
                              availability=(0.2, 0.8))
        system = PowerSystem(nodes=("N",), snapshots=2,
                             demand={"N": (10.0, 10.0)},
                             technologies=(("N", gas), ("N", wind)), discount_rate=0.0)
        return build_lp(system, PolicyConfig(support=SupportDispatched(("wind",), share=0.5),
                                             co2=Co2Cap(5.0)))

    @staticmethod
    def assert_relaxed(lp, prices: dict, gas: float, wind: float) -> None:
        """``lp`` relaxed at ``prices`` has dispatch costs ``gas`` and
        ``wind``, the rows of ``prices`` free and otherwise the arrays of
        ``lp``, which is left untouched."""
        before = lp.copy()
        sub = apply_equivalence_substitution(lp, prices)
        # the rows are freed in place: same rows and matrix
        assert sub.row_index == lp.row_index and sub.col_index == lp.col_index
        assert np.array_equal(sub.rows.sense, lp.rows.sense)
        for name in ("row", "col", "value"):
            assert np.array_equal(getattr(sub.entries, name), getattr(lp.entries, name))
        rhs = lp.rows.rhs.copy()
        for row in prices:
            rhs[row] = np.inf if lp.rows.sense[row] == "<=" else -np.inf
        assert np.array_equal(sub.rows.rhs, rhs)
        g_gas, g_wind = lp.col("g", "gas@N"), lp.col("g", "wind@N")
        assert sub.columns.objective[g_gas] == pytest.approx([gas, gas])
        assert sub.columns.objective[g_wind] == pytest.approx([wind, wind])
        others = np.ones(len(lp.columns), dtype=bool)
        others[g_gas] = others[g_wind] = False
        assert np.array_equal(sub.columns.objective[others], lp.columns.objective[others])
        # original LP untouched
        assert np.array_equal(lp.rows.rhs, before.rows.rhs)
        assert np.array_equal(lp.columns.objective, before.columns.objective)

    def test_cap_row_becomes_objective_shift(self):
        # gas with e=0.4 and o=90 under mu=50 gets an effective o of 110
        lp = self.policy_lp()
        assert lp.rows.rhs[lp.row("co2-cap")] == 5.0
        self.assert_relaxed(lp, {lp.row("co2-cap"): 50.0}, gas=110.0, wind=1.0)

    def test_quota_row_becomes_premium(self):
        # wind with o=1 under mu=7 gets an effective o of -6, alone and
        # with the cap relaxed in the same call
        lp = self.policy_lp()
        quota, cap = lp.row("vre-dispatched"), lp.row("co2-cap")
        self.assert_relaxed(lp, {quota: 7.0}, gas=90.0, wind=-6.0)
        self.assert_relaxed(lp, {cap: 50.0, quota: 7.0}, gas=110.0, wind=-6.0)

    def test_equality_row_cannot_be_relaxed(self):
        lp = self.policy_lp()
        balance = lp.row("balance", "N").start
        with pytest.raises(FormulationError, match="equality row 'balance.N.t0'"):
            relax(lp, {balance: 1.0})
        with pytest.raises(FormulationError):
            apply_equivalence_substitution(lp, {lp.row("co2-cap"): 50.0, balance: 0.0})

    @pytest.mark.parametrize("family, policy", [
        ("co2-cap", PolicyConfig(co2=Co2Cap(855.558))),
        ("vre-dispatched", PolicyConfig(support=SupportDispatched(("wind",), share=0.9))),
        ("vre-available", PolicyConfig(support=SupportAvailable(("wind",), share=1.0)))],
        ids=["co2-cap", "vre-dispatched", "vre-available"])
    def test_relaxed_objective_is_the_lagrangian(self, family, policy):
        # at the row's shadow price μ the relaxed LP's optimum is z + μ·b for
        # a binding <= row and z - μ·b for a binding >= row
        system, _, _ = load_scenario(scenario_path("wind_gas_168h.json"))
        lp = build_lp(system, policy)
        sol = Session().solve(lp)
        row = lp.row(family)
        sign = 1.0 if lp.rows.sense[row] == "<=" else -1.0
        mu = -sign * sol.dual(family)
        assert sol.status == "optimal" and mu > 0.0
        if family == "vre-available":
            assert mu == pytest.approx(3.237, abs=1e-3)
        relaxed = sol.session.solve(apply_equivalence_substitution(lp, {row: mu}))
        assert relaxed.status == "optimal" and relaxed.warm_start
        assert relaxed.objective == pytest.approx(
            sol.objective + sign * mu * lp.rows.rhs[row], rel=1e-9)


def dense(lp) -> np.ndarray:
    A = np.zeros((len(lp.rows), len(lp.columns)))
    np.add.at(A, (lp.entries.row, lp.entries.col), lp.entries.value)
    return A


def sampled_positions(index: dict, sample_index: dict, stride: int, n: int) -> np.ndarray:
    """Position in the LP of each position of its sample, block by block."""
    where = np.full(n, -1)
    for key, idx in index.items():
        kept = np.arange(idx.start, idx.stop, idx.step)[::stride] \
            if isinstance(idx, slice) else idx
        where[sample_index[key]] = kept
    return where


class TestSampled:
    @staticmethod
    def policy_lp(snapshots: int = 10) -> tuple:
        """Two nodes joined by a fixed line (interleaved row blocks), wind with
        a potential limit, a dispatched wind quota and a CO2 cap."""
        base = random_desk_system(0, snapshots)
        techs = tuple(("A", replace(spec, max_potential=500.0) if spec.name == "wind"
                       else spec) for _, spec in base.technologies)
        system = PowerSystem(nodes=("A", "B"), snapshots=snapshots,
                             demand={"A": base.demand["N"], "B": base.demand["N"]},
                             technologies=techs + (("B", techs[3][1]),),
                             lines=(LineSpec("A", "B", existing_capacity=30.0),))
        policy = PolicyConfig(support=SupportDispatched(("wind",), share=0.3),
                              co2=Co2Cap(1000.0))
        return system, build_lp(system, policy)

    def test_stride_one_gives_the_lps_own_arrays(self):
        _, lp = self.policy_lp()
        sample = lp.sampled(1)
        assert sample.col_index == lp.col_index and sample.row_index == lp.row_index
        for table in ("columns", "rows", "entries"):
            for name in getattr(lp, table).defaults:
                assert np.array_equal(getattr(getattr(sample, table), name),
                                      getattr(getattr(lp, table), name)), (table, name)

    def test_snapshot_terms_are_weighted(self):
        T, stride = 10, 3
        _, lp = self.policy_lp(T)
        sample = lp.sampled(stride)
        weight = T / 4  # snapshots 0, 3, 6 and 9
        assert set(sample.col_index) == set(lp.col_index)
        assert set(sample.row_index) == set(lp.row_index)
        cols = sampled_positions(lp.col_index, sample.col_index, stride, len(sample.columns))
        rows = sampled_positions(lp.row_index, sample.row_index, stride, len(sample.rows))
        assert cols.min() >= 0 and rows.min() >= 0
        snapshot_col = np.zeros(len(lp.columns), bool)
        for idx in lp.col_index.values():
            snapshot_col[idx] = isinstance(idx, slice)
        snapshot_row = np.zeros(len(lp.rows), bool)
        for idx in lp.row_index.values():
            snapshot_row[idx] = isinstance(idx, slice)
        # costs of per-snapshot columns only; bounds, senses and rhs as they are
        cost = np.where(snapshot_col[cols], weight, 1.0) * lp.columns.objective[cols]
        assert np.array_equal(sample.columns.objective, cost)
        assert np.array_equal(sample.columns.lower, lp.columns.lower[cols])
        assert np.array_equal(sample.columns.upper, lp.columns.upper[cols])
        assert np.array_equal(sample.rows.sense, lp.rows.sense[rows])
        assert np.array_equal(sample.rows.rhs, lp.rows.rhs[rows])
        # entries of scalar rows in per-snapshot columns only
        scale = np.where(~snapshot_row[rows][:, None] & snapshot_col[cols][None, :],
                         weight, 1.0)
        assert np.array_equal(dense(sample), scale * dense(lp)[np.ix_(rows, cols)])
        # which are those of the cap and the quota row
        weighted = (scale != 1.0) & (dense(sample) != 0.0)
        assert {lp.row_names()[r] for r in rows[weighted.any(axis=1)]} == {
            "co2-cap", "vre-dispatched"}

    def test_storage_lp_has_no_sample(self):
        system = flexible_system(6)
        lp = build_lp(system, PolicyConfig(co2=Co2Cap(100.0)))
        assert lp.sampled(3) is None and lp.sampled(1) is None

    def test_sample_prices_the_cap(self):
        # a cap binding at 1512 h, fixed before the ratio was looked at
        system = random_desk_system(0, 1512)
        cap = Co2Cap(0.01 * float(np.sum(system.demand["N"])))
        lp = build_lp(system, PolicyConfig(co2=cap))
        sample = lp.sampled(SAMPLE_STRIDE)
        assert sample.rows.sense[sample.row("co2-cap")] == "<="
        assert sample.rows.rhs[sample.row("co2-cap")] == cap.cap
        mu = -Session()._run(lp, False).dual("co2-cap")
        estimate = -Session()._run(sample, False).dual("co2-cap")
        assert mu > 0.0
        assert 0.5 <= estimate / mu <= 2.0


class TestMpsRoundTrip:
    def test_identity_round_trip(self, tmp_path, desk_system):
        policy = PolicyConfig(support=SupportDispatched(("wind",), share=0.4),
                              co2=Co2Cap(1234.5))
        # its solar availabilities hold five entries of about 1e-16
        lp = build_lp(desk_system, policy)
        path = tmp_path / "model.mps"
        write_mps(lp, path)
        assert_highs_reads(path, lp)

    @pytest.mark.parametrize("system", [one_snapshot_storage(1.0), flexible_system(6)],
                             ids=["one-snapshot-lossless", "flexible-6h"])
    def test_highs_reads_every_block(self, tmp_path, system):
        """Interleaved storage blocks, and the summed 0.0 entry of a
        one-snapshot storage, which HiGHS drops."""
        lp = build_lp(system, PolicyConfig())
        write_mps(lp, tmp_path / "model.mps")
        assert_highs_reads(tmp_path / "model.mps", lp)

    @pytest.mark.parametrize("system", [
        one_snapshot_storage(1.0), one_snapshot_storage(0.99), flexible_system(6)],
        ids=["one-snapshot-lossless", "one-snapshot-lossy", "flexible-6h"])
    def test_columns_section_matches_a_csc_reference(self, tmp_path, system):
        """Entries in CSC order, duplicates summed.  The state-of-charge row of
        a one-snapshot cyclic storage holds its energy column twice; the sum
        is written even when it is 0.0, as CSC keeps it."""
        from scipy import sparse

        lp = build_lp(system, PolicyConfig())
        write_mps(lp, tmp_path / "model.mps")
        text = (tmp_path / "model.mps").read_text()
        written = text[text.index("COLUMNS\n") + 8:text.index("RHS\n")].splitlines()
        e = lp.entries
        A = sparse.csr_matrix((e.value, (e.row, e.col)),
                              shape=(len(lp.rows), len(lp.columns))).tocsc()
        A.sort_indices()
        rows = lp.row_names()
        expected = []
        for j, (name, obj) in enumerate(zip(lp.col_names(), lp.columns.objective.tolist())):
            if obj != 0.0:
                expected.append(f" {name} COST {obj!r}")
            span = slice(A.indptr[j], A.indptr[j + 1])
            expected += [f" {name} {rows[i]} {v!r}"
                         for i, v in zip(A.indices[span].tolist(), A.data[span].tolist())]
        assert written == expected

    def test_free_and_bounded_columns_survive(self, tmp_path):
        gas = TechnologySpec(name="gas", capex=10.0, lifetime=1.0)
        lines = (LineSpec("A", "B", existing_capacity=5.0, expandable=True, capex=1.0),)
        system = PowerSystem(nodes=("A", "B"), snapshots=2,
                             demand={"A": (1.0, 2.0), "B": (3.0, 4.0)},
                             technologies=(("A", gas),), lines=lines)
        lp = build_lp(system, PolicyConfig())
        f0 = lp.col("f", "L0").start
        assert lp.columns.lower[f0] == float("-inf") and lp.columns.upper[f0] == float("inf")
        assert lp.columns.lower[lp.col("F", "L0")] == 5.0
        path = tmp_path / "net.mps"
        write_mps(lp, path)
        assert_highs_reads(path, lp)

    def test_upper_and_minus_infinite_bounds_survive(self, tmp_path):
        lp = bounded_lp()
        path = tmp_path / "bounds.mps"
        write_mps(lp, path)
        bounds = path.read_text().split("BOUNDS\n")[1].splitlines()
        assert bounds == [" MI BND x", " UP BND x 5.0", " UP BND y 1.0", "ENDATA"]
        assert_highs_reads(path, lp)
