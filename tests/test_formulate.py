import numpy as np
import pytest

from powermarket.formulate import (
    FormulationError,
    apply_equivalence_substitution,
    build_lp,
    cycle_basis,
    write_mps,
)
from powermarket.model import (
    Co2Cap,
    Co2Tax,
    LineSpec,
    PolicyConfig,
    PowerSystem,
    StorageSpec,
    SupportDispatched,
    TechnologySpec,
)

from conftest import assert_highs_reads, flexible_system, random_desk_system


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
        lp = build_lp(system, PolicyConfig.none())
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
        lp_none = build_lp(system, PolicyConfig.none())
        lp_tax = build_lp(system, PolicyConfig(co2=Co2Tax(50.0)))
        assert not lp_tax.has_row("co2-cap")
        o_none = lp_none.columns.objective[lp_none.col("g", "gas@N")][0]
        o_tax = lp_tax.columns.objective[lp_tax.col("g", "gas@N")][0]
        assert o_tax - o_none == pytest.approx(0.4 * 50.0)

    def test_invalid_system_raises_with_diagnostics(self):
        system = PowerSystem(nodes=("N",), snapshots=2, demand={},
                             technologies=())
        with pytest.raises(FormulationError, match="demand"):
            build_lp(system, PolicyConfig.none())

    def test_kvl_needs_reactance(self):
        gas = TechnologySpec(name="gas", capex=10.0, lifetime=1.0)
        lines = (LineSpec("A", "B", existing_capacity=10.0),
                 LineSpec("B", "C", existing_capacity=10.0),
                 LineSpec("A", "C", existing_capacity=10.0))
        system = PowerSystem(nodes=("A", "B", "C"), snapshots=1,
                             demand={"A": (1.0,), "B": (1.0,), "C": (1.0,)},
                             technologies=(("A", gas),), lines=lines)
        with pytest.raises(FormulationError, match="reactance"):
            build_lp(system, PolicyConfig.none(), enforce_kvl=True)


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
    def test_cap_row_becomes_objective_shift(self):
        # gas with e=0.4 and o=90 under mu=50 gets an effective o of 110
        gas = TechnologySpec(name="gas", capex=100.0, lifetime=1.0,
                             variable_cost=90.0, emission_factor=0.4)
        system = PowerSystem(nodes=("N",), snapshots=2,
                             demand={"N": (10.0, 10.0)},
                             technologies=(("N", gas),), discount_rate=0.0)
        lp = build_lp(system, PolicyConfig(co2=Co2Cap(5.0)))
        sub = apply_equivalence_substitution(lp, "co2-cap", 50.0)
        # the cap row is freed in place: same rows and matrix, rhs +inf
        assert sub.row_index == lp.row_index
        assert sub.rows.rhs[sub.row("co2-cap")] == float("inf")
        assert np.array_equal(np.delete(sub.rows.rhs, sub.row("co2-cap")),
                              np.delete(lp.rows.rhs, lp.row("co2-cap")))
        assert np.array_equal(sub.entries.value, lp.entries.value)
        assert sub.columns.objective[sub.col("g", "gas@N")][0] == pytest.approx(110.0)
        # original LP untouched
        assert lp.rows.rhs[lp.row("co2-cap")] == 5.0
        assert lp.columns.objective[lp.col("g", "gas@N")][0] == pytest.approx(90.0)


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
        lp = build_lp(system, PolicyConfig.none())
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

        lp = build_lp(system, PolicyConfig.none())
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
        lp = build_lp(system, PolicyConfig.none())
        f0 = lp.col("f", "L0").start
        assert lp.columns.lower[f0] == float("-inf") and lp.columns.upper[f0] == float("inf")
        assert lp.columns.lower[lp.col("F", "L0")] == 5.0
        path = tmp_path / "net.mps"
        write_mps(lp, path)
        assert_highs_reads(path, lp)
