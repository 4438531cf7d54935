import json

import pytest

import powermarket.sweep
from powermarket.sweep import (
    CHAIN_POINTS,
    SweepPlan,
    chains_of,
    run_sweep,
    sweep_csv_text,
    sweep_manifest,
)

from conftest import solar_gas_system, two_tech_system


@pytest.fixture(scope="module")
def support_plan():
    return SweepPlan(system=two_tech_system(), axis="support_share",
                     values=(0.2, 0.5, 0.8, 0.95),
                     policy_set=("wind",), name="t")


class TestPlanValidation:
    def test_unknown_axis(self):
        with pytest.raises(ValueError, match="axis"):
            SweepPlan(system=two_tech_system(), axis="voll", values=(1.0,))

    def test_unsorted_values(self):
        with pytest.raises(ValueError, match="sorted"):
            SweepPlan(system=two_tech_system(), axis="co2_tax",
                      values=(2.0, 1.0))

    def test_support_axis_needs_policy_set(self):
        with pytest.raises(ValueError, match="policy_set"):
            SweepPlan(system=two_tech_system(), axis="support_share",
                      values=(0.1,))

    def test_intensity_converts_to_absolute_cap(self):
        system = two_tech_system()
        plan = SweepPlan(system=system, axis="co2_intensity", values=(0.1,))
        policy = plan.policy_at(0.1)
        assert policy.co2.cap == pytest.approx(0.1 * system.total_demand())


class TestRunSweep:
    def test_single_point_no_policy(self):
        plan = SweepPlan(system=two_tech_system(), axis="support_share",
                         values=(0.0,), policy_set=("wind",))
        result = run_sweep(plan)
        point = result.points[0]
        assert point.status == "optimal" and point.verdict == "pass"
        assert point.report.mu_gamma is None

    def test_parallel_and_serial_are_byte_identical(self, support_plan):
        r1 = run_sweep(support_plan, parallelism=1)
        r4 = run_sweep(support_plan, parallelism=4)
        assert sweep_csv_text(support_plan, r1) == sweep_csv_text(support_plan, r4)

    def test_points_in_axis_order_and_verified(self, support_plan):
        result = run_sweep(support_plan, parallelism=4)
        assert [p.value for p in result.points] == list(support_plan.values)
        assert result.all_verified

    def test_infeasible_tail_is_recorded_not_fatal(self):
        # a zero cap without storage leaves the dark hours unservable when
        # shedding is disabled; the point is recorded, the grid continues
        plan = SweepPlan(system=solar_gas_system(), axis="co2_cap", values=(0.0, 1e9))
        result = run_sweep(plan)
        assert result.points[0].status == "infeasible"
        assert result.points[0].verdict == "skipped"
        assert result.points[1].status == "optimal"

    def test_binding_support_hits_share_exactly(self, support_plan):
        result = run_sweep(support_plan)
        last = result.points[-1]
        assert last.report.mu_gamma > 0.0
        assert last.penetration == pytest.approx(0.95, abs=1e-9)

    def test_manifest_digest_is_stable(self, support_plan):
        r1 = run_sweep(support_plan)
        m1 = sweep_manifest(support_plan, r1)
        m2 = sweep_manifest(support_plan, run_sweep(support_plan))
        assert m1 == m2
        assert len(m1["config_sha256"]) == 64
        json.dumps(m1)  # must be serializable


@pytest.fixture
def warm(monkeypatch):
    """The warm-start flag of each solve a sweep makes, in order."""
    flags = []

    def recording(lp, *args, _solve=powermarket.sweep.solve, **kwargs):
        sol = _solve(lp, *args, **kwargs)
        flags.append(sol.warm_start)
        return sol
    monkeypatch.setattr(powermarket.sweep, "solve", recording)
    return flags


@pytest.fixture
def pool_sizes(monkeypatch):
    """The ``max_workers`` of each pool a sweep builds; the stand-in pool
    runs its chains in this process."""
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)
    monkeypatch.setattr(powermarket.sweep, "ProcessPoolExecutor", InlinePool)
    return sizes


class TestChains:
    @pytest.fixture(scope="class")
    def cap_plan(self):
        system = two_tech_system(snapshots=48)
        return SweepPlan(system=system, axis="co2_intensity",
                         values=tuple(0.05 * k for k in range(1, CHAIN_POINTS + 3)))

    def test_chains_are_balanced(self):
        for n in range(1, 4 * CHAIN_POINTS + 2):
            values = tuple(range(n))
            chains = chains_of(values)
            lengths = [len(chain) for chain in chains]
            assert sum(chains, ()) == values
            assert len(chains) == -(-n // CHAIN_POINTS)
            assert max(lengths) <= CHAIN_POINTS
            assert max(lengths) - min(lengths) <= 1

    def test_chains_and_pool_size_follow_the_plan(self, cap_plan, pool_sizes,
                                                  monkeypatch):
        chains = []

        def recording(plan, values, _solve_chain=powermarket.sweep._solve_chain):
            chains.append(values)
            return _solve_chain(plan, values)
        monkeypatch.setattr(powermarket.sweep, "_solve_chain", recording)
        expected = chains_of(cap_plan.values)
        assert len(expected) == 2
        for jobs in (1, 2, 3, 8):
            chains.clear()
            assert run_sweep(cap_plan, parallelism=jobs).all_verified
            assert chains == expected
        assert pool_sizes == [2, 2, 2]

    def test_plan_of_one_chain_builds_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-chain sweep must run in this process")
        monkeypatch.setattr(powermarket.sweep, "ProcessPoolExecutor", no_pool)
        plan = SweepPlan(system=two_tech_system(snapshots=24), axis="co2_tax",
                         values=tuple(float(k) for k in range(CHAIN_POINTS)))
        result = run_sweep(plan, parallelism=4)
        assert [p.status for p in result.points] == ["optimal"] * CHAIN_POINTS

    def test_each_chain_starts_cold_then_goes_warm(self, cap_plan, warm):
        result = run_sweep(cap_plan)
        assert result.all_verified
        assert warm == [k > 0 for chain in chains_of(cap_plan.values)
                        for k in range(len(chain))]
        assert warm.count(False) == 2

    def test_chains_give_the_same_bytes_at_any_worker_count(self, cap_plan):
        texts = {jobs: sweep_csv_text(cap_plan, run_sweep(cap_plan, parallelism=jobs))
                 for jobs in (1, 2, 3)}
        assert texts[1] == texts[2] == texts[3]

    def test_point_after_a_failed_one_starts_cold(self, warm):
        plan = SweepPlan(system=solar_gas_system(), axis="co2_cap", values=(0.0, 1e9))
        result = run_sweep(plan)
        assert [p.status for p in result.points] == ["infeasible", "optimal"]
        assert warm == [False, False]
