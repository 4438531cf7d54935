"""Shared instance builders for the test suite.

Desk-scale systems treat their snapshot horizon as the full costing period,
so capex values are small compared to utility-scale numbers.  Marginal costs
get distinct sub-micro perturbations to keep the LPs nondegenerate (unique
duals), which the equivalence checks rely on.
"""

import os

import numpy as np
import pytest

from powermarket.formulate import column_major
from powermarket.metrics import Ledger
from powermarket.model import (
    PowerSystem,
    StorageSpec,
    TechnologySpec,
    synth_profiles,
)
from powermarket.solve import load_highs
from powermarket.verify import check_kkt

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")
BUNDLED_SCENARIOS = ("fig1_no_policy.json", "fig1_support.json", "fig1_co2_cap.json",
                     "wind_gas_168h.json", "vre_flex_168h.json", "mesh_kvl_48h.json")


def scenario_path(name: str) -> str:
    return os.path.join(SCENARIO_DIR, name)


def kkt_passes(sol) -> bool:
    """Whether every condition that ``check_kkt`` judges passes at ``sol``."""
    return all(c.verdict == "pass" for c in check_kkt(sol))


def energy_of(ledger: Ledger, name: str) -> float:
    """Dispatch of every placement of ``name``, summed as the ledger sums it."""
    return ledger.totals[name]["energy"]


def gate_document(directory) -> dict:
    """A scenario with a timeseries file, two nodes, a storage unit, an
    expandable line and a fixed one with a reverse capacity, both under the
    voltage law, a fixed premium and a CO2 tax; the CSV is written to
    ``directory``."""
    (directory / "gate.csv").write_text(
        "timestamp,B_load\n" + "".join(f"{t},{5 + t}\n" for t in range(4)))
    return {
        "name": "gate", "snapshots": 4, "nodes": ["A", "B"], "timeseries": "gate.csv",
        "demand": {"A": [10.0, 12.0, 9.0, 11.0], "B": {"series": "B_load", "scale": 1.0}},
        "technologies": [
            {"node": "A", "name": "gas", "capex": 100.0, "lifetime": 20.0, "fixed_om": 1.0,
             "variable_cost": 1.0, "fuel_cost": 20.0, "efficiency": 0.5,
             "emission_factor": 0.4, "max_potential": 50.0},
            {"node": "B", "default": "wind", "capex": 50.0,
             "availability": {"kind": "wind-autocorrelated", "seed": 3}}],
        "storages": [{"node": "B", "name": "battery", "capex_discharge": 5.0,
                      "capex_charge": 1.0, "capex_energy": 2.0, "lifetime": 15.0,
                      "eta_discharge": 0.9, "eta_charge": 0.9, "eta_standing": 0.99,
                      "fixed_energy_power_ratio": 4.0}],
        "lines": [{"from_node": "A", "to_node": "B", "existing_capacity": 5.0,
                   "expandable": True, "capex": 10.0, "lifetime": 30.0, "reactance": 0.1},
                  {"from_node": "B", "to_node": "A", "existing_capacity": 3.0,
                   "existing_capacity_reverse": 4.0, "reactance": 0.2}],
        "policy": {"support": {"type": "fip", "technologies": ["wind"], "premium": 5.0},
                   "co2": {"type": "tax", "rate": 30.0}},
        "options": {"voll": 1000.0, "discount_rate": 0.05, "kvl": True,
                    "suppress_negative_prices": False},
    }


def assert_highs_reads(path, lp) -> None:
    """HiGHS' own MPS reader finds ``lp`` in the file at ``path``, in LP
    order: column and row names, costs, column bounds, row bounds and the
    CSC matrix.  HiGHS drops matrix entries with |value| <= 1e-9 and
    returns kWarning when it does, so those entries are left out."""
    highs = load_highs()._Highs()
    highs.setOptionValue("output_flag", False)
    assert highs.readModel(str(path)).name in ("kOk", "kWarning")
    read = highs.getLp()
    assert [highs.getColName(j)[1] for j in range(read.num_col_)] == lp.col_names()
    assert [highs.getRowName(i)[1] for i in range(read.num_row_)] == lp.row_names()
    cols, rows = lp.columns, lp.rows
    assert np.array_equal(read.col_cost_, cols.objective)
    assert np.array_equal(read.col_lower_, cols.lower)
    assert np.array_equal(read.col_upper_, cols.upper)
    assert np.array_equal(read.row_lower_, np.where(rows.sense == "<=", -np.inf, rows.rhs))
    assert np.array_equal(read.row_upper_, np.where(rows.sense == ">=", np.inf, rows.rhs))
    e = lp.entries
    indptr, indices, data = column_major(e.row, e.col, e.value, len(cols))
    kept = np.abs(data) > 1e-9
    entry_col = np.repeat(np.arange(len(cols)), np.diff(indptr))
    a = read.a_matrix_
    assert a.format_.name == "kColwise"
    assert np.array_equal(a.start_,
                          np.searchsorted(entry_col[kept], np.arange(len(cols) + 1)))
    assert np.array_equal(a.index_, indices[kept])
    assert np.array_equal(a.value_, data[kept])


def two_tech_system(snapshots: int = 168, wind_capex: float = 30000.0,
                    gas_capex: float = 11500.0) -> PowerSystem:
    """Wind plus gas on one node; the workhorse for support-policy sweeps."""
    wind = TechnologySpec(name="wind", capex=wind_capex, lifetime=25.0,
                          availability=synth_profiles(7, snapshots,
                                                      "wind-autocorrelated"))
    gas = TechnologySpec(name="gas", capex=gas_capex, lifetime=25.0,
                         fuel_cost=50.0, efficiency=0.39,
                         emission_factor=0.2 / 0.39)
    rng = np.random.default_rng(11)
    demand = tuple(100.0 + 20.0 * np.sin(np.arange(snapshots) * np.pi / 12.0)
                   + rng.normal(0.0, 3.0, snapshots))
    return PowerSystem(nodes=("N",), snapshots=snapshots,
                       demand={"N": demand},
                       technologies=(("N", wind), ("N", gas)))


def solar_gas_system() -> PowerSystem:
    """Solar plus gas on one node, 48 h, no load shedding: a tight enough
    CO2 cap leaves the dark hours unservable."""
    solar = TechnologySpec(name="solar", capex=1000.0, lifetime=25.0,
                           availability=synth_profiles(2, 48, "solar-diurnal"))
    gas = TechnologySpec(name="gas", capex=500.0, lifetime=25.0,
                         fuel_cost=25.0, efficiency=0.5,
                         emission_factor=0.2 / 0.5)
    return PowerSystem(nodes=("N",), snapshots=48,
                       demand={"N": tuple([10.0] * 48)},
                       technologies=(("N", solar), ("N", gas)), voll=None)


def random_desk_system(seed: int, snapshots: int = 120) -> PowerSystem:
    """Seeded single-node desk system with VRE plus two thermal techs.

    Marginal costs carry distinct perturbations of order 1e-7 EUR/MWh so
    that dispatch merit order and duals are unique.
    """
    rng = np.random.default_rng(seed)
    techs = []
    wind = TechnologySpec(
        name="wind", capex=float(rng.uniform(15000.0, 40000.0)), lifetime=25.0,
        variable_cost=1e-7,
        availability=synth_profiles(seed + 1, snapshots, "wind-autocorrelated"))
    solar = TechnologySpec(
        name="solar", capex=float(rng.uniform(6000.0, 15000.0)), lifetime=25.0,
        variable_cost=2e-7,
        availability=synth_profiles(seed + 2, snapshots, "solar-diurnal"))
    ccgt = TechnologySpec(
        name="ccgt", capex=float(rng.uniform(15000.0, 25000.0)), lifetime=25.0,
        fuel_cost=float(rng.uniform(20.0, 30.0)), efficiency=0.58,
        variable_cost=3e-7, emission_factor=0.2 / 0.58)
    ocgt = TechnologySpec(
        name="ocgt", capex=float(rng.uniform(9000.0, 14000.0)), lifetime=25.0,
        fuel_cost=float(rng.uniform(45.0, 60.0)), efficiency=0.39,
        variable_cost=4e-7, emission_factor=0.2 / 0.39)
    techs = [("N", wind), ("N", solar), ("N", ccgt), ("N", ocgt)]
    demand = tuple(100.0
                   + 25.0 * np.sin(np.arange(snapshots) * np.pi / 12.0 + rng.uniform(0, 6))
                   + rng.normal(0.0, 4.0, snapshots))
    return PowerSystem(nodes=("N",), snapshots=snapshots,
                       demand={"N": demand}, technologies=tuple(techs))


def tiny_instance(seed: int) -> PowerSystem:
    """O(1)-scale instance small enough for the enumeration oracle."""
    rng = np.random.default_rng(seed)
    n_techs = int(rng.integers(1, 4))
    snapshots = int(rng.integers(2, 7))
    techs = []
    for i in range(n_techs):
        avail = None
        if rng.random() < 0.5:
            avail = tuple(np.round(rng.uniform(0.05, 1.0, snapshots), 6).tolist())
        techs.append(("N", TechnologySpec(
            name=f"t{i}", capex=float(np.round(rng.uniform(0.5, 8.0), 6)),
            lifetime=1.0, variable_cost=float(np.round(rng.uniform(0.1, 10.0), 6)),
            availability=avail)))
    demand = tuple(np.round(rng.uniform(0.5, 5.0, snapshots), 6).tolist())
    return PowerSystem(nodes=("N",), snapshots=snapshots, demand={"N": demand},
                       technologies=tuple(techs), voll=50.0, discount_rate=0.0)


def flexible_system(snapshots: int = 168) -> PowerSystem:
    """VRE + gas + battery + hydrogen storage on one node."""
    base = random_desk_system(3, snapshots)
    battery = StorageSpec(name="battery", capex_discharge=6386.3,
                          capex_energy=3202.74, lifetime=20.0,
                          eta_discharge=0.9, eta_charge=0.9)
    hydrogen = StorageSpec(name="hydrogen", capex_discharge=15342.47,
                           capex_charge=14383.56, capex_energy=9.59,
                           lifetime=25.0, eta_discharge=0.58, eta_charge=0.8)
    return PowerSystem(nodes=base.nodes, snapshots=base.snapshots,
                       demand=base.demand, technologies=base.technologies,
                       storages=(("N", battery), ("N", hydrogen)))


@pytest.fixture
def desk_system():
    return random_desk_system(0)
