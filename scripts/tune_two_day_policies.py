#!/usr/bin/env python3
"""Recompute the tuned policy constants for the two-day scenarios.

Given the no-policy scenario, finds the CO2 cap whose equilibrium solar
share matches the quota share of fig1_support.json (bisection on the cap).
The resulting cap value is the one hard-coded in fig1_co2_cap.json.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from powermarket.formulate import build_lp
from powermarket.metrics import accounts
from powermarket.model import Co2Cap, PolicyConfig
from powermarket.scenario import load_scenario
from powermarket.solve import solve

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def solar_share(system, cap):
    sol = solve(build_lp(system, PolicyConfig(co2=Co2Cap(cap))))
    if sol.status != "optimal":
        return None
    solar = sum(a.energy for a in accounts(system, sol) if a.name == "solar")
    return solar / system.total_demand()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario",
                        default=os.path.join(SCENARIOS, "fig1_no_policy.json"))
    parser.add_argument("--iterations", type=int, default=45)
    args = parser.parse_args()

    system, _, _ = load_scenario(args.scenario)
    _, quota, _ = load_scenario(os.path.join(SCENARIOS, "fig1_support.json"))
    target = quota.support.share
    sol0 = solve(build_lp(system, PolicyConfig.none()))
    emissions0 = sum(a.spec.emission_factor * a.energy
                     for a in accounts(system, sol0) if a.spec is not None)
    print(f"baseline emissions: {emissions0:.4f} tCO2")

    lo, hi = 0.0, emissions0
    for _ in range(args.iterations):
        mid = 0.5 * (lo + hi)
        share = solar_share(system, mid)
        if share is None or share > target:
            lo = mid
        else:
            hi = mid
    print(f"cap for solar share {target}: {hi:.4f} tCO2 "
          f"(achieved share {solar_share(system, hi):.6f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
