"""Long-term electricity market equilibrium modelling.

Builds capacity-expansion linear programs for multi-node power systems with
storage, transmission and policy instruments (renewable support, CO2 caps and
taxes, fixed premia), solves them with exact duals, derives market-value
economics from the shadow prices, and verifies the equilibrium theorems
(zero profit, cap/tax equivalence, subsidy/tax price lift) numerically.
"""

from .model import (
    Co2Cap,
    Co2Tax,
    FixedFip,
    LineSpec,
    PolicyConfig,
    PowerSystem,
    StorageSpec,
    SupportAvailable,
    SupportDispatched,
    TechnologySpec,
    annuitize,
    synth_profiles,
    validate,
)
from .formulate import FormulationError, LinearProgram, build_lp, write_mps
from .solve import Solution, SolveError, solve, solve_external, write_solution_file
from .metrics import MetricsReport, build_report, lcoe, market_value, rmv
from .verify import (
    brute_force_oracle,
    check_cap_tax_equivalence,
    check_kkt,
    check_subsidy_tax_lift,
    check_zero_profit,
    verify_solution,
)

__version__ = "0.1.0"
