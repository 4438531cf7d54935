"""Long-term electricity market equilibrium modelling.

Builds capacity-expansion linear programs for multi-node power systems with
storage, transmission and policy instruments (renewable support, CO2 caps and
taxes, fixed premia), solves them with exact duals, derives market-value
economics from the shadow prices, and verifies the equilibrium theorems
(zero profit, cap/tax equivalence, subsidy/tax price lift) numerically.

The package re-exports nothing: each name is imported from its module, e.g.
``from powermarket.model import PolicyConfig``.
"""

__version__ = "0.1.0"
