"""Statistics of elliptic-curve groups over prime fields.

Three routes to the average number of (cyclic) subgroups of E(F_p): an
exact count of all short-Weierstrass models by group shape through Schoof's
theorem (Hurwitz class numbers), truncated products of exact local matrix
densities, and the analytic main term with exact Euler factors - plus a
laboratory for divisor sums in arithmetic progressions and short intervals.
The routes are not independent (Gekeler writes the class numbers as products
of the same local densities); model-by-model enumeration in
``tests/oracles.py`` is the test oracle of the count.
"""

from .arith import (
    divisors,
    factorize,
    kronecker_chi,
    primes_up_to,
    ramanujan_sum,
)
from .curves import StructureTally, empirical_probability, tally_structures
from .densities import f_ell, f_ell_closed, f_infty, f_p_local, g_sum, probability_product
from .divisor_ap import delta_window, dirichlet_main, mean_square_experiment, tau_sum_window
from .errors import BudgetError, DomainError, InvariantError
from .groups import GroupShape, stat_on_shape
from .analytic import average_slope, cyclicity_probability, local_factor, main_term

__all__ = [
    "BudgetError",
    "DomainError",
    "GroupShape",
    "InvariantError",
    "StructureTally",
    "average_slope",
    "cyclicity_probability",
    "delta_window",
    "dirichlet_main",
    "divisors",
    "empirical_probability",
    "f_ell",
    "f_ell_closed",
    "f_infty",
    "f_p_local",
    "factorize",
    "g_sum",
    "kronecker_chi",
    "local_factor",
    "main_term",
    "mean_square_experiment",
    "primes_up_to",
    "probability_product",
    "ramanujan_sum",
    "stat_on_shape",
    "tally_structures",
    "tau_sum_window",
]

__version__ = "0.1.0"
