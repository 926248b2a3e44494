"""Subgroup and cyclic-subgroup counts of finite abelian groups of rank <= 2.

A group shape (d1, d2) denotes Z/d1 x Z/(d1*d2); its order is N = d1^2*d2 and
its exponent d1*d2.  Two counting conventions are evaluated everywhere:
``corrected`` counts in Z/d1 x Z/(d1*d2) itself, ``printed`` evaluates the
displayed tau(d1^2*d2/u) verbatim, i.e. counts in Z/d1 x Z/(d1^2*d2).  The two
disagree and the lattice oracle adjudicates in favour of ``corrected``, which
is the default.

``shape_statistics`` is the production path.  From one factorization of N it
multiplies prime-power local factors: with a = v_l(d1) and b = v_l(N) - a
(corrected) or v_l(N) (printed), the local value is
sum_{k <= a} w(l^k) (a - k + 1)(b - k + 1), with w = phi for subgroups and
w = phi*mu for cyclic subgroups, and tau(N) is read off the same exponents.
``stat_on_shape`` selects one of its values.

The oracles the tests hold it to, the gcd sum and convolution
``subgroup_count`` and ``cyclic_subgroup_count`` and the lattice enumeration
``subgroup_oracle``, are in ``tests/oracles.py``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .arith import factorize, phi_prime_power, phi_star_mu_prime_power, valuation
from .errors import DomainError

SHAPE_STATS = ("s", "c", "tau_N")
FORMULAS = ("corrected", "printed")


class GroupShape(NamedTuple):
    """Invariants (d1, d2) of Z/d1 x Z/(d1*d2)."""

    d1: int
    d2: int

    @property
    def order(self) -> int:
        return self.d1 * self.d1 * self.d2

    @property
    def exponent(self) -> int:
        return self.d1 * self.d2


def _check_mn(m: int, n: int) -> None:
    if m < 1 or n < 1:
        raise DomainError(f"group orders must be >= 1, got ({m}, {n})")


class ShapeStatistics(NamedTuple):
    """Subgroups s and cyclic subgroups c of one shape in both conventions,
    and the number of divisors of its order."""

    s_corrected: int
    s_printed: int
    c_corrected: int
    c_printed: int
    tau_N: int


def statistic_field(stat: str, formula: str, stats: tuple[str, ...] = SHAPE_STATS) -> str:
    """Name of the field holding ``stat`` under ``formula``.

    Statistics other than "s" and "c" have one value for both formulas; an
    unknown stat or formula is a ``DomainError`` either way.
    """
    if stat not in stats:
        raise DomainError(f"unknown stat {stat!r}")
    if formula not in FORMULAS:
        raise DomainError(f"unknown formula {formula!r}")
    return f"{stat}_{formula}" if stat in ("s", "c") else stat


# Cached because a sweep meets each shape again at every prime whose Hasse
# interval holds its order; 2^14 entries hold the shapes of one prime (about
# 1.4 * 4 sqrt(p)) up to p = 5 * 10^6.
@lru_cache(maxsize=1 << 14)
def shape_statistics(shape: GroupShape) -> ShapeStatistics:
    """Every statistic of Z/d1 x Z/(d1*d2) as a product of local factors.

    At each prime l | N = d1^2*d2 with a = v_l(d1), the factor of the
    convention counting in Z/l^a x Z/l^b is
    sum_{k <= a} w(l^k) (a - k + 1)(b - k + 1), w = phi for s and phi*mu for
    c; b = v_l(N) - a for ``corrected`` and v_l(N) for ``printed``.
    """
    d1, d2 = shape
    _check_mn(d1, d2)
    s_corr = s_print = c_corr = c_print = tau_n = 1
    for ell, e in factorize(d1 * d1 * d2):
        tau_n *= e + 1
        a = valuation(d1, ell)
        sc = sp = cc = cp = 0
        for k in range(a + 1):
            w_phi, w_psm = phi_prime_power(ell, k), phi_star_mu_prime_power(ell, k)
            corr = (a - k + 1) * (e - a - k + 1)
            prnt = (a - k + 1) * (e - k + 1)
            sc += w_phi * corr
            sp += w_phi * prnt
            cc += w_psm * corr
            cp += w_psm * prnt
        s_corr *= sc
        s_print *= sp
        c_corr *= cc
        c_print *= cp
    return ShapeStatistics(s_corr, s_print, c_corr, c_print, tau_n)


# Kept for perfbench, which times it as a span (spans.TARGETS); the CLI never calls it.
def stat_on_shape(shape: GroupShape, stat: str, formula: str = "corrected") -> int:
    """Evaluate a counting statistic on the group Z/d1 x Z/(d1*d2).

    stat is one of "s" (subgroups), "c" (cyclic subgroups), "tau_N"
    (number of divisors of the group order); formula is "corrected" or
    "printed" (see ``shape_statistics``).
    """
    return getattr(shape_statistics(shape), statistic_field(stat, formula))
