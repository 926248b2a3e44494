"""Subgroup and cyclic-subgroup counts of finite abelian groups of rank <= 2.

A group shape (d1, d2) denotes Z/d1 x Z/(d1*d2); its order is N = d1^2*d2 and
its exponent d1*d2.  Two counting conventions are evaluated everywhere:
``corrected`` counts in Z/d1 x Z/(d1*d2) itself, ``printed`` evaluates the
displayed tau(d1^2*d2/u) verbatim, i.e. counts in Z/d1 x Z/(d1^2*d2).  The two
disagree and the lattice oracle adjudicates in favour of ``corrected``, which
is the default.

``shape_statistics`` multiplies the prime-power factors ``local_statistics``
over one factorization of N and reads tau(N) off the same exponents; the
tests hold ``curves.weighted_averages``, which sums the same convolutions
along class-number rows with no shape, to it, and ``stat_on_shape`` selects
one value.  ``analytic`` reads the corrected factors of ``local_statistics``
as the statistic of its Frobenius law.

The oracles the tests hold it to, the gcd sum and convolution
``subgroup_count`` and ``cyclic_subgroup_count`` and the lattice enumeration
``subgroup_oracle``, are in ``tests/oracles.py``.
"""

from __future__ import annotations

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


def local_statistics(ell: int, a: int, e: int) -> tuple[int, int, int, int]:
    """(s corrected, s printed, c corrected, c printed) at the prime l of a
    shape with a = v_l(d1) and e = v_l(N): sum_{k <= a} w(l^k) (a - k + 1)
    (b - k + 1), w = phi for s and phi*mu for c, counting in Z/l^a x Z/l^b
    with b = e - a (corrected) or b = e (printed)."""
    sc = sp = cc = cp = 0
    for k in range(a + 1):
        w_phi, w_psm = phi_prime_power(ell, k), phi_star_mu_prime_power(ell, k)
        corr = (a - k + 1) * (e - a - k + 1)
        prnt = (a - k + 1) * (e - k + 1)
        sc += w_phi * corr
        sp += w_phi * prnt
        cc += w_psm * corr
        cp += w_psm * prnt
    return sc, sp, cc, cp


def shape_statistics(shape: GroupShape) -> ShapeStatistics:
    """Every statistic of Z/d1 x Z/(d1*d2) as a product over l | N of
    ``local_statistics(l, v_l(d1), v_l(N))``, and tau(N)."""
    d1, d2 = shape
    _check_mn(d1, d2)
    s_corr = s_print = c_corr = c_print = tau_n = 1
    for ell, e in factorize(d1 * d1 * d2):
        tau_n *= e + 1
        sc, sp, cc, cp = local_statistics(ell, valuation(d1, ell), e)
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
