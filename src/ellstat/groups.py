"""Subgroup and cyclic-subgroup counts of finite abelian groups of rank <= 2,
with an independent lattice-enumeration oracle.

A group shape (d1, d2) denotes Z/d1 x Z/(d1*d2); its order is d1^2*d2 and its
exponent d1*d2.  Counting formulas come in two flavours everywhere:

* ``gcd_sum``      -- sum of gcd(a, b) (resp. phi(gcd(a, b))) over divisor
                      pairs a | m, b | n; the reference form.
* ``convolution``  -- sum over u | gcd(m, n) of phi(u) tau(m/u) tau(n/u)
                      (resp. with phi*mu); algebraically identical.

``stat_on_shape`` is the production path and evaluates both conventions by the
convolution: ``corrected`` on Z/d1 x Z/(d1*d2) and ``printed`` with
tau(d1^2*d2/u) in the last slot, i.e. on Z/d1 x Z/(d1^2*d2).  The two
disagree and the lattice oracle adjudicates in favour of ``corrected``, which
is the default.  ``gcd_sum`` (the default ``variant``) and the lattice
enumeration ``subgroup_oracle`` are the oracles the tests hold it to.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .arith import divisors, phi, phi_star_mu, tau
from .errors import BudgetError, DomainError

_ORACLE_LIMIT = 2000


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


class SubgroupCensus(NamedTuple):
    total: int
    cyclic: int


def _check_mn(m: int, n: int) -> None:
    if m < 1 or n < 1:
        raise DomainError(f"group orders must be >= 1, got ({m}, {n})")


def subgroup_count(m: int, n: int, variant: str = "gcd_sum") -> int:
    """Number of subgroups of Z/m x Z/n."""
    _check_mn(m, n)
    if variant == "gcd_sum":
        dn = divisors(n)
        return sum(math.gcd(a, b) for a in divisors(m) for b in dn)
    if variant == "convolution":
        return sum(phi(u) * tau(m // u) * tau(n // u) for u in divisors(math.gcd(m, n)))
    raise DomainError(f"unknown variant {variant!r}")


def cyclic_subgroup_count(m: int, n: int, variant: str = "gcd_sum") -> int:
    """Number of cyclic subgroups of Z/m x Z/n."""
    _check_mn(m, n)
    if variant == "gcd_sum":
        dn = divisors(n)
        return sum(phi(math.gcd(a, b)) for a in divisors(m) for b in dn)
    if variant == "convolution":
        return sum(
            phi_star_mu(u) * tau(m // u) * tau(n // u)
            for u in divisors(math.gcd(m, n))
        )
    raise DomainError(f"unknown variant {variant!r}")


def stat_on_shape(shape: GroupShape, stat: str, formula: str = "corrected") -> int:
    """Evaluate a counting statistic on the group Z/d1 x Z/(d1*d2).

    stat is one of "s" (subgroups), "c" (cyclic subgroups), "tau_N"
    (number of divisors of the group order).  Both formulas use the
    convolution: ``corrected`` counts in Z/d1 x Z/(d1*d2), ``printed``
    evaluates the displayed tau(d1^2*d2/u) verbatim, i.e. counts in
    Z/d1 x Z/(d1^2*d2).
    """
    d1, d2 = shape
    _check_mn(d1, d2)
    if stat == "tau_N":
        return tau(d1 * d1 * d2)
    if stat not in ("s", "c"):
        raise DomainError(f"unknown stat {stat!r}")
    if formula not in ("corrected", "printed"):
        raise DomainError(f"unknown formula {formula!r}")
    counter = subgroup_count if stat == "s" else cyclic_subgroup_count
    n = d1 * d2 if formula == "corrected" else d1 * d1 * d2
    return counter(d1, n, "convolution")


def _cyclic_span(g: tuple[int, int], m: int, n: int) -> frozenset[int]:
    """Elements of <g> in Z/m x Z/n, encoded as u*n + v."""
    u, v = g
    order = ((m // math.gcd(u, m)) * (n // math.gcd(v, n))) // math.gcd(
        m // math.gcd(u, m), n // math.gcd(v, n)
    )
    return frozenset(((k * u) % m) * n + (k * v) % n for k in range(order))


def _join(gen1, gen2, m, n) -> frozenset[int]:
    """Subgroup generated by the two elements, as an i,j-span."""
    s1 = sorted(_cyclic_span(gen1, m, n))
    out = set()
    for e in _cyclic_span(gen2, m, n):
        u, v = divmod(e, n)
        for e1 in s1:
            w, x = divmod(e1, n)
            out.add(((u + w) % m) * n + (v + x) % n)
    return frozenset(out)


def subgroup_oracle(m: int, n: int) -> SubgroupCensus:
    """Ground-truth subgroup counts of Z/m x Z/n by explicit enumeration.

    Cyclic subgroups are the spans of single elements; since rank <= 2, every
    subgroup is generated by two elements, so the full lattice is the set of
    pairwise joins of cyclic subgroups.  Subgroups are canonicalized as
    element sets and deduplicated.  Guarded by m*n <= 2000.
    """
    _check_mn(m, n)
    if m * n > _ORACLE_LIMIT:
        raise BudgetError(f"oracle limited to m*n <= {_ORACLE_LIMIT}, got {m * n}")
    gen_for: dict[frozenset[int], tuple[int, int]] = {}
    for u in range(m):
        for v in range(n):
            span = _cyclic_span((u, v), m, n)
            gen_for.setdefault(span, (u, v))
    cyclics = list(gen_for.items())
    subgroups = set(gen_for)
    for i, (span1, g1) in enumerate(cyclics):
        for span2, g2 in cyclics[i + 1 :]:
            if span1 <= span2 or span2 <= span1:
                continue
            subgroups.add(_join(g1, g2, m, n))
    return SubgroupCensus(total=len(subgroups), cyclic=len(cyclics))
