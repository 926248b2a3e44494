"""Short-Weierstrass curves y^2 = x^3 + ax + b over F_p: structure tallies
by group shape and weighted averages.

``tally_structures`` counts all p^2 - p nonsingular models of one prime by
group shape Z/d1 x Z/(d1*d2) without enumerating a single curve.  By
Schoof's theorem, weighted by 1/|Aut(E)| the curves with trace t and
E[n] in E(F_p) number H((4p - t^2)/n^2)/2 when n | p-1 and n^2 | p+1-t, H the
Hurwitz class number.  A class occupies (p-1)/|Aut(E)| models, so
F(n) = (p-1) 6H((4p - t^2)/n^2)/12 models have E[n] rational, computed in
integers from the sixfold 6H; E[n] is rational exactly when
n | d1, so Moebius inversion gives the models with d1 exactly m as
sum_k mu(k) F(mk).  The count is exact and deterministic; dividing by
p(p-1) gives the 1/|Aut| weighting with total mass 1.

The sixfolds 6H come from ``arith``.  A sweep over many primes passes one
``arith.hurwitz_table`` up to 4 xmax, built once, and every tally reads
6H(4p - t^2) and 6H((4p - t^2)/n^2) from it.  A single tally, which would
pay about 1.4 p^1.5 steps for a table up to 4p, asks
``arith.hurwitz_sixfolds`` for just those values instead: one O(p) pass
over a.

A tally is kept per trace, in ascending t, as the count gives it.  Most
traces have no n > 1 with n | p-1 and n^2 | N, so their one shape is Z/N:
they are two parallel lists, the orders N and the model counts, built by
list comprehensions without a ``GroupShape``.  Every other trace is one
``(t, N, [(d1, models), ...])``.  The dict ``StructureTally.counts`` from
shape to models is built from these on its first read, which only
``brute --tally``, ``empirical_probability`` and the tests make.

``weighted_averages`` reads every average of a tally in one pass over its
traces.  Z/N has s = c = tau(N) in both conventions, so the cyclic traces
and the d1 = 1 entries weigh their models by tau(N) from one divisor sieve
of the Hasse window (``arith.tau_window``), and only the shapes with d1 >= 2
call ``groups.shape_statistics``; ``weighted_average_from_tally`` selects
one average.

The per-model point counts and group shapes that the tests hold the tally
to, model by model, are in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .arith import divisors, hurwitz_sixfolds, require_p, tau_window
from .errors import DomainError, InvariantError
from .groups import SHAPE_STATS, GroupShape, shape_statistics, statistic_field

_STATS = (*SHAPE_STATS, "one")


@dataclass(frozen=True)
class StructureTally:
    """Exact count of nonsingular models per group shape for one prime, per
    trace t = p + 1 - N in ascending order.

    A trace whose only shape is Z/N (no n > 1 with n | p-1 and n^2 | N) is
    one entry of the parallel lists ``cyclic_N`` and ``cyclic_models``; every
    other trace is one ``(t, N, [(d1, models), ...])`` in ``split``, d1 in
    ascending order.  Construction checks the tally: a mass other than
    p(p-1), a d1 that does not divide p-1 or d1^2 N, or an N outside the
    Hasse interval raises ``InvariantError``.
    """

    p: int
    cyclic_N: list[int]
    cyclic_models: list[int]
    split: list[tuple[int, int, list[tuple[int, int]]]]

    def __post_init__(self) -> None:
        p = self.p
        lo, hi = hasse_window(p)
        if len(self.cyclic_N) != len(self.cyclic_models):
            raise InvariantError(f"cyclic orders and counts differ in number at p={p}")
        if self.cyclic_N and (min(self.cyclic_N) < lo or max(self.cyclic_N) > hi):
            raise InvariantError(f"a cyclic order lies outside the Hasse interval [{lo}, {hi}] at p={p}")
        for t, N, entries in self.split:
            if not lo <= N <= hi or N != p + 1 - t:
                raise InvariantError(f"order {N} of trace {t} is not p + 1 - t in [{lo}, {hi}] at p={p}")
            for d1, _ in entries:
                if (p - 1) % d1 or N % (d1 * d1):
                    raise InvariantError(f"inadmissible d1={d1} for N={N} at p={p}")
        mass = self.total()
        if mass != p * p - p:
            raise InvariantError(f"tally mass {mass} != p^2 - p = {p * p - p} at p={p}")

    @cached_property
    def counts(self) -> dict[GroupShape, int]:
        """Models per shape Z/d1 x Z/(d1*d2), ascending in t and then d1;
        built on first read."""
        p1 = self.p + 1
        traces = [(p1 - N, [(1, models)]) for N, models in zip(self.cyclic_N, self.cyclic_models)]
        traces += [(t, entries) for t, _, entries in self.split]
        traces.sort(key=operator.itemgetter(0))
        return {
            GroupShape(d1, (p1 - t) // (d1 * d1)): models
            for t, entries in traces
            for d1, models in entries
            if models
        }

    def total(self) -> int:
        return sum(self.cyclic_models) + sum(m for _, _, entries in self.split for _, m in entries)


def hasse_window(p: int) -> tuple[int, int]:
    """The orders N = p + 1 - t with t^2 < 4p, as the interval [lo, hi]."""
    tmax = math.isqrt(4 * p - 1)
    return p + 1 - tmax, p + 1 + tmax


# ----------------------------------------------------------------------
# the tally by Schoof's count
# ----------------------------------------------------------------------

def tally_structures(p: int, table: list[int] | None = None) -> StructureTally:
    """Exact tally of group shapes over all p^2 - p nonsingular models.

    For each trace t with t^2 < 4p and N = p + 1 - t, the models with
    E[n] in E(F_p) number F(n) = (p-1) 6H((4p - t^2)/n^2)/12 when n | p-1
    and n^2 | N (Schoof), H the Hurwitz class number; those with d1 exactly
    m number sum_k mu(k) F(mk).  The rows n > 1 visit only the traces
    t = p + 1 (mod n^2); every other trace has the one shape Z/N with F(1)
    models.

    Every sixfold is read as six[D].  With ``table``
    (``arith.hurwitz_table(M)``, M >= 4p) six is that table; a shorter one
    raises ``DomainError``.  Without one, six is one ``arith.hurwitz_sixfolds``
    call at 4p - t^2 for 0 <= t <= isqrt(4p - 1) (6H depends only on t^2)
    and at every (4p - t^2)/n^2 of the rows.  Both give the same tally.
    """
    require_p(p)
    four_p = 4 * p
    tmax = math.isqrt(four_p - 1)
    if table is not None and len(table) <= four_p:
        raise DomainError(
            f"Hurwitz table ends at D = {len(table) - 1}; the tally at p={p} needs D = {four_p}"
        )
    rows: dict[int, list[int]] = {}
    for n in divisors(p - 1)[1:]:
        step = n * n
        for t in range(-tmax + (p + 1 + tmax) % step, tmax + 1, step):
            rows.setdefault(t, [1]).append(n)
    six = table if table is not None else hurwitz_sixfolds(
        [four_p - t * t for t in range(tmax + 1)]
        + [(four_p - t * t) // (n * n) for t, ns in rows.items() for n in ns]
    )
    cyclic_t = [t for t in range(-tmax, tmax + 1) if t not in rows]
    sixfolds = [six[four_p - t * t] for t in cyclic_t]
    cyclic_models = [(p - 1) * s // 12 for s in sixfolds]
    # a floor equals its quotient only when that is whole, so the sums agree
    # only when every (p - 1) 6H/12 is
    if 12 * sum(cyclic_models) != (p - 1) * sum(sixfolds):
        raise InvariantError(f"non-integral model count at p={p} for a trace with d1 = 1 only")
    split = []
    for t in sorted(rows):
        ns = rows[t]
        D = four_p - t * t
        exact = [(p - 1) * six[D // (n * n)] for n in ns]  # 12 F(n)
        # Moebius inversion in place, largest n first: F(m) less the models of
        # every proper multiple of m in ns leaves 12 times the models with d1
        # exactly m; they are whole iff every F(n) is
        k = len(ns)
        for i in range(k - 2, -1, -1):
            for j in range(i + 1, k):
                if ns[j] % ns[i] == 0:
                    exact[i] -= exact[j]
        models = [e // 12 for e in exact]
        if min(exact) < 0 or 12 * sum(models) != sum(exact):
            raise InvariantError(f"model counts {exact}/12 for d1 in {ns} at p={p}, t={t}")
        split.append((t, p + 1 - t, [(m, c) for m, c in zip(ns, models) if c]))
    return StructureTally(p, [p + 1 - t for t in cyclic_t], cyclic_models, split)


def empirical_probability(tally: StructureTally, shape: GroupShape) -> Fraction:
    """P(E(F_p) iso Z/d1 x Z/(d1*d2)) under the 1/|Aut| weighting, exactly.

    Equals count/(p(p-1)) because each isomorphism class occupies exactly
    (p-1)/|Aut(E)| models and the class masses 1/|Aut| sum to p.
    """
    p = tally.p
    return Fraction(tally.counts.get(shape, 0), p * (p - 1))


class TallyAverages(NamedTuple):
    """Every automorphism-weighted average of one tally, exactly: the fields
    of ``groups.ShapeStatistics`` and the total mass ``one``."""

    s_corrected: Fraction
    s_printed: Fraction
    c_corrected: Fraction
    c_printed: Fraction
    tau_N: Fraction
    one: Fraction

    def select(self, stat: str, formula: str = "corrected") -> Fraction:
        """The average of ``stat`` under ``formula``; see ``groups.statistic_field``."""
        return getattr(self, statistic_field(stat, formula, _STATS))


def weighted_averages(tally: StructureTally) -> TallyAverages:
    """All weighted averages of a tally in one pass over its traces.

    Every shape Z/N has s = c = tau(N) in both conventions, so the cyclic
    traces and the d1 = 1 entry of every other trace weigh their models by
    tau(N), read from one divisor sieve of the Hasse window; only the shapes
    with d1 >= 2 call ``groups.shape_statistics``.
    """
    p = tally.p
    lo, hi = hasse_window(p)
    tau = tau_window(lo, hi)
    tau_sum = sum(map(operator.mul, tally.cyclic_models, [tau[N - lo] for N in tally.cyclic_N]))
    models, shapes = [], []
    for _, N, entries in tally.split:
        for d1, count in entries:
            if d1 == 1:
                tau_sum += count * tau[N - lo]
            else:
                models.append(count)
                shapes.append(GroupShape(d1, N // (d1 * d1)))
    columns = zip(*map(shape_statistics, shapes))
    mass = p * (p - 1)
    return TallyAverages(
        *(Fraction(tau_sum + sum(map(operator.mul, models, column)), mass) for column in columns),
        Fraction(1),  # construction checked that the tally's mass is p(p-1)
    )


# Kept for perfbench, which times it as a span (spans.TARGETS); the CLI never calls it.
def weighted_average_from_tally(
    tally: StructureTally, stat: str, formula: str = "corrected"
) -> Fraction:
    """Automorphism-weighted average of a shape statistic, exactly."""
    return weighted_averages(tally).select(stat, formula)

