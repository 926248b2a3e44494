"""Short-Weierstrass curves y^2 = x^3 + ax + b over F_p: structure tallies
by group shape and weighted averages, both from Schoof's count.

By Schoof's theorem, weighted by 1/|Aut(E)| the curves with trace t and
E[n] in E(F_p) number H((4p - t^2)/n^2)/2 when n | p-1 and n^2 | p+1-t, H the
Hurwitz class number.  A class occupies (p-1)/|Aut(E)| models, so
F(n) = (p-1) 6H((4p - t^2)/n^2)/12 models have E[n] rational, computed in
integers from the sixfold 6H; E[n] is rational exactly when n | d1, so
Moebius inversion gives the models with d1 exactly m as sum_k mu(k) F(mk).
The count is exact and deterministic; dividing by p(p-1) gives the 1/|Aut|
weighting with total mass 1.

The sixfolds 6H come from ``arith``.  A sweep over many primes passes one
``arith.hurwitz_table`` up to 4 xmax, built once, and every prime reads
6H(4p - t^2) and 6H((4p - t^2)/n^2) from it.  A single prime, which would
pay about 1.4 p^1.5 steps for a table up to 4p, asks
``arith.hurwitz_sixfolds`` for just those values instead (``sixfolds``):
one O(p) pass over a.  ``_trace_sixfolds`` reads and checks them for both
``tally_structures``, which builds the dict from shape to models, and
``weighted_averages``, which needs no tally: a shape's models are (p-1)/12
times its sixfold, so every average is a sum over sixfolds divided by 12p.

The per-model point counts and group shapes that the tests hold the tally
to, model by model, are in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import NamedTuple

from .arith import divisors, hurwitz_sixfolds, require_p, tau_window
from .errors import DomainError, InvariantError
from .groups import SHAPE_STATS, GroupShape, shape_statistics, statistic_field

_STATS = (*SHAPE_STATS, "one")


@dataclass(frozen=True)
class StructureTally:
    """Exact count of nonsingular models per group shape Z/d1 x Z/(d1*d2) for
    one prime, in ascending trace t = p + 1 - N and then ascending d1.

    Construction checks the tally: a d1 that does not divide p-1, an order
    outside the Hasse interval, a count below 1 or a mass other than p(p-1)
    raises ``InvariantError``.
    """

    p: int
    counts: dict[GroupShape, int]

    def __post_init__(self) -> None:
        p = self.p
        lo, hi = hasse_window(p)
        for (d1, d2), models in self.counts.items():
            if d1 < 1 or (p - 1) % d1 or not lo <= d1 * d1 * d2 <= hi:
                raise InvariantError(f"inadmissible shape ({d1}, {d2}) at p={p}")
            if models < 1:
                raise InvariantError(f"non-positive count {models} for ({d1}, {d2}) at p={p}")
        mass = self.total()
        if mass != p * p - p:
            raise InvariantError(f"tally mass {mass} != p^2 - p = {p * p - p} at p={p}")

    def total(self) -> int:
        return sum(self.counts.values())


def hasse_window(p: int) -> tuple[int, int]:
    """The orders N = p + 1 - t with t^2 < 4p, as the interval [lo, hi]."""
    tmax = math.isqrt(4 * p - 1)
    return p + 1 - tmax, p + 1 + tmax


# ----------------------------------------------------------------------
# Schoof's count
# ----------------------------------------------------------------------

def _rows(p: int) -> dict[int, list[int]]:
    """{t: [1, n, ...]} for the traces t with some n > 1, n | p-1 and
    n^2 | p + 1 - t, n ascending: the row n visits only the traces
    t = p + 1 (mod n^2)."""
    tmax = math.isqrt(4 * p - 1)
    rows: dict[int, list[int]] = {}
    for n in divisors(p - 1)[1:]:
        step = n * n
        for t in range(-tmax + (p + 1 + tmax) % step, tmax + 1, step):
            rows.setdefault(t, [1]).append(n)
    return rows


def sixfolds(p: int) -> dict[int, int]:
    """{D: 6H(D)} for every D that Schoof's count at p reads, from one
    ``arith.hurwitz_sixfolds`` call: 4p - t^2 for 0 <= t <= isqrt(4p - 1)
    (6H depends only on t^2) and (4p - t^2)/n^2 for every row n > 1."""
    require_p(p)
    four_p = 4 * p
    return hurwitz_sixfolds(
        [four_p - t * t for t in range(math.isqrt(four_p - 1) + 1)]
        + [(four_p - t * t) // (n * n) for t, ns in _rows(p).items() for n in ns[1:]]
    )


def _trace_sixfolds(
    p: int, table: list[int] | dict[int, int] | None
) -> tuple[list[int], dict[int, list[tuple[int, int]]]]:
    """([6H(4p - t^2) for ascending t], {t: [(d1, e(d1)), ...]}) at p.

    The dict holds the traces with some n > 1, and for each n | p-1 with
    n^2 | N = p + 1 - t, d1 ascending from 1, the Moebius-inverted sixfold
    e(d1) = sum_k mu(k) 6H((4p - t^2)/(d1 k)^2): the models with d1 exactly
    m number (p-1) e(m)/12.  ``table`` is as in ``tally_structures``.
    """
    require_p(p)
    six = sixfolds(p) if table is None else table
    four_p = 4 * p
    tmax = math.isqrt(four_p - 1)
    rows = _rows(p)
    ts = range(-tmax, tmax + 1)
    try:
        h = [six[four_p - t * t] for t in ts]
        row_sixfolds = {t: [six[(four_p - t * t) // (n * n)] for n in ns] for t, ns in rows.items()}
    except LookupError:
        raise DomainError(f"Hurwitz table lacks a sixfold 6H(D), D <= {four_p}, that p={p} needs") from None
    # every (p - 1) 6H/12 is whole iff (p - 1) times their gcd is a multiple of 12
    if (p - 1) * math.gcd(*h, *chain.from_iterable(row_sixfolds.values())) % 12:
        raise InvariantError(f"non-integral model count (p-1) 6H/12 at p={p}")
    mass = sum(h)
    if mass != 12 * p:
        raise InvariantError(f"sum of 6H(4p - t^2) is {mass}, not 12p = {12 * p}, at p={p}")
    moment = sum(map(operator.mul, map(operator.mul, ts, ts), h)) - p * mass
    if moment != -12:
        raise InvariantError(f"trace moment sum (t^2 - p) 6H(4p - t^2) is {moment}, not -12, at p={p}")
    inverted = {}
    for t, e in row_sixfolds.items():
        ns = rows[t]
        # Moebius inversion in place, largest n first: 6H((4p - t^2)/m^2) less
        # the inverted sixfolds of every proper multiple of m in ns
        for i in range(len(ns) - 2, -1, -1):
            for j in range(i + 1, len(ns)):
                if ns[j] % ns[i] == 0:
                    e[i] -= e[j]
        if min(e) < 0:
            raise InvariantError(f"negative inverted sixfolds {e} for d1 in {ns} at p={p}, t={t}")
        inverted[t] = list(zip(ns, e))
    return h, inverted


def tally_structures(p: int, table: list[int] | dict[int, int] | None = None) -> StructureTally:
    """Exact tally of group shapes over all p^2 - p nonsingular models.

    For each trace t with t^2 < 4p and N = p + 1 - t, the models with d1
    exactly m number (p-1) e(m)/12, e the Moebius-inverted sixfolds of
    ``_trace_sixfolds``; a trace with no n > 1 has the one shape Z/N with
    (p-1) 6H(4p - t^2)/12 models.  6H(D) is read as ``table[D]``, from
    ``arith.hurwitz_table(M)`` with M >= 4p or the ``sixfolds(p)`` dict, or
    from ``sixfolds(p)`` without a table; all give the same tally, and a
    table without a D that the count reads raises ``DomainError``.
    """
    h, inverted = _trace_sixfolds(p, table)
    tmax = len(h) // 2
    counts = {}
    for t, s in zip(range(-tmax, tmax + 1), h):
        N = p + 1 - t
        for d1, e in inverted.get(t, ((1, s),)):
            if e:
                counts[GroupShape(d1, N // (d1 * d1))] = (p - 1) * e // 12
    return StructureTally(p, counts)


def empirical_probability(tally: StructureTally, shape: GroupShape) -> Fraction:
    """P(E(F_p) iso Z/d1 x Z/(d1*d2)) under the 1/|Aut| weighting, exactly.

    Equals count/(p(p-1)) because each isomorphism class occupies exactly
    (p-1)/|Aut(E)| models and the class masses 1/|Aut| sum to p.
    """
    p = tally.p
    return Fraction(tally.counts.get(shape, 0), p * (p - 1))


class TallyAverages(NamedTuple):
    """Every automorphism-weighted average at one prime, exactly: the fields
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


def weighted_averages(p: int, table: list[int] | dict[int, int] | None = None) -> TallyAverages:
    """All weighted averages at p from the sixfolds, with no tally.

    A shape's models are (p-1)/12 times its sixfold, and the mass p(p-1), so
    each average is a sum over sixfolds divided by 12p.  Every Z/N has
    s = c = tau(N), so sum_t 6H(4p - t^2) tau(N) counts every model as
    cyclic; each shape with d1 >= 2 then adds e(d1) (stat(d1) - tau(N)).
    ``table`` is as in ``tally_structures``.
    """
    h, inverted = _trace_sixfolds(p, table)
    lo, hi = hasse_window(p)
    tau = tau_window(lo, hi)[::-1]  # tau(p + 1 - t) for ascending t
    tmax = len(h) // 2
    cyclic = sum(map(operator.mul, h, tau))
    weights, shapes = [], []
    for t, entries in inverted.items():
        N = p + 1 - t
        for d1, e in entries[1:]:
            if e:
                cyclic -= e * tau[t + tmax]
                weights.append(e)
                shapes.append(GroupShape(d1, N // (d1 * d1)))
    columns = zip(*map(shape_statistics, shapes))
    return TallyAverages(
        *(Fraction(cyclic + sum(map(operator.mul, weights, column)), 12 * p) for column in columns),
        Fraction(1),  # _trace_sixfolds checked sum_t 6H(4p - t^2) = 12p
    )


# Kept for perfbench, which times it as a span (spans.TARGETS); the CLI never calls it.
def weighted_average_from_tally(
    tally: StructureTally, stat: str, formula: str = "corrected"
) -> Fraction:
    """Automorphism-weighted average of a shape statistic, exactly."""
    return weighted_averages(tally.p).select(stat, formula)
