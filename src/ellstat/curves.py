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

``weighted_averages`` reads every average of a tally in one pass, one
``groups.shape_statistics`` call per shape; ``weighted_average_from_tally``
selects one of them.

The per-model point counts and group shapes that the tests hold the tally
to, model by model, are in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .arith import divisors, hurwitz_sixfolds, mu, require_p
from .errors import DomainError, InvariantError
from .groups import SHAPE_STATS, GroupShape, shape_statistics, statistic_field

_STATS = (*SHAPE_STATS, "one")


@dataclass(frozen=True)
class StructureTally:
    """Exact count of nonsingular models per group shape for one prime."""

    p: int
    counts: dict[GroupShape, int]

    def total(self) -> int:
        return sum(self.counts.values())


def hasse_admissible(p: int, N: int) -> bool:
    """Whether N lies in the Hasse interval [(sqrt(p)-1)^2, (sqrt(p)+1)^2]."""
    t = p + 1 - N
    return t * t < 4 * p


# ----------------------------------------------------------------------
# the tally by Schoof's count
# ----------------------------------------------------------------------

def _model_count(p: int, t: int, n: int, sixfold: int) -> int:
    """The models (p - 1) 6H/12 with trace t and E[n] rational, given 6H."""
    models, rem = divmod((p - 1) * sixfold, 12)
    if rem:
        raise InvariantError(
            f"non-integral model count {models * 12 + rem}/12 at p={p}, t={t}, n={n}"
        )
    return models


def tally_structures(p: int, table: list[int] | None = None) -> StructureTally:
    """Exact tally of group shapes over all p^2 - p nonsingular models.

    For each trace t with t^2 < 4p and N = p + 1 - t, the models with
    E[n] in E(F_p) number F(n) = (p-1) 6H((4p - t^2)/n^2)/12 when n | p-1
    and n^2 | N (Schoof), H the Hurwitz class number; those with d1 exactly
    m number sum_k mu(k) F(mk).  The rows n > 1 visit only the traces
    t = p + 1 (mod n^2).

    Every sixfold is read as six[D].  With ``table``
    (``arith.hurwitz_table(M)``, M >= 4p) six is that table; a shorter one
    raises ``DomainError``.  Without one, six is one ``arith.hurwitz_sixfolds``
    call at 4p - t^2 for 0 <= t <= isqrt(4p - 1) (6H depends only on t^2)
    and at every (4p - t^2)/n^2 of the rows.  Both give the same counts, in
    the same order.
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
    counts: dict[GroupShape, int] = {}
    for t in range(-tmax, tmax + 1):
        N = p + 1 - t
        D = four_p - t * t
        if t not in rows:  # d1 = 1 is the only candidate
            models = _model_count(p, t, 1, six[D])
            if models:
                counts[GroupShape(1, N)] = models
            continue
        F = {n: _model_count(p, t, n, six[D // (n * n)]) for n in rows[t]}
        for m in F:
            exact = sum(mu(mk // m) * F[mk] for mk in F if mk % m == 0)
            if exact < 0:
                raise InvariantError(f"negative count {exact} for d1={m} at p={p}, t={t}")
            if exact:
                counts[GroupShape(m, N // (m * m))] = exact
    tally = StructureTally(p, counts)
    _validate_tally(tally)
    return tally


def _validate_tally(tally: StructureTally) -> None:
    p = tally.p
    if tally.total() != p * p - p:
        raise InvariantError(
            f"tally mass {tally.total()} != p^2 - p = {p * p - p} at p={p}"
        )
    for shape in tally.counts:
        if (p - 1) % shape.d1 or not hasse_admissible(p, shape.order):
            raise InvariantError(f"inadmissible shape {shape} at p={p}")


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
    """All weighted averages of a tally in one pass over its shapes."""
    counts = tally.counts.values()
    columns = zip(*map(shape_statistics, tally.counts))
    mass = tally.p * (tally.p - 1)
    return TallyAverages(
        *(Fraction(sum(map(operator.mul, counts, column)), mass) for column in columns),
        Fraction(tally.total(), mass),
    )


# Kept for perfbench, which times it as a span (spans.TARGETS); the CLI never calls it.
def weighted_average_from_tally(
    tally: StructureTally, stat: str, formula: str = "corrected"
) -> Fraction:
    """Automorphism-weighted average of a shape statistic, exactly."""
    return weighted_averages(tally).select(stat, formula)

