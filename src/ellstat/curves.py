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

The sixfolds 6H come from one of two sources.  A sweep over many primes
passes one ``arith.hurwitz_table`` up to 4 xmax, built once, and every tally
reads 6H(4p - t^2) and 6H((4p - t^2)/n^2) from it.  A single tally, which
would pay about 1.4 p^1.5 steps for a table up to 4p, makes one O(p) pass
over the reduced forms (a, b, c) with 4ac - b^2 = 4p - t^2 instead: whether
c is an integer depends only on t mod 2a, so each (a, b) and each such
residue adds the weight of ``arith.hurwitz_sixfold`` (12, or 6 when b is 0
or a; 3, 2 or 6 when c = a) along one progression of traces t >= 0, and the
negative traces mirror them; its rows n > 1 visit only the traces with
n^2 | N and read ``arith.hurwitz_sixfold`` directly.

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

from .arith import divisors, hurwitz_sixfold, mu, require_p
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

def _trace_sixfolds(p: int) -> list[int]:
    """6H(4p - t^2) for t = 0, 1, ..., isqrt(4p - 1), in one pass over the
    reduced forms (a, b, c), 0 <= b <= a <= c, with 4ac - b^2 = 4p - t^2.

    c is an integer iff t^2 = b^2 + 4p (mod 4a), which depends only on
    r = t mod 2a because (t + 2a)^2 = t^2 (mod 4a), and r and 2a - r give
    the same square.  So for each a, each r in [0, a] and each b in [0, a]
    with b^2 = r^2 - 4p (mod 4a), the traces t = r, r + 2a, ... and
    t = 2a - r, 4a - r, ... up to T = isqrt(4p + b^2 - 4a^2) (where c >= a
    stops holding) each gain one form, with the weights of
    ``arith.hurwitz_sixfold``: 12, or 6 when b is 0 or a; at t = T with
    T^2 = 4p + b^2 - 4a^2 the form has c = a and weighs 3 (b = 0), 2 (b = a)
    or 6.  About 2p/3 residue lookups and as many insertions, plus one step
    per form, and the forms number sum_t H(4p - t^2) = 2p, so the pass is
    O(p).
    """
    four_p = 4 * p
    sixfolds = [0] * (math.isqrt(four_p - 1) + 1)
    a = 1
    while 3 * a * a < four_p:
        modulus, period = 4 * a, 2 * a
        by_square: dict[int, list[int]] = {}
        for b in range(a + 1):
            by_square.setdefault(b * b % modulus, []).append(b)
        for r in range(a + 1):
            for b in by_square.get((r * r - four_p) % modulus, ()):
                top = four_p + b * b - modulus * a
                if top < r * r:
                    continue
                T = math.isqrt(top)
                weight = 6 if b == 0 or b == a else 12
                for start in (r,) if r in (0, a) else (r, period - r):
                    for t in range(start, T + 1, period):
                        sixfolds[t] += weight
                    if T * T == top and T % period == start:
                        sixfolds[T] += (3 if b == 0 else 2 if b == a else 6) - weight
        a += 1
    return sixfolds


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
    m number sum_k mu(k) F(mk).  6H depends only on t^2, so the sixfolds are
    taken for t >= 0 and the negative traces mirror them; the rows n > 1
    visit only the traces t = p + 1 (mod n^2).

    With ``table`` (``arith.hurwitz_table(M)``, M >= 4p) every sixfold is a
    lookup in it; a shorter table raises ``DomainError``.  Without one, the
    n = 1 sixfolds come from one O(p) pass over the reduced forms, grouped by
    t mod 2a (``_trace_sixfolds``), and the rows n > 1 call
    ``arith.hurwitz_sixfold`` at (4p - t^2)/n^2 <= p.  Both give the same
    counts, in the same order.
    """
    require_p(p)
    tmax = math.isqrt(4 * p - 1)
    if table is None:
        sixfolds, sixfold_at = _trace_sixfolds(p), hurwitz_sixfold
    elif len(table) <= 4 * p:
        raise DomainError(
            f"Hurwitz table ends at D = {len(table) - 1}; the tally at p={p} needs D = {4 * p}"
        )
    else:
        sixfolds = [table[4 * p - t * t] for t in range(tmax + 1)]
        sixfold_at = table.__getitem__
    rows: dict[int, dict[int, int]] = {}
    for n in divisors(p - 1)[1:]:
        step = n * n
        for t in range(-tmax + (p + 1 + tmax) % step, tmax + 1, step):
            rows.setdefault(t, {1: sixfolds[abs(t)]})[n] = sixfold_at((4 * p - t * t) // step)
    counts: dict[GroupShape, int] = {}
    for t in range(-tmax, tmax + 1):
        N = p + 1 - t
        if t not in rows:  # d1 = 1 is the only candidate
            models = _model_count(p, t, 1, sixfolds[abs(t)])
            if models:
                counts[GroupShape(1, N)] = models
            continue
        F = {n: _model_count(p, t, n, sixfold) for n, sixfold in rows[t].items()}
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

