"""Short-Weierstrass curves y^2 = x^3 + ax + b over F_p: structure tallies
by group shape and weighted averages, both from Schoof's count.

By Schoof's theorem, weighted by 1/|Aut(E)| the curves with trace t and
E[m] in E(F_p) number H((4p - t^2)/m^2)/2 when m | p-1 and m^2 | p+1-t, H the
Hurwitz class number.  A class occupies (p-1)/|Aut(E)| models, so
(p-1) 6H((4p - t^2)/m^2)/12 models have E[m] rational, computed in integers
from the sixfold 6H; E[m] is rational exactly when m | d1.

``_inverted_rows`` reads the count one row at a time.  Row m, for each
m | p-1 with m^2 <= p + 1 + isqrt(4p - 1), holds F_m[j] = 6H((4p - t^2)/m^2),
t = p + 1 - N, at the orders N = N0 + j m^2 of the Hasse window, N0 the
least multiple of m^2 in it.  The orders of a proper multiple m' of m are
the strided slice [off::(m'/m)^2] of row m, so Moebius inversion, largest m
first, subtracts whole rows and leaves E_m: the models of shape
(m, N0/m^2 + j) number (p-1) E_m[j]/12.  The count is exact and
deterministic; dividing by p(p-1) gives the 1/|Aut| weighting, mass 1.

``tally_structures(p)`` lists those counts by shape.  ``weighted_averages(p)``
needs no shape.  Z/m x Z/(N/m) has sum_{k | m} w(k) tau(m/k) tau(N/(mk))
subgroups, w = phi (phi*mu for the cyclic ones), and the printed convention
reads tau(N/k) for tau(N/(mk)).  Along row m these arguments step by m/k
and m^2/k, so each average times 12p is a sum of inner products of E_m
with strided slices of a tau table, and tau_N is that of row 1 before
inversion with tau(N).

The sixfolds 6H come from ``arith``, and this module alone decides which
kernel a run reads.  A single prime, which would pay about 1.4 p^1.5 steps
for a class-number table up to 4p, asks ``arith.hurwitz_sixfolds`` for just
the values its rows read: one O(p) pass over a.  Its tau values come from
one sieved window [ceil(lo/q), floor(hi/q)] for each q that divides an
argument.  ``sweep_averages(xmax)`` instead builds one ``arith.hurwitz_table``
up to 4 xmax and one ``arith.tau_window(1, M)``, M = xmax + 1 + isqrt(4 xmax),
and every prime p <= xmax reads both: its rows reach 6H(4p) and tau(p + 1 +
isqrt(4p - 1)), which a prime xmax reads as the last entry of each table.

The per-model point counts and group shapes that the tests hold the tally
to, model by model, and the averages summed shape by shape, are in
``tests/oracles.py``.
"""

from __future__ import annotations

import math
import operator
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import NamedTuple

from .arith import (
    factorize,
    hurwitz_sixfolds,
    hurwitz_table,
    phi_prime_power,
    phi_star_mu_prime_power,
    primes_up_to,
    require_p,
    tau_window,
)
from .errors import InvariantError
from .groups import SHAPE_STATS, GroupShape, statistic_field

_STATS = (*SHAPE_STATS, "one")


@dataclass(frozen=True)
class StructureTally:
    """Exact count of nonsingular models per group shape Z/d1 x Z/(d1*d2) for
    one prime, in ascending d1 and then ascending d2.

    Construction checks p (``require_p``), then the tally: a d1 that does not
    divide p-1, an order outside the Hasse interval, a count below 1 or a
    mass other than p(p-1) raises ``InvariantError``.
    """

    p: int
    counts: dict[GroupShape, int]

    def __post_init__(self) -> None:
        p = self.p
        require_p(p)
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
# Schoof's count, one row per m | p-1
# ----------------------------------------------------------------------

class _Rows(NamedTuple):
    """Schoof's count at p by rows m | p-1, Moebius-inverted.

    ``divisors`` holds (m, tau(m), phi(m), (phi*mu)(m)) for each row, m
    ascending; ``starts`` the order N0 of each row's entry 0; ``h`` row 1
    before inversion, 6H(4p - t^2) for ascending N = p + 1 - t; ``inverted``
    every row's E_m.
    """

    p: int
    divisors: list[tuple[int, int, int, int]]
    starts: list[int]
    h: list[int]
    inverted: list[list[int]]


def _row_divisors(p: int) -> list[tuple[int, int, int, int]]:
    """(m, tau(m), phi(m), (phi*mu)(m)) for every m | p-1 with
    m^2 <= p + 1 + isqrt(4p - 1), m ascending: the rows that hold a trace.
    Each is multiplied out of the prime powers of one factorization of p-1."""
    hi = hasse_window(p)[1]
    out = [(1, 1, 1, 1)]
    for ell, e in factorize(p - 1):
        powers = [
            (ell**c, c + 1, phi_prime_power(ell, c), phi_star_mu_prime_power(ell, c))
            for c in range(e + 1)
        ]
        out = [
            (m * q, tau * u, phi * f, psm * g)
            for m, tau, phi, psm in out
            for q, u, f, g in powers
            if (m * q) ** 2 <= hi
        ]
    return sorted(out)


def _row_starts(p: int, ms: list[int]) -> list[int]:
    """For each m, the least multiple of m^2 that is at least
    p + 1 - isqrt(4p - 1), the least order of the Hasse window."""
    lo = hasse_window(p)[0]
    return [-(-lo // (m * m)) * m * m for m in ms]


def _sixfolds(p: int, ms: list[int], starts: list[int]) -> dict[int, int]:
    """{D: 6H(D)} for every D that the rows read, from one
    ``arith.hurwitz_sixfolds`` call: 4p - t^2 for 0 <= t <= isqrt(4p - 1)
    (6H depends only on t^2), then (4p - t^2)/m^2 along every row m > 1."""
    four_p, top = 4 * p, p + 1
    tmax = top - starts[0]
    return hurwitz_sixfolds(
        [four_p - t * t for t in range(tmax + 1)]
        + [
            (four_p - t * t) // (m * m)
            for m, n0 in zip(ms[1:], starts[1:])
            for t in range(top - n0, -tmax - 1, -m * m)
        ]
    )


def _inverted_rows(p: int, table: list[int] | None = None) -> _Rows:
    """Every row of Schoof's count at p, checked and inverted.

    6H(D) is read as ``table[D]``, from the sweep's ``arith.hurwitz_table``
    up to at least 4p, or without a table from one ``arith.hurwitz_sixfolds``
    call at the D that the rows read.  Before inversion the rows must
    give whole model counts (p-1) 6H/12, row 1 the mass sum_t 6H(4p - t^2)
    = 12p (Kronecker) and the moment sum_t (t^2 - p) 6H(4p - t^2) = -12
    (Birch); after it every E_m must be non-negative.  Each failure raises
    ``InvariantError``.
    """
    require_p(p)
    divs = _row_divisors(p)
    ms = [m for m, *_ in divs]
    starts = _row_starts(p, ms)
    six = _sixfolds(p, ms, starts) if table is None else table
    four_p, top = 4 * p, p + 1
    tmax = top - starts[0]
    half = [six[four_p - t * t] for t in range(tmax + 1)]  # 6H depends only on t^2
    rows = [half[:0:-1] + half] + [
        [six[(four_p - t * t) // (m * m)] for t in range(top - n0, -tmax - 1, -m * m)]
        for m, n0 in zip(ms[1:], starts[1:])
    ]
    # every (p - 1) 6H/12 is whole iff (p - 1) times their gcd is a multiple of 12
    if (p - 1) * math.gcd(*chain.from_iterable(rows)) % 12:
        raise InvariantError(f"non-integral model count (p-1) 6H/12 at p={p}")
    h = rows[0]
    mass = sum(h)
    if mass != 12 * p:
        raise InvariantError(f"sum of 6H(4p - t^2) is {mass}, not 12p = {12 * p}, at p={p}")
    ts = range(tmax, -tmax - 1, -1)  # the traces of row 1, N ascending
    moment = sum(map(operator.mul, map(operator.mul, ts, ts), h)) - p * mass
    if moment != -12:
        raise InvariantError(f"trace moment sum (t^2 - p) 6H(4p - t^2) is {moment}, not -12, at p={p}")
    inverted = [h.copy(), *rows[1:]]
    # largest m first: E_m = F_m less E_m' of every proper multiple m' of m,
    # whose orders are the entries off, off + (m'/m)^2, ... of row m
    for i in range(len(ms) - 2, -1, -1):
        m, e = ms[i], inverted[i]
        for j in range(i + 1, len(ms)):
            if ms[j] % m == 0:
                off, step = (starts[j] - starts[i]) // (m * m), (ms[j] // m) ** 2
                e[off::step] = map(operator.sub, e[off::step], inverted[j])
    for m, n0, e in zip(ms, starts, inverted):
        if e and min(e) < 0:
            j = e.index(min(e))
            raise InvariantError(f"negative inverted sixfold {e[j]} for d1 = {m} at p={p}, t={top - n0 - j * m * m}")
    return _Rows(p, divs, starts, h, inverted)


def _tally(rows: _Rows) -> StructureTally:
    p = rows.p
    counts = {
        GroupShape(m, n0 // (m * m) + j): (p - 1) * e // 12
        for (m, *_), n0, row in zip(rows.divisors, rows.starts, rows.inverted)
        for j, e in enumerate(row)
        if e
    }
    return StructureTally(p, counts)


def tally_structures(p: int) -> StructureTally:
    """Exact tally of group shapes over all p^2 - p nonsingular models.

    The models of shape (m, N/m^2) number (p-1) E_m/12, E_m the inverted
    row m of ``_inverted_rows`` at the order N, so row by row they come out
    in ascending d1 and d2.  The class numbers come from one
    ``arith.hurwitz_sixfolds`` pass.
    """
    return _tally(_inverted_rows(p))


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


def _averages(rows: _Rows, taus: list[int] | None = None) -> TallyAverages:
    """Every average at p from the rows as stored, each tau(N/q) a strided
    slice of ``taus`` = (tau(1), tau(2), ...) or of a window sieved per q."""
    p = rows.p
    lo, hi = hasse_window(p)
    stats = {m: rest for m, *rest in rows.divisors}
    # (m, E_m, the least N of the row) for every row with a trace
    live = [(m, e, n0) for (m, *_), n0, e in zip(rows.divisors, rows.starts, rows.inverted) if e]
    # (tau(first), tau(first + 1), ...), first) for each q that divides an argument
    if taus is None:
        qs = {q for m, _, _ in live for k in stats if m % k == 0 for q in (k, m * k)}
        windows = {q: (tau_window(-(-lo // q), hi // q), -(-lo // q)) for q in qs}
    else:
        windows = defaultdict(lambda: (taus, 1))
    s_corr = s_print = c_corr = c_print = 0
    for m, e, least in live:
        n = len(e)
        for k, (_, phi, psm) in stats.items():
            if k > m:
                break
            if m % k:
                continue
            # along the row tau(N/(mk)) steps by m/k, and tau(N/k) by m^2/k
            vals, first = windows[m * k]
            start, step = least // (m * k) - first, m // k
            corr = sum(map(operator.mul, e, vals[start : start + n * step : step]))
            if k == 1:
                by_m = corr  # <E_m, tau(N/m)>, which the printed term k = m reads too
            if k == m:
                prnt = by_m
            else:
                vals, first = windows[k]
                start, step = least // k - first, m * m // k
                prnt = sum(map(operator.mul, e, vals[start : start + n * step : step]))
            tau_mk = stats[m // k][0]
            s_corr += tau_mk * phi * corr
            s_print += tau_mk * phi * prnt
            c_corr += tau_mk * psm * corr
            c_print += tau_mk * psm * prnt
    vals, first = windows[1]
    tau_n = sum(map(operator.mul, rows.h, vals[lo - first : hi - first + 1]))
    return TallyAverages(
        *(Fraction(v, 12 * p) for v in (s_corr, s_print, c_corr, c_print, tau_n)),
        Fraction(1),  # _inverted_rows checked sum_t 6H(4p - t^2) = 12p
    )


def weighted_averages(p: int) -> TallyAverages:
    """All weighted averages at p from the inverted rows, with no tally.

    Each average times 12p is sum_m sum_{k | m} w(k) tau(m/k) <E_m, tau(N/(mk))>
    (tau(N/k) in the printed convention), and tau_N times 12p is
    <6H(4p - t^2), tau(N)> over the traces.  The class numbers come from one
    ``arith.hurwitz_sixfolds`` pass, and each q that divides an argument
    sieves its own window of the Hasse interval divided by q.
    """
    return _averages(_inverted_rows(p))


def sweep_averages(xmax: int) -> dict[int, TallyAverages]:
    """``weighted_averages(p)`` for every prime 5 <= p <= xmax, ascending.

    Every prime reads one class-number table up to 4 xmax and one tau table
    up to xmax + 1 + isqrt(4 xmax), the largest order that a prime xmax
    reads.  The tables cost about 1.4 xmax^1.5 steps and 5 xmax ints.
    """
    top = max(xmax, 0)
    table = hurwitz_table(4 * top)
    taus = tau_window(1, top + 1 + math.isqrt(4 * top))
    return {p: _averages(_inverted_rows(p, table), taus) for p in primes_up_to(xmax) if p >= 5}


def _averages_and_tally(p: int) -> tuple[TallyAverages, StructureTally]:
    """``weighted_averages(p)`` and ``tally_structures(p)`` from one build of
    the inverted rows, as ``brute --tally`` prints them."""
    rows = _inverted_rows(p)
    return _averages(rows), _tally(rows)


# Kept for perfbench, which times it as a span (spans.TARGETS); the CLI never calls it.
def weighted_average_from_tally(
    tally: StructureTally, stat: str, formula: str = "corrected"
) -> Fraction:
    """Automorphism-weighted average of a shape statistic, exactly."""
    return weighted_averages(tally.p).select(stat, formula)
