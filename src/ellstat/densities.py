"""Exact local matrix densities over Z/l^R, the archimedean semicircle
factor, and the local-density product approximating group-structure
probabilities.

The density f_l(d1, d2, p) is the normalized count of 2x2 matrices g over
Z/l^R with det g = p, tr g = p + 1 - d1^2*d2, g == 1 mod l^v and g != 1 mod
l^(v+1), where v = v_l(d1); the count stabilizes once R exceeds the
l-valuation of the discriminant D = t^2 - 4p and is divided by
l^(2R)(1 - 1/l^2).  The related density g(w, v) classifies matrices by
v_l(p + 1 - tr g) = w instead of fixing the trace, is normalized by
l^(3R)(1 - 1/l^2), and has (1 - 1/l)/l^w subtracted.

Counting never loops over all l^(4R) matrices on the production path: with
the trace fixed, g22 is forced, and the number of (g12, g21) pairs with
prescribed product and congruence is a two-case valuation formula, leaving
one vectorized pass over g11.  The l^(3R) and l^(4R) brute-force loops are
kept as cross-check oracles.

All densities are exact ``Fraction`` values; floats appear only in the
archimedean factor and in truncated products.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import log, pi, sqrt
from typing import NamedTuple

import numpy as np

from .arith import is_prime, kronecker_chi, primes_up_to, valuation
from .errors import BudgetError, DomainError, InvariantError
from .groups import GroupShape

#: Adjudicated archimedean normalization: with the factor
#: (1/(p*pi))*sqrt(4p - t^2) as printed, the total mass over the Hasse
#: interval is 2 and shape probabilities sum to ~2; the "half" variant
#: restores total mass 1.  Fixed empirically by the acceptance suite.
DEFAULT_NORMALIZATION = "half"


class LocalFactor(NamedTuple):
    value: Fraction
    stabilized_at_R: int


@dataclass(frozen=True)
class ProbabilityEstimate:
    value: float
    tail_log_increment: float
    ell_max: int


def _check_prime(n: int, name: str) -> None:
    if not is_prime(n):
        raise DomainError(f"{name} must be prime, got {n}")


def _enum_budget(ell: int, R: int) -> None:
    cap = {2: 128, 3: 81}.get(ell, ell**3)
    if ell**R > cap:
        raise BudgetError(f"l^R = {ell}^{R} exceeds the enumeration budget {cap}")


def f_infty(t: int, p: int, normalization: str = DEFAULT_NORMALIZATION) -> float:
    """Semicircle factor (1/(p*pi)) sqrt(4p - t^2) on |t| < 2 sqrt(p).

    normalization="half" multiplies by 1/2, making the factor integrate to 1
    over the Hasse interval instead of 2.
    """
    if p < 5:
        raise DomainError(f"need p >= 5, got {p}")
    if normalization not in ("paper", "half"):
        raise DomainError(f"unknown normalization {normalization!r}")
    if t * t >= 4 * p:
        return 0.0
    val = sqrt(4 * p - t * t) / (p * pi)
    return val / 2 if normalization == "half" else val


# ----------------------------------------------------------------------
# matrix counts: production formula path
# ----------------------------------------------------------------------

def _count_trace_fixed_level(p: int, t: int, ell: int, R: int, v: int) -> int:
    """The fixed-trace count at congruence level exactly v (== 1 mod l^v,
    != 1 mod l^(v+1))."""
    return _count_trace_fixed_vec(p, t, ell, R, v) - _count_trace_fixed_vec(
        p, t, ell, R, v + 1
    )


def _bucket_count_level(p: int, w: int, v: int, ell: int, R: int) -> int:
    """#{g : det g = p, v_l(p + 1 - tr g) = w exactly, level exactly v}.

    Sums the fixed-trace count over the l^(R-w-1)(l-1) traces of the class;
    the g11 loop inside each fixed-trace count is vectorized.
    """
    if w >= R:
        raise DomainError(f"exact bucket needs w < R, got w={w}, R={R}")
    q = ell**R
    units = np.arange(ell ** (R - w), dtype=np.int64)
    units = units[units % ell != 0]
    traces = (p + 1 - units * ell**w) % q
    return sum(_count_trace_fixed_level(p, int(t), ell, R, v) for t in traces)


def _count_trace_fixed_vec(p: int, t: int, ell: int, R: int, u: int) -> int:
    """#{g in M_2(Z/l^R) : det g = p, tr g = t, g == 1 mod l^u}.

    With the trace fixed, g22 = t - g11 is forced and the (g12, g21) pairs
    satisfying g12*g21 = g11*g22 - p are counted by the valuation formula,
    so only g11 varies, as one numpy array.
    """
    u = min(u, R)
    q = ell**R
    s = ell**u
    g11 = np.arange(1 % s, q, s, dtype=np.int64)
    g22 = (t - g11) % q
    keep = (g22 - 1) % s == 0
    g11 = g11[keep]
    g22 = g22[keep]
    if len(g11) == 0:
        return 0
    c = (g11 * g22 - p) % q
    return int(_pair_count_vec(c, u, ell, R).sum())


def _pair_count_vec(c: np.ndarray, u: int, ell: int, R: int) -> np.ndarray:
    """#{(x, y) in (Z/l^R)^2 : x == y == 0 mod l^u, x*y == c mod l^R} per c."""
    if 2 * u >= R:
        return np.where(c == 0, ell ** (2 * (R - u)), 0).astype(np.int64)
    s2 = ell ** (2 * u)
    m = R - 2 * u
    lm1 = ell ** (m - 1)
    ok = c % s2 == 0
    c2 = np.where(ok, c // s2, 1)
    # valuation of c2 in [0, m], with v(0) treated as m
    val = np.zeros(len(c), dtype=np.int64)
    work = c2.copy()
    for _ in range(m):
        div = (work != 0) & (work % ell == 0)
        val += div
        work = np.where(div, work // ell, work)
    val = np.where(c2 == 0, m, val)
    pairs = np.where(
        c2 == 0, lm1 * ell + m * lm1 * (ell - 1), (val + 1) * lm1 * (ell - 1)
    )
    return np.where(ok, pairs * s2, 0).astype(np.int64)


# ----------------------------------------------------------------------
# brute-force enumeration oracles (cross-checks only)
# ----------------------------------------------------------------------

def count_trace_fixed_enum(p: int, t: int, ell: int, R: int, u: int) -> int:
    """O(l^(3R)) oracle: loop g11 and the full (g12, g21) grid."""
    u = min(u, R)
    q = ell**R
    if q**3 > 1 << 24:
        raise BudgetError("enumeration oracle limited to l^(3R) <= 2^24")
    s = ell**u
    pm, tm = p % q, t % q
    g = np.arange(q, dtype=np.int64)
    prod = g[:, None] * g[None, :] % q
    lvl = (g % s == 0)
    pair_ok = lvl[:, None] & lvl[None, :]
    total = 0
    for g11 in range(1 % s, q, s):
        g22 = (tm - g11) % q
        if (g22 - 1) % s:
            continue
        c = (g11 * g22 - pm) % q
        total += int((pair_ok & (prod == c)).sum())
    return total


def count_bucket_enum(p: int, w: int, v: int, ell: int, R: int) -> int:
    """O(l^(4R)) oracle for the trace-valuation bucket count at exact level v.

    Loops (g11, g22) in Python with the (g12, g21) grid in numpy; w = R
    requests the tail bucket v_l(p + 1 - tr) >= R.
    """
    q = ell**R
    if q**4 > 1 << 26:
        raise BudgetError("enumeration oracle limited to l^(4R) <= 2^26")
    g = np.arange(q, dtype=np.int64)
    grid = g[:, None] * g[None, :] % q
    lv = min(ell**v, q)
    lv1 = min(ell ** (v + 1), q)
    pair_v = (g % lv == 0)[:, None] & (g % lv == 0)[None, :]
    pair_v1 = (g % lv1 == 0)[:, None] & (g % lv1 == 0)[None, :]
    total = 0
    for g11 in range(q):
        for g22 in range(q):
            m = (p + 1 - g11 - g22) % q
            wv = R if m == 0 else valuation(m, ell)
            if (wv != w) if w < R else (wv < R):
                continue
            if (g11 - 1) % lv or (g22 - 1) % lv:
                continue
            ok = grid == (g11 * g22 - p) % q
            cnt = int((ok & pair_v).sum())
            if (g11 - 1) % lv1 == 0 and (g22 - 1) % lv1 == 0:
                cnt -= int((ok & pair_v1).sum())
            total += cnt
    return total


# ----------------------------------------------------------------------
# public densities
# ----------------------------------------------------------------------

def _norm2(ell: int, R: int) -> int:
    return ell ** (2 * R) - ell ** (2 * R - 2)


def _norm3(ell: int, R: int) -> int:
    return ell ** (3 * R) - ell ** (3 * R - 2)


def f_ell(ell: int, d1: int, d2: int, p: int) -> LocalFactor:
    """Exact matrix density for the shape (d1, d2) at the prime ell.

    The count runs at R = v_l(D) + 1 with D = t^2 - 4p and is re-verified at
    R + 1; disagreement raises.  Returns the normalized value and R.
    """
    _check_prime(ell, "ell")
    _check_prime(p, "p")
    if p < 5:
        raise DomainError(f"need p >= 5, got {p}")
    if d1 < 1 or d2 < 1 or (p - 1) % d1:
        raise DomainError(f"inadmissible shape ({d1}, {d2}) for p={p}")
    N = d1 * d1 * d2
    t = p + 1 - N
    if t * t >= 4 * p:
        raise DomainError(f"N={N} outside the Hasse interval for p={p}")
    v = valuation(d1, ell)
    D = t * t - 4 * p
    R = max(valuation(D, ell) + 1, v + 1)
    _enum_budget(ell, R)
    val = Fraction(_count_trace_fixed_level(p, t, ell, R, v), _norm2(ell, R))
    check = Fraction(_count_trace_fixed_level(p, t, ell, R + 1, v), _norm2(ell, R + 1))
    if val != check:
        raise InvariantError(
            f"density did not stabilize at R={R} for ell={ell}, shape=({d1},{d2}), p={p}"
        )
    return LocalFactor(val, R)


def f_ell_closed(ell: int, d1: int, d2: int, p: int) -> Fraction:
    """Closed form l^-v (1 - 1/l^2)^-1 (1 + chi/l), valid when l does not
    divide D/d1^2; chi is the quadratic character of D/d1^2 at l."""
    _check_prime(ell, "ell")
    N = d1 * d1 * d2
    t = p + 1 - N
    D = t * t - 4 * p
    if (p - 1) % d1:
        raise DomainError(f"d1={d1} does not divide p-1={p - 1}")
    if D % (d1 * d1):
        raise DomainError("discriminant is not divisible by d1^2")
    Dq = D // (d1 * d1)
    if Dq % ell == 0:
        raise DomainError(f"closed form needs ell coprime to D/d1^2, ell={ell}")
    if ell == 2:
        chi = 1 if Dq % 8 in (1, 7) else -1
    else:
        chi = kronecker_chi(Dq, ell)
    v = valuation(d1, ell)
    return (
        Fraction(1, ell**v)
        * Fraction(ell * ell, ell * ell - 1)
        * (1 + Fraction(chi, ell))
    )


def f_p_local(p: int, N: int) -> Fraction:
    """Local factor at the characteristic: 1 + 1/(p-1) unless p | N - 1."""
    if p < 5 or not is_prime(p):
        raise DomainError(f"need a prime p >= 5, got {p}")
    return Fraction(1) if (N - 1) % p == 0 else 1 + Fraction(1, p - 1)


def g_density(
    p: int, w: int, v: int, ell: int, R: int, *, enforce_budget: bool = True
) -> Fraction:
    """Trace-valuation matrix density g(w, v) at level R, exactly.

    Counts matrices with det = p, v_l(p + 1 - tr) = w and congruence level
    exactly v, normalized by l^(3R)(1 - 1/l^2), minus (1 - 1/l)/l^w.
    Requires w < R.
    """
    _check_prime(ell, "ell")
    _check_prime(p, "p")
    if w < 0 or w >= R:
        raise DomainError(f"need 0 <= w < R, got w={w}, R={R}")
    if enforce_budget:
        _enum_budget(ell, R)
    cnt = _bucket_count_level(p, w, v, ell, R)
    return Fraction(cnt, _norm3(ell, R)) - Fraction(ell - 1, ell ** (w + 1))


def g_density_tail(
    p: int, v: int, ell: int, R: int, *, enforce_budget: bool = True
) -> Fraction:
    """The w = R bucket of the g-density sum, meaning v_l(p + 1 - tr) >= R."""
    _check_prime(ell, "ell")
    if enforce_budget:
        _enum_budget(ell, R)
    cnt = _count_trace_fixed_level(p, (p + 1) % ell**R, ell, R, v)
    return Fraction(cnt, _norm3(ell, R)) - Fraction(ell - 1, ell ** (R + 1))


def g_sum(p: int, v: int, ell: int, R: int) -> Fraction:
    """sum_{w=0..R} g(w, v) with the w = R bucket meaning v_l >= R.

    For v = 0 and ell != p this equals
    -delta_{ell | p-1}/(ell(ell^2-1)) + ell^-(R+1) exactly.
    """
    total = sum(g_density(p, w, v, ell, R) for w in range(R))
    return total + g_density_tail(p, v, ell, R)


def level_congruence_count(p: int, v: int, ell: int, R: int) -> int:
    """#{g in M_2(Z/l^R) : det g = p, tr g == p + 1 mod l^(2v), level exactly v}.

    This is the w-telescoped form of the g-density sum and the test oracle
    for the closed-form Euler factors of ``analytic``: summing over the whole
    congruence class of traces at once makes the normalized count stabilize
    already at R = 2v + 1, where the individual trace-valuation buckets keep
    fluctuating.
    """
    if R <= 2 * v:
        raise DomainError(f"need R > 2v, got R={R}, v={v}")
    q = ell**R
    step = ell ** (2 * v)
    total = 0
    for s in range(ell ** (R - 2 * v)):
        t = (p + 1 - s * step) % q
        total += _count_trace_fixed_level(p, t, ell, R, v)
    return total


# ----------------------------------------------------------------------
# probability product
# ----------------------------------------------------------------------

def probability_product(
    p: int,
    shape: GroupShape,
    ell_max: int,
    normalization: str = DEFAULT_NORMALIZATION,
) -> ProbabilityEstimate:
    """Truncated local-density product approximating the probability that
    E(F_p) has the given shape.

    Primes dividing the discriminant get the enumerated density, all other
    primes up to ell_max the closed form, and ell = p its own local factor.
    The reported diagnostic is the log-increment contributed by the last
    decade (ell_max/10, ell_max] of the truncation, a measure of the slow
    conditional convergence of the character tail.
    """
    d1, d2 = shape
    if p < 5 or not is_prime(p):
        raise DomainError(f"need a prime p >= 5, got {p}")
    if d1 < 1 or d2 < 1:
        raise DomainError(f"invalid shape {shape}")
    if (p - 1) % d1:
        return ProbabilityEstimate(0.0, 0.0, ell_max)
    N = shape.order
    t = p + 1 - N
    if t * t >= 4 * p:
        return ProbabilityEstimate(0.0, 0.0, ell_max)
    D = t * t - 4 * p
    value = f_infty(t, p, normalization)
    tail_log = 0.0
    for ell in primes_up_to(ell_max):
        if ell == p:
            factor = float(f_p_local(p, N))
        elif D % ell == 0:
            factor = float(_cached_f_ell(ell, d1, d2, p).value)
        else:
            factor = float(f_ell_closed(ell, d1, d2, p))
        if factor == 0.0:
            return ProbabilityEstimate(0.0, 0.0, ell_max)
        value *= factor
        if ell > ell_max // 10:
            tail_log += log(factor)
    return ProbabilityEstimate(value, tail_log, ell_max)


@lru_cache(maxsize=None)
def _cached_f_ell(ell: int, d1: int, d2: int, p: int) -> LocalFactor:
    return f_ell(ell, d1, d2, p)
