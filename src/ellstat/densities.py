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

No production path loops over matrices or residues.  The fixed-trace count
is a sum of O(R) root counts of one quadratic modulo l^k, i.e. square roots
of D/l^(2u) evaluated with the quadratic character (Gekeler, IMRN 2003,
section 4, with the congruence level added), and g reads the closed-form
Frobenius law pi_l(x, n) of (level, v_l(N)) (``frobenius_law``), whose
bucket masses ``g_sum`` telescopes in closed form.  The matrix enumerations
that the tests hold these to, and the g densities one bucket at a time, are
in ``tests/oracles.py``; only the telescoped congruence-class count
``level_congruence_count``, which perfbench times, stays at the end of the
module.

All densities are exact ``Fraction`` values; floats appear only in the
archimedean factor and in truncated products.  The product's factor at a
prime l not dividing D is the closed form l/(l - (D | l)), computed as one
correctly rounded int/int division rather than through ``f_ell_closed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import log, pi, sqrt
from typing import NamedTuple

from .arith import is_prime, kronecker_chi, primes_up_to, require_p, valuation
from .errors import BudgetError, DomainError, InvariantError
from .groups import GroupShape


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


def f_infty(t: int, p: int) -> float:
    """Semicircle factor sqrt(4p - t^2)/(2 p pi) on |t| < 2 sqrt(p), mass 1.

    The factor as printed, sqrt(4p - t^2)/(p pi), integrates to 2 over the
    Hasse interval, so shape probabilities built on it sum to about 2; the
    acceptance suite (criterion 6) adjudicated the mass-1 factor, half of it.
    The CLI prints the printed form as twice this value (``prob --norm paper``).
    """
    require_p(p)
    if t * t >= 4 * p:
        return 0.0
    return sqrt(4 * p - t * t) / (p * pi) / 2


# ----------------------------------------------------------------------
# matrix counts: closed-form root counts
# ----------------------------------------------------------------------

def _sqrt_counts(A: int, ell: int, m: int) -> list[int]:
    """#{z mod l^k : z^2 == A mod l^k} for k = 0..m.

    With d = v_l(A): l^floor(k/2) roots while l^k | A, none once k > d for
    odd d, and for even d < k the l^(d/2) lifts of the unit roots of A/l^d,
    which number 1 + chi for odd l and 1, 2 or 4 modulo 2, 4 and 8 at l = 2.
    """
    d = m if A % ell**m == 0 else valuation(A, ell)
    out = []
    for k in range(m + 1):
        if k <= d:
            out.append(ell ** (k // 2))
            continue
        a, j = A // ell**d, k - d
        if d % 2:
            units = 0
        elif ell != 2:
            units = 1 + kronecker_chi(a, ell)
        elif j == 1:
            units = 1
        elif j == 2:
            units = 2 if a % 4 == 1 else 0
        else:
            units = 4 if a % 8 == 1 else 0
        out.append(units * ell ** (d // 2))
    return out


def _count_trace_fixed(p: int, t: int, ell: int, R: int, u: int) -> int:
    """#{g in M_2(Z/l^R) : det g = p, tr g = t, g == 1 mod l^u}, in O(R).

    Put g11 = 1 + l^u w and t - 2 = l^u tau, so g22 = 1 + l^u (tau - w) and
    g12 g21 = -l^(2u) Q(w) with Q(w) = w^2 - tau w + N/l^(2u), N = p + 1 - t.
    With m = R - 2u the (g12, g21) pairs number l^(2u)(k+1) l^(m-1)(l-1) when
    v_l(Q(w)) = k < m and l^(2u)(l^m + m l^(m-1)(l-1)) when l^m | Q(w); the
    sum over w telescopes to l^(3u+m-1) ((l-1) sum_k l^(m-k) r_k + r_m),
    where r_k counts the roots of Q modulo l^k.  For odd l these are the
    square roots of the discriminant D/l^(2u), D = t^2 - 4p (z = 2w - tau).
    At l = 2 an odd tau makes both roots of Q mod 2 simple, so each lifts
    uniquely (Hensel), and an even tau completes the square.
    """
    u = min(u, R)
    s = ell**u
    N = p + 1 - t
    if (t - 2) % s:
        return 0
    m = R - 2 * u
    if m <= 0:
        return ell ** (3 * (R - u)) if N % ell**R == 0 else 0
    if N % (s * s):
        return 0
    tau, Nq = (t - 2) // s, N // (s * s)
    if ell != 2:
        roots = _sqrt_counts(tau * tau - 4 * Nq, ell, m)
    elif tau % 2:
        roots = [1] + [0 if Nq % 2 else 2] * m
    else:
        roots = _sqrt_counts((tau // 2) ** 2 - Nq, 2, m)
    total = (ell - 1) * sum(ell ** (m - k) * r for k, r in enumerate(roots)) + roots[m]
    return ell ** (3 * u + m - 1) * total


def _count_trace_fixed_level(p: int, t: int, ell: int, R: int, v: int) -> int:
    """The fixed-trace count at congruence level exactly v (== 1 mod l^v,
    != 1 mod l^(v+1))."""
    return _count_trace_fixed(p, t, ell, R, v) - _count_trace_fixed(p, t, ell, R, v + 1)


# ----------------------------------------------------------------------
# the Frobenius law of (level, v_l(N))
# ----------------------------------------------------------------------

def frobenius_law(ell: int, e: int, x: int) -> tuple[Fraction, Fraction]:
    """Closed-form law of (level, v_l(N)) in the Frobenius model at l != p.

    For e = v_l(p - 1) and congruence level exactly x (0 <= x <= e) returns
    (a, b) with pi_l(x, 2x) = a and pi_l(x, n) = b * l^-(n - 2x) for n > 2x;
    pi_l(x, n) = 0 for n < 2x.  Matches the enumeration
    ``_bucket_count_level(p, n, x, l, n + 1) / _norm3(l, n + 1)`` of
    ``tests/oracles.py``.
    """
    if not 0 <= x <= e:
        raise DomainError(f"level x={x} outside 0..{e}")
    if e == 0:
        return Fraction(ell - 2, ell - 1), Fraction(1)
    if x == 0:
        return Fraction(ell * ell - ell - 1, ell * ell - 1), Fraction(ell - 1, ell)
    scale = Fraction(1, ell ** (3 * x))
    if x < e:
        return scale * Fraction(ell, ell + 1), scale * Fraction(ell - 1, ell)
    return scale * Fraction(ell * ell - ell - 1, ell * ell - 1), scale


def law_tail(p: int, v: int, ell: int, n: int) -> Fraction:
    """sum_{k >= n} pi_l(v, k): the mass of level exactly v and v_l(N) >= n."""
    e = valuation(p - 1, ell)
    if v > e:
        return Fraction(0)
    a, b = frobenius_law(ell, e, v)
    tail = b / ((ell - 1) * ell ** max(n - 2 * v - 1, 0))
    return a + tail if n <= 2 * v else tail


# ----------------------------------------------------------------------
# public densities
# ----------------------------------------------------------------------

def _norm2(ell: int, R: int) -> int:
    return ell ** (2 * R) - ell ** (2 * R - 2)


def f_ell(ell: int, d1: int, d2: int, p: int) -> LocalFactor:
    """Exact matrix density for the shape (d1, d2) at the prime ell.

    The closed-form count runs at R = v_l(D) + 1 with D = t^2 - 4p (at least
    v + 1) and is re-verified at R + 1; disagreement raises.  Returns the
    normalized value and R.
    """
    _check_prime(ell, "ell")
    require_p(p)
    if d1 < 1 or d2 < 1 or (p - 1) % d1:
        raise DomainError(f"inadmissible shape ({d1}, {d2}) for p={p}")
    N = d1 * d1 * d2
    t = p + 1 - N
    if t * t >= 4 * p:
        raise DomainError(f"N={N} outside the Hasse interval for p={p}")
    v = valuation(d1, ell)
    D = t * t - 4 * p
    R = max(valuation(D, ell) + 1, v + 1)
    val = Fraction(_count_trace_fixed_level(p, t, ell, R, v), _norm2(ell, R))
    check = Fraction(_count_trace_fixed_level(p, t, ell, R + 1, v), _norm2(ell, R + 1))
    if val != check:
        raise InvariantError(
            f"density did not stabilize at R={R} for ell={ell}, shape=({d1},{d2}), p={p}"
        )
    return LocalFactor(val, R)


# Kept for perfbench, which times it as a span (spans.TARGETS); the CLI never calls it.
def f_ell_closed(ell: int, d1: int, d2: int, p: int) -> Fraction:
    """Closed form l^-v (1 - 1/l^2)^-1 (1 + chi/l), valid when l does not
    divide D/d1^2; chi is the quadratic character of D/d1^2 at l.

    ``probability_product`` inlines this at l not dividing D as l/(l - chi);
    the exact value here is the test oracle of that loop.
    """
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
    require_p(p)
    return Fraction(1) if (N - 1) % p == 0 else 1 + Fraction(1, p - 1)


#: The exact sum has at most (R + 4 + 3v) log2 l bits above and below (the 3v
#: for a level 0 < v < R), so the budget keeps it under Python's 4300-digit
#: limit for printing an int.
_G_SUM_BUDGET = 14_000


def g_sum(p: int, v: int, ell: int, R: int) -> Fraction:
    """sum_{w=0..R} g(w, v) with the w = R bucket meaning v_l >= R.

    The masses of the buckets telescope: the sum is
    law_tail(p, v, l, 0) - 1 + l^-(R+1) for v < R and -1 + l^-(R+1) for
    v >= R, in O(1) Fraction operations.  For v = 0 this equals
    -delta_{ell | p-1}/(ell(ell^2-1)) + ell^-(R+1) exactly.  A cost
    (R + 4 + 3v) * ell.bit_length() above ``_G_SUM_BUDGET`` raises
    ``BudgetError`` before anything is computed; R < 1, v < 0, ell = p or
    an ell or p that is not prime raise ``DomainError``.
    """
    cost = (R + 4 + (3 * v if 0 < v < R else 0)) * ell.bit_length()
    if cost > _G_SUM_BUDGET:
        raise BudgetError(f"g-sum budget is (R + 4 + 3v) * bit_length(ell) <= {_G_SUM_BUDGET}, got {cost}")
    _check_prime(ell, "ell")
    _check_prime(p, "p")
    if R < 1:
        raise DomainError(f"need R >= 1, got R={R}")
    if ell == p:
        raise DomainError(f"the Frobenius law needs ell != p, got ell=p={p}")
    tail = Fraction(1, ell ** (R + 1)) - 1
    return law_tail(p, v, ell, 0) + tail if v < R else tail  # the law refuses v < 0


# ----------------------------------------------------------------------
# probability product
# ----------------------------------------------------------------------

#: The product sieves every prime up to ell_max: about 2 s and 66 MB at 10^7.
_LMAX_BUDGET = 10**7


@lru_cache(maxsize=8)
def _primes(ell_max: int) -> tuple[int, ...]:
    return tuple(primes_up_to(ell_max))


@lru_cache(maxsize=1 << 10)
def _legendre_row(D: int, ell_max: int) -> bytes:
    """(D | l) + 1 for every prime l <= ell_max, in ascending order of l.

    1 marks l | D, 0 and 2 a non-residue and a residue: one Euler criterion
    power per odd l, and at l = 2, (D | 2) = +1 iff D = +-1 mod 8.  D
    depends on the shape only through |t|, so shapes of one p share rows.
    """
    row = bytearray()
    for ell in _primes(ell_max):
        if D % ell == 0:
            row.append(1)
        elif ell == 2:
            row.append(2 if D % 8 in (1, 7) else 0)
        else:
            row.append(2 if pow(D % ell, (ell - 1) // 2, ell) == 1 else 0)
    return bytes(row)


def probability_product(p: int, shape: GroupShape, ell_max: int) -> ProbabilityEstimate:
    """Truncated local-density product approximating the probability that
    E(F_p) has the given shape.

    Primes dividing the discriminant D = t^2 - 4p get the root-count
    density ``f_ell`` and ell = p its own local factor.  Every other prime
    ell <= ell_max contributes l/(l - chi) with chi = (D | l), read from
    the cached row of Legendre symbols of D (``_legendre_row``).  This is
    ``f_ell_closed`` exactly: d1 | p - 1 and d1^2 | N give d1^2 | D (checked
    once, ``InvariantError``), so l does not divide d1, v = 0 and
    chi(D/d1^2) = chi(D), and l^2/(l^2 - 1) (1 + chi/l) = l/(l - chi).  The
    int/int division rounds that rational as ``float(Fraction)`` does, so
    each factor is bit-identical to the closed form's.  ell_max < 2 leaves
    no prime and raises ``DomainError``; ell_max above ``_LMAX_BUDGET``
    raises ``BudgetError`` before any prime is sieved.
    The reported diagnostic is the log-increment contributed by the last
    decade (ell_max/10, ell_max] of the truncation, a measure of the slow
    conditional convergence of the character tail.
    """
    d1, d2 = shape
    require_p(p)
    if d1 < 1 or d2 < 1:
        raise DomainError(f"invalid shape {shape}")
    if ell_max < 2:
        raise DomainError(f"need ell_max >= 2, got {ell_max}: no primes to multiply")
    if ell_max > _LMAX_BUDGET:
        raise BudgetError(f"ell_max budget is {_LMAX_BUDGET}, got {ell_max}")
    if (p - 1) % d1:
        return ProbabilityEstimate(0.0, 0.0, ell_max)
    N = shape.order
    t = p + 1 - N
    if t * t >= 4 * p:
        return ProbabilityEstimate(0.0, 0.0, ell_max)
    D = t * t - 4 * p
    if D % (d1 * d1):
        raise InvariantError(f"d1^2 = {d1 * d1} does not divide D = {D}")
    value = f_infty(t, p)
    tail_log = 0.0
    for ell, chi1 in zip(_primes(ell_max), _legendre_row(D, ell_max)):
        if ell == p:
            factor = float(f_p_local(p, N))
        elif chi1 == 1:  # ell | D
            factor = float(f_ell(ell, d1, d2, p).value)
        else:
            factor = ell / (ell - (chi1 - 1))
        if factor == 0.0:
            return ProbabilityEstimate(0.0, 0.0, ell_max)
        value *= factor
        if ell > ell_max // 10:
            tail_log += log(factor)
    return ProbabilityEstimate(value, tail_log, ell_max)


# ----------------------------------------------------------------------
# the telescoped congruence-class count (oracle of analytic's Euler factors)
# ----------------------------------------------------------------------

# Kept for perfbench, which times it as a span (spans.TARGETS); the CLI never calls it.
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
