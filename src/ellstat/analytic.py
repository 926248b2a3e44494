"""Numerical evaluation of the analytic main term for the weighted average
number of (cyclic) subgroups of elliptic-curve groups over F_p, together
with the cyclicity constant and the prime-averaged slope constant.

Three forms of the main term are selected by ``k_factor`` (the tuple
``K_FACTORS``).  "A_unit" and "B_inverse" are the printed divisor-sum form,
a sum over d1 | p - 1 of an Euler product of exact local factors times a
logarithmic divisor sum:

    sum_{d1 | p-1} (prod_l E_l(d1, p)) / d1^2 * sum_{u | d1} w(u) tau(d1/u)
        * [ sum_{k | d1^2/u} (log((p+1)/(u k^2)) + 2 gamma) (phi(k)/k) K(k)
            + (log((p+1)/u) + 2 gamma) ]

with w = phi for subgroup counting and w = phi*mu for cyclic subgroups, and
the trailing addend being the k = 1 Ramanujan-sum contribution; K(k) = 1
("A_unit") or K(k) = prod_{l | k} E_l^{-1} ("B_inverse", removing the
l | k factors from the Euler product).  Both treat N = #E(F_p) as
equidistributed modulo every l not dividing d1, where the Frobenius model
has P(l | N) = 1/(l-1) for l prime to p(p-1), so their error follows the
factorization of p - 1.

"C_local" (the default) carries the full local densities of the Frobenius
model.  For l != p let pi_l(x, n) be the Haar probability that g in GL2(Z_l)
with det g = p has congruence level exactly x and v_l(p + 1 - tr g) = n,
and let f_l(x, n) = sum_{i <= x} w(l^i)(x-i+1)(n-x-i+1) be the statistic on
Z/l^x x Z/l^(n-x).  Summing the Euler product of these local expectations
against the double pole of zeta(s)^2 gives

    H * (log(p+1) + 2 gamma + sum_{l != p} delta_l),
    H = prod_{l != p} (1 - 1/l) E_l[f_l],
    delta_l = 2 log l/(l-1) - log l * E_l[n f_l] / E_l[f_l].

The law pi_l depends only on l and e = v_l(p - 1) and is an atom at n = 2x
followed by a geometric tail of ratio 1/l (``densities.frobenius_law``), so
every expectation is an exact rational.  Away from p(p-1) the local factors are
1 + 1/(l(l-1)) and delta_l = -2 log l/(l^2-l+1); their full product and
sum are the constants zeta(2)zeta(3)/zeta(6) and ``_GENERIC_LOG_SUM``,
corrected by the finitely many l | p(p-1).  Per-d1 components split each
E_l by x = v_l(d1).

``normalization="half"`` is the archimedean mass-1 value, matching the
density module; "paper" doubles it.  Which k_factor wins against brute
force is adjudicated by acceptance criterion 7.

The Euler factors of the printed form come from the same law:
E_l = l^(2v) sum_{n >= 2v} pi_l(v, n) with v = v_l(d1), which is 1 off
p - 1, 1 - 1/(l(l^2-1)) when l | p - 1 but l does not divide d1, and
l^(2-v)/(l^2-1) or (l^2+l+1)/(l^(v+1)(l+1)) for l | d1 as v = v_l(p-1) or
v < v_l(p-1).  Its oracle, used by the tests only, is the normalized matrix
count ``densities.level_congruence_count`` of the telescoped trace-congruence
class at level R = 2v + 1.

Every number in the printed form is a product of the primes of p - 1, so
the one factorization of p - 1 gives them all: the divisors d1, u and the
k | d1^2/u are generated from exponent vectors, with phi, tau and the weight
read from the exponents, and the local factors are computed once per d1.
Nothing above p - 1 is factored.  The per-k path, which factors each k and
calls ``local_factor`` per prime, is the reference the tests compare with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .arith import (
    divisors,
    factorize,
    is_prime,
    phi_prime_power,
    phi_star_mu_prime_power,
    primes_up_to,
    require_p,
    valuation,
)
# level_congruence_count is unused here; perfbench's span self-test asserts this binding.
from .densities import DEFAULT_NORMALIZATION, frobenius_law, level_congruence_count  # noqa: F401
from .errors import DomainError, InvariantError

EULER_GAMMA = 0.5772156649015329

#: The main-term forms selected by the k_factor argument.
K_FACTORS = ("A_unit", "B_inverse", "C_local")

#: Adjudicated by the acceptance comparison against brute force (criterion 7).
DEFAULT_K_FACTOR = "C_local"

#: prod over all primes l of 1 + 1/(l(l-1)), equal to zeta(2)zeta(3)/zeta(6).
_GENERIC_PRODUCT = 1.9435964368207592

#: sum over all primes l of 2 log(l)/(l^2 - l + 1), evaluated to 40 digits
#: by expanding 1/(l^2 - l + 1) in powers of 1/l and summing the prime zeta
#: derivatives, each obtained from zeta'/zeta by Moebius inversion.
_GENERIC_LOG_SUM = 1.2167634357266494


def cyclicity_probability(p: int) -> Fraction:
    """prod_{l | p-1} (1 - 1/(l(l^2-1))): the asymptotic probability that
    E(F_p) is cyclic.  Depends only on rad(p - 1)."""
    require_p(p)
    out = Fraction(1)
    for ell, _ in factorize(p - 1):
        out *= 1 - Fraction(1, ell * (ell * ell - 1))
    return out


@lru_cache(maxsize=None)
def _euler_factor_at(p: int, ell: int, v: int) -> Fraction:
    """Exact local factor E_l for v = v_l(d1), any d1 | p - 1 with that v.

    E_l = l^(2v) sum_{n >= 2v} pi_l(v, n) = l^(2v) (a + b/(l-1)) with
    (a, b) = densities.frobenius_law(l, v_l(p-1), v).  The tests check it
    against the count l^(2v) level_congruence_count(p, v, l, 2v+1) /
    _norm3(l, 2v+1), with ``_norm3`` from ``tests/oracles.py``.
    """
    a, b = frobenius_law(ell, valuation(p - 1, ell), v)
    E = ell ** (2 * v) * (a + b / (ell - 1))
    scaled = E * ell**v
    if v and not 1 <= scaled <= 1 + Fraction(2, ell) * (1 + Fraction(1, ell - 1)):
        raise InvariantError(f"local factor sandwich failed: ell={ell}, v={v}, p={p}")
    return E


# Kept for perfbench, which times it as a span (spans.TARGETS); the CLI never calls it.
def local_factor(p: int, d1: int, ell: int) -> Fraction:
    """Exact Euler factor of the main term at the prime ell for d1 | p - 1.

    Equals 1 - 1/(l(l^2-1)) when l | p-1 and l does not divide d1, 1 for l
    away from d1(p-1), and l^(2-v)/(l^2-1) or (l^2+l+1)/(l^(v+1)(l+1)) when
    l | d1 with v = v_l(d1) equal to or below v_l(p-1); see _euler_factor_at.
    """
    require_p(p)
    if d1 < 1 or (p - 1) % d1:
        raise DomainError(f"d1={d1} does not divide p-1={p - 1}")
    if not is_prime(ell):
        raise DomainError(f"ell={ell} is not prime")
    return _euler_factor_at(p, ell, valuation(d1, ell))


# Kept for perfbench, which times it as a span (spans.TARGETS); the CLI never calls it.
def euler_product(p: int, d1: int) -> Fraction:
    """prod_l local_factor(p, d1, l); finite, supported on l | p - 1."""
    out = Fraction(1)
    for ell, _ in factorize(p - 1):
        out *= local_factor(p, d1, ell)
    return out


def main_term(
    p: int,
    stat: str = "s",
    k_factor: str = DEFAULT_K_FACTOR,
    normalization: str = DEFAULT_NORMALIZATION,
) -> float:
    """Main-term value of the weighted average of stat over Ell(p)."""
    return sum(main_term_components(p, stat, k_factor, normalization).values())


def main_term_components(
    p: int,
    stat: str = "s",
    k_factor: str = DEFAULT_K_FACTOR,
    normalization: str = DEFAULT_NORMALIZATION,
) -> dict[int, float]:
    """Per-d1 contributions to the main term (keys are the divisors of p-1)."""
    require_p(p)
    if stat not in ("s", "c"):
        raise DomainError(f"stat must be 's' or 'c', got {stat!r}")
    if k_factor not in K_FACTORS:
        raise DomainError(f"unknown k_factor {k_factor!r}")
    if normalization not in ("paper", "half"):
        raise DomainError(f"unknown normalization {normalization!r}")
    if k_factor == "C_local":
        half = _local_components(p, stat)
        return half if normalization == "half" else {d1: 2 * v for d1, v in half.items()}
    fac = factorize(p - 1)
    primes = [ell for ell, _ in fac]
    weight = phi_prime_power if stat == "s" else phi_star_mu_prime_power
    out: dict[int, float] = {}
    for d1, a in _exponent_divisors(fac):
        factors = [_euler_factor_at(p, ell, v) for ell, v in zip(primes, a)]
        # (k, phi(k), K(k)) for every k | d1^2, ascending.  K(k) is 1 for
        # "A_unit"; for "B_inverse" it depends on k only through the primes
        # dividing it, so it is formed once per set of primes.
        K: dict[tuple[bool, ...], float] = {}
        ks = []
        for k, c in _exponent_divisors(zip(primes, [2 * v for v in a])):
            support = tuple(ck > 0 for ck in c) if k_factor == "B_inverse" else ()
            if support not in K:
                K[support] = float(math.prod(E for E, on in zip(factors, support) if on))
            ks.append((k, math.prod(phi_prime_power(ell, ck) for ell, ck in zip(primes, c)), K[support]))
        inner = 0.0
        for u, b in _exponent_divisors(zip(primes, a)):
            wu = math.prod(weight(ell, bu) for ell, bu in zip(primes, b))
            if wu == 0:
                continue
            m = d1 * d1 // u
            ksum = 0.0
            for k, phik, adj in ks:
                if m % k == 0:
                    ksum += (math.log((p + 1) / (u * k * k)) + 2 * EULER_GAMMA) * phik / k / adj
            ksum += math.log((p + 1) / u) + 2 * EULER_GAMMA
            inner += wu * math.prod(v - bu + 1 for v, bu in zip(a, b)) * ksum
        val = float(math.prod(factors)) * inner / (d1 * d1)
        out[d1] = val / 2 if normalization == "half" else val
    return out


def _exponent_divisors(fac) -> list[tuple[int, tuple[int, ...]]]:
    """Every divisor n of prod l^e over the (l, e) pairs of fac, ascending,
    with its exponent vector (v_l(n) for each l, in the order of fac)."""
    out = [(1, ())]
    for ell, e in fac:
        out = [(n * ell**c, vs + (c,)) for n, vs in out for c in range(e + 1)]
    return sorted(out)


@lru_cache(maxsize=None)
def _local_moments(ell: int, e: int, x: int, stat: str) -> tuple[Fraction, Fraction]:
    """(1 - 1/l) E_l[f 1_x] and (1 - 1/l) E_l[n f 1_x] at level x, exactly.

    On n = 2x + k the statistic is linear, f = f0 + beta*k, so the geometric
    tail sums in closed form with sum_k l^-k {1, k, k^2} = s0, s1, s2.
    """
    weight = phi_prime_power if stat == "s" else phi_star_mu_prime_power
    a, b = frobenius_law(ell, e, x)
    f0 = sum(weight(ell, i) * (x - i + 1) ** 2 for i in range(x + 1))
    beta = sum(weight(ell, i) * (x - i + 1) for i in range(x + 1))
    n0 = 2 * x
    s0 = Fraction(1, ell - 1)
    s1 = Fraction(ell, (ell - 1) ** 2)
    s2 = Fraction(ell * (ell + 1), (ell - 1) ** 3)
    ef = a * f0 + b * (f0 * s0 + beta * s1)
    enf = a * n0 * f0 + b * (n0 * f0 * s0 + (f0 + n0 * beta) * s1 + beta * s2)
    c = 1 - Fraction(1, ell)
    return c * ef, c * enf


def _local_components(p: int, stat: str) -> dict[int, float]:
    """Per-d1 terms of the "C_local" main term at mass 1 (no enumeration).

    The product over l | p - 1 of the level-split expectations is expanded
    with x_l = v_l(d1); the primes away from p(p-1) enter through the two
    generic constants, corrected by the finitely many l | p(p-1).
    """
    fac = factorize(p - 1)
    generic = _GENERIC_PRODUCT
    log_sum = math.log(p + 1) + 2 * EULER_GAMMA - _GENERIC_LOG_SUM
    for ell in [q for q, _ in fac] + [p]:
        generic /= 1 + 1 / (ell * (ell - 1))
        log_sum += 2 * math.log(ell) / (ell * ell - ell + 1)
    for ell, _ in fac:
        log_sum += 2 * math.log(ell) / (ell - 1)
    out: dict[int, float] = {}
    for d1 in divisors(p - 1):
        prod = Fraction(1)
        shift = 0.0
        for ell, e in fac:
            ef, enf = _local_moments(ell, e, valuation(d1, ell), stat)
            prod *= ef
            shift += math.log(ell) * float(enf / ef)
        out[d1] = generic * float(prod) * (log_sum - shift)
    return out


# ----------------------------------------------------------------------
# prime-averaged slope constant
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SlopeEstimate:
    value: float
    x_max: int
    m_max: int
    stat: str


def estimate_average_slope(
    x_max: int,
    m_max: int,
    stat: str = "s",
    normalization: str = DEFAULT_NORMALIZATION,
) -> SlopeEstimate:
    """Truncated evaluation of the constant governing the prime-averaged
    growth (average of the weighted subgroup count over p <= x grows like
    C * log x).

    C is the mean over primes p of the log p coefficient H of the "C_local"
    main term.  H depends on p only through e_l = v_l(p - 1) (its l = p
    factor tends to 1), and e_l = e has density (l-2)/(l-1) for e = 0 and
    l^-e for e >= 1, independently across l, so

        C = zeta(2)zeta(3)/zeta(6) * prod_l [ (l-2)/(l-1)
            + sum_{e >= 1} l^-e sum_x (1 - 1/l) E_l[f 1_x] / (1 + 1/(l(l-1))) ].

    Truncations: primes l <= x_max and e <= m_max; both are echoed in the
    result.  The product is taken in floating point.
    """
    if stat not in ("s", "c"):
        raise DomainError(f"stat must be 's' or 'c', got {stat!r}")
    if normalization not in ("paper", "half"):
        raise DomainError(f"unknown normalization {normalization!r}")
    total = _GENERIC_PRODUCT
    for ell in primes_up_to(x_max):
        generic = 1 + 1 / (ell * (ell - 1))
        mean = (ell - 2) / (ell - 1)
        below = 0.0  # sum over levels x < e, whose law is the same for all e > x
        for e in range(1, m_max + 1):
            below += float(_local_moments(ell, e, e - 1, stat)[0])
            top = float(_local_moments(ell, e, e, stat)[0])
            mean += ell**-e * (below + top) / generic
        total *= mean
    if normalization == "paper":
        total *= 2
    return SlopeEstimate(total, x_max, m_max, stat)
