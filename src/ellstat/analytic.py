"""Numerical evaluation of the analytic main term for the weighted average
number of (cyclic) subgroups of elliptic-curve groups over F_p, together
with the cyclicity constant and the prime-averaged slope constant, an
Euler product of one closed-form rational per prime (``average_slope``).

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
Z/l^x x Z/l^(n-x), the corrected ``groups.local_statistics(l, x, n)``.
Summing the Euler product of these local expectations against the double
pole of zeta(s)^2 gives

    H * (log(p+1) + 2 gamma + sum_{l != p} delta_l),
    H = prod_{l != p} (1 - 1/l) E_l[f_l],
    delta_l = 2 log l/(l-1) - log l * E_l[n f_l] / E_l[f_l].

The law pi_l depends only on l and e = v_l(p - 1) and is an atom at n = 2x
followed by a geometric tail of ratio 1/l (``densities.frobenius_law``), so
every expectation is an exact rational.  Away from p(p-1) the local factors are
1 + 1/(l(l-1)) and delta_l = -2 log l/(l^2-l+1); their full product and
sum are the constants zeta(2)zeta(3)/zeta(6) and ``_GENERIC_LOG_SUM``,
corrected by the finitely many l | p(p-1).  For l | p - 1, E_l[f_l] and
E_l[n f_l] are sums over the levels x <= e = v_l(p - 1) (``_local_moments``).

Every value is at archimedean mass 1, as ``densities.f_infty`` is; the CLI
prints the printed form's mass-2 value as twice it.  Which k_factor wins
against brute force is adjudicated by acceptance criterion 7.

The Euler factors of the printed form come from the same law:
E_l = l^(2v) sum_{n >= 2v} pi_l(v, n) with v = v_l(d1), a tail
``densities.law_tail``, which is 1 off p - 1, 1 - 1/(l(l^2-1)) when
l | p - 1 but l does not divide d1 (so the cyclicity constant is their
product over l | p - 1), and l^(2-v)/(l^2-1) or (l^2+l+1)/(l^(v+1)(l+1))
for l | d1 as v = v_l(p-1) or v < v_l(p-1).  Its oracle, used by the tests
only, is the normalized matrix count ``densities.level_congruence_count`` of
the telescoped trace-congruence class at level R = 2v + 1.

Every factor of the printed summand is multiplicative in (d1, u, k) and
lives on the primes of p - 1, and its logarithm splits as
log(p+1) - log u - 2 log k.  So ``main_term`` reads one local sum per
l^e || p - 1, from the one factorization of p - 1, with a = v_l(d1) <= e,
b = v_l(u) <= a and c = v_l(k) <= C = 2a - b.  The sum over c is closed:
with q = 1 - 1/l and K = E_l(a) for "B_inverse" (1 otherwise),

    S0 = sum_c phi(l^c)/l^c / K^[c > 0] = 1 + C q/K,   S1 = q C(C+1)/(2K)

for the same sum weighted by c.  With t = E_l(a) l^(-2a) w(l^b) (a-b+1),
the local sums are A_l = sum t S0 and A'_l = sum t (b S0 + 2 S1) over
a <= e, b <= a, and G_l = sum t, G'_l = sum t b for the trailing k = 1
addend.  A logarithm summed against a multiplicative weight is the weight's
product times the sum of the local log-weighted ratios, so

    main term = (1/2) [prod A_l (L - sum_l log l A'_l/A_l)
                       + prod G_l (L - sum_l log l G'_l/G_l)],

with L = log(p+1) + 2 gamma.  "C_local" collapses the same way: the
generic constants times prod_l EF_l (log_sum - sum_l log l ENF_l/EF_l),
where EF_l and ENF_l sum ``_local_moments`` over x <= e.  Nothing above
p - 1 is factored.  The expansions over every d1 | p - 1 (and u | d1,
k | d1^2/u) are the tests' oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .arith import (
    factorize,
    is_prime,
    phi_prime_power,
    phi_star_mu_prime_power,
    primes_up_to,
    require_p,
    valuation,
)
# level_congruence_count is unused here; perfbench's span self-test asserts this binding.
from .densities import frobenius_law, law_tail, level_congruence_count  # noqa: F401
from .errors import DomainError, InvariantError
from .groups import local_statistics

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
    E(F_p) is cyclic, the Euler product at d1 = 1.  Depends only on
    rad(p - 1)."""
    return euler_product(p, 1)


def _euler_factor_at(p: int, ell: int, v: int) -> Fraction:
    """Exact local factor E_l for v = v_l(d1), any d1 | p - 1 with that v.

    E_l = l^(2v) sum_{n >= 2v} pi_l(v, n), read from ``densities.law_tail``.
    The tests check it against the count l^(2v) level_congruence_count(p, v,
    l, 2v+1) / _norm3(l, 2v+1), with ``_norm3`` from ``tests/oracles.py``.
    """
    E = ell ** (2 * v) * law_tail(p, v, ell, 2 * v)
    scaled = E * ell**v
    if v and not 1 <= scaled <= 1 + Fraction(2, ell) * (1 + Fraction(1, ell - 1)):
        raise InvariantError(f"local factor sandwich failed: ell={ell}, v={v}, p={p}")
    return E


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


def euler_product(p: int, d1: int) -> Fraction:
    """prod_l local_factor(p, d1, l); finite, supported on l | p - 1.  The
    arguments are checked once, not once per l."""
    require_p(p)
    if d1 < 1 or (p - 1) % d1:
        raise DomainError(f"d1={d1} does not divide p-1={p - 1}")
    out = Fraction(1)
    for ell, _ in factorize(p - 1):
        out *= _euler_factor_at(p, ell, valuation(d1, ell))
    return out


def main_term(p: int, stat: str = "s", k_factor: str = DEFAULT_K_FACTOR) -> float:
    """Main-term value of the weighted average of stat over Ell(p).

    One local sum per l^e || p - 1, from the one factorization of p - 1
    (module docstring); the primes away from p(p-1) enter "C_local" through
    the two generic constants, corrected by the finitely many l | p(p-1).
    """
    require_p(p)
    if stat not in ("s", "c"):
        raise DomainError(f"stat must be 's' or 'c', got {stat!r}")
    if k_factor not in K_FACTORS:
        raise DomainError(f"unknown k_factor {k_factor!r}")
    fac = factorize(p - 1)
    if k_factor == "C_local":
        generic = _GENERIC_PRODUCT
        log_sum = math.log(p + 1) + 2 * EULER_GAMMA - _GENERIC_LOG_SUM
        for ell in [q for q, _ in fac] + [p]:
            generic /= 1 + 1 / (ell * (ell - 1))
            log_sum += 2 * math.log(ell) / (ell * ell - ell + 1)
        prod = Fraction(1)
        shift = 0.0
        for ell, e in fac:
            log_sum += 2 * math.log(ell) / (ell - 1)
            ef, enf = map(sum, zip(*(_local_moments(ell, e, x, stat) for x in range(e + 1))))
            prod *= ef
            shift += math.log(ell) * float(enf / ef)
        return generic * float(prod) * (log_sum - shift)
    weight = phi_prime_power if stat == "s" else phi_star_mu_prime_power
    L = math.log(p + 1) + 2 * EULER_GAMMA
    prod_a = prod_g = 1.0
    shift_a = shift_g = 0.0
    for ell, e in fac:
        q = 1 - 1 / ell
        A = A_log = G = G_log = 0.0
        for a in range(e + 1):
            E = float(_euler_factor_at(p, ell, a))
            K = E if k_factor == "B_inverse" else 1.0
            for b in range(a + 1):
                t = E * ell ** (-2 * a) * weight(ell, b) * (a - b + 1)
                C = 2 * a - b
                s0 = 1 + C * q / K  # sum over c <= C of phi(l^c)/l^c, c > 0 over K
                s1 = q * C * (C + 1) / 2 / K  # the same sum weighted by c
                A += t * s0
                A_log += t * (b * s0 + 2 * s1)
                G += t
                G_log += t * b
        prod_a *= A
        prod_g *= G
        shift_a += math.log(ell) * A_log / A
        shift_g += math.log(ell) * G_log / G
    return (prod_a * (L - shift_a) + prod_g * (L - shift_g)) / 2


def _local_moments(ell: int, e: int, x: int, stat: str) -> tuple[Fraction, Fraction]:
    """(1 - 1/l) E_l[f 1_x] and (1 - 1/l) E_l[n f 1_x] at level x, exactly.

    On n = 2x + k the statistic is linear, f = f0 + beta*k, so the geometric
    tail sums in closed form with sum_k l^-k {1, k, k^2} = s0, s1, s2.
    """
    corrected = 0 if stat == "s" else 2  # index in local_statistics' tuple
    a, b = frobenius_law(ell, e, x)
    f0 = local_statistics(ell, x, 2 * x)[corrected]
    beta = local_statistics(ell, x, 2 * x + 1)[corrected] - f0
    n0 = 2 * x
    s0 = Fraction(1, ell - 1)
    s1 = Fraction(ell, (ell - 1) ** 2)
    s2 = Fraction(ell * (ell + 1), (ell - 1) ** 3)
    ef = a * f0 + b * (f0 * s0 + beta * s1)
    enf = a * n0 * f0 + b * (n0 * f0 * s0 + (f0 + n0 * beta) * s1 + beta * s2)
    c = 1 - Fraction(1, ell)
    return c * ef, c * enf


# ----------------------------------------------------------------------
# prime-averaged slope constant
# ----------------------------------------------------------------------

#: average_slope's product runs over the primes up to this bound.
_SLOPE_PRIMES = 10**5


def _slope_factor(ell: int, stat: str) -> Fraction:
    """E[h_l] - 1 exactly (``average_slope``): l^2/((l^2-1)^2 (l^2-l+1)) for s, 0 for c."""
    if stat == "c":
        return Fraction(0)
    return Fraction(ell * ell, (ell * ell - 1) ** 2 * (ell * ell - ell + 1))


def average_slope(stat: str = "s") -> float:
    """The constant C of the prime-averaged growth: the average of the
    weighted statistic over p <= x grows like C log x.

    C is the mean over primes p of the log p coefficient of the "C_local"
    main term, whose local factor h_l = (1 - 1/l) E_l[f_l] / (1 + 1/(l(l-1)))
    depends on p only through e = v_l(p - 1).  With e = 0 (where h_l = 1) of
    density (l-2)/(l-1) and e >= 1 of density l^-e, independently across l,
    C = zeta(2)zeta(3)/zeta(6) prod_l E[h_l].  The levels x < e share one law
    and x = e has its own, both l^(-3x) times constants
    (``densities.frobenius_law``), and f = f0 + beta*k on a level, so the sum
    over e and x is geometric and E[h_l] is one rational (``_slope_factor``).

    The product runs over l <= 10^5; each omitted log E[h_l] is below
    1.0001 l^-4, so the omitted factor is below 1 + 3.4e-16.
    """
    if stat not in ("s", "c"):
        raise DomainError(f"stat must be 's' or 'c', got {stat!r}")
    logs = (math.log1p(float(_slope_factor(ell, stat))) for ell in primes_up_to(_SLOPE_PRIMES))
    return _GENERIC_PRODUCT * math.exp(math.fsum(logs))
