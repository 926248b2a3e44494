"""Exact elementary arithmetic: sieves, factorization, multiplicative
functions, Ramanujan sums, quadratic characters and Hurwitz class numbers.

Every function here returns exact integers; floating point never enters
these kernels.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError

_TRIAL_LIMIT = 100_000  # factorize trial-divides up to here; rho takes the rest
# (bound, every prime <= bound), replaced whole so that a reader never pairs
# a bound with a shorter list
_trial: tuple[int, list[int]] = (0, [])


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit, ascending.  limit < 2 yields an empty list."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes((limit - i * i) // i + 1)
    return list(itertools.compress(range(limit + 1), sieve))


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (valid far beyond the 10^16 inputs used here)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    if n < 41 * 41:  # a composite this small has a prime factor <= 37
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_p(p: int) -> None:
    """DomainError unless p is a prime >= 5, the characteristic of every route."""
    if p < 5 or not is_prime(p):
        raise DomainError(f"need a prime p >= 5, got {p}")


def _rho_factor(n: int) -> int:
    """Brent's cycle-finding rho; deterministic parameter schedule."""
    if n % 2 == 0:
        return 2
    for c in range(1, 64):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise DomainError(f"failed to factor {n}")


def factorize(n: int) -> list[tuple[int, int]]:
    """Canonical factorization of n >= 1 as ascending (prime, exponent) pairs.

    n = 1 gives []; n = 0 is a domain error.  Trial division by the cached
    primes up to a bound B >= min(isqrt(n), 100 000), grown in powers of two
    from 1024: a cofactor m <= B^2 left over is prime, and only a larger one
    (possible once n > 10^10) goes to deterministic Brent rho.
    """
    global _trial
    if n <= 0:
        raise DomainError(f"factorize requires n >= 1, got {n}")
    bound, primes = _trial
    if n > bound * bound and bound < _TRIAL_LIMIT:
        bound = min(max(1 << 10, 1 << math.isqrt(n).bit_length()), _TRIAL_LIMIT)
        primes = primes_up_to(bound)
        _trial = bound, primes
    out: list[tuple[int, int]] = []
    m = n
    for p in primes:
        if m % p:
            if p * p > m:
                break
            continue
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        out.append((p, e))
    if m <= bound * bound:
        if m > 1:
            out.append((m, 1))
        return out
    # no prime <= _TRIAL_LIMIT divides m: prime, prime power, or a product
    # of large primes, all above those already found
    rest: list[int] = []
    stack = [m]
    while stack:
        v = stack.pop()
        if is_prime(v):
            rest.append(v)
            continue
        r = math.isqrt(v)
        if r * r == v:
            stack += [r, r]
            continue
        d = _rho_factor(v)
        stack += [d, v // d]
    return out + [(p, rest.count(p)) for p in sorted(set(rest))]


def divisors(n: int) -> list[int]:
    """Ordered list of the divisors of n."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def valuation(n: int, p: int) -> int:
    """p-adic valuation of n != 0."""
    if n == 0:
        raise DomainError("valuation of 0 is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@dataclass(frozen=True)
class MultiplicativeSuite:
    """The standard multiplicative statistics of one integer, exactly."""

    n: int
    tau: int
    sigma: int
    phi: int
    mu: int
    phi_star_mu: int
    omega: int
    rad: int


def phi_prime_power(ell: int, e: int) -> int:
    """Euler's totient of the prime power l^e."""
    return ell ** (e - 1) * (ell - 1) if e else 1


def phi_star_mu_prime_power(ell: int, e: int) -> int:
    """(phi*mu)(l^e): 1, l - 2 and l^(e-2) (l-1)^2 for e = 0, 1 and e >= 2."""
    if e < 2:
        return ell - 2 if e else 1
    return ell ** (e - 2) * (ell - 1) ** 2


def multiplicative_suite(n: int) -> MultiplicativeSuite:
    """tau, sigma, phi, mu, phi*mu (Dirichlet), omega and rad of n, exactly.

    phi*mu is the convolution of Euler's totient with the Moebius function.
    """
    fac = factorize(n)
    tau = sigma = phi = rad = psm = 1
    mu = 1
    for p, e in fac:
        tau *= e + 1
        sigma *= (p ** (e + 1) - 1) // (p - 1)
        phi *= phi_prime_power(p, e)
        rad *= p
        mu = 0 if e >= 2 else -mu
        psm *= phi_star_mu_prime_power(p, e)
    return MultiplicativeSuite(n, tau, sigma, phi, mu, psm, len(fac), rad)


@lru_cache(maxsize=1 << 16)
def tau(n: int) -> int:
    return multiplicative_suite(n).tau


@lru_cache(maxsize=1 << 16)
def sigma(n: int) -> int:
    return multiplicative_suite(n).sigma


@lru_cache(maxsize=1 << 16)
def phi(n: int) -> int:
    return multiplicative_suite(n).phi


@lru_cache(maxsize=1 << 16)
def mu(n: int) -> int:
    return multiplicative_suite(n).mu


@lru_cache(maxsize=1 << 16)
def phi_star_mu(n: int) -> int:
    return multiplicative_suite(n).phi_star_mu


def ramanujan_sum(k: int, a: int, method: str = "divisor") -> int:
    """Ramanujan sum c_k(a), exactly.

    method="divisor" evaluates sum_{f | (k,a)} f * mu(k/f); the independent
    path method="von_sterneck" combines the prime-power values
    c_{l^r}(a) = l^r * {0, -1/l, 1-1/l} multiplicatively.  Both agree.
    """
    if k < 1:
        raise DomainError(f"modulus must be >= 1, got {k}")
    a %= k
    if method == "divisor":
        g = math.gcd(k, a) if a else k
        return sum(f * mu(k // f) for f in divisors(g))
    if method == "von_sterneck":
        out = 1
        for p, r in factorize(k):
            v = valuation(a, p) if a else r  # a == 0 behaves like v >= r
            if v < r - 1:
                return 0
            out *= -(p ** (r - 1)) if v == r - 1 else p ** (r - 1) * (p - 1)
        return out
    raise DomainError(f"unknown method {method!r}")


def kronecker_chi(D: int, ell: int) -> int:
    """Legendre symbol (D | ell) in {-1, 0, 1} for an odd prime ell."""
    if ell == 2:
        raise DomainError("quadratic character at 2 is not defined here")
    if ell < 3 or not is_prime(ell):
        raise DomainError(f"{ell} is not an odd prime")
    r = pow(D % ell, (ell - 1) // 2, ell)
    return r - ell if r > 1 else r


@lru_cache(maxsize=1 << 16)
def hurwitz_sixfold(D: int) -> int:
    """6 H(D), an integer: the reduced forms (a, b, c) of discriminant -D,
    |b| <= a <= c with b >= 0 when |b| = a or a = c, each counted 6 times,
    a(x^2 + y^2) 3 times and a(x^2 + xy + y^2) twice.  Zero unless
    D = 0, 3 (mod 4).
    """
    if D <= 0:
        raise DomainError(f"Hurwitz class number requires D >= 1, got {D}")
    if D % 4 in (1, 2):
        return 0
    sixfold = 0
    b = D % 2
    while 3 * b * b <= D:
        m = (b * b + D) // 4  # = ac
        a = max(b, 1)
        while a * a <= m:
            if m % a == 0:
                c = m // a
                if a == b == c:
                    sixfold += 2
                elif b == 0 and a == c:
                    sixfold += 3
                elif b == 0 or a == b or a == c:
                    sixfold += 6  # only (a, |b|, c) is reduced
                else:
                    sixfold += 12  # (a, b, c) and (a, -b, c)
            a += 1
        b += 2
    return sixfold


def hurwitz_table(M: int) -> list[int]:
    """[6H(0), 6H(1), ..., 6H(M)] with 6H(0) = 0, as ``hurwitz_sixfold``
    gives each value, from one pass over the reduced forms (a, b, c),
    0 <= b <= a <= c, with 4ac - b^2 <= M.

    For fixed (a, b) the discriminants 4ac - b^2 run through the progression
    4a^2 - b^2, 4a^2 - b^2 + 4a, ... as c = a, a + 1, ...; the first term
    (c = a) weighs 3 (b = 0), 2 (b = a) or 6, and the others 6 when b is
    0 or a, else 12.  The forms number about pi M^(3/2)/18: a table up to
    M = 4p costs about 1.4 p^1.5 steps, more than the O(p) pass of one tally
    at p (``curves._trace_sixfolds``) but far less than one pass per prime
    of a sweep.
    """
    if M < 0:
        raise DomainError(f"Hurwitz table requires M >= 0, got {M}")
    table = [0] * (M + 1)
    a = 1
    while 3 * a * a <= M:
        step = 4 * a
        for b in range(a + 1):
            first = 4 * a * a - b * b  # falls as b grows: skip, do not stop
            if first > M:
                continue
            table[first] += 3 if b == 0 else 2 if b == a else 6
            weight = 6 if b == 0 or b == a else 12
            for D in range(first + step, M + 1, step):
                table[D] += weight
        a += 1
    return table

