"""Exact elementary arithmetic: sieves, factorization, divisors with their
exponent vectors, multiplicative functions, the divisor function over a
window, Ramanujan sums, quadratic characters and Hurwitz class numbers.

Every function here returns exact integers; floating point never enters
these kernels.  The production paths read phi and phi*mu in their
prime-power forms; the tests read tau, sigma, phi, mu and phi*mu of a whole
integer from ``multiplicative_suite`` in ``tests/oracles.py``.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable

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


def exponent_divisors(fac) -> list[tuple[int, tuple[int, ...]]]:
    """Every divisor n of prod l^e over the (l, e) pairs of fac, ascending,
    with its exponent vector (v_l(n) for each l, in the order of fac)."""
    out = [(1, ())]
    for ell, e in fac:
        out = [(n * ell**c, vs + (c,)) for n, vs in out for c in range(e + 1)]
    return sorted(out)


def divisors(n: int) -> list[int]:
    """Ordered list of the divisors of n."""
    return [d for d, _ in exponent_divisors(factorize(n))]


def valuation(n: int, p: int) -> int:
    """p-adic valuation of n != 0."""
    if n == 0:
        raise DomainError("valuation of 0 is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def phi_prime_power(ell: int, e: int) -> int:
    """Euler's totient of the prime power l^e."""
    return ell ** (e - 1) * (ell - 1) if e else 1


def phi_star_mu_prime_power(ell: int, e: int) -> int:
    """(phi*mu)(l^e): 1, l - 2 and l^(e-2) (l-1)^2 for e = 0, 1 and e >= 2."""
    if e < 2:
        return ell - 2 if e else 1
    return ell ** (e - 2) * (ell - 1) ** 2


def tau_window(lo: int, hi: int) -> list[int]:
    """[tau(lo), tau(lo + 1), ..., tau(hi)] from one segmented divisor sieve.

    Each divisor pair d <= n/d of an n in the window is counted at d: every
    d <= isqrt(hi) marks its multiples n >= d^2 twice, and n = d^2 once
    (d = 1 marks every n, so the list starts at 2).  A window of W integers
    costs about W log(sqrt hi) + sqrt(hi) steps: for the Hasse window of p,
    W = 2 isqrt(4p - 1) + 1, that is O(sqrt(p) log p).  An empty window
    (hi < lo) gives [].  It is the one divisor sieve of the package: it
    serves ``curves.weighted_averages`` (the Hasse window divided by q for
    one prime, a table from 1 for a sweep) and the window sums of
    ``divisor_ap``, which checks its own budgets first.
    """
    if lo < 1:
        raise DomainError(f"divisor sieve needs lo >= 1, got {lo}")
    out = [2] * max(hi - lo + 1, 0)
    if lo == 1 and out:
        out[0] = 1  # the square 1 = 1 * 1
    for d in range(2, math.isqrt(max(hi, 0)) + 1):
        square = d * d
        start = max(square, -(-lo // d) * d)
        for i in range(start - lo, hi - lo + 1, d):
            out[i] += 2
        if square >= lo:
            out[square - lo] -= 1
    return out


def ramanujan_sum(k: int, a: int) -> int:
    """Ramanujan sum c_k(a) for any integer a, as Hoelder's product over the
    l^e || k of phi(l^e) if l^e | a, -l^(e-1) if l^(e-1) || a, and 0 otherwise."""
    if k < 1:
        raise DomainError(f"modulus must be >= 1, got {k}")
    out = 1
    for ell, e in factorize(k):
        below = ell ** (e - 1)
        if a % (below * ell) == 0:
            out *= phi_prime_power(ell, e)
        elif a % below == 0:
            out *= -below
        else:
            return 0
    return out


def kronecker_chi(D: int, ell: int) -> int:
    """Legendre symbol (D | ell) in {-1, 0, 1} for an odd prime ell."""
    if ell == 2:
        raise DomainError("quadratic character at 2 is not defined here")
    if ell < 3 or not is_prime(ell):
        raise DomainError(f"{ell} is not an odd prime")
    r = pow(D % ell, (ell - 1) // 2, ell)
    return r - ell if r > 1 else r


def hurwitz_sixfolds(discriminants: Iterable[int]) -> dict[int, int]:
    """{D: 6H(D)} for every D in ``discriminants``, in one pass over a.

    6H(D) is an integer: the reduced forms (a, b, c) of discriminant -D,
    |b| <= a <= c with b >= 0 when |b| = a or a = c, each counted 6 times,
    a(x^2 + y^2) 3 times and a(x^2 + xy + y^2) twice.  It is zero unless
    D = 0, 3 (mod 4).

    A form with 0 <= b <= a is a root b of b^2 = -D (mod 4a) with
    c = (D + b^2)/4a >= a, so D >= 3a^2.  For each a, the b in [0, a] are
    grouped by b^2 mod 4a, and every D >= 3a^2 looks up its roots: one adds
    12 (the forms (a, b, c) and (a, -b, c)), or 6 when b is 0 or a; one with
    c = a adds 3 (b = 0), 2 (b = a) or 6 instead.  The groups of one a are
    dropped before the next is built.  A set of k values up to M costs about
    k sqrt(M/3) lookups and M/6 insertions: O(p) for one tally at p, whose
    values up to 4p number O(sqrt p).
    """
    six = dict.fromkeys(discriminants, 0)
    if any(D <= 0 for D in six):
        raise DomainError(f"Hurwitz class number requires D >= 1, got {min(six)}")
    live = sorted((D for D in six if D % 4 in (0, 3)), reverse=True)
    a = 1  # every D in live is >= 3 = 3a^2
    while live:
        modulus = 4 * a
        roots: dict[int, list[int]] = {}
        for b in range(a + 1):
            roots.setdefault(b * b % modulus, []).append(b)
        for D in live:
            for b in roots.get(-D % modulus, ()):
                excess = D + b * b - modulus * a  # 4a (c - a)
                if excess > 0:
                    six[D] += 6 if b == 0 or b == a else 12
                elif excess == 0:
                    six[D] += 3 if b == 0 else 2 if b == a else 6
        a += 1
        while live and live[-1] < 3 * a * a:
            live.pop()
    return six


def hurwitz_table(M: int) -> list[int]:
    """[6H(0), 6H(1), ..., 6H(M)] with 6H(0) = 0, as ``hurwitz_sixfolds``
    gives each value, from one pass over the reduced forms (a, b, c),
    0 <= b <= a <= c, with 4ac - b^2 <= M.

    For fixed (a, b) the discriminants 4ac - b^2 run through the progression
    4a^2 - b^2, 4a^2 - b^2 + 4a, ... as c = a, a + 1, ...; the first term
    (c = a) weighs 3 (b = 0), 2 (b = a) or 6, and the others 6 when b is
    0 or a, else 12.  The forms number about pi M^(3/2)/18: a table up to
    M = 4p costs about 1.4 p^1.5 steps, more than one tally's O(p) call of
    ``hurwitz_sixfolds`` but far less than one call per prime of a sweep,
    which would read every D up to 4 xmax.
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

