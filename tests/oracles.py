"""Independent oracles the tests hold the production paths to.

Each oracle computes by another route, mostly by enumeration, what
``ellstat`` computes in closed form:

* the Hurwitz class number 6H(D) of one D by a scan of its reduced forms
  (``hurwitz_sixfold``) for ``arith.hurwitz_sixfolds`` and
  ``arith.hurwitz_table``, and the Ramanujan sum from its prime-power values
  (``ramanujan_von_sterneck``) for ``arith.ramanujan_sum``;
* ``tau``, ``sigma``, ``phi``, ``mu`` and ``phi_star_mu`` of one integer,
  each read from ``multiplicative_suite`` (memoized, for the tests that
  sweep many small n), which multiplies the prime-power forms of ``arith``;
* per-model point counts and group shapes (``point_count``, ``group_shape``)
  for ``curves.tally_structures``; ``group_shape`` finds the exponent by a
  deterministic scan of all points.  ``hasse_admissible`` tests one order
  against t^2 < 4p, for ``curves.hasse_window``;
* the averages of a tally summed shape by shape over ``StructureTally.counts``
  (``averages_from_counts``, through ``groups.shape_statistics``), for
  ``curves.weighted_averages``, which reads them from the inverted
  class-number rows with no tally and no shape;
* matrix enumerations over Z/l^R (``count_trace_fixed_enum``,
  ``count_bucket_enum``) and the bucket count summed from fixed-trace counts
  (``_bucket_count_level``, normalized by ``_norm3``) for the root counts of
  ``densities`` and the Frobenius law, and the g densities (``g_density``,
  ``g_density_tail``, read from ``densities.law_tail``) summed bucket by
  bucket (``g_sum_by_buckets``) for the closed form of ``densities.g_sum``;
* the main term expanded over every d1 | p - 1 (``c_local_components``), and
  for the printed forms over every u | d1 and k | d1^2/u as well
  (``printed_main_term_components``), for the product of local sums in
  ``analytic.main_term``;
* ``subgroup_count`` and ``cyclic_subgroup_count`` for
  ``groups.shape_statistics``, in two flavours, and the lattice enumeration
  ``subgroup_oracle`` that checks both on small groups:

  - ``gcd_sum``      -- sum of gcd(a, b) (resp. phi(gcd(a, b))) over divisor
                        pairs a | m, b | n; the reference form.
  - ``convolution``  -- sum over u | gcd(m, n) of phi(u) tau(m/u) tau(n/u)
                        (resp. with phi*mu); algebraically identical.

They are slow by design and guarded by ``BudgetError`` where they grow fast.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ellstat.analytic import (
    _GENERIC_LOG_SUM,
    _GENERIC_PRODUCT,
    EULER_GAMMA,
    _euler_factor_at,
    _local_moments,
)
from ellstat.arith import (
    divisors,
    exponent_divisors,
    factorize,
    phi_prime_power,
    phi_star_mu_prime_power,
    require_p,
    valuation,
)
from ellstat.curves import StructureTally, TallyAverages
from ellstat.densities import _check_prime, _count_trace_fixed_level, law_tail
from ellstat.errors import BudgetError, DomainError, InvariantError
from ellstat.groups import GroupShape, _check_mn, shape_statistics

# ----------------------------------------------------------------------
# one value at a time (oracles of arith)
# ----------------------------------------------------------------------


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


_suite = lru_cache(maxsize=1 << 16)(multiplicative_suite)


def tau(n: int) -> int:
    return _suite(n).tau


def sigma(n: int) -> int:
    return _suite(n).sigma


def phi(n: int) -> int:
    return _suite(n).phi


def mu(n: int) -> int:
    return _suite(n).mu


def phi_star_mu(n: int) -> int:
    return _suite(n).phi_star_mu


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


def ramanujan_von_sterneck(k: int, a: int) -> int:
    """Ramanujan sum c_k(a) from the prime-power values
    c_{l^r}(a) = l^r * {0, -1/l, 1-1/l}, combined multiplicatively."""
    if k < 1:
        raise DomainError(f"modulus must be >= 1, got {k}")
    a %= k
    out = 1
    for p, r in factorize(k):
        v = valuation(a, p) if a else r  # a == 0 behaves like v >= r
        if v < r - 1:
            return 0
        out *= -(p ** (r - 1)) if v == r - 1 else p ** (r - 1) * (p - 1)
    return out


# ----------------------------------------------------------------------
# per-model point counts and group shapes (oracle of curves)
# ----------------------------------------------------------------------


@lru_cache(maxsize=16)
def _tables(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadratic character table chi[v] and a square-root table for F_p."""
    x = np.arange(1, p, dtype=np.int64)
    chi = np.full(p, -1, dtype=np.int64)
    chi[0] = 0
    sq = (x * x) % p
    chi[sq] = 1
    root = np.zeros(p, dtype=np.int64)
    root[sq] = x
    return chi, root


def point_count(p: int, a: int, b: int) -> int:
    """|E(F_p)| for the nonsingular model y^2 = x^3 + ax + b.

    Computed as p + 1 + sum_x chi(x^3 + ax + b) with chi the quadratic
    character (chi(0) = 0), one table lookup per x.
    """
    require_p(p)
    a %= p
    b %= p
    if (4 * a * a * a + 27 * b * b) % p == 0:
        raise DomainError(f"singular model (a={a}, b={b}) over F_{p}")
    chi, _ = _tables(p)
    x = np.arange(p, dtype=np.int64)
    f = ((x * x % p) * x + a * x + b) % p
    return p + 1 + int(chi[f].sum())


def _affine_add(P, Q, a, p):
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def _affine_mul(k, P, a, p):
    acc = None
    while k:
        if k & 1:
            acc = _affine_add(acc, P, a, p)
        P = _affine_add(P, P, a, p)
        k >>= 1
    return acc


def _point_order(P, a, p, N, fac) -> int:
    order = N
    for q, e in fac:
        for _ in range(e):
            if _affine_mul(order // q, P, a, p) is None:
                order //= q
            else:
                break
    return order


def _d1_candidates(p: int, N: int) -> list[tuple[int, int]]:
    """Primes (q, v_q(N)) that could divide d1: q | p-1 and q^2 | N."""
    return [(q, e) for q, e in factorize(N) if e >= 2 and (p - 1) % q == 0]


def _affine_points(p, a, b):
    chi, root = _tables(p)
    for x in range(p):
        f = ((x * x % p) * x + a * x + b) % p
        if chi[f] >= 0:
            yield (x, 0 if f == 0 else int(root[f]))


def _exponent_by_scan(p, a, b, N, fac) -> int:
    exponent = 1
    for P in _affine_points(p, a, b):
        exponent = math.lcm(exponent, _point_order(P, a, p, N, fac))
        if exponent == N:
            break
    return exponent


def group_shape(p: int, a: int, b: int, N: int | None = None) -> GroupShape:
    """Invariants (d1, d2) with E(F_p) iso Z/d1 x Z/(d1*d2), d1^2*d2 = N.

    d1 = N / exponent(E), the exponent being the lcm of the orders of all
    points (a deterministic full scan, stopped once it reaches N).  The
    result is verified to satisfy d1 | gcd(N, p - 1).
    """
    require_p(p)
    a %= p
    b %= p
    if N is None:
        N = point_count(p, a, b)
    if not _d1_candidates(p, N):
        return GroupShape(1, N)
    d1 = N // _exponent_by_scan(p, a, b, N, factorize(N))
    if (p - 1) % d1 or N % (d1 * d1):
        raise InvariantError(
            f"full scan gave d1={d1} not dividing gcd(N, p-1) at "
            f"p={p}, a={a}, b={b}"
        )
    return GroupShape(d1, N // (d1 * d1))


def hasse_admissible(p: int, N: int) -> bool:
    """Whether N lies in the Hasse interval [(sqrt(p)-1)^2, (sqrt(p)+1)^2]."""
    t = p + 1 - N
    return t * t < 4 * p


def averages_from_counts(tally: StructureTally) -> TallyAverages:
    """Every weighted average of a tally as sum count * shape_statistics(shape)
    over ``tally.counts``, one shape at a time."""
    counts = tally.counts.values()
    columns = zip(*map(shape_statistics, tally.counts))
    mass = tally.p * (tally.p - 1)
    return TallyAverages(
        *(Fraction(sum(map(operator.mul, counts, column)), mass) for column in columns),
        Fraction(tally.total(), mass),
    )


# ----------------------------------------------------------------------
# matrix enumeration (oracle of densities and analytic)
# ----------------------------------------------------------------------


def _norm3(ell: int, R: int) -> int:
    return ell ** (3 * R) - ell ** (3 * R - 2)


def _bucket_count_level(p: int, w: int, v: int, ell: int, R: int) -> int:
    """#{g : det g = p, v_l(p + 1 - tr g) = w exactly, level exactly v}.

    Sums the fixed-trace count over the l^(R-w-1)(l-1) traces of the class;
    the oracle of ``frobenius_law`` and of the g densities.
    """
    if w >= R:
        raise DomainError(f"exact bucket needs w < R, got w={w}, R={R}")
    q = ell**R
    return sum(
        _count_trace_fixed_level(p, (p + 1 - k * ell**w) % q, ell, R, v)
        for k in range(ell ** (R - w))
        if k % ell
    )


def g_density(p: int, w: int, v: int, ell: int, R: int) -> Fraction:
    """Trace-valuation matrix density g(w, v) at level R, exactly.

    The normalized count of matrices with det = p, v_l(p + 1 - tr) = w and
    congruence level exactly v, i.e. pi_l(v, w) read from ``frobenius_law``
    (0 for v > v_l(p - 1)), minus (1 - 1/l)/l^w.  Requires w < R and l != p.
    """
    _check_prime(ell, "ell")
    _check_prime(p, "p")
    if w < 0 or w >= R:
        raise DomainError(f"need 0 <= w < R, got w={w}, R={R}")
    if ell == p:
        raise DomainError(f"the Frobenius law needs ell != p, got ell=p={p}")
    mass = law_tail(p, v, ell, w) - law_tail(p, v, ell, w + 1)
    return mass - Fraction(ell - 1, ell ** (w + 1))


def g_density_tail(p: int, v: int, ell: int, R: int) -> Fraction:
    """The w = R bucket of the g-density sum, meaning v_l(p + 1 - tr) >= R.

    Its mass is sum_{n >= R} pi_l(v, n), or 0 when v >= R: modulo l^R no
    matrix then has level exactly v.
    """
    _check_prime(ell, "ell")
    _check_prime(p, "p")
    if R < 1:
        raise DomainError(f"need R >= 1, got R={R}")
    if ell == p:
        raise DomainError(f"the Frobenius law needs ell != p, got ell=p={p}")
    mass = law_tail(p, v, ell, R) if v < R else Fraction(0)
    return mass - Fraction(ell - 1, ell ** (R + 1))


def g_sum_by_buckets(p: int, v: int, ell: int, R: int) -> Fraction:
    """sum_{w < R} g(w, v) plus the tail bucket w = R, term by term."""
    return sum(g_density(p, w, v, ell, R) for w in range(R)) + g_density_tail(p, v, ell, R)


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
# per-d1 expansions of the main term (oracle of analytic.main_term)
# ----------------------------------------------------------------------


def printed_main_term_components(p: int, stat: str, k_factor: str) -> dict[int, float]:
    """Per-d1 contributions to the printed main term (keys are the divisors
    of p-1): the expansion over d1 | p - 1, u | d1 and k | d1^2/u that
    ``analytic.main_term`` sums as one product of local sums."""
    require_p(p)
    if stat not in ("s", "c"):
        raise DomainError(f"stat must be 's' or 'c', got {stat!r}")
    if k_factor not in ("A_unit", "B_inverse"):
        raise DomainError(f"not a printed k_factor: {k_factor!r}")
    fac = factorize(p - 1)
    primes = [ell for ell, _ in fac]
    weight = phi_prime_power if stat == "s" else phi_star_mu_prime_power
    out: dict[int, float] = {}
    for d1, a in exponent_divisors(fac):
        factors = [_euler_factor_at(p, ell, v) for ell, v in zip(primes, a)]
        # (k, phi(k), K(k)) for every k | d1^2, ascending.  K(k) is 1 for
        # "A_unit"; for "B_inverse" it depends on k only through the primes
        # dividing it, so it is formed once per set of primes.
        K: dict[tuple[bool, ...], float] = {}
        ks = []
        for k, c in exponent_divisors(zip(primes, [2 * v for v in a])):
            support = tuple(ck > 0 for ck in c) if k_factor == "B_inverse" else ()
            if support not in K:
                K[support] = float(math.prod(E for E, on in zip(factors, support) if on))
            ks.append((k, math.prod(phi_prime_power(ell, ck) for ell, ck in zip(primes, c)), K[support]))
        inner = 0.0
        for u, b in exponent_divisors(zip(primes, a)):
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
        out[d1] = float(math.prod(factors)) * inner / (d1 * d1) / 2
    return out


def c_local_components(p: int, stat: str) -> dict[int, float]:
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
    for d1, xs in exponent_divisors(fac):
        prod = Fraction(1)
        shift = 0.0
        for (ell, e), x in zip(fac, xs):
            ef, enf = _local_moments(ell, e, x, stat)
            prod *= ef
            shift += math.log(ell) * float(enf / ef)
        out[d1] = generic * float(prod) * (log_sum - shift)
    return out



# ----------------------------------------------------------------------
# subgroup counts and the subgroup lattice (oracle of groups)
# ----------------------------------------------------------------------

_ORACLE_LIMIT = 2000


class SubgroupCensus(NamedTuple):
    total: int
    cyclic: int


def subgroup_count(m: int, n: int, variant: str = "gcd_sum") -> int:
    """Number of subgroups of Z/m x Z/n."""
    _check_mn(m, n)
    if variant == "gcd_sum":
        dn = divisors(n)
        return sum(math.gcd(a, b) for a in divisors(m) for b in dn)
    if variant == "convolution":
        return sum(phi(u) * tau(m // u) * tau(n // u) for u in divisors(math.gcd(m, n)))
    raise DomainError(f"unknown variant {variant!r}")


def cyclic_subgroup_count(m: int, n: int, variant: str = "gcd_sum") -> int:
    """Number of cyclic subgroups of Z/m x Z/n."""
    _check_mn(m, n)
    if variant == "gcd_sum":
        dn = divisors(n)
        return sum(phi(math.gcd(a, b)) for a in divisors(m) for b in dn)
    if variant == "convolution":
        return sum(
            phi_star_mu(u) * tau(m // u) * tau(n // u)
            for u in divisors(math.gcd(m, n))
        )
    raise DomainError(f"unknown variant {variant!r}")


def _cyclic_span(g: tuple[int, int], m: int, n: int) -> frozenset[int]:
    """Elements of <g> in Z/m x Z/n, encoded as u*n + v."""
    u, v = g
    order = ((m // math.gcd(u, m)) * (n // math.gcd(v, n))) // math.gcd(
        m // math.gcd(u, m), n // math.gcd(v, n)
    )
    return frozenset(((k * u) % m) * n + (k * v) % n for k in range(order))


def _join(gen1, gen2, m, n) -> frozenset[int]:
    """Subgroup generated by the two elements, as an i,j-span."""
    s1 = sorted(_cyclic_span(gen1, m, n))
    out = set()
    for e in _cyclic_span(gen2, m, n):
        u, v = divmod(e, n)
        for e1 in s1:
            w, x = divmod(e1, n)
            out.add(((u + w) % m) * n + (v + x) % n)
    return frozenset(out)


def subgroup_oracle(m: int, n: int) -> SubgroupCensus:
    """Ground-truth subgroup counts of Z/m x Z/n by explicit enumeration.

    Cyclic subgroups are the spans of single elements; since rank <= 2, every
    subgroup is generated by two elements, so the full lattice is the set of
    pairwise joins of cyclic subgroups.  Subgroups are canonicalized as
    element sets and deduplicated.  Guarded by m*n <= 2000.
    """
    _check_mn(m, n)
    if m * n > _ORACLE_LIMIT:
        raise BudgetError(f"oracle limited to m*n <= {_ORACLE_LIMIT}, got {m * n}")
    gen_for: dict[frozenset[int], tuple[int, int]] = {}
    for u in range(m):
        for v in range(n):
            span = _cyclic_span((u, v), m, n)
            gen_for.setdefault(span, (u, v))
    cyclics = list(gen_for.items())
    subgroups = set(gen_for)
    for i, (span1, g1) in enumerate(cyclics):
        for span2, g2 in cyclics[i + 1 :]:
            if span1 <= span2 or span2 <= span1:
                continue
            subgroups.add(_join(g1, g2, m, n))
    return SubgroupCensus(total=len(subgroups), cyclic=len(cyclics))
