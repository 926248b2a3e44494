"""Independent oracles the tests hold the production paths to.

Each oracle computes by another route, mostly by enumeration, what
``ellstat`` computes in closed form:

* the Hurwitz class number 6H(D) of one D by a scan of its reduced forms
  (``hurwitz_sixfold``) for ``arith.hurwitz_sixfolds`` and
  ``arith.hurwitz_table``, and the Ramanujan sum from its prime-power values
  (``ramanujan_von_sterneck``) for ``arith.ramanujan_sum``;
* ``tau``, ``sigma``, ``phi``, ``mu`` and ``phi_star_mu`` of one integer,
  each read from ``arith.multiplicative_suite`` (memoized here, for the
  tests that sweep many small n);
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
  ``densities`` and the Frobenius law, and the g densities summed bucket by
  bucket (``g_sum_by_buckets``) for the closed form of ``densities.g_sum``;
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
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ellstat.arith import divisors, factorize, multiplicative_suite, require_p, valuation
from ellstat.curves import StructureTally, TallyAverages
from ellstat.densities import _count_trace_fixed_level, g_density, g_density_tail
from ellstat.errors import BudgetError, DomainError, InvariantError
from ellstat.groups import GroupShape, _check_mn, shape_statistics

# ----------------------------------------------------------------------
# one value at a time (oracles of arith)
# ----------------------------------------------------------------------

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
