"""Exhaustive enumeration of short-Weierstrass curves y^2 = x^3 + ax + b over
F_p: point counts, group shapes, structure tallies and weighted averages.

The per-model operations (``point_count``, ``group_shape``) are plain scalar
functions; ``group_shape`` finds the exponent by a deterministic scan of all
points and is the oracle the tests hold the tally to.  ``tally_structures``
covers all p^2 - p nonsingular models of one prime through their isomorphism
classes:

1. one representative per class of Ell(p) (about 2p of them: the model
   (3k, 2k) of each j != 0, 1728 and its quadratic twist, plus
   gcd(6, p-1) classes at j = 0 and gcd(4, p-1) at j = 1728), each weighted
   by the number (p-1)/|Aut(E)| of models (u^4 a, u^6 b) in its class;
2. point counts N = p + 1 + sum_x chi(x^3 + ax + b) and the root counts of
   the cubic (the affine 2-torsion) for all representatives in one chunked
   pass; classes are bucketed by N, and buckets whose N admits only d1 = 1
   (N squarefree relative to p - 1) are finished immediately;
3. for the remaining buckets the group exponent is found from the lcm of the
   orders of at most 24 random points per class, all classes of a bucket
   advancing in lockstep through vectorized Jacobian-coordinate arithmetic;
   candidates that fail d1 | p - 1, and every class when p <= 61 (audit
   mode), fall back to a deterministic full scan over all points.

Weighting: a class occupies exactly (p-1)/|Aut(E)| models, so adding each
class's model count and dividing by p(p-1) reproduces the 1/|Aut| weighting
with total mass 1; the tally counts models, exactly as a model-by-model
enumeration would.

All randomness is derived from (seed, p, N), so results are reproducible and
independent of chunking or parallel schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith import factorize, is_prime, valuation
from .errors import DomainError, InvariantError
from .groups import GroupShape, stat_on_shape

_AUDIT_P = 61          # full order scan for every model at p <= this
_MAX_SAMPLES = 24      # random points per model before falling back
_STATS = ("s", "c", "tau_N", "one")


@dataclass(frozen=True)
class StructureTally:
    """Exact count of nonsingular models per group shape for one prime."""

    p: int
    counts: dict[GroupShape, int]

    def total(self) -> int:
        return sum(self.counts.values())


def _require_p(p: int) -> None:
    if p < 5 or not is_prime(p):
        raise DomainError(f"need a prime p >= 5, got {p}")


def hasse_admissible(p: int, N: int) -> bool:
    """Whether N lies in the Hasse interval [(sqrt(p)-1)^2, (sqrt(p)+1)^2]."""
    t = p + 1 - N
    return t * t < 4 * p


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
    _require_p(p)
    a %= p
    b %= p
    if (4 * a * a * a + 27 * b * b) % p == 0:
        raise DomainError(f"singular model (a={a}, b={b}) over F_{p}")
    chi, _ = _tables(p)
    x = np.arange(p, dtype=np.int64)
    f = ((x * x % p) * x + a * x + b) % p
    return p + 1 + int(chi[f].sum())


# ----------------------------------------------------------------------
# scalar affine group law (per-model path)
# ----------------------------------------------------------------------

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
    _require_p(p)
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


# ----------------------------------------------------------------------
# isomorphism-class representatives
# ----------------------------------------------------------------------

def _primitive_root(p: int) -> int:
    """Least generator of F_p^*; being a generator, it is also a non-square."""
    qs = [q for q, _ in factorize(p - 1)]
    return next(g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in qs))


def _class_representatives(p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A, B, weight): one model per isomorphism class over F_p, with weight
    the number (p-1)/|Aut(E)| of models (u^4 A, u^6 B) in that class.

    With g a primitive root: for j != 0, 1728 the model (3k, 2k) of
    j-invariant j, k = j/(1728 - j), and its quadratic twist (3k g^2, 2k g^3),
    weight (p-1)/2 each; for j = 0 the models (0, g^i), i < gcd(6, p-1), and
    for j = 1728 the models (g^i, 0), i < gcd(4, p-1).  The weights sum to
    p^2 - p.
    """
    g = _primitive_root(p)
    js = [j for j in range(1, p) if j != 1728 % p]
    k = np.array([j * pow(1728 - j, -1, p) % p for j in js], dtype=np.int64)
    gpow = np.array([pow(g, i, p) for i in range(6)], dtype=np.int64)
    n0, n1728 = math.gcd(6, p - 1), math.gcd(4, p - 1)
    A = np.concatenate([3 * k % p, 3 * k * gpow[2] % p, np.zeros(n0, np.int64), gpow[:n1728]])
    B = np.concatenate([2 * k % p, 2 * k * gpow[3] % p, gpow[:n0], np.zeros(n1728, np.int64)])
    W = np.concatenate([
        np.full(2 * len(js), (p - 1) // 2, dtype=np.int64),
        np.full(n0, (p - 1) // n0, dtype=np.int64),
        np.full(n1728, (p - 1) // n1728, dtype=np.int64),
    ])
    return A, B, W


def _counts_and_roots(p: int, A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|E(F_p)| and the number of roots of x^3 + Ax + B for each model."""
    chi, _ = _tables(p)
    x = np.arange(p, dtype=np.int64)
    x3 = (x * x % p) * x % p
    N = np.empty(len(A), dtype=np.int64)
    roots = np.empty(len(A), dtype=np.int64)
    chunk = max(1, (1 << 21) // p)
    for lo in range(0, len(A), chunk):
        hi = min(lo + chunk, len(A))
        f = (x3[None, :] + A[lo:hi, None] * x[None, :] + B[lo:hi, None]) % p
        N[lo:hi] = p + 1 + chi[f].sum(axis=1)
        roots[lo:hi] = (f == 0).sum(axis=1)
    return N, roots


# ----------------------------------------------------------------------
# vectorized Jacobian-coordinate arithmetic (Z == 0 means infinity)
# ----------------------------------------------------------------------

def _jac_double(X, Y, Z, A, p):
    YY = Y * Y % p
    S = (4 * X % p) * YY % p
    ZZ = Z * Z % p
    M = (3 * (X * X % p) + A * (ZZ * ZZ % p)) % p
    X3 = (M * M - 2 * S) % p
    Y3 = (M * ((S - X3) % p) - 8 * (YY * YY % p)) % p
    Z3 = (2 * Y % p) * Z % p
    return X3, Y3, Z3


def _jac_add(X1, Y1, Z1, X2, Y2, Z2, A, p):
    Z1Z1 = Z1 * Z1 % p
    Z2Z2 = Z2 * Z2 % p
    U1 = X1 * Z2Z2 % p
    U2 = X2 * Z1Z1 % p
    S1 = Y1 * (Z2 * Z2Z2 % p) % p
    S2 = Y2 * (Z1 * Z1Z1 % p) % p
    H = (U2 - U1) % p
    r = (S2 - S1) % p
    HH = H * H % p
    HHH = H * HH % p
    V = U1 * HH % p
    X3 = (r * r - HHH - 2 * V) % p
    Y3 = (r * ((V - X3) % p) - S1 * HHH % p) % p
    Z3 = (Z1 * Z2 % p) * H % p

    inf1 = Z1 == 0
    inf2 = Z2 == 0
    same = ~inf1 & ~inf2 & (H == 0)
    dbl = same & (r == 0)
    # H == 0, r != 0 is P + (-P): Z3 is already 0 there
    if dbl.any():
        DX, DY, DZ = _jac_double(X1, Y1, Z1, A, p)
        X3 = np.where(dbl, DX, X3)
        Y3 = np.where(dbl, DY, Y3)
        Z3 = np.where(dbl, DZ, Z3)
    X3 = np.where(inf1, X2, np.where(inf2, X1, X3))
    Y3 = np.where(inf1, Y2, np.where(inf2, Y1, Y3))
    Z3 = np.where(inf1, Z2, np.where(inf2, Z1, Z3))
    return X3, Y3, Z3


def _jac_add_affine(X1, Y1, Z1, x2, y2, A, p):
    """P1 (Jacobian) + P2 (affine), exploiting Z2 = 1."""
    Z1Z1 = Z1 * Z1 % p
    U2 = x2 * Z1Z1 % p
    S2 = y2 * (Z1 * Z1Z1 % p) % p
    H = (U2 - X1) % p
    r = (S2 - Y1) % p
    HH = H * H % p
    HHH = H * HH % p
    V = X1 * HH % p
    X3 = (r * r - HHH - 2 * V) % p
    Y3 = (r * ((V - X3) % p) - Y1 * HHH % p) % p
    Z3 = Z1 * H % p

    inf1 = Z1 == 0
    same = ~inf1 & (H == 0)
    dbl = same & (r == 0)
    if dbl.any():
        DX, DY, DZ = _jac_double(X1, Y1, Z1, A, p)
        X3 = np.where(dbl, DX, X3)
        Y3 = np.where(dbl, DY, Y3)
        Z3 = np.where(dbl, DZ, Z3)
    X3 = np.where(inf1, x2, X3)
    Y3 = np.where(inf1, y2, Y3)
    Z3 = np.where(inf1, np.int64(1), Z3)
    return X3, Y3, Z3


def _jac_mul_affine(k: int, x, y, A, p):
    """k * (x, y) for affine point arrays, double-and-add from the top bit."""
    if k <= 0:
        return np.ones_like(x), np.ones_like(x), np.zeros_like(x)
    RX, RY, RZ = x, y, np.ones_like(x)
    for bit in bin(k)[3:]:
        RX, RY, RZ = _jac_double(RX, RY, RZ, A, p)
        if bit == "1":
            RX, RY, RZ = _jac_add_affine(RX, RY, RZ, x, y, A, p)
    return RX, RY, RZ


def _jac_mul_small(q: int, X, Y, Z, A, p):
    """q * P for a small prime q and Jacobian point arrays."""
    if q == 2:
        return _jac_double(X, Y, Z, A, p)
    RX, RY, RZ = X, Y, Z
    for bit in bin(q)[3:]:
        RX, RY, RZ = _jac_double(RX, RY, RZ, A, p)
        if bit == "1":
            RX, RY, RZ = _jac_add(RX, RY, RZ, X, Y, Z, A, p)
    return RX, RY, RZ


def _q_valuations(p, A, X, Y, N, q, e):
    """v_q(order) for each affine point (X, Y) on its curve, vectorized."""
    QX, QY, QZ = _jac_mul_affine(N // q**e, X, Y, A, p)
    j = np.zeros(len(X), dtype=np.int64)
    for step in range(e):
        alive = QZ != 0
        if not alive.any():
            break
        j += alive
        if step < e - 1:
            QX, QY, QZ = _jac_mul_small(q, QX, QY, QZ, A, p)
    return j


def _random_points(p, A, B, rng):
    """One random affine point per model; ok marks models that got one."""
    chi, root = _tables(p)
    M = len(A)
    X = np.zeros(M, dtype=np.int64)
    Y = np.zeros(M, dtype=np.int64)
    ok = np.zeros(M, dtype=bool)
    pending = np.arange(M)
    for _ in range(64):
        if len(pending) == 0:
            break
        x = rng.integers(0, p, len(pending)).astype(np.int64)
        f = ((x * x % p) * x + A[pending] * x + B[pending]) % p
        good = chi[f] >= 0
        hit = pending[good]
        X[hit] = x[good]
        Y[hit] = np.where(f[good] == 0, 0, root[f[good]])
        ok[hit] = True
        pending = pending[~good]
    return X, Y, ok


def _scan_d1(p, A, B, N, qs):
    """Exact d1 for each model by scanning the q-valuations of all points.

    Chunked over models so the per-chunk point grid stays small.
    """
    chi, root = _tables(p)
    M = len(A)
    x = np.arange(p, dtype=np.int64)
    x3 = (x * x % p) * x % p
    d1 = np.ones(M, dtype=np.int64)
    chunk = max(1, (1 << 22) // p)
    for lo in range(0, M, chunk):
        hi = min(lo + chunk, M)
        f = (x3[None, :] + A[lo:hi, None] * x[None, :] + B[lo:hi, None]) % p
        rows, cols = np.nonzero(chi[f] >= 0)
        fv = f[rows, cols]
        Y = np.where(fv == 0, 0, root[fv])
        Acurve = A[lo:hi][rows]
        for q, e in qs:
            j = _q_valuations(p, Acurve, x[cols], Y, N, q, e)
            best = np.zeros(hi - lo, dtype=np.int64)
            np.maximum.at(best, rows, j)
            d1[lo:hi] *= np.int64(q) ** (e - best)
    bad = np.nonzero((p - 1) % d1)[0]
    if len(bad):
        raise InvariantError(
            f"full scan gave d1 not dividing p-1 at p={p}, "
            f"a={int(A[bad[0]])}, b={int(B[bad[0]])}"
        )
    return d1


def _d1_for_bucket(p, N, A, B, seed, full2):
    """d1 for every model in one point-count bucket (all share N).

    full2 flags the models with rational full 2-torsion (three roots of the
    cubic), which settles v_2(d1) = 0 outright for the others and pins
    v_2(d1) = 1 when 8 does not divide N or 4 does not divide p - 1; only
    the models with some prime power still ambiguous are sampled.
    """
    qs = _d1_candidates(p, N)
    M = len(A)
    if not qs:
        return np.ones(M, dtype=np.int64)
    if p <= _AUDIT_P:
        return _scan_d1(p, A, B, N, qs)

    vmax = {q: min(e // 2, valuation(p - 1, q)) for q, e in qs}
    best = {}
    floor_v = {}
    needs = np.zeros(M, dtype=bool)
    for q, e in qs:
        if q == 2:
            known = np.where(full2, 1 if vmax[2] == 1 else -1, 0)
            floor_v[2] = np.where(full2, 1, 0)
        else:
            known = np.full(M, -1, dtype=np.int64)
            floor_v[q] = np.zeros(M, dtype=np.int64)
        best[q] = np.where(known >= 0, e - known, 0)
        needs |= known < 0
    if not needs.any():
        return _assemble_d1(qs, best)

    rng = np.random.default_rng(np.random.SeedSequence([seed & 0x7FFFFFFF, p, N]))
    sampled = np.zeros(M, dtype=bool)
    unresolved = needs.copy()
    for _ in range(_MAX_SAMPLES):
        ids = np.flatnonzero(unresolved)
        if len(ids) == 0:
            break
        X, Y, ok = _random_points(p, A[ids], B[ids], rng)
        sampled[ids] |= ok
        settled = ok.copy()
        for q, e in qs:
            j = _q_valuations(p, A[ids], X, Y, N, q, e)
            best[q][ids] = np.maximum(best[q][ids], np.where(ok, j, 0))
            settled &= (e - best[q][ids]) <= floor_v[q][ids]
        unresolved[ids] = ~settled

    d1 = _assemble_d1(qs, best)
    valid = sampled | ~needs
    for q, e in qs:
        valid &= (e - best[q]) <= vmax[q]
    rescan = np.flatnonzero(~valid)
    if len(rescan):
        d1[rescan] = _scan_d1(p, A[rescan], B[rescan], N, qs)
    return d1


def _assemble_d1(qs, best):
    d1 = np.ones(len(next(iter(best.values()))), dtype=np.int64)
    for q, e in qs:
        d1 *= np.int64(q) ** (e - best[q])
    return d1


def tally_structures(p: int, seed: int = 0) -> StructureTally:
    """Exact tally of group shapes over all p^2 - p nonsingular models.

    Each isomorphism class is shaped once and counted with its weight, the
    number of models it occupies.
    """
    _require_p(p)
    A, B, W = _class_representatives(p)
    Nv, roots = _counts_and_roots(p, A, B)
    full2 = roots == 3
    counts: dict[GroupShape, int] = {}
    for Nval in np.unique(Nv):
        sel = np.flatnonzero(Nv == Nval)
        Nval = int(Nval)
        d1s = _d1_for_bucket(p, Nval, A[sel], B[sel], seed, full2[sel])
        for d1, w in zip(d1s.tolist(), W[sel].tolist()):
            shape = GroupShape(d1, Nval // (d1 * d1))
            counts[shape] = counts.get(shape, 0) + w
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


def is_supersingular(p: int, N: int) -> bool:
    """Trace-zero test: over F_p with p >= 5, supersingular means N = p + 1."""
    return N == p + 1


def empirical_probability(tally: StructureTally, shape: GroupShape) -> Fraction:
    """P(E(F_p) iso Z/d1 x Z/(d1*d2)) under the 1/|Aut| weighting, exactly.

    Equals count/(p(p-1)) because each isomorphism class occupies exactly
    (p-1)/|Aut(E)| models and the class masses 1/|Aut| sum to p.
    """
    p = tally.p
    return Fraction(tally.counts.get(shape, 0), p * (p - 1))


def weighted_average_from_tally(
    tally: StructureTally, stat: str, formula: str = "corrected"
) -> Fraction:
    """Automorphism-weighted average of a shape statistic, exactly."""
    if stat not in _STATS:
        raise DomainError(f"unknown stat {stat!r}")
    p = tally.p
    if stat == "one":
        return Fraction(tally.total(), p * (p - 1))
    acc = sum(
        c * stat_on_shape(shape, stat, formula) for shape, c in tally.counts.items()
    )
    return Fraction(acc, p * (p - 1))


def weighted_average(
    p: int,
    stat: str,
    formula: str = "corrected",
    seed: int = 0,
    tally: StructureTally | None = None,
) -> Fraction:
    """Average of stat over E in Ell(p), each class weighted by 1/|Aut(E)|."""
    if tally is None:
        tally = tally_structures(p, seed)
    return weighted_average_from_tally(tally, stat, formula)
