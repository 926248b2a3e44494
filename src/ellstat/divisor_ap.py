"""Exact divisor sums in arithmetic progressions and short intervals, the
smooth Dirichlet main term D(X, a, q), the error statistic Delta, and the
mean-square experiment against its two-branch envelope.

Exact sums come from two independent routes: a hyperbola-method count with
the congruence folded into per-divisor progression counts (O(sqrt(X)),
used for cumulative sums), and a segmented divisor sieve over a window
(used for window sums and for the residue-resolved mean-square statistic).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .arith import divisors, ramanujan_sum
from .errors import BudgetError, DomainError

EULER_GAMMA = 0.5772156649015329

_SIEVE_BUDGET = 10**9
_WINDOW_BUDGET = 10**7  # tau_window_values holds B - A int64 entries (80 MB)
_HYPERBOLA_BUDGET = 10**14  # tau_sum_upto takes isqrt(X) <= 10^7 steps


class MeanSquareResult(NamedTuple):
    lhs: float
    envelope: float
    ratio: float
    branch: str


def _require_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")


def _count_ap(lo: int, hi: int, r: int, mod: int) -> int:
    """#{n : lo < n <= hi, n == r (mod mod)} for any integers lo <= hi."""
    return (hi - r) // mod - (lo - r) // mod


def tau_sum_upto(X: float, a: int = 0, q: int = 1) -> int:
    """sum of tau(n) over n <= X with n == a (mod q), exactly.

    Hyperbola method: every n = d*m with d <= sqrt(n); for each d the inner
    variable runs through one arithmetic progression, counted in O(1).
    X above ``_HYPERBOLA_BUDGET`` raises ``BudgetError``.
    """
    if q < 1:
        raise DomainError(f"modulus must be >= 1, got {q}")
    _require_finite(X=X)
    if X > _HYPERBOLA_BUDGET:
        raise BudgetError(f"hyperbola budget is X <= {_HYPERBOLA_BUDGET}, got {X}")
    X = math.floor(X)
    if X < 1:
        return 0
    a %= q
    root = math.isqrt(X)
    total = 0
    for d in range(1, root + 1):
        g = math.gcd(d, q)
        if a % g:
            continue
        qg = q // g
        r = (a // g) * pow(d // g, -1, qg) % qg
        total += 2 * _count_ap(d, X // d, r, qg)
        if (d * d) % q == a:
            total += 1
    return total


def tau_window_values(A: int, B: int) -> np.ndarray:
    """tau(n) for n in (A, B] via a segmented divisor sieve.

    Divisors d <= sqrt(B) are paired with cofactors m >= d, adding 2 per
    pair and 1 on the diagonal n = d^2.  B above ``_SIEVE_BUDGET`` or a
    window B - A above ``_WINDOW_BUDGET`` raises ``BudgetError`` before
    anything is allocated.
    """
    if B > _SIEVE_BUDGET:
        raise BudgetError(f"sieve budget is B <= {_SIEVE_BUDGET}, got {B}")
    if B - A > _WINDOW_BUDGET:
        raise BudgetError(f"window budget is B - A <= {_WINDOW_BUDGET}, got {B - A}")
    if B <= A:
        return np.zeros(0, dtype=np.int64)
    out = np.zeros(B - A, dtype=np.int64)
    for d in range(1, math.isqrt(B) + 1):
        first = max(A + 1, d * d)
        first += (-first) % d
        if first <= B:
            out[first - A - 1 :: d] += 2
        if A < d * d <= B:
            out[d * d - A - 1] -= 1
    return out


def tau_sum_window(A: float, B: float, a: int = 0, q: int = 1) -> int:
    """sum of tau(n) over A < n <= B with n == a (mod q), exactly (sieve)."""
    if q < 1:
        raise DomainError(f"modulus must be >= 1, got {q}")
    _require_finite(A=A, B=B)
    Ai, Bi = math.floor(A), math.floor(B)
    if Bi <= Ai:
        return 0
    vals = tau_window_values(Ai, Bi)
    n = np.arange(Ai + 1, Bi + 1, dtype=np.int64)
    return int(vals[n % q == a % q].sum())


def dirichlet_main(X: float, a: int = 0, q: int = 1) -> float:
    """Smooth main term D(X, a, q) of the divisor sum in the progression:

        (X/q) sum_{k | q} (c_k(a)/k) (log(X/k^2) + 2 gamma - 1)

    with c_k the Ramanujan sum.
    """
    if q < 1:
        raise DomainError(f"modulus must be >= 1, got {q}")
    if X < 1:
        return 0.0
    acc = 0.0
    for k in divisors(q):
        acc += ramanujan_sum(k, a) / k * (math.log(X / k**2) + 2 * EULER_GAMMA - 1)
    return X / q * acc


def delta_at(X: float, a: int = 0, q: int = 1) -> float:
    """Delta(X, a, q) = exact divisor sum minus the smooth main term."""
    return tau_sum_upto(X, a, q) - dirichlet_main(X, a, q)


def delta_window(A: float, B: float, a: int = 0, q: int = 1) -> float:
    """Delta(A, B, a, q) = Delta(B, a, q) - Delta(A, a, q)."""
    if B < A:
        raise DomainError(f"need A <= B, got A={A}, B={B}")
    if B == A:
        return 0.0
    return delta_at(B, a, q) - delta_at(A, a, q)


def _window_deltas(A: int, B: int, q: int) -> np.ndarray:
    """Delta(A, B, a, q) for every residue a, from one sieve pass."""
    vals = tau_window_values(A, B)
    n = np.arange(A + 1, B + 1, dtype=np.int64)
    sums = np.bincount(n % q, weights=vals.astype(np.float64), minlength=q)
    mains = np.array(
        [dirichlet_main(B, a, q) - dirichlet_main(A, a, q) for a in range(q)]
    )
    return sums - mains


def mean_square_experiment(A: float, B: float, q: int) -> MeanSquareResult:
    """Mean square of Delta(A, B, a, q) over residues, against the envelope.

    The envelope is the two-branch bound (without the (qB)^epsilon factor or
    implied constant):

        (B-A)^(1/2)/q * (B^3/A)^(1/4)        if B - A <= sqrt(B),
        (B-A)^(4/3)/q^(4/3) * (B/A)^(1/3)    if sqrt(B) <= B - A <= sqrt(AB);

    at the branch boundary the maximum of both values is used.  Hypotheses
    1 <= q <= sqrt(A) and B - A <= sqrt(AB) are enforced.
    """
    _require_finite(A=A, B=B)
    Ai, Bi = math.floor(A), math.floor(B)
    if not (1 <= Ai < Bi):
        raise DomainError(f"need 1 <= A < B, got A={A}, B={B}")
    if q < 1 or q * q > Ai:
        raise DomainError(f"need 1 <= q <= sqrt(A), got q={q}, A={A}")
    d = Bi - Ai
    if d * d > Ai * Bi:
        raise DomainError("window longer than sqrt(A*B)")
    deltas = _window_deltas(Ai, Bi, q)
    lhs = float(np.mean(deltas**2))
    short = math.sqrt(d) / q * (Bi**3 / Ai) ** 0.25
    long_ = d ** (4 / 3) / q ** (4 / 3) * (Bi / Ai) ** (1 / 3)
    if d * d < Bi:
        envelope, branch = short, "short"
    elif d * d > Bi:
        envelope, branch = long_, "long"
    else:
        envelope, branch = max(short, long_), "boundary"
    return MeanSquareResult(lhs, envelope, lhs / envelope, branch)
