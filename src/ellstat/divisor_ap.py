"""Exact divisor sums in arithmetic progressions and short intervals, the
smooth Dirichlet main term D(X, a, q), the error statistic Delta, and the
mean-square experiment against its two-branch envelope, with the standard
(A, B, q) grid it runs over.

Exact sums come from two independent routes: a hyperbola-method count with
the congruence folded into per-divisor progression counts (O(sqrt(X)),
used for cumulative sums), and ``arith.tau_window``'s segmented divisor
sieve over a window (used for window sums and for the residue-resolved
mean-square statistic).
"""

from __future__ import annotations

import math
from typing import NamedTuple

# Nothing here computes with numpy; perfbench/worker.py stamps each run with
# sys.modules["numpy"].__version__, so the import stays until that changes.
import numpy  # noqa: F401

from .arith import divisors, ramanujan_sum, tau_window
from .errors import BudgetError, DomainError

EULER_GAMMA = 0.5772156649015329

_SIEVE_BUDGET = 10**9
# tau_window holds B - A Python ints: 6-9 s and 105-117 MB at 10^7
_WINDOW_BUDGET = 10**7
_HYPERBOLA_BUDGET = 10**14  # tau_sum_upto takes isqrt(X) <= 10^7 steps
_MODULUS_BUDGET = 10**14  # dirichlet_main factors q: under 10 ms at 9999973 * 9999991


class MeanSquareResult(NamedTuple):
    lhs: float
    envelope: float
    ratio: float
    branch: str


def _require_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")


def _check_modulus(q: int) -> None:
    if q < 1:
        raise DomainError(f"modulus must be >= 1, got {q}")
    if q > _MODULUS_BUDGET:
        raise BudgetError(f"modulus budget is q <= {_MODULUS_BUDGET}, got {q}")


def _check_window(A: int, B: int) -> None:
    """The budgets of a sieve over (A, B], checked before anything is sieved."""
    if B > _SIEVE_BUDGET:
        raise BudgetError(f"sieve budget is B <= {_SIEVE_BUDGET}, got {B}")
    if B - A > _WINDOW_BUDGET:
        raise BudgetError(f"window budget is B - A <= {_WINDOW_BUDGET}, got {B - A}")


def _count_ap(lo: int, hi: int, r: int, mod: int) -> int:
    """#{n : lo < n <= hi, n == r (mod mod)} for any integers lo <= hi."""
    return (hi - r) // mod - (lo - r) // mod


def tau_sum_upto(X: float, a: int = 0, q: int = 1) -> int:
    """sum of tau(n) over n <= X with n == a (mod q), exactly.

    Hyperbola method: every n = d*m with d <= sqrt(n); for each d the inner
    variable runs through one arithmetic progression, counted in O(1).
    X above ``_HYPERBOLA_BUDGET`` raises ``BudgetError``.
    """
    _check_modulus(q)
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


def tau_sum_window(A: float, B: float, a: int = 0, q: int = 1) -> int:
    """sum of tau(n) over A < n <= B with n == a (mod q), exactly (sieve).

    B above ``_SIEVE_BUDGET`` or a window B - A above ``_WINDOW_BUDGET``
    raises ``BudgetError``; n <= 0 adds nothing.
    """
    _check_modulus(q)
    _require_finite(A=A, B=B)
    Ai, Bi = math.floor(A), math.floor(B)
    if Bi <= Ai:
        return 0
    _check_window(Ai, Bi)
    Ai = max(Ai, 0)
    return sum(tau_window(Ai + 1, Bi)[(a - Ai - 1) % q :: q])


def dirichlet_main(X: float, a: int = 0, q: int = 1) -> float:
    """Smooth main term D(X, a, q) of the divisor sum in the progression:

        (X/q) sum_{k | q} (c_k(a)/k) (log(X/k^2) + 2 gamma - 1)

    with c_k the Ramanujan sum.
    """
    _require_finite(X=X)
    _check_modulus(q)
    return _main_term(X, q, [(k, ramanujan_sum(k, a)) for k in divisors(q)])


def _main_term(X: float, q: int, row: list[tuple[int, int]]) -> float:
    """D(X, a, q) from the pairs (k, c_k(a)) over the divisors k of q, ascending."""
    if X < 1:
        return 0.0
    acc = 0.0
    for k, c in row:
        acc += c / k * (math.log(X / k**2) + 2 * EULER_GAMMA - 1)
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


def _window_deltas(A: int, B: int, q: int) -> list[float]:
    """Delta(A, B, a, q) for every residue a, from one sieve pass; 1 <= A < B.
    Residue a reads the main term of g = gcd(a, q), as c_k(a) = c_k(g) for k | q."""
    _check_window(A, B)
    vals = tau_window(A + 1, B)
    ks = divisors(q)
    main = {}
    for g in ks:
        row = [(k, ramanujan_sum(k, g)) for k in ks]
        main[g] = _main_term(B, q, row) - _main_term(A, q, row)
    return [sum(vals[(a - A - 1) % q :: q]) - main[math.gcd(a, q)] for a in range(q)]


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
    lhs = math.fsum(d * d for d in deltas) / q
    short = math.sqrt(d) / q * (Bi**3 / Ai) ** 0.25
    long_ = d ** (4 / 3) / q ** (4 / 3) * (Bi / Ai) ** (1 / 3)
    if d * d < Bi:
        envelope, branch = short, "short"
    elif d * d > Bi:
        envelope, branch = long_, "long"
    else:
        envelope, branch = max(short, long_), "boundary"
    return MeanSquareResult(lhs, envelope, lhs / envelope, branch)


def default_grid() -> list[tuple[int, int, int]]:
    """The (A, B, q) grid of the mean-square experiment."""
    out = []
    for A in (10**4, 10**5, 10**6, 10**7):
        windows = [
            math.ceil(A**0.3),
            math.ceil(A**0.4),
            math.isqrt(A) + 1,
        ]
        qs = [1, 2, 8, 25, math.floor(A**0.25)]
        for w in windows:
            for q in qs:
                if q * q <= A:
                    out.append((A, A + w, q))
    return out
