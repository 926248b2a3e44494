"""Seeded inputs for the benchmark's four workloads.

A workload is a list of operations, each one ``ellstat`` CLI invocation,
run in order by a single client that waits for each to finish (a closed
loop).  The seed picks one input bundle from the workload's stratum pool
and is passed on as the CLI's own ``--seed`` where the command accepts one.
Seed 0 gives the default inputs: the first bundle of each pool.  The order
of the operations is fixed, because the process's peak memory depends on it.

The pools hold only bundles whose run time matched the default bundle's
within 2% when the benchmark was defined (Python 3.11, numpy 2.4, 2 cores),
so a new seed changes the inputs without widening the run-to-run spread.
Where no other input in the stratum matched, the pool has one bundle and the
seed changes only the CLI seed.
"""

from __future__ import annotations

WORKLOADS = ("brute-large", "sweep-small", "compare-safe", "prob-shapes")

#: Two primes in [1000, 2100] with p-1 7-smooth and not squarefree (d1
#: resolution dominates), then one with p-1 squarefree (point-count grids
#: and masks dominate).  Every bundle shares 1601 and 2003, so the median
#: operation and the largest p x p grid are the same for every seed.
BRUTE_BUNDLES = ((1009, 1601, 2003), (1051, 1601, 2003))

#: Safe primes p = 2l + 1 in [700, 1100]: the O(l^3) Euler factor at l
#: dominates and 2-torsion settles d1 in the tallies.  Every other pair of
#: safe primes in the range differs from this one by more than 3% in cost.
COMPARE_BUNDLES = ((719, 1019),)

#: A small prime near 100.  At 101, 6 of the 55 shapes carry almost all the
#: f_ell cost, so the cost moves with the prime far more than the bound
#: allows; 103 has a shape that exceeds the enumeration budget.
PROB_PRIMES = (101,)

SWEEP_XMAX = 503
BRUTE_STATS = "s,c,tau,one"
PROB_LMAX = 1000


def factor(n: int) -> list[tuple[int, int]]:
    out = []
    q = 2
    while q * q <= n:
        e = 0
        while n % q == 0:
            n //= q
            e += 1
        if e:
            out.append((q, e))
        q += 1
    if n > 1:
        out.append((n, 1))
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and factor(n) == [(n, 1)]


def largest_prime_factor(n: int) -> int:
    return max(q for q, _ in factor(n))


def is_smooth_stratum(p: int) -> bool:
    """p-1 is 7-smooth and has a square factor."""
    fac = factor(p - 1)
    return max(q for q, _ in fac) <= 7 and any(e >= 2 for _, e in fac)


def is_squarefree_stratum(p: int) -> bool:
    return all(e == 1 for _, e in factor(p - 1))


def is_safe_prime(p: int) -> bool:
    return is_prime(p) and is_prime((p - 1) // 2)


def admissible_shapes(p: int) -> list[tuple[int, int]]:
    """Every (d1, d2) with d1 | p-1 and d1^2*d2 in the Hasse interval."""
    out = []
    for d1 in range(1, p):
        if (p - 1) % d1:
            continue
        d2 = 1
        while d1 * d1 * d2 <= p + 1 + 2 * int(p**0.5) + 2:
            t = p + 1 - d1 * d1 * d2
            if t * t < 4 * p:
                out.append((d1, d2))
            d2 += 1
    return out


def _op(kind: str, args: list[str], seed_arg: list[str], **info) -> dict:
    """An operation: its argv, and the key its recorded digest is filed under."""
    return {
        "kind": kind,
        "key": " ".join([kind, *args]),
        "argv": [kind, *args, *seed_arg],
        **info,
    }


POOLS = {
    "brute-large": BRUTE_BUNDLES,
    "sweep-small": ((SWEEP_XMAX,),),
    "compare-safe": COMPARE_BUNDLES,
    "prob-shapes": tuple((p,) for p in PROB_PRIMES),
}


def _bundle_ops(workload: str, bundle: tuple[int, ...], cli_seed: int) -> list[dict]:
    seed_arg = ["--seed", str(cli_seed)]
    if workload == "brute-large":
        return [
            _op("brute", ["--p", str(p), "--stats", BRUTE_STATS, "--tally"], seed_arg, p=p)
            for p in bundle
        ]
    if workload == "sweep-small":
        (xmax,) = bundle
        return [_op("sweep", ["--xmax", str(xmax), "--threads", "1"], seed_arg, xmax=xmax)]
    if workload == "compare-safe":
        return [_op("compare", ["--p", str(p), "--stat", "s"], seed_arg, p=p) for p in bundle]
    (p,) = bundle
    return [
        _op("prob", ["--p", str(p), "--d1", str(d1), "--d2", str(d2), "--lmax", str(PROB_LMAX)], [], p=p)
        for d1, d2 in admissible_shapes(p)
    ]


def generate(workload: str, seed: int) -> list[dict]:
    """The operations of one pass of ``workload`` for ``seed``."""
    if workload not in POOLS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    pool = POOLS[workload]
    return _bundle_ops(workload, pool[seed % len(pool)], seed)


def all_operations(workload: str) -> list[dict]:
    """Every distinct operation any seed can produce, with CLI seed 0."""
    ops = {}
    for bundle in POOLS[workload]:
        for op in _bundle_ops(workload, bundle, 0):
            ops.setdefault(op["key"], op)
    return list(ops.values())
