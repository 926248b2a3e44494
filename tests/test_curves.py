import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from ellstat import cli, curves
from ellstat.arith import divisors, factorize, hurwitz_table, primes_up_to
from ellstat.curves import (
    GroupShape,
    StructureTally,
    empirical_probability,
    hasse_window,
    tally_structures,
    weighted_averages,
)
from ellstat.errors import DomainError, InvariantError
from ellstat.groups import stat_on_shape
from oracles import (
    averages_from_counts,
    cyclic_subgroup_count,
    group_shape,
    hasse_admissible,
    hurwitz_sixfold,
    mu,
    point_count,
    subgroup_count,
    tau,
)


def test_point_count_example():
    assert point_count(5, 0, 1) == 6


def test_point_count_rejects_singular_and_small_p():
    with pytest.raises(DomainError):
        point_count(5, 0, 0)
    with pytest.raises(DomainError):
        point_count(3, 1, 1)
    with pytest.raises(DomainError):
        point_count(9, 1, 1)


def test_hasse_bound_random_models():
    rng = np.random.default_rng(0)
    for p in (11, 37, 101):
        for _ in range(25):
            a, b = int(rng.integers(p)), int(rng.integers(p))
            if (4 * a**3 + 27 * b**2) % p == 0:
                continue
            N = point_count(p, a, b)
            t = p + 1 - N
            assert t * t <= 4 * p
            assert hasse_admissible(p, N)


def test_nonsingular_model_count():
    for p in (5, 7, 11, 13):
        n = sum(
            1
            for a in range(p)
            for b in range(p)
            if (4 * a**3 + 27 * b**2) % p
        )
        assert n == p * p - p


def test_group_shape_examples():
    assert group_shape(5, 0, 1) == GroupShape(1, 6)
    # squarefree N forces d1 = 1
    for p in (11, 13):
        for a in range(p):
            for b in range(p):
                if (4 * a**3 + 27 * b**2) % p == 0:
                    continue
                N = point_count(p, a, b)
                if all(e == 1 for _, e in factorize(N)):
                    assert group_shape(p, a, b, N) == GroupShape(1, N)


def test_group_shape_full_two_torsion_example():
    # search p=7 for a model with N=8 and full 2-torsion: shape (2, 2)
    found = False
    p = 7
    for a in range(p):
        for b in range(p):
            if (4 * a**3 + 27 * b**2) % p == 0:
                continue
            if point_count(p, a, b) != 8:
                continue
            roots = sum(1 for x in range(p) if (x**3 + a * x + b) % p == 0)
            if roots == 3:
                assert group_shape(p, a, b) == GroupShape(2, 2)
                found = True
    assert found


def test_tally_small_primes_match_per_model():
    # d1 = 9 first occurs at p = 73
    for p in (5, 7, 11, 13, 37, 67, 73):
        tally = tally_structures(p)
        counts = {}
        for a in range(p):
            for b in range(p):
                if (4 * a**3 + 27 * b**2) % p == 0:
                    continue
                sh = group_shape(p, a, b)
                counts[sh] = counts.get(sh, 0) + 1
        assert counts == tally.counts


def _reference_counts(p):
    """The tally one trace at a time: hurwitz_sixfold for every trace t and
    every n | p-1 with n^2 | N, then the Moebius step."""
    counts = {}
    tmax = math.isqrt(4 * p - 1)
    for t in range(-tmax, tmax + 1):
        N = p + 1 - t
        F = {}
        for n in divisors(p - 1):
            if n * n > N:
                break
            if N % (n * n) == 0:
                F[n] = (p - 1) * hurwitz_sixfold((4 * p - t * t) // (n * n)) // 12
        for m in F:
            exact = sum(mu(mk // m) * F[mk] for mk in F if mk % m == 0)
            if exact:
                counts[GroupShape(m, N // (m * m))] = exact
    return counts


class _OracleSixfolds:
    """6H(D) as ``oracle[D]``, from the per-value scan."""

    def __getitem__(self, D):
        return hurwitz_sixfold(D)


def test_trace_sixfolds_match_per_trace_scan():
    """Every row one prime reads from its hurwitz_sixfolds pass, before and
    after inversion, against the rows read value by value from the scan."""
    oracle = _OracleSixfolds()
    for p in primes_up_to(2999)[2:]:
        assert curves._inverted_rows(p, oracle) == curves._inverted_rows(p), p


def test_tally_matches_per_trace_reference():
    for p in [*primes_up_to(1500)[2:], 20011]:
        assert tally_structures(p).counts == _reference_counts(p), p


def _assert_level_n_closed_forms(p, counts):
    """Models with n | d1, i.e. E[n] in E(F_p), counted without class numbers.

    n = 2: E[2] is rational iff x^3 + ax + b = (x - e1)(x - e2)(x - e3) with
    distinct e_i summing to 0: (p-1)(p-2) ordered triples, so (p-1)(p-2)/6
    models.

    n = 3, 4, 5 with n | p-1: the modular curve X(n) has genus 0 and
    |SL2(Z/n)|/(2n) cusps (4, 6, 12), all rational when mu_n is in F_p, so
    Y(n)(F_p) has p + 1 - cusps points.  A point of Y(n) is a curve with a
    basis of E[n] of fixed Weil pairing; each curve with E[n] rational has
    |SL2(Z/n)|/|Aut(E)| of them up to isomorphism (Aut acts freely for
    n >= 3), and its class occupies (p-1)/|Aut(E)| models.  So the models
    number (p-1)(p+1-cusps)/|SL2(Z/n)|, with |SL2(Z/n)| = 24, 48, 120:
    (p-1)(p-3)/24, (p-1)(p-5)/48 and (p-1)(p-11)/120.
    """
    closed = {
        2: (p - 1) * (p - 2) // 6,
        3: (p - 1) * (p - 3) // 24,
        4: (p - 1) * (p - 5) // 48,
        5: (p - 1) * (p - 11) // 120,
    }
    for n, models in closed.items():
        if n == 2 or (p - 1) % n == 0:
            assert sum(c for sh, c in counts.items() if sh.d1 % n == 0) == models, (p, n)


def test_full_level_n_model_counts():
    for p in [*primes_up_to(1999)[2:], 100003, 100019, 100043, 999983, 1000003]:
        _assert_level_n_closed_forms(p, tally_structures(p).counts)


def test_tally_from_hurwitz_table_matches_table_free_tally():
    """The rows the sweep reads from its shared class-number table against
    the rows one prime reads from its own pass, and the tally they give
    against the per-trace reference in shape order, dict order included."""
    table = hurwitz_table(4 * 1999)
    for p in primes_up_to(1999)[2:]:
        rows = curves._inverted_rows(p, table)
        assert rows == curves._inverted_rows(p), p
        assert list(curves._tally(rows).counts.items()) == sorted(_reference_counts(p).items()), p


def test_row_starts_are_the_least_multiples_in_the_window():
    """Entry 0 of row m is the least multiple of m^2 that is at least the
    least order of the Hasse window, for every m | p-1 that holds a row."""
    for p in primes_up_to(2999)[2:]:
        lo = hasse_window(p)[0]
        ms = [m for m, *_ in curves._row_divisors(p)]
        expected = [next(n for n in range(lo, lo + m * m) if n % (m * m) == 0) for m in ms]
        assert curves._row_starts(p, ms) == expected, p


def test_sweep_averages_match_single_prime_averages():
    """The sweep's tables are sized to xmax: at a prime xmax the rows read
    6H(4 xmax) and tau(xmax + 1 + isqrt(4 xmax)), the last entry of each.
    Every prime's averages from them against weighted_averages(p), in
    ascending p."""
    single = {p: weighted_averages(p) for p in primes_up_to(2999)[2:]}
    for x in range(5, 61):
        assert list(curves.sweep_averages(x).items()) == [(p, a) for p, a in single.items() if p <= x], x
    assert list(curves.sweep_averages(2999).items()) == list(single.items())
    assert curves.sweep_averages(4) == curves.sweep_averages(-7) == {}


def test_hasse_window_matches_hasse_admissible():
    for p in primes_up_to(1500)[2:]:
        lo, hi = hasse_window(p)
        assert [N for N in range(hi + 3) if hasse_admissible(p, N)] == list(range(lo, hi + 1)), p


def test_tally_is_its_counts():
    """Two fields; shapes in ascending d1 and then d2, every trace of the
    Hasse window present, every count >= 1."""
    p = 73
    tally = tally_structures(p)
    assert [f.name for f in dataclasses.fields(StructureTally)] == ["p", "counts"]
    assert type(tally.counts) is dict
    keys = [(sh.d1, sh.d2) for sh in tally.counts]
    assert keys == sorted(keys)
    assert sorted({p + 1 - sh.order for sh in tally.counts}) == list(range(-17, 18))
    assert min(tally.counts.values()) >= 1
    assert sum(tally.counts.values()) == tally.total() == p * p - p


def test_tampered_tally_raises():
    p = 1009
    counts = tally_structures(p).counts
    lo, hi = hasse_window(p)
    shape = next(sh for sh in counts if sh.d1 == 2)
    less = counts[shape] - 1  # one model moved to the bad shape keeps the mass
    for match, update in (
        (r"inadmissible shape \(5,", {GroupShape(5, shape.d2): 1, shape: less}),  # 5 does not divide 1008
        (rf"inadmissible shape \(1, {lo - 1}\)", {GroupShape(1, lo - 1): 1, shape: less}),
        (rf"inadmissible shape \(1, {hi + 1}\)", {GroupShape(1, hi + 1): 1, shape: less}),
        ("non-positive count 0 ", {GroupShape(1, lo): 0}),
        ("non-positive count -1 ", {GroupShape(1, lo): -1}),
        ("tally mass", {shape: counts[shape] + 1}),
        ("tally mass", {shape: less}),
    ):
        with pytest.raises(InvariantError, match=match):
            StructureTally(p, {**counts, **update})
    assert StructureTally(p, dict(counts)).counts == counts
    for bad in (0, 4, 9):  # refused before the window or the mass is read
        with pytest.raises(DomainError, match=f"need a prime p >= 5, got {bad}"):
            StructureTally(bad, {})


def test_tally_examples():
    t5 = tally_structures(5)
    assert t5.total() == 20
    assert all((5 - 1) % sh.d1 == 0 for sh in t5.counts)
    assert all(sh.d1 in (1, 2, 4) for sh in t5.counts)


def test_tally_trace_recount_p11():
    # shapes with N = 12 recounted by grouping models by trace first
    p = 11
    t = tally_structures(p)
    by_bucket = sum(c for sh, c in t.counts.items() if sh.order == 12)
    recount = 0
    for a in range(p):
        for b in range(p):
            if (4 * a**3 + 27 * b**2) % p == 0:
                continue
            if point_count(p, a, b) == 12:
                recount += 1
    assert by_bucket == recount


def test_empirical_probability():
    p = 5
    t = tally_structures(p)
    total = sum(empirical_probability(t, sh) for sh in t.counts)
    assert total == 1
    assert empirical_probability(t, GroupShape(3, 1)) == 0
    assert empirical_probability(t, GroupShape(1, 6)) == Fraction(4, 20)


def test_weighted_average_mass():
    for p in (5, 7, 11, 37):
        assert weighted_averages(p).select("one") == 1


def test_weighted_average_examples():
    avg = weighted_averages(5).select("tau_N")
    assert avg.denominator in (1, 2, 4, 5, 10, 20)
    assert avg == Fraction(61, 20)
    # aggregation orders agree: sixfold sum vs shape sum
    p = 61
    t = tally_structures(p)
    by_shape = sum(
        stat_on_shape(sh, "s", "corrected") * empirical_probability(t, sh)
        for sh in t.counts
    )
    assert weighted_averages(p).select("s", "corrected") == by_shape


def test_cyclic_average_below_subgroup_average():
    for p in (5, 11, 37, 101):
        averages = weighted_averages(p)
        for formula in ("corrected", "printed"):
            assert averages.select("c", formula) <= averages.select("s", formula)


def test_weighted_average_rejects():
    with pytest.raises(DomainError):
        weighted_averages(4)
    with pytest.raises(DomainError):
        weighted_averages(5).select("bogus")
    averages = weighted_averages(7)
    for stat in ("s", "c", "tau_N", "one"):
        with pytest.raises(DomainError):
            averages.select(stat, "bogus")


def test_weighted_averages_match_per_shape_convolution():
    # the sixfold averages against per-shape sums of the convolution oracle
    for p in primes_up_to(200)[2:]:
        t = tally_structures(p)
        mass = p * (p - 1)
        expected = {}
        for name, counter in (("s", subgroup_count), ("c", cyclic_subgroup_count)):
            for formula, inflate in (("corrected", 1), ("printed", 2)):
                acc = sum(
                    c * counter(sh.d1, sh.d1**inflate * sh.d2, "convolution")
                    for sh, c in t.counts.items()
                )
                expected[f"{name}_{formula}"] = Fraction(acc, mass)
        expected["tau_N"] = Fraction(sum(c * tau(sh.order) for sh, c in t.counts.items()), mass)
        expected["one"] = Fraction(1)
        assert weighted_averages(p)._asdict() == expected, p


def test_weighted_averages_match_averages_from_counts():
    """Averages read from the inverted rows and strided tau slices against
    the per-shape sum over the tally's counts: one prime's, with tau from
    per-q windows, and the sweep's, from its two shared tables."""
    sweep = curves.sweep_averages(2999)
    for p in primes_up_to(2999)[2:]:
        expected = averages_from_counts(tally_structures(p))
        assert weighted_averages(p) == sweep[p] == expected, p
    for p in (100003, 400009, 999983):
        averages, tally = curves._averages_and_tally(p)  # one row build, as brute --tally makes
        assert averages == averages_from_counts(tally), p


def test_trace_moments():
    """sum_t 6H(4p - t^2) = 12p (Kronecker) and sum_t (t^2 - p) 6H(4p - t^2)
    = -12 (Birch), t^2 < 4p, from the sweep's table and from one prime's
    class-number pass."""
    table = hurwitz_table(4 * 2999)
    for p in [*primes_up_to(2999)[2:], 100003, 999983]:
        ts = range(-math.isqrt(4 * p - 1), math.isqrt(4 * p - 1) + 1)
        h = [table[4 * p - t * t] for t in ts] if p < 3000 else curves._inverted_rows(p).h
        assert sum(h) == 12 * p, p
        assert sum((t * t - p) * s for t, s in zip(ts, h)) == -12, p


def test_trace_moment_catches_what_the_mass_misses():
    """Two cyclic traces' sixfolds swapped keep the mass, the integrality
    and every row, but not the fourth moment."""
    p = 1009
    six = hurwitz_table(4 * p)
    t1, t2 = 1, 3  # N = 1009, 1007 = 19 * 53: no n > 1 row
    D1, D2 = 4 * p - t1 * t1, 4 * p - t2 * t2
    assert six[D1] != six[D2]
    six[D1], six[D2] = six[D2], six[D1]
    with pytest.raises(InvariantError, match="trace moment"):
        curves._inverted_rows(p, six)


def test_negative_inverted_row_raises():
    """A row-2 sixfold raised until E_1 < 0 at one trace keeps the mass, the
    moment and, as 12 | p - 1 = 1008, integrality; the rows refuse it."""
    p, t = 1009, 2  # N = 1008 = 2^4 3^2 7 lies on the rows 1, 2, 3, 4, 6, 12
    N = p + 1 - t
    six = hurwitz_table(4 * p)
    e1 = 12 * tally_structures(p).counts[GroupShape(1, N)] // (p - 1)
    D = (4 * p - t * t) // 4
    assert e1 > 0 and D not in {4 * p - s * s for s in range(64)}  # not a row-1 sixfold
    six[D] += e1 + 1
    with pytest.raises(InvariantError, match=f"negative inverted sixfold -1 for d1 = 1 at p={p}, t={t}"):
        curves._inverted_rows(p, six)


def test_non_integral_row_raises():
    """p - 1 is not a multiple of 12, so a row-2 sixfold one too large gives
    a fractional model count.  At p = 1039 = 7 (mod 12), p - 1 = 1038 is a
    multiple of 6, so only the full modulus 12 sees it."""
    for p in (1019, 1039):
        six = hurwitz_table(4 * p)
        D = 4 * p // 4  # t = 0, N = p + 1 = 0 (mod 4): row 2
        assert D not in {4 * p - s * s for s in range(64)}
        six[D] += 1
        with pytest.raises(InvariantError, match=f"non-integral model count \\(p-1\\) 6H/12 at p={p}"):
            curves._inverted_rows(p, six)


def test_brute_tally_builds_the_rows_once(monkeypatch, capsys):
    calls = []
    build = curves._inverted_rows

    def counted(p, table=None):
        calls.append(p)
        return build(p, table)

    monkeypatch.setattr(curves, "_inverted_rows", counted)
    for argv, built in ((["--tally"], [1009]), ([], [1009, 1009])):
        assert cli.main(["brute", "--p", "1009", *argv]) == 0
        assert calls == built
    assert f"\n1,1008,{tally_structures(1009).counts[GroupShape(1, 1008)]}\n" in capsys.readouterr().out


def test_supersingular_trend():
    # supersingular mass decreases towards zero along the primes
    fracs = []
    for p in [x for x in primes_up_to(499) if x >= 5]:
        t = tally_structures(p)
        ss = sum(c for sh, c in t.counts.items() if sh.order == p + 1)
        fracs.append(ss / (p * (p - 1)))
    half = len(fracs) // 2
    first, second = fracs[:half], fracs[half:]
    assert np.median(second) < np.median(first)
    assert fracs[-1] < fracs[0]
