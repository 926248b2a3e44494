import math
from fractions import Fraction

import numpy as np
import pytest

from ellstat.arith import (
    divisors,
    factorize,
    hurwitz_sixfold,
    hurwitz_table,
    mu,
    primes_up_to,
    tau,
)
from ellstat.curves import (
    GroupShape,
    _trace_sixfolds,
    empirical_probability,
    hasse_admissible,
    tally_structures,
    weighted_average_from_tally,
    weighted_averages,
)
from ellstat.errors import DomainError
from ellstat.groups import stat_on_shape
from oracles import cyclic_subgroup_count, group_shape, point_count, subgroup_count


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


def test_trace_sixfolds_match_per_trace_scan():
    for p in primes_up_to(2999)[2:]:
        sixfolds = _trace_sixfolds(p)
        assert len(sixfolds) == math.isqrt(4 * p - 1) + 1
        assert sixfolds == [hurwitz_sixfold(4 * p - t * t) for t in range(len(sixfolds))], p


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
    for p in [*primes_up_to(1999)[2:], 100003, 100019, 100043]:
        _assert_level_n_closed_forms(p, tally_structures(p).counts)


def test_tally_from_hurwitz_table_matches_table_free_tally():
    """The sweep path (one shared table) against the single-prime path, the
    per-trace reference and the X(n) closed forms, dict order included."""
    table = hurwitz_table(4 * 1999)
    for p in primes_up_to(1999)[2:]:
        counts = tally_structures(p, table).counts
        assert list(counts.items()) == list(tally_structures(p).counts.items()), p
        assert list(counts.items()) == list(_reference_counts(p).items()), p
        _assert_level_n_closed_forms(p, counts)
    for p, short in ((2003, table), (5, hurwitz_table(19)), (5, [])):
        with pytest.raises(DomainError, match="Hurwitz table"):
            tally_structures(p, short)
    assert tally_structures(5, hurwitz_table(20)).counts == tally_structures(5).counts


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
        assert weighted_averages(tally_structures(p)).select("one") == 1


def test_weighted_average_examples():
    avg = weighted_averages(tally_structures(5)).select("tau_N")
    assert avg.denominator in (1, 2, 4, 5, 10, 20)
    assert avg == Fraction(61, 20)
    # aggregation orders agree: model sum vs shape sum
    p = 61
    t = tally_structures(p)
    by_shape = sum(
        stat_on_shape(sh, "s", "corrected") * empirical_probability(t, sh)
        for sh in t.counts
    )
    assert weighted_average_from_tally(t, "s", "corrected") == by_shape


def test_cyclic_average_below_subgroup_average():
    for p in (5, 11, 37, 101):
        t = tally_structures(p)
        for formula in ("corrected", "printed"):
            c = weighted_average_from_tally(t, "c", formula)
            s = weighted_average_from_tally(t, "s", formula)
            assert c <= s


def test_weighted_average_rejects():
    with pytest.raises(DomainError):
        weighted_averages(tally_structures(4)).select("s")
    with pytest.raises(DomainError):
        weighted_averages(tally_structures(5)).select("bogus")
    t = tally_structures(7)
    for stat in ("s", "c", "tau_N", "one"):
        with pytest.raises(DomainError):
            weighted_average_from_tally(t, stat, "bogus")


def test_weighted_averages_match_per_shape_convolution():
    # the one-pass averages against per-shape sums of the convolution oracle
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
        assert weighted_averages(t)._asdict() == expected, p


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
