import math
from fractions import Fraction

import numpy as np
import pytest

from ellstat.arith import primes_up_to, valuation
from ellstat.curves import empirical_probability, tally_structures
from ellstat.densities import (
    f_ell,
    f_ell_closed,
    f_infty,
    f_p_local,
    g_sum,
    probability_product,
    _count_trace_fixed,
    _count_trace_fixed_level,
    _norm2,
    _sqrt_counts,
)
from ellstat import densities
from ellstat.errors import BudgetError, DomainError
from ellstat.groups import GroupShape
from oracles import (
    _bucket_count_level,
    _norm3,
    count_bucket_enum,
    count_trace_fixed_enum,
    g_density,
    g_density_tail,
    g_sum_by_buckets,
)


# ----------------------------------------------------------------------
# archimedean factor
# ----------------------------------------------------------------------

def test_f_infty_values():
    # mass 1; the printed factor is twice it
    p = 101
    assert 2 * f_infty(0, p) == pytest.approx(2 / (math.pi * math.sqrt(p)))
    assert f_infty(0, p) == pytest.approx(1 / (math.pi * math.sqrt(p)))
    assert f_infty(21, p) == 0.0  # 21^2 = 441 > 404
    assert f_infty(-7, p) == f_infty(7, p)
    # p is checked as on every other route: prime and at least 5
    for bad in (6, 25, 3):
        with pytest.raises(DomainError):
            f_infty(0, bad)


def test_f_infty_total_mass_quadrature():
    # midpoint rule over the open Hasse interval; mass 2 as printed, 1 halved
    p = 101
    ts = np.linspace(-2 * math.sqrt(p), 2 * math.sqrt(p), 400_001)
    mids = (ts[1:] + ts[:-1]) / 2
    vals = np.array([2 * f_infty(t, p) for t in mids[::1]])
    mass = float(vals.sum() * (mids[1] - mids[0]))
    assert mass == pytest.approx(2.0, abs=1e-3)


# ----------------------------------------------------------------------
# matrix counting paths agree
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "ell,R",
    [(2, R) for R in range(1, 6)]
    + [(3, R) for R in range(1, 4)]
    + [(5, 1), (5, 2), (7, 1), (7, 2), (11, 1), (13, 1)],
)
def test_trace_fixed_paths_agree(ell, R):
    # the root-count formula against the full (g12, g21) grid, l = p included
    for p in (7, 11, 13):
        for t in range(ell**R):
            for u in range(4):
                b = _count_trace_fixed(p, t, ell, R, u)
                c = count_trace_fixed_enum(p, t, ell, R, u)
                assert b == c, (ell, R, p, t, u)


def test_sqrt_counts_match_brute():
    for ell, m in [(2, 7), (3, 5), (5, 3), (7, 2)]:
        q = ell**m
        for A in range(-q, q):
            want = [sum((z * z - A) % ell**k == 0 for z in range(ell**k)) for k in range(m + 1)]
            assert _sqrt_counts(A, ell, m) == want, (ell, m, A)


@pytest.mark.parametrize("ell,R", [(2, 2), (2, 3), (3, 2)])
def test_bucket_counts_agree_with_full_enum(ell, R):
    for p in (7, 11):
        for v in (0, 1):
            for w in range(R):
                assert _bucket_count_level(p, w, v, ell, R) == count_bucket_enum(
                    p, w, v, ell, R
                ), (ell, R, p, w, v)


# ----------------------------------------------------------------------
# f_ell
# ----------------------------------------------------------------------

def test_f_ell_example():
    lf = f_ell(3, 1, 5, 7)
    assert lf.value == Fraction(3, 4)
    assert lf.stabilized_at_R == 1
    assert f_ell_closed(3, 1, 5, 7) == Fraction(3, 4)


def test_f_ell_closed_residue_cases():
    # (1 - 1/25)^{-1} (1 +- 1/5) for chi = +-1 at ell = 5
    plus = Fraction(25, 24) * Fraction(6, 5)
    minus = Fraction(25, 24) * Fraction(4, 5)
    seen = set()
    for p in (7, 11, 13, 17):
        for d2 in range(max(1, p - 5), p + 7):
            t = p + 1 - d2
            if t * t >= 4 * p:
                continue
            D = t * t - 4 * p
            if D % 5 == 0:
                continue
            val = f_ell_closed(5, 1, d2, p)
            assert val in (plus, minus)
            seen.add(val)
    assert seen == {plus, minus}


def test_f_ell_matches_closed_form_everywhere_applicable():
    for p in (7, 11, 13):
        for d1 in (1, 2, 3, 4):
            if (p - 1) % d1:
                continue
            for d2 in range(1, 30):
                N = d1 * d1 * d2
                t = p + 1 - N
                if t * t >= 4 * p:
                    continue
                D = t * t - 4 * p
                for ell in (2, 3, 5, 7):
                    if (D // (d1 * d1)) % ell == 0:
                        continue
                    got = f_ell(ell, d1, d2, p)
                    assert got.value == f_ell_closed(ell, d1, d2, p), (p, d1, d2, ell)


def test_f_ell_sandwich_corrected():
    # l/(l+1) <= f_l * l^v <= 1 + (2/l)(1 + 1/(l-1)); the printed lower
    # constant 1 is contradicted by the chi = -1 closed form (e.g. 2/3 at
    # ell=2, shape (1,3), p=7), so the verified lower constant is l/(l+1)
    assert f_ell(2, 1, 3, 7).value == Fraction(2, 3)
    for p in (7, 11, 13):
        for d1 in (1, 2, 3, 4):
            if (p - 1) % d1:
                continue
            for d2 in range(1, 25):
                N = d1 * d1 * d2
                t = p + 1 - N
                if t * t >= 4 * p:
                    continue
                for ell in (2, 3, 5):
                    v = valuation(d1, ell)
                    val = f_ell(ell, d1, d2, p).value
                    scaled = val * ell**v
                    assert Fraction(ell, ell + 1) <= scaled, (p, d1, d2, ell, val)
                    assert scaled <= 1 + Fraction(2, ell) * (1 + Fraction(1, ell - 1))


def test_f_ell_high_valuation():
    # D = 13^2 - 4*103 = -3^5 and D = 14^2 - 4*113 = -2^8; both values agree
    # with the matrix count at R and R + 1
    assert f_ell(3, 1, 91, 103) == (Fraction(13, 9), 6)
    assert f_ell(2, 8, 2, 113) == (Fraction(1, 8), 9)


def test_f_ell_domain():
    with pytest.raises(DomainError):
        f_ell(3, 2, 1, 8)  # p not prime
    with pytest.raises(DomainError):
        f_ell(3, 3, 1, 11)  # d1 does not divide p-1
    with pytest.raises(DomainError):
        f_ell_closed(2, 1, 4, 7)  # 2 | D = -12


def test_f_p_local():
    p = 11
    assert f_p_local(p, p + 1) == 1
    assert f_p_local(p, p) == 1 + Fraction(1, p - 1)
    assert f_p_local(p, 8) == 1 + Fraction(1, 10)


def test_f_p_local_matches_enumeration_at_7():
    # direct matrix enumeration over M_2(Z/7) and M_2(Z/49)
    p = 7
    for N in (5, 7, 8, 12):
        t = p + 1 - N
        want = f_p_local(p, N)
        got = Fraction(_count_trace_fixed_level(p, t, p, 2, 0), _norm2(p, 2))
        assert got == want, N


# ----------------------------------------------------------------------
# g densities
# ----------------------------------------------------------------------

def test_g_sum_identity_exact():
    for ell, R in [(2, 5), (2, 7), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2), (7, 3)]:
        for p in (7, 11, 13):
            if ell == p:
                continue
            delta = 1 if (p - 1) % ell == 0 else 0
            want = -Fraction(delta, ell * (ell**2 - 1)) + Fraction(1, ell ** (R + 1))
            assert g_sum(p, 0, ell, R) == want, (ell, R, p)


def test_g_density_examples():
    assert g_sum(11, 0, 5, 3) == -Fraction(1, 120) + Fraction(1, 625)
    assert g_sum(11, 0, 7, 2) == Fraction(1, 343)
    assert g_density(7, 2, 1, 3, 4) < 0


def test_g_density_domain():
    with pytest.raises(DomainError):
        g_density(7, 3, 0, 3, 3)  # w >= R
    with pytest.raises(DomainError):
        g_density(7, 1, 0, 7, 3)  # the law is for ell != p
    with pytest.raises(DomainError):
        g_density_tail(7, 0, 7, 3)


def test_g_density_matches_bucket_count():
    # the law read by g equals the normalized bucket counts, including the
    # levels v > v_l(p - 1) and, in the tail, v >= R where both are empty
    for ell in (2, 3, 5):
        for p in (7, 11, 13, 17, 41):
            e = valuation(p - 1, ell)
            R = 1
            while ell**R <= 81:
                for v in range(e + 2):
                    for w in range(R):
                        cnt = _bucket_count_level(p, w, v, ell, R)
                        want = Fraction(cnt, _norm3(ell, R)) - Fraction(ell - 1, ell ** (w + 1))
                        assert g_density(p, w, v, ell, R) == want, (ell, p, v, w, R)
                    cnt = _count_trace_fixed_level(p, (p + 1) % ell**R, ell, R, v)
                    want = Fraction(cnt, _norm3(ell, R)) - Fraction(ell - 1, ell ** (R + 1))
                    assert g_density_tail(p, v, ell, R) == want, (ell, p, v, R)
                R += 1


def test_g_sum_closed_form_matches_bucket_sum():
    # the telescoped sum against the buckets added one by one, at 4200 cases:
    # levels below, at and above R, and above v_l(p - 1)
    cases = 0
    for ell in (2, 3, 5, 7, 11):
        for p in primes_up_to(79):
            if p == ell:
                continue
            for v in range(5):
                for R in range(1, 9):
                    assert g_sum(p, v, ell, R) == g_sum_by_buckets(p, v, ell, R), (ell, p, v, R)
                    cases += 1
    assert cases == 4200


def test_g_sum_domain():
    # the budget is checked first; every domain error of the bucket sum stays
    with pytest.raises(BudgetError):
        g_sum(11, 0, 11, 10**5)
    for args in (
        (11, 0, 5, 0),  # R < 1
        (11, 0, 5, -3),
        (11, 0, 4, 3),  # ell not prime
        (12, 0, 5, 3),  # p not prime
        (11, 0, 11, 3),  # ell = p
        (11, -1, 5, 3),  # v < 0
        (11, -1, 5, 1),
    ):
        with pytest.raises(DomainError):
            g_sum(*args)
        with pytest.raises(DomainError):
            g_sum_by_buckets(*args)


def test_g_density_tail_bucket():
    # tail + exact buckets equals the v-level mass identity used in g_sum
    p, ell, R = 11, 3, 3
    total = sum(g_density(p, w, 0, ell, R) for w in range(R))
    total += g_density_tail(p, 0, ell, R)
    assert total == g_sum(p, 0, ell, R)


# ----------------------------------------------------------------------
# probability product
# ----------------------------------------------------------------------

def test_probability_product_inadmissible():
    assert probability_product(101, GroupShape(3, 5), 100).value == 0.0
    assert probability_product(101, GroupShape(1, 500), 100).value == 0.0


def test_probability_product_example_p101():
    tally = tally_structures(101)
    shape = GroupShape(1, 106)
    emp = float(empirical_probability(tally, shape))
    est = probability_product(101, shape, 1000)
    assert est.value == pytest.approx(emp, rel=0.25)


def _oracle_product(p, shape, ell_max):
    # the product from the exact local factors, in the loop's prime order
    d1, d2 = shape
    t = p + 1 - shape.order
    D = t * t - 4 * p
    value, tail_log = f_infty(t, p), 0.0
    for ell in primes_up_to(ell_max):
        if ell == p:
            factor = float(f_p_local(p, shape.order))
        elif D % ell == 0:
            factor = float(f_ell(ell, d1, d2, p).value)
        else:
            factor = float(f_ell_closed(ell, d1, d2, p))
        value *= factor
        if ell > ell_max // 10:
            tail_log += math.log(factor)
    return value, tail_log


def test_probability_product_matches_local_factor_oracle():
    # bit for bit: l/(l - chi) rounds the same rational as float(f_ell_closed);
    # an odd D = t^2 - 4p is 5 mod 8, and p = 113 adds 2 | D up to R = 9.
    # The second pass runs the shapes in reverse with ell_max 1000 before 200,
    # so it reads Legendre rows warm, and a row cached by D alone would give
    # one of the two passes the wrong length.
    for p in (101, 103, 113):
        shapes = list(tally_structures(p).counts)
        want = {
            (shape, ell_max): _oracle_product(p, shape, ell_max)
            for shape in shapes
            for ell_max in (200, 1000)
        }
        for order, ell_maxes in ((shapes, (200, 1000)), (shapes[::-1], (1000, 200))):
            for shape in order:
                for ell_max in ell_maxes:
                    est = probability_product(p, shape, ell_max)
                    got = (est.value, est.tail_log_increment)
                    assert got == want[shape, ell_max], (p, shape, ell_max)


def test_probability_product_needs_a_prime():
    for ell_max in (1, 0, -5):
        with pytest.raises(DomainError):
            probability_product(101, GroupShape(1, 106), ell_max)


def test_g_sum_budget(monkeypatch):
    # (R + 4 + 3v) * bit_length(ell), v counted for 0 < v < R, is bounded
    # before any term is summed
    with pytest.raises(BudgetError):
        g_sum(11, 0, 5, 10**5)
    assert g_sum(7, 0, 2**127 - 1, 106) == Fraction(1, (2**127 - 1) ** 107)
    with pytest.raises(BudgetError):
        g_sum(7, 0, 2**127 - 1, 107)
    monkeypatch.setattr(densities, "_G_SUM_BUDGET", 42)
    assert g_sum(11, 0, 5, 10) == -Fraction(1, 5 * 24) + Fraction(1, 5**11)
    with pytest.raises(BudgetError):
        g_sum(11, 0, 5, 11)
    # a level below R counts three times; a level at or above R adds no digits
    assert g_sum(11, 1, 5, 5) == Fraction(1, 120) - 1 + Fraction(1, 5**6)  # level 1 has mass 1/120
    with pytest.raises(BudgetError):
        g_sum(11, 2, 5, 5)
    assert g_sum(11, 20, 5, 10) == -1 + Fraction(1, 5**11)


def test_g_sum_bits_within_budget_count():
    # the count the budget bounds: max(|numerator|, denominator) has at most
    # (R + 4 + 3v) log2(l) bits, v counted for v < R, at every level of primes with deep
    # v_l(p - 1) (16, 9, 7 and 5), where l^(3v) dominates the denominator
    for ell, p in ((2, 65537), (3, 39367), (5, 937501), (7, 168071)):
        e = valuation(p - 1, ell)
        for R in range(1, e + 4):
            for v in range(e + 2):
                val = g_sum(p, v, ell, R)
                bits = max(abs(val.numerator).bit_length(), val.denominator.bit_length())
                assert bits <= (R + 4 + (3 * v if v < R else 0)) * math.log2(ell), (ell, p, R, v)


def test_probability_default_normalization_is_half():
    p = 101
    t = tally_structures(p)
    total = sum(probability_product(p, sh, 200).value for sh in t.counts)
    assert abs(total - 1) < 0.1
