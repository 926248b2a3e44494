import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellstat import arith
from ellstat.arith import (
    divisors,
    factorize,
    hurwitz_sixfolds,
    hurwitz_table,
    is_prime,
    kronecker_chi,
    phi_prime_power,
    phi_star_mu_prime_power,
    primes_up_to,
    ramanujan_sum,
    require_p,
    tau_window,
    valuation,
)
from ellstat.errors import DomainError
from oracles import (
    hurwitz_sixfold,
    mu,
    multiplicative_suite,
    phi,
    phi_star_mu,
    ramanujan_von_sterneck,
    sigma,
    tau,
)


def test_primes_up_to_examples():
    assert primes_up_to(10) == [2, 3, 5, 7]
    assert primes_up_to(2) == [2]
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_up_to(1) == []
    assert primes_up_to(-3) == []


def test_primes_up_to_matches_miller_rabin():
    assert primes_up_to(5000) == [n for n in range(5001) if is_prime(n)]
    primes = primes_up_to(10**5)
    assert len(primes) == 9592
    assert primes[-1] == 99991


@pytest.mark.parametrize("module", ["arith", "groups", "curves", "densities", "analytic"])
def test_import_arith_loads_no_numpy(module):
    # the module's own imports, without the package __init__ (which loads divisor_ap)
    code = (
        "import importlib, sys, types; "
        "pkg = types.ModuleType('ellstat'); pkg.__path__ = [sys.argv[1]]; "
        "sys.modules['ellstat'] = pkg; "
        "importlib.import_module('ellstat.' + sys.argv[2]); print('numpy' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, os.path.dirname(arith.__file__), module],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_require_p_is_the_one_prime_check():
    from ellstat.analytic import cyclicity_probability
    from ellstat.curves import tally_structures
    from ellstat.densities import f_ell, f_p_local, probability_product
    from ellstat.groups import GroupShape

    require_p(5)
    require_p(101)
    for bad in (-7, 2, 3, 4, 9, 1001):
        calls = (
            lambda: require_p(bad),
            lambda: cyclicity_probability(bad),
            lambda: tally_structures(bad),
            lambda: f_p_local(bad, 1),
            lambda: probability_product(bad, GroupShape(1, 1), 10),
            lambda: f_ell(3, 1, 1, bad),
        )
        for call in calls:
            with pytest.raises(DomainError, match=rf"^need a prime p >= 5, got {bad}$"):
                call()


def test_factorize_examples():
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(1) == []
    assert factorize(97) == [(97, 1)]
    with pytest.raises(DomainError):
        factorize(0)


def test_factorize_large_paths():
    # cofactors far above the trial table: rho, the square check and
    # Miller-Rabin all exercised
    n = 10_000_019 * 10_000_079
    assert factorize(n) == [(10_000_019, 1), (10_000_079, 1)]
    assert factorize(2**25) == [(2, 25)]
    assert factorize(999_999_937) == [(999_999_937, 1)]
    assert factorize(12 * 100_003**3) == [(2, 2), (3, 1), (100_003, 3)]


def test_factorize_at_the_cap():
    # 99991 and 100003, the primes either side of 10^5: their products have
    # no factor in the trial table, so rho and the square check split them
    assert factorize(99_991**2) == [(99_991, 2)]
    assert factorize(100_003**2) == [(100_003, 2)]
    assert factorize(99_991 * 100_003) == [(99_991, 1), (100_003, 1)]
    assert factorize(2 * 99_991 * 100_003) == [(2, 1), (99_991, 1), (100_003, 1)]


def test_factorize_at_the_table_edge():
    # 1021 is the last prime of the trial table and 1031 the next prime, so
    # a cofactor below 2^20 < 1031^2 is prime and 1031 * 1033 is the least
    # composite that rho must split
    assert arith._TRIAL_PRIMES[-1] == 1021 and len(arith._TRIAL_PRIMES) == 172
    assert factorize(1009 * 1013) == [(1009, 1), (1013, 1)]
    assert factorize(1021**2) == [(1021, 2)]
    assert factorize(1021 * 1031) == [(1021, 1), (1031, 1)]
    assert factorize(1031 * 1033) == [(1031, 1), (1033, 1)]
    assert factorize(1031**3) == [(1031, 3)]
    assert factorize(2 * 1031 * 1033) == [(2, 1), (1031, 1), (1033, 1)]
    for n in range((1 << 20) - 2000, (1 << 20) + 2001):
        fac = factorize(n)
        assert math.prod(p**e for p, e in fac) == n
        assert all(is_prime(p) for p, _ in fac)
        assert [p for p, _ in fac] == sorted({p for p, _ in fac})


@given(st.integers(min_value=1, max_value=10**6))
@settings(max_examples=200, deadline=None)
def test_factorize_reconstructs(n):
    assert math.prod(p**e for p, e in factorize(n)) == n
    ps = [p for p, _ in factorize(n)]
    assert ps == sorted(ps)
    assert all(is_prime(p) for p in ps)


def test_multiplicative_suite_example():
    s = multiplicative_suite(12)
    assert (s.tau, s.sigma, s.phi, s.mu, s.omega, s.rad) == (6, 28, 4, 0, 2, 6)
    assert divisors(12) == [1, 2, 3, 4, 6, 12]


def test_phi_star_mu_prime_power_formula():
    # (phi*mu)(l) = l - 2 and (phi*mu)(l^e) = l^(e-2) (l-1)^2 for e >= 2
    assert phi_star_mu(2) == 0
    assert phi_star_mu(4) == 1
    assert phi_star_mu(8) == 2
    assert phi_star_mu(9) == 4
    assert phi_star_mu(7) == 5
    # the prime-power forms the suite, groups and analytic share, at e = 0 too
    for ell in (2, 3, 7):
        assert phi_prime_power(ell, 0) == phi_star_mu_prime_power(ell, 0) == 1
        for e in range(1, 5):
            assert phi_prime_power(ell, e) == phi(ell**e)
            assert phi_star_mu_prime_power(ell, e) == phi_star_mu(ell**e)


def test_phi_star_mu_is_dirichlet_convolution():
    for n in range(1, 2001):
        conv = sum(phi(d) * mu(n // d) for d in divisors(n))
        assert phi_star_mu(n) == conv, n


def test_totient_and_moebius_divisor_sums():
    for n in range(1, 10_001):
        ds = divisors(n)
        assert sum(phi(d) for d in ds) == n
        assert sum(mu(d) for d in ds) == (1 if n == 1 else 0)


def _ramanujan_exponential(k, a):
    ns = np.array([n for n in range(1, k + 1) if math.gcd(n, k) == 1])
    val = np.cos(2 * np.pi * a * ns / k).sum()
    return int(round(float(val)))


def test_ramanujan_examples():
    assert ramanujan_sum(4, 2) == -2
    assert ramanujan_sum(9, 3) == -3
    for k in range(1, 60):
        assert ramanujan_sum(k, 1) == mu(k)
        assert ramanujan_sum(k, 0) == phi(k)


def test_ramanujan_dual_paths_and_exponential_oracle():
    # a outside [0, k) too: Hoelder's product reduces a modulo each l^e || k,
    # not modulo k, and divap passes negative a.  The divisor sum over
    # f | (k, a) is the definition.
    for k in range(1, 201):
        for a in range(-2 * k, 3 * k):
            d = ramanujan_sum(k, a)
            assert d == ramanujan_von_sterneck(k, a % k), (k, a)
            assert d == sum(f * mu(k // f) for f in divisors(math.gcd(k, a))), (k, a)
            if k <= 60:
                assert d == _ramanujan_exponential(k, a), (k, a)


def test_ramanujan_zero_sum():
    for k in range(2, 201):
        assert sum(ramanujan_sum(k, a) for a in range(k)) == 0


def test_kronecker_examples():
    assert kronecker_chi(5, 11) == 1
    assert kronecker_chi(-19, 3) == -1
    assert kronecker_chi(3 * 7, 3) == 0
    with pytest.raises(DomainError):
        kronecker_chi(5, 2)
    with pytest.raises(DomainError):
        kronecker_chi(5, 9)


def test_kronecker_is_quadratic_character():
    for ell in (3, 5, 7, 11, 13):
        squares = {(x * x) % ell for x in range(1, ell)}
        for D in range(-2 * ell, 2 * ell):
            want = 0 if D % ell == 0 else (1 if D % ell in squares else -1)
            assert kronecker_chi(D, ell) == want


def test_valuation():
    assert valuation(48, 2) == 4
    assert valuation(48, 3) == 1
    assert valuation(49, 2) == 0
    with pytest.raises(DomainError):
        valuation(0, 2)


@given(st.integers(min_value=1, max_value=5000), st.integers(min_value=1, max_value=5000))
@settings(max_examples=100, deadline=None)
def test_tau_sigma_multiplicativity(m, n):
    if math.gcd(m, n) == 1:
        assert tau(m * n) == tau(m) * tau(n)
        assert sigma(m * n) == sigma(m) * sigma(n)
        assert phi_star_mu(m * n) == phi_star_mu(m) * phi_star_mu(n)


def _tau_list(lo, hi):
    return [tau(n) for n in range(lo, hi + 1)]


def test_tau_window_matches_tau():
    # windows from lo = 1, and every window of up to 40 integers below 130
    for hi in range(0, 200):
        assert tau_window(1, hi) == _tau_list(1, hi), hi
    for lo in range(1, 130):
        for hi in range(lo - 1, lo + 40):
            assert tau_window(lo, hi) == _tau_list(lo, hi), (lo, hi)


def test_tau_window_square_ends_and_single_values():
    for r in (1, 2, 3, 10, 31, 100, 999):
        sq = r * r
        assert tau_window(sq, sq + 2 * r + 1) == _tau_list(sq, (r + 1) ** 2)  # both ends squares
        assert tau_window(sq - r + 1, sq) == _tau_list(sq - r + 1, sq)  # ends at a square
        assert tau_window(sq, sq) == [tau(sq)]
    for n in (1, 2, 720720, 999983, 10**6, 2**20):
        assert tau_window(n, n) == [tau(n)]


def test_tau_window_hasse_windows():
    for p in (5, 7, 1009, 999983):
        tmax = math.isqrt(4 * p - 1)
        lo, hi = p + 1 - tmax, p + 1 + tmax
        assert tau_window(lo, hi) == _tau_list(lo, hi), p


def test_tau_window_rejects_lo_below_one():
    for lo in (0, -1, -100):
        with pytest.raises(DomainError):
            tau_window(lo, 10)


def test_hurwitz_class_number_examples():
    expected = {
        3: Fraction(1, 3), 4: Fraction(1, 2), 7: 1, 8: 1, 11: 1, 12: Fraction(4, 3),
        15: 2, 16: Fraction(3, 2), 19: 1, 20: 2, 23: 3, 24: 2, 27: Fraction(4, 3), 28: 2,
    }
    assert {D: Fraction(hurwitz_sixfold(D), 6) for D in expected} == expected
    assert {D: Fraction(six, 6) for D, six in hurwitz_sixfolds(expected).items()} == expected
    zeros = (1, 2, 5, 6, 9, 10, 101, 4002)
    for D in zeros:
        assert hurwitz_sixfold(D) == 0
    assert hurwitz_sixfolds(zeros) == dict.fromkeys(zeros, 0)
    # a set: duplicates count once, in first-seen order; nothing gives nothing
    assert list(hurwitz_sixfolds([28, 3, 28, 5, 3]).items()) == [(28, 12), (3, 2), (5, 0)]
    assert hurwitz_sixfolds([]) == {}
    for D in (0, -3, -4):
        with pytest.raises(DomainError):
            hurwitz_sixfold(D)
        with pytest.raises(DomainError):
            hurwitz_sixfolds([7, D, 8])


def test_hurwitz_class_number_kronecker_relation():
    # sum_{t^2 < 4p} H(4p - t^2) = 2p; a wrong 1/2 or 1/3 weight breaks it
    for p in primes_up_to(2423)[2:]:
        tmax = math.isqrt(4 * p - 1)
        assert sum(Fraction(hurwitz_sixfold(4 * p - t * t), 6) for t in range(-tmax, tmax + 1)) == 2 * p
        six = hurwitz_sixfolds(4 * p - t * t for t in range(tmax + 1))
        assert sum(six[4 * p - t * t] for t in range(-tmax, tmax + 1)) == 12 * p, p


def test_hurwitz_table_matches_per_value():
    M = 4 * 2423
    table = hurwitz_table(M)
    assert len(table) == M + 1 and table[0] == 0
    assert table == [0] + [hurwitz_sixfold(D) for D in range(1, M + 1)]
    assert list(hurwitz_sixfolds(range(1, M + 1)).items()) == list(enumerate(table))[1:]
    # Kronecker-Hurwitz: sum_{t^2 < 4p} 6H(4p - t^2) = 12p
    for p in primes_up_to(2423)[2:]:
        tmax = math.isqrt(4 * p - 1)
        assert sum(table[4 * p - t * t] for t in range(-tmax, tmax + 1)) == 12 * p, p
    # a table is a prefix of every longer one
    assert hurwitz_table(0) == [0] and hurwitz_table(100) == table[:101]
    with pytest.raises(DomainError):
        hurwitz_table(-1)


def test_hurwitz_sixfold_is_six_h_and_counts_three_squares():
    # r3(n) = 12 (H(4n) - 2 H(n)) (Gauss), with r3 counted point by point
    M = 500
    r3 = [0] * (M + 1)
    k = math.isqrt(M)
    for x in range(-k, k + 1):
        for y in range(-k, k + 1):
            for z in range(-k, k + 1):
                if x * x + y * y + z * z <= M:
                    r3[x * x + y * y + z * z] += 1
    for D in range(1, 4 * M + 1):
        six = hurwitz_sixfold(D)
        assert isinstance(six, int)
    sixfolds = hurwitz_sixfolds(range(1, 4 * M + 1))
    for n in range(1, M + 1):
        assert r3[n] == 2 * hurwitz_sixfold(4 * n) - 4 * hurwitz_sixfold(n), n
        assert r3[n] == 2 * sixfolds[4 * n] - 4 * sixfolds[n], n
