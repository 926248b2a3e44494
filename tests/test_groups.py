import pytest

from ellstat.arith import sigma, tau
from ellstat.errors import BudgetError, DomainError
from ellstat.groups import GroupShape, shape_statistics, stat_on_shape
from oracles import _cyclic_span, _join, cyclic_subgroup_count, subgroup_count, subgroup_oracle


def test_subgroup_count_examples():
    assert subgroup_count(2, 2) == 5
    assert subgroup_count(2, 4) == 8
    for n in (1, 2, 6, 12, 30):
        assert subgroup_count(1, n) == tau(n)
        assert subgroup_count(n, 1) == tau(n)


def test_cyclic_subgroup_count_examples():
    assert cyclic_subgroup_count(2, 2) == 4
    assert cyclic_subgroup_count(2, 4) == 6
    for n in (1, 2, 6, 12, 30):
        assert cyclic_subgroup_count(1, n) == tau(n)


def test_variants_agree_sampled():
    for m in range(1, 80):
        for n in range(1, 80):
            assert subgroup_count(m, n, "gcd_sum") == subgroup_count(m, n, "convolution")
            assert cyclic_subgroup_count(m, n, "gcd_sum") == cyclic_subgroup_count(
                m, n, "convolution"
            )


def test_oracle_examples():
    assert subgroup_oracle(3, 3) == (6, 5)
    assert subgroup_oracle(1, 1) == (1, 1)
    census = subgroup_oracle(2, 6)
    assert census.total == subgroup_count(2, 6)
    assert census.cyclic == cyclic_subgroup_count(2, 6)


def test_oracle_guard():
    with pytest.raises(BudgetError):
        subgroup_oracle(50, 50)
    with pytest.raises(DomainError):
        subgroup_oracle(0, 3)


def test_oracle_subgroups_are_closed():
    # re-derive closure property for small groups: every reported count must
    # match a direct fixpoint closure check
    for m, n in [(2, 4), (4, 4), (6, 6), (2, 8)]:
        gens = [(u, v) for u in range(m) for v in range(n)]
        seen = set()
        for g1 in gens:
            for g2 in gens:
                H = _join(g1, g2, m, n)
                seen.add(H)
                # closed under addition
                elems = [(e // n, e % n) for e in H]
                for u1, v1 in elems[:10]:
                    for u2, v2 in elems:
                        assert ((u1 + u2) % m) * n + (v1 + v2) % n in H
        assert len(seen) == subgroup_count(m, n)
        cyclic = {_cyclic_span(g, m, n) for g in gens}
        assert len(cyclic) == cyclic_subgroup_count(m, n)


def test_stat_on_shape_examples():
    assert stat_on_shape(GroupShape(2, 1), "s", "corrected") == 5
    assert stat_on_shape(GroupShape(2, 1), "s", "printed") == 8
    assert stat_on_shape(GroupShape(1, 6), "tau_N") == 4
    assert stat_on_shape(GroupShape(2, 3), "c", "corrected") == cyclic_subgroup_count(2, 6)


def test_stat_on_shape_rejects_unknown_stat_and_formula():
    shape = GroupShape(2, 3)
    for stat in ("s", "c", "tau_N"):
        with pytest.raises(DomainError):
            stat_on_shape(shape, stat, "bogus")
    for stat in ("one", "bogus"):
        with pytest.raises(DomainError):
            stat_on_shape(shape, stat)


def test_shape_statistics_match_lattice_oracle():
    # every group Z/d1 x Z/n that either convention assigns to a shape, up to
    # d1*n <= 200; the oracle's cost grows fast (about 55 s up to 1000)
    checked = 0
    for d1 in range(1, 15):
        for d2 in range(1, 200 // (d1 * d1) + 1):
            st = shape_statistics(GroupShape(d1, d2))
            for n, s, c in (
                (d1 * d2, st.s_corrected, st.c_corrected),
                (d1 * d1 * d2, st.s_printed, st.c_printed),
            ):
                if d1 * n <= 200:
                    assert subgroup_oracle(d1, n) == (s, c), (d1, d2, n)
                    checked += 1
    assert checked == 548


def test_printed_equals_gcd_sum_of_inflated_group():
    # the production local factors against the gcd-sum oracle: corrected
    # counts in Z/d1 x Z/(d1*d2), printed in the inflated Z/d1 x Z/(d1^2*d2)
    for d1 in range(1, 41):
        for d2 in range(1, 41):
            N = d1 * d1 * d2
            st = shape_statistics(GroupShape(d1, d2))
            assert st.s_corrected == subgroup_count(d1, d1 * d2, "gcd_sum")
            assert st.s_printed == subgroup_count(d1, N, "gcd_sum")
            assert st.c_corrected == cyclic_subgroup_count(d1, d1 * d2, "gcd_sum")
            assert st.c_printed == cyclic_subgroup_count(d1, N, "gcd_sum")
            assert st.tau_N == tau(N)


def test_bounds_sandwich():
    # s(d1, d2) <= tau(d1^2*d2) sigma(d1) holds with constant 1; the lower
    # envelope tau(d1*d2) sigma(d1) needs constant 5/12 on this box (the
    # ratio is 5/6 already at (2,1): 6 > 5, and decreases with omega(d1)),
    # frozen from an exact audit of all d1, d2 <= 30
    from fractions import Fraction

    min_ratio = Fraction(10**9)
    for d1 in range(1, 31):
        for d2 in range(1, 31):
            s = stat_on_shape(GroupShape(d1, d2), "s", "corrected")
            assert s <= tau(d1 * d1 * d2) * sigma(d1)
            assert 12 * s >= 5 * tau(d1 * d2) * sigma(d1)
            min_ratio = min(min_ratio, Fraction(s, tau(d1 * d2) * sigma(d1)))
    assert min_ratio == Fraction(5, 12)


def test_shape_properties():
    sh = GroupShape(2, 3)
    assert sh.order == 12
    assert sh.exponent == 6
