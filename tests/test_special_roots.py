from math import gcd, lcm

import pytest

from dehnroots.dataset import DataSet, RangeExceeded, format_dataset, parse_dataset, validate
from dehnroots.enumeration import datasets, has_root, root_degrees
from dehnroots.special_roots import (
    DE_ROOTS_MAX_GENUS,
    MS_ROOTS_MAX_GENUS,
    T_SET_MAX_DEGREE,
    RootTag,
    classify,
    de_construct,
    de_root_genera,
    de_roots,
    ms_count,
    ms_roots,
    t_set,
)


def test_t_set_examples():
    assert t_set(5).members == (0, 1, 3, 5)
    assert t_set(9).members == (0, 1, 2, 3, 5, 6, 7, 9, 10, 11, 14, 15, 18, 19, 23, 27)
    assert t_set(3).members == (0,)


def test_t_set_size_and_maximum():
    for n in range(3, 202, 2):
        ts = t_set(n)
        n0 = (n - 1) // 2
        assert len(ts.members) == n0 * n0
        assert max(ts.members) == n * (n - 3) // 2
        assert ts.members == tuple(sorted(set(ts.members)))


def test_t_set_ceiling():
    assert T_SET_MAX_DEGREE == 2001
    assert len(t_set(2001).members) == 10**6
    with pytest.raises(RangeExceeded):
        t_set(2003)


def test_odd_degree_arguments_are_range_checked():
    for n in (4, 1, -3, 0):
        with pytest.raises(RangeExceeded):
            t_set(n)
        with pytest.raises(RangeExceeded):
            ms_count(n)
    with pytest.raises(RangeExceeded):
        ms_count(10**12 + 1)  # beyond the factoring range
    with pytest.raises(RangeExceeded):
        de_construct(4, 5)


def test_de_roots_ceiling():
    assert DE_ROOTS_MAX_GENUS == 10**6  # de_roots(10**6) itself runs in the acceptance suite
    with pytest.raises(RangeExceeded):
        de_roots(10**6 + 1)
    with pytest.raises(RangeExceeded):
        de_roots(10**12)


def test_ms_roots_ceiling():
    assert MS_ROOTS_MAX_GENUS == 10**5
    assert len(ms_roots(10**5)) == ms_count(200001) == 32764  # (U(n)+1)/2, not enumerated
    for g in (10**5 + 1, 10**9):
        with pytest.raises(RangeExceeded):
            ms_roots(g)


def test_ms_roots_examples():
    assert [format_dataset(ds) for ds in ms_roots(10)] == [
        "(21, 0, (2,2); (17,21))",
        "(21, 0, (5,17); (20,21))",
        "(21, 0, (11,20); (11,21))",
    ]
    assert ms_roots(1) == datasets(1, 3)
    assert ms_roots(2) == datasets(2, 5)


def test_ms_roots_match_enumeration():
    for g in range(1, 16):
        assert ms_roots(g) == datasets(g, 2 * g + 1)


def test_ms_roots_structure():
    for g in (1, 4, 7, 10):
        for ds in ms_roots(g):
            assert ds.degree == 2 * g + 1
            assert ds.quotient_genus == 0
            assert len(ds.cones) == 1 and ds.cones[0][1] == ds.degree
            assert validate(ds).valid and ds.genus == g


def test_ms_roots_contain_rotation_construction():
    # the explicit (2g+1)-gon rotation root (2g+1, 0, (2,2); (-4, 2g+1))
    for g in range(1, 40):
        n = 2 * g + 1
        assert DataSet(n, 0, 2, 2, ((-4, n),)) in ms_roots(g)


def test_ms_count_examples():
    assert ms_count(21) == 3
    assert ms_count(2001) == 284
    assert ms_count(3) == 1


def test_ms_count_matches_enumeration():
    for n in range(3, 1002, 2):
        assert ms_count(n) == len(ms_roots((n - 1) // 2))


def test_de_root_genera_examples():
    assert de_root_genera(54573) == [45476, 45477, 54571, 54572]
    assert de_root_genera(15) == [11, 12, 13, 14]
    assert de_root_genera(3) == [2]


def test_de_root_genera_degree_105():
    # the (3,35)-root lands at genus 86 and the (15,7)-root at genus 94
    genera = de_root_genera(105)
    assert 86 in genera and 94 in genera
    assert de_construct(3, 35).genus == 86
    assert de_construct(15, 7).genus == 94


def test_de_roots_examples():
    assert de_roots(54572) == [54573, 54575, 54587, 54769, 65487]
    assert de_roots(54573) == []
    assert de_roots(11) == [15]


def test_de_roots_consistent_with_genera():
    for g in range(1, 200):
        for n in de_roots(g):
            assert g in de_root_genera(n)
        # and conversely within the window
        lo, hi = g + 1, (6 * (g + 2) - 1) // 5
        expected = [
            n for n in range(lo | 1, hi + 1, 2) if n % 2 and g in de_root_genera(n)
        ]
        assert de_roots(g) == expected


def test_de_roots_subset_of_root_degrees():
    for g in range(1, 31):
        degrees = root_degrees(g)
        for n in de_roots(g):
            assert n in degrees


def test_de_construct_examples():
    ds = de_construct(3, 5)
    assert ds == parse_dataset("(15, 0, (2,2); (1,3),(2,5))")
    assert ds.genus == 11
    ds55 = de_construct(5, 5)
    assert validate(ds55).valid and ds55.degree == 5 and ds55.genus == 4
    assert {order for _, order in ds55.cones} == {5}
    ds33 = de_construct(3, 3)
    assert validate(ds33).valid and ds33.degree == 3 and ds33.genus == 2


def test_de_construct_rejects_bad_input():
    with pytest.raises(ValueError):
        de_construct(4, 5)
    with pytest.raises(ValueError):
        de_construct(3, 1)


def test_de_construct_property_suite():
    for d in range(3, 46, 2):
        for e in range(3, 46, 2):
            ds = de_construct(d, e)
            assert validate(ds).valid
            n, g = ds.degree, ds.genus
            d0 = gcd(d, e)
            assert n == lcm(d, e)  # (a)
            assert g == n - (d + e) // (2 * d0)  # (b)
            assert ds.quotient_genus == 0 and len(ds.cones) == 2
            assert sorted(order for _, order in ds.cones) == sorted((d, e))
            assert g + 1 <= n and 5 * n < 6 * (g + 2)  # (c)
            assert (n == g + 1) == (d == e)  # (d)


def test_classify_examples():
    assert classify(parse_dataset("(21,0,(2,2);(17,21))")).tag == RootTag.MARGALIT_SCHLEIMER
    assert classify(parse_dataset("(3,0,(2,2);(1,3),(2,3),(2,3))")).tag == RootTag.CUBE_OF_T4
    rc = classify(parse_dataset("(15,0,(2,2);(1,3),(2,5))"))
    assert rc.tag == RootTag.DE_ROOT and rc.de_params == (3, 5)


def test_classify_precedence():
    # degree 3 at genus 1 is both maximal and primary: maximal wins
    assert classify(parse_dataset("(3,0,(2,2);(2,3))")).tag == RootTag.MARGALIT_SCHLEIMER
    # primary with two cones is also a (d,e)-root: DE_ROOT wins
    assert classify(parse_dataset("(3,0,(2,2);(1,3),(1,3))")).tag == RootTag.DE_ROOT
    # primary with more cones, not maximal
    assert classify(parse_dataset("(3,0,(2,2);(1,3),(1,3),(1,3),(2,3))")).tag == RootTag.PRIMARY
    # stabilized set keeps order-n cones but positive quotient genus
    assert classify(parse_dataset("(3,1,(2,2);(2,3))")).tag == RootTag.PRIMARY
    # mixed orders, three cones, not primary, not a pair
    assert classify(parse_dataset("(9,0,(5,8);(1,3),(1,3),(1,9))")).tag == RootTag.OTHER


def test_large_degree_classification():
    # every class of degree >= genus is maximal, a (d,e)-root, or the
    # single degree-3 class at genus 3
    for g in range(1, 31):
        for n in range(max(3, g), 2 * g + 2, 2):
            for ds in datasets(g, n):
                tag = classify(ds).tag
                assert tag in (
                    RootTag.MARGALIT_SCHLEIMER,
                    RootTag.DE_ROOT,
                    RootTag.CUBE_OF_T4,
                ), (g, n, format_dataset(ds), tag)


def test_degree_equals_genus_only_at_three():
    for g in range(0, 49):
        assert has_root(g, g) == (g == 3)


def test_empty_band_between_de_roots_and_maximal():
    # no classes with 6(g+2)/5 <= n <= 2g
    for g in range(2, 49):
        n = g + 1 if (g + 1) % 2 else g + 2
        while n <= 2 * g:
            if 5 * n >= 6 * (g + 2):
                assert datasets(g, n) == [], (g, n)
            n += 2
