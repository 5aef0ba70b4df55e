import itertools
import random
from math import gcd

import pytest

from dehnroots.dataset import (
    DataSet,
    FractionalDataSet,
    RangeExceeded,
    format_dataset,
    validate,
)
from dehnroots.enumeration import datasets, twist_pairs
from dehnroots.fractional import MAX_DEGREE, MAX_GENUS, fractional_datasets
from oracle import independent_count, shape_count


def test_golden_candidates():
    quarter = FractionalDataSet(4, 0, 1, 1, ((1, 2),), power=2)
    assert validate(quarter).valid
    assert quarter.genus == 1
    cube = FractionalDataSet(3, 0, 1, 1, ((2, 3), (2, 3)), power=2)
    assert validate(cube).valid
    assert cube.genus == 2
    report = validate(FractionalDataSet(4, 0, 1, 1, ((1, 2),), power=1))
    assert not report.valid and report.conditions() == {"III"}


def test_enumeration_finds_golden_candidates():
    assert FractionalDataSet(4, 0, 1, 1, ((1, 2),), power=2) in fractional_datasets(1, 4, 2)
    assert FractionalDataSet(3, 0, 1, 1, ((2, 3), (2, 3)), power=2) in fractional_datasets(
        2, 3, 2
    )
    assert fractional_datasets(1, 4, 1) == []
    # with no cone pair, (IV) reads a + b = 0 mod n: (2, 1, (1,1); ) at power 2
    assert FractionalDataSet(2, 1, 1, 1, (), power=2) in fractional_datasets(2, 2, 2)


def test_power_one_agrees_with_plain_validate_on_random_candidates():
    rng = random.Random(99)
    for _ in range(10**4):
        n = rng.randint(2, 24)
        g0 = rng.randint(0, 2)
        a, b = rng.randint(0, n - 1), rng.randint(0, n - 1)
        cones = []
        for _ in range(rng.randint(0, 3)):
            order = rng.choice([d for d in range(2, n + 1) if n % d == 0])
            cones.append((rng.randint(0, order - 1), order))
        plain = validate(DataSet(n, g0, a, b, tuple(cones)))
        frac = validate(FractionalDataSet(n, g0, a, b, tuple(cones), power=1))
        assert plain.valid == frac.valid
        assert plain.conditions() == frac.conditions()


def test_power_one_matches_ordinary_enumeration():
    for n in (3, 5, 9, 15):
        for g in range(1, 9):
            frac = fractional_datasets(g, n, 1)
            plain = datasets(g, n)
            assert [
                (x.degree, x.quotient_genus, x.a, x.b, x.cones) for x in frac
            ] == [(x.degree, x.quotient_genus, x.a, x.b, x.cones) for x in plain]


def test_candidate_counts_match_an_independent_count():
    # every cell of the range and powers 1 to 4, against residue sums over the twist pairs
    # of a + b = l*a*b, found by a scan of all unit pairs
    for power in range(1, 5):
        for n in range(2, MAX_DEGREE + 1):
            for g in range(1, MAX_GENUS + 1):
                assert len(fractional_datasets(g, n, power)) == independent_count(
                    g, n, power=power), (g, n, power)


def test_class_cap_count_matches_the_listing():
    # the per-shape Fourier count that the class cap reads, against the listing, in every
    # cell of the range and powers 1 to 6; gcd(power, n) > 1 reaches the shared pair gcd
    shared = 0
    for g in range(1, MAX_GENUS + 1):
        for n in range(2, MAX_DEGREE + 1):
            for power in range(1, 7):
                count = shape_count(g, n, len(twist_pairs(n, power)), power)
                assert count == len(fractional_datasets(g, n, power)), (g, n, power)
                shared += count > 0 and gcd(power, n) > 1
    assert shared == 239


def test_candidates_satisfy_all_conditions():
    for g, n, power in [(1, 4, 2), (2, 3, 2), (3, 8, 4), (4, 6, 3), (5, 9, 2)]:
        for ds in fractional_datasets(g, n, power):
            assert ds.power == power
            assert validate(ds).valid
            assert ds.genus == g
            assert gcd(ds.a, n) == 1 and gcd(ds.b, n) == 1
            assert (ds.a + ds.b - power * ds.a * ds.b) % n == 0
            total = ds.a + ds.b + sum((n // order) * c for c, order in ds.cones)
            assert total % n == 0
            assert ds.power_shares_factor == (gcd(power, n) > 1)


def test_even_degree_never_validates_for_power_one():
    rng = random.Random(3)
    for _ in range(2000):
        n = rng.choice(range(2, 25, 2))
        a, b = rng.randint(0, n - 1), rng.randint(0, n - 1)
        order = rng.choice([d for d in range(2, n + 1) if n % d == 0])
        candidate = FractionalDataSet(
            n, rng.randint(0, 2), a, b, ((rng.randint(0, order - 1), order),), power=1
        )
        assert not validate(candidate).valid
    for g in range(1, 7):
        for n in range(2, 25, 2):
            assert fractional_datasets(g, n, 1) == []


def test_range_guard():
    with pytest.raises(RangeExceeded):
        fractional_datasets(1, 31, 2)
    with pytest.raises(RangeExceeded):
        fractional_datasets(13, 4, 2)
    with pytest.raises(RangeExceeded):
        fractional_datasets(1, 4, 0)


def test_candidates_sorted_and_unique():
    out = fractional_datasets(4, 8, 2)
    assert out == sorted(out)
    assert len(set(out)) == len(out)
    for ds in out:
        assert format_dataset(ds)  # renderable


def _brute_candidates(g, n, power):
    """Every a <= b, cone-order multiset and raw residue tuple of genus g and degree n,
    kept when validate accepts it in the power-l form."""
    orders = [d for d in range(2, n + 1) if n % d == 0]

    def multisets(weight, low):  # nondecreasing cone orders of doubled weight ``weight``
        if weight == 0:
            yield ()
        for i in range(low, len(orders)):
            w = (n // orders[i]) * (orders[i] - 1)
            if w <= weight:
                for rest in multisets(weight - w, i):
                    yield (orders[i],) + rest

    found = set()
    for g0 in range(g // n + 1):
        for cone_orders in multisets(2 * (g - g0 * n), 0):
            for a in range(n):
                for b in range(a, n):
                    for residues in itertools.product(*[range(d) for d in cone_orders]):
                        ds = FractionalDataSet(n, g0, a, b, tuple(zip(residues, cone_orders)),
                                               power)
                        if validate(ds).valid:
                            found.add(ds)
    return sorted(found)


def test_candidates_are_complete_against_brute_force():
    # even degrees and powers above 1 included: every candidate validate accepts is listed
    listed = 0
    for g in range(1, 5):
        for n in range(2, 13):
            for power in range(1, 5):
                expected = _brute_candidates(g, n, power)
                assert fractional_datasets(g, n, power) == expected, (g, n, power)
                listed += len(expected)
    assert listed == 116
