from math import gcd
from time import perf_counter

import pytest

from dehnroots.dataset import RangeExceeded, format_dataset, parse_dataset, stabilize, validate
from dehnroots.enumeration import (
    ClassCapExceeded,
    OracleRangeExceeded,
    class_cap_from_env,
    cone_multisets,
    cone_weight,
    datasets,
    genus_set,
    has_root,
    oracle_datasets,
    primary_datasets,
    root_degrees,
    twist_pairs,
)
from dehnroots.special_roots import ms_count, t_set


def test_cone_weight():
    assert cone_weight(9, 3) == 3
    assert cone_weight(9, 9) == 4
    assert cone_weight(3, 3) == 1


def test_cone_multisets_examples():
    assert cone_multisets(9, 7) == [(3, 9)]
    assert cone_multisets(3, 2) == [(3, 3)]
    assert cone_multisets(5, 3) == []
    assert cone_multisets(5, 0) == [()]


def test_cone_multisets_sorted_and_complete():
    for n in (9, 15, 21):
        for target in range(0, 25):
            sets = cone_multisets(n, target)
            assert sets == sorted(sets)
            assert len(sets) == len(set(sets))
            for orders in sets:
                assert list(orders) == sorted(orders)
                assert sum(cone_weight(n, d) for d in orders) == target
                assert all(d > 1 and n % d == 0 for d in orders)


def test_twist_pairs_examples():
    assert twist_pairs(3) == [(2, 2)]
    assert twist_pairs(5) == [(2, 2), (3, 4)]
    assert twist_pairs(21) == [(2, 2), (5, 17), (11, 20)]


def test_twist_pairs_count_matches_formula():
    for n in range(3, 1001, 2):
        assert len(twist_pairs(n)) == ms_count(n)


def test_twist_pairs_match_brute_force():
    for n in range(2, 61):
        units = [u for u in range(1, n) if gcd(u, n) == 1]
        for power in range(1, 5):
            brute = [
                (a, b)
                for i, a in enumerate(units)
                for b in units[i:]
                if (a + b - power * a * b) % n == 0
            ]
            assert twist_pairs(n, power) == brute, (n, power)
            if n % 2 == 0 and power % 2 == 1:
                assert brute == []


def test_twist_pairs_rejects_only_tiny_degree_or_power():
    # every n >= 2 and power >= 1 is answered by the brute-force comparison above
    for n, power in [(1, 1), (0, 2), (5, 0), (5, -1)]:
        with pytest.raises(ValueError):
            twist_pairs(n, power)


def test_cone_multisets_deeper_than_recursion_limit():
    assert cone_multisets(3, 3000) == [(3,) * 3000]


def test_has_root_deeper_than_recursion_limit():
    assert has_root(3000, 3) is True


def test_datasets_examples():
    assert [format_dataset(ds) for ds in datasets(2, 5)] == [
        "(5, 0, (2,2); (1,5))",
        "(5, 0, (3,4); (3,5))",
    ]
    assert [format_dataset(ds) for ds in datasets(1, 3)] == ["(3, 0, (2,2); (2,3))"]
    assert [format_dataset(ds) for ds in datasets(3, 3)] == [
        "(3, 0, (2,2); (1,3), (2,3), (2,3))"
    ]


def test_datasets_trivial_inputs_empty():
    assert datasets(0, 3) == []
    assert datasets(5, 4) == []
    assert datasets(5, 1) == []


def test_degrees_past_the_bound_answer_at_once():
    # roots need n <= 2g+1; the answer comes before the O(n) twist-pair scan
    start = perf_counter()
    assert datasets(5, 10**12 - 1) == []
    assert has_root(2, 10**12 - 1) is False
    assert perf_counter() - start < 1.0
    for g in range(0, 8):
        for n in range(2 * g + 3, 2 * g + 30, 2):
            assert datasets(g, n) == [] and not has_root(g, n)


def test_class_cap_from_env_rejects_non_positive(monkeypatch):
    monkeypatch.delenv("DEHN_ROOTS_CLASS_CAP", raising=False)
    assert class_cap_from_env() == 10**7
    monkeypatch.setenv("DEHN_ROOTS_CLASS_CAP", "25")
    assert class_cap_from_env() == 25
    for raw in ("abc", "0", "-3", ""):
        monkeypatch.setenv("DEHN_ROOTS_CLASS_CAP", raw)
        with pytest.raises(RangeExceeded):
            class_cap_from_env()


def test_datasets_all_valid_no_duplicates():
    for g, n in [(7, 9), (10, 21), (11, 15), (6, 3), (12, 5)]:
        classes = datasets(g, n)
        assert len(set(classes)) == len(classes)
        for i, x in enumerate(classes):
            assert validate(x).valid and x.genus == g and x.degree == n
            for y in classes[i + 1 :]:
                assert x != y


def test_datasets_deterministic():
    assert datasets(9, 9) == datasets(9, 9)


def test_class_cap():
    with pytest.raises(ClassCapExceeded):
        datasets(10, 21, class_cap=2)
    assert len(datasets(10, 21, class_cap=3)) == 3


def test_oracle_matches_datasets():
    for n in range(3, 16, 2):
        for g in range(0, 9):
            assert datasets(g, n) == oracle_datasets(g, n), (g, n)


def test_oracle_examples():
    assert oracle_datasets(2, 5) == datasets(2, 5)
    assert oracle_datasets(1, 5) == []
    assert parse_dataset("(9, 0, (2,2); (2,9),(1,3))") in oracle_datasets(7, 9)


def test_oracle_range_guard():
    with pytest.raises(OracleRangeExceeded):
        oracle_datasets(5, 17)
    with pytest.raises(OracleRangeExceeded):
        oracle_datasets(13, 3)


def test_root_degrees():
    assert root_degrees(2) == [3, 5]
    assert root_degrees(1) == [3]
    assert root_degrees(0) == []


def test_degree_bound_on_enumerated_classes():
    # only odd degrees up to 2g+1 ever occur, including just past the bound
    for g in range(0, 31):
        for n in range(2, 2 * g + 8):
            classes = datasets(g, n)
            if classes:
                assert n % 2 == 1 and 3 <= n <= 2 * g + 1


def test_has_root():
    assert has_root(10, 21)
    assert not has_root(3, 5)
    assert not has_root(0, 3)


def test_genus_set_examples():
    assert genus_set(5, 8) == [2, 4, 6, 7, 8]
    assert genus_set(3, 5) == [1, 2, 3, 4, 5]
    assert 7 in genus_set(9, 7)


def test_genus_set_contains_triangular_complement():
    for n in range(3, 16, 2):
        g_max = n * (n - 3) // 2 + 5
        excluded = set(t_set(n).members)
        got = set(genus_set(n, g_max))
        complement = {g for g in range(g_max + 1) if g not in excluded}
        assert complement <= got
        if n in (3, 5, 7, 11, 13):  # prime: nothing beyond the primary roots
            assert got == complement


def test_primary_datasets():
    assert [format_dataset(ds) for ds in primary_datasets(2, 3)] == [
        "(3, 0, (2,2); (1,3), (1,3))"
    ]
    assert primary_datasets(7, 9) == []
    ms = primary_datasets(10, 21)
    assert len(ms) == 3 and ms == datasets(10, 21)


def test_stabilization_is_monotone():
    for n in range(3, 16, 2):
        for g in range(1, 21):
            target = datasets(g + n, n)
            for ds in datasets(g, n):
                assert stabilize(ds) in target
