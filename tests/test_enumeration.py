import json
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from itertools import product
from math import cos, gcd, lcm, pi
from pathlib import Path
from time import perf_counter

import pytest

from dehnroots import enumeration
from dehnroots.cli import main
from dehnroots.dataset import RangeExceeded, format_dataset, parse_dataset, stabilize, validate
from dehnroots.enumeration import (
    CONE_MULTISETS_MAX_TARGET,
    DATASETS_MAX_GENUS,
    GENUS_SET_MAX_GENUS,
    TWIST_PAIRS_MAX_DEGREE,
    ClassCapExceeded,
    _order_runs,
    _root_genera,
    _run_transform,
    class_cap_from_env,
    cone_multisets,
    datasets,
    genus_set,
    has_root,
    primary_datasets,
    root_degrees,
    twist_pairs,
)
from dehnroots.numtheory import divisors
from dehnroots.special_roots import (class_count, classify, ms_count, ms_roots, pair_table,
                                    t_set)
from oracle import independent_count, independent_tags, oracle_datasets, shape_count


def test_cone_multisets_examples():
    assert cone_multisets(9, 7) == [(3, 9)]
    assert cone_multisets(3, 2) == [(3, 3)]
    assert cone_multisets(5, 3) == []
    assert cone_multisets(5, 0) == [()]
    with pytest.raises(ValueError, match="^degree must be odd and >= 3, got 4$"):
        cone_multisets(4, 1)


def test_cone_multisets_sorted_and_complete():
    for n in (9, 15, 21):
        for target in range(0, 25):
            sets = cone_multisets(n, target)
            assert sets == sorted(sets)
            assert len(sets) == len(set(sets))
            for orders in sets:
                assert list(orders) == sorted(orders)
                assert sum((n - n // d) // 2 for d in orders) == target
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


def _scanned_pairs(n, power):
    """The twist pairs by a direct scan: for each unit a with power*a - 1 a unit,
    b = a*(power*a - 1)^-1, kept when a <= b."""
    pairs = []
    for a in range(1, n):
        if gcd(a, n) == 1 and gcd(power * a - 1, n) == 1:
            b = a * pow(power * a - 1, -1, n) % n
            if a <= b:
                pairs.append((a, b))
    return pairs


def test_twist_pairs_sieve_matches_a_direct_scan():
    # even n, and powers sharing a prime with n, where the sieve skips that prime's
    # second slice; 15015 = 3*5*7*11*13 and 45045 = 3*15015 have five odd primes each
    cases = [(n, power) for n in range(2, 401) for power in range(1, 7)]
    cases += [(n, power) for n in (15015, 45045) for power in range(1, 7)]
    for n, power in cases:
        pairs = twist_pairs(n, power)
        assert pairs == _scanned_pairs(n, power), (n, power)
        assert all(a < c for (a, _), (c, _) in zip(pairs, pairs[1:])), (n, power)
    assert [len(twist_pairs(n)) for n in (15015, 45045)] == [ms_count(15015), ms_count(45045)]


def test_twist_pairs_rejects_only_tiny_degree_or_power():
    # every 2 <= n <= TWIST_PAIRS_MAX_DEGREE and power >= 1 is answered; the brute-force
    # comparison above checks n <= 60, and the ceiling has its own test below
    for n, power in [(1, 1), (0, 2), (5, 0), (5, -1)]:
        with pytest.raises(ValueError):
            twist_pairs(n, power)


def test_twist_pairs_ceiling():
    # the ceiling is the maximal degree 2g+1 of ms_roots's genus ceiling g = 10**5
    assert TWIST_PAIRS_MAX_DEGREE == 2 * 10**5 + 1
    assert len(twist_pairs(TWIST_PAIRS_MAX_DEGREE)) == ms_count(TWIST_PAIRS_MAX_DEGREE) == 32764
    message = r"^twist_pairs is supported up to n = 200001, got 200003$"
    start = perf_counter()
    for power in (1, 2):
        with pytest.raises(RangeExceeded, match=message):
            twist_pairs(TWIST_PAIRS_MAX_DEGREE + 2, power)
    assert perf_counter() - start < 0.1


def test_twist_pairs_error_names_an_abbreviated_power():
    # a power too long for decimal conversion shows as its bit length, so the message
    # itself cannot raise
    message = r"^need degree >= 2 and power >= 1, got 1, <16610-bit integer>$"
    with pytest.raises(ValueError, match=message):
        twist_pairs(1, 10**5000)


def test_twist_pairs_are_solved_once_per_listed_cell(monkeypatch):
    # the count behind the class cap and the residue walk share one walk and one solve,
    # degree by degree, for a whole genus and through the CLI; a cell without a cone-order
    # shape solves none
    degrees = range(3, 62, 2)
    shaped = {n for n in degrees if any(_order_runs(n, range(30, -1, -n)))}
    assert len(shaped) == 15
    solves, walks = Counter(), Counter()
    solve, walk = enumeration.twist_pairs, enumeration._order_runs

    def solved(n, power=1):
        solves[n] += 1
        return solve(n, power)

    def walked(n, rests):
        walks[n] += 1
        return walk(n, rests)

    monkeypatch.setattr(enumeration, "twist_pairs", solved)
    monkeypatch.setattr(enumeration, "_order_runs", walked)
    for listing in (lambda: [datasets(30, n) for n in degrees], lambda: datasets(30),
                    lambda: main(["roots", "--genus", "30"])):
        solves.clear()
        walks.clear()
        listing()
        assert solves == dict.fromkeys(shaped, 1) and walks == dict.fromkeys(degrees, 1)


def test_a_whole_genus_lists_each_degree_in_turn():
    for g in range(1, 21):
        assert datasets(g) == [ds for n in range(3, 2 * g + 2, 2) for ds in datasets(g, n)], g
    assert datasets(0) == datasets(-3) == []


def test_units_are_the_rising_units_of_each_order():
    for d in range(2, 201):  # cone orders are >= 2, where 0 is no unit
        units, cones = enumeration._units(d)
        assert units == tuple(c for c in range(d) if gcd(c, d) == 1), d
        assert cones == tuple((c, d) for c in units), d


def test_a_single_run_shape_solves_each_target_alone():
    # the one-pass tails table of a shape of one run, prepared for one target at a time,
    # against the unit multisets spelled out from ordered tuples; every order up to 45 and
    # count up to 5 whose ordered tuples number at most 10**5
    for d in range(2, 46):
        units = [c for c in range(1, d) if gcd(c, d) == 1]
        for count in range(1, 6):
            if len(units) ** count > 10**5:
                break
            multisets = sorted({tuple(sorted(t)) for t in product(units, repeat=count)})
            for t in range(d):
                expected = [tuple((c, d) for c in m) for m in multisets if sum(m) % d == t]
                assert enumeration._shape(d, ((d, count),), {t})(t) == expected, (d, count, t)


def test_a_shape_keeps_the_tails_of_the_needs_its_targets_meet_only():
    # a shape of one run of 20 cones of order 7 has 53,130 unit multisets; prepared for one
    # target it keeps about a seventh of them, not every need's
    def peak(targets):
        tracemalloc.start()
        try:
            enumeration._shape(7, ((7, 20),), targets)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak({3}) < peak(set(range(7))) / 2


def test_listed_classes_share_their_cone_pairs():
    # the residue walk maps each surviving residue multiset back to the shared (c, order)
    # tuples, so a listing holds one tuple per distinct pair
    first = {}
    pairs = [pair for ds in datasets(30, 9) for pair in ds.cones]
    for pair in pairs:
        assert first.setdefault(pair, pair) is pair
    assert len(pairs) > 10 * len(first)


def test_cone_multisets_deeper_than_recursion_limit():
    assert cone_multisets(3, 3000) == [(3,) * 3000]


def test_cone_multisets_with_many_divisors_and_past_the_ceiling():
    n = 436704293025  # 3**4 * 5**2 * 7 * 11 * 13 * 17 * 19 * 23 * 29: 1,920 divisors
    assert cone_multisets(n, 0) == [()]
    assert cone_multisets(n, 1) == []
    assert cone_multisets(n, -1) == []
    assert cone_multisets(3, CONE_MULTISETS_MAX_TARGET) == [(3,) * CONE_MULTISETS_MAX_TARGET]
    for target in (CONE_MULTISETS_MAX_TARGET + 1, n // 3):  # n // 3 is one cone of order 3
        with pytest.raises(RangeExceeded, match="^cone_multisets is supported up to target"):
            cone_multisets(n, target)


def _brute_order_runs(n, top):
    """{doubled weight <= top: [runs, ...]} from every tuple of per-divisor counts, each
    weight's multisets sorted as spelled-out tuples."""
    divs = [d for d in range(2, n + 1) if n % d == 0]
    weights = [n - n // d for d in divs]
    found = {}
    for counts in product(*(range(top // w + 1) for w in weights)):
        total = sum(c * w for c, w in zip(counts, weights))
        if total <= top:
            found.setdefault(total, []).append(tuple((d, c) for d, c in zip(divs, counts) if c))
    return {total: sorted(lists, key=lambda runs: sum(((d,) * c for d, c in runs), ()))
            for total, lists in found.items()}


def test_order_runs_match_a_brute_force_over_counts():
    # even n serve the fractional candidates: a rest may mix divisors of odd doubled weight
    top = 120
    for n in range(2, 61):
        brute = _brute_order_runs(n, top)
        for rest in range(top // 2 + 1):
            assert _order_runs(n, [rest]) == [brute.get(2 * rest, [])]
        # rising rests, and falling ones, as a cell asks for them: g, g - n, ...
        for rests in (range(top // 2 + 1), range(n % 7, top // 2 + 1, 3),
                      range(top // 2, -1, -n)):
            assert _order_runs(n, rests) == [brute.get(2 * r, []) for r in rests], n


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
    for g, n in ((5, 17), (13, 3)):
        with pytest.raises(ValueError, match="^oracle accepts n <= 15 and g <= 12$"):
            oracle_datasets(g, n)


def test_root_degrees():
    assert root_degrees(2) == [3, 5]
    assert root_degrees(1) == [3]
    assert root_degrees(0) == []


def test_root_degrees_split_matches_the_knapsack():
    # root_degrees reads degrees above g from the large-degree classification; has_root
    # decides every degree by the lcm-rule knapsack alone
    # (the ceiling g = 10**4 is checked in test_existence_at_the_ceiling_answers_quickly)
    for g in (*range(301), 1000, 4321):
        assert root_degrees(g) == [n for n in range(3, 2 * g + 2, 2) if has_root(g, n)], g


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


def test_datasets_genus_ceiling():
    assert DATASETS_MAX_GENUS == 400
    assert datasets(400, 801) == ms_roots(400)
    with pytest.raises(RangeExceeded):
        datasets(401, 3)
    with pytest.raises(RangeExceeded):
        primary_datasets(401, 803)
    # a degree no root of genus 401 has answers before the ceiling is asked
    assert datasets(401, 4) == [] and datasets(401, 805) == []
    assert has_root(401, 803)  # existence has no genus ceiling


def test_genus_set_ceiling():
    assert GENUS_SET_MAX_GENUS == 10**4
    start = perf_counter()
    assert genus_set(2 * 10**4 + 1, 10**4) == [10**4]
    with pytest.raises(RangeExceeded):
        genus_set(2 * 10**4 + 1, 10**4 + 1)
    # even or tiny degrees, and degrees past 2*g_max + 1, answer [] before any scan
    for n in (4, 2, 1, -3, 2 * 10**12 + 3):
        assert genus_set(n, 10**12) == []
    assert perf_counter() - start < 1.0


def test_existence_at_the_ceiling_answers_quickly():
    # at the ceiling, for a composite n with many divisors and a large semiprime too
    for n, count in ((3, 10**4), (3465, 4252), (10001, 5)):
        start = perf_counter()
        assert len(genus_set(n, GENUS_SET_MAX_GENUS)) == count
        assert perf_counter() - start < 1.0, n
    start = perf_counter()
    degrees = root_degrees(GENUS_SET_MAX_GENUS)
    assert perf_counter() - start < 10.0
    assert degrees[:3] == [3, 5, 7] and degrees[-1] == 2 * GENUS_SET_MAX_GENUS + 1
    g = GENUS_SET_MAX_GENUS
    assert degrees == [n for n in range(3, 2 * g + 2, 2) if has_root(g, n)]
    message = "^root_degrees is supported up to g = 10000, got 10001$"
    with pytest.raises(RangeExceeded, match=message):
        root_degrees(GENUS_SET_MAX_GENUS + 1)


def test_has_root_past_the_abstract_bound_and_at_its_ceiling():
    start = perf_counter()
    assert has_root(10**10, 3) is True  # g >= (n-2)(n-1)/2 answers without a bitset
    assert perf_counter() - start < 1.0
    assert has_root(GENUS_SET_MAX_GENUS, 2 * GENUS_SET_MAX_GENUS + 1) is True
    with pytest.raises(RangeExceeded, match="^has_root is supported up to g = 10000, got 10001$"):
        has_root(GENUS_SET_MAX_GENUS + 1, 2 * GENUS_SET_MAX_GENUS + 3)
    # exactly at the bound, 2g = (n-2)(n-1) = 20,022, past the ceiling, and one genus below
    assert has_root(10011, 143) is True
    with pytest.raises(RangeExceeded, match="^has_root is supported up to g = 10000, got 10010$"):
        has_root(10010, 143)


def test_class_cap_is_checked_on_the_count_before_listing():
    # 7,992,576,330,344 classes: listing them would exhaust memory before the cap tripped
    start = perf_counter()
    message = "^more than 10000000 classes of genus 400, degree 15$"
    with pytest.raises(ClassCapExceeded, match=message):
        datasets(400, 15)
    assert perf_counter() - start < 2.0
    assert sum(class_count(400, 15).values()) == 7992576330344


def test_class_count_is_nonempty_exactly_where_a_root_exists():
    # the count and the lcm rule share no code
    for g in range(101):
        for n in range(3, 2 * g + 2, 2):
            counts = class_count(g, n)
            assert bool(counts) == has_root(g, n), (g, n)
            assert all(counts.values()), (g, n)


def test_class_count_grows_under_stabilization():
    # adding a handle to the quotient (g0 + 1) maps the classes of (g, n) into (g + n, n)
    for n in range(3, 34, 2):
        for g in range(61):
            assert sum(class_count(g + n, n).values()) >= sum(class_count(g, n).values()), (g, n)


def test_run_transform_matches_newtons_identity():
    # k*H_k(e) = sum_(i=1..k) c_d(i*e)*H_(k-i)(e), with c_d(m) summed over the units of Z/d
    # directly, so the Ramanujan closed form and the period of c_d are not assumed
    for d in (3, 5, 9, 15, 21, 45, 49, 105):
        units = [u for u in range(1, d) if gcd(u, d) == 1]
        c = [round(sum(cos(2 * pi * u * m / d) for u in units)) for m in range(d)]
        rows = [dict.fromkeys(divisors(d), 1)]
        for k in range(1, 61):
            rows.append({e: sum(c[i * e % d] * rows[k - i][e] for i in range(1, k + 1)) // k
                         for e in rows[0]})
        assert [_run_transform(d, k) for k in range(61)] == rows, d


def test_pair_weights_read_the_pair_count_and_the_shared_gcd():
    # the counters read only how many power-l twist pairs there are: every pair shares
    # gcd(a + b, n) = gcd(l, n), the weights match c_(n/e)(a + b) summed over the solved
    # pairs, with c_q summed over the units of Z/q directly, and no pair counts nothing
    sums = {}

    def ramanujan(q, m):
        if q not in sums:
            units = [u for u in range(q) if gcd(u, q) == 1]
            sums[q] = [round(sum(cos(2 * pi * u * s / q) for u in units)) for s in range(q)]
        return sums[q][m % q]

    for n in range(2, 201):
        cell = _order_runs(n, range(13))
        for power in range(1, 7):
            pairs = twist_pairs(n, power)
            assert {gcd(a + b, n) for a, b in pairs} <= {gcd(power, n)}, (n, power)
            weights = {e: sum(ramanujan(n // e, a + b) for a, b in pairs) for e in divisors(n)}
            assert enumeration._pair_weights(n, len(pairs), power) == {
                e: weight for e, weight in weights.items() if weight}, (n, power)
            assert list(enumeration._shape_counts(n, cell, 0, power)) == [0] * sum(map(len, cell))


def test_listing_matches_an_independent_count_past_the_oracle():
    # distinct, valid classes of genus g, as many as the count: the listing is exact
    for g in range(13, 31):
        for n in range(3, 2 * g + 2, 2):
            classes = datasets(g, n)
            assert len(classes) == independent_count(g, n), (g, n)
            # the residue walk and classify against the Fourier count and the shape rule
            assert class_count(g, n) == dict(Counter(classify(ds) for ds in classes)), (g, n)
            assert len(set(classes)) == len(classes), (g, n)
            for ds in classes:
                assert validate(ds).valid and ds.genus == g, ds


def test_listing_is_strictly_increasing_in_every_small_cell():
    # the classes come out in canonical order without a sort of the whole cell
    for g in range(41):
        for n in range(3, 2 * g + 2, 2):
            classes = datasets(g, n)
            assert all(x < y for x, y in zip(classes, classes[1:])), (g, n)


def test_search_blocks_flatten_to_the_listing():
    # the residue search yields one block (n, g0, a, b, found) per twist pair and g0 that
    # has classes, never an empty one, and the blocks in order, flattened, are the listing
    for g in range(31):
        for n in range(3, 2 * g + 2, 2):
            blocks = list(enumeration._cell(g, n, None))
            assert all(found for *_, found in blocks), (g, n)
            prefixes = [tuple(block[:4]) for block in blocks]
            assert len(set(prefixes)) == len(prefixes), (g, n)
            flat = [(*prefix, cones) for *prefix, found in blocks for cones in found]
            assert flat == datasets(g, n), (g, n)


def test_listing_matches_the_independent_count_in_large_cells():
    # many shapes per rest (80, 15), a lone order with 400-long cone runs (400, 3) and
    # many cone orders (100, 33), (120, 45): about 1.5 s of listing together
    for (g, n), count in {(80, 15): 196_736, (400, 3): 9_045, (100, 33): 38_800,
                          (120, 45): 53_580}.items():
        classes = datasets(g, n)
        assert len(classes) == independent_count(g, n) == count, (g, n)
        assert all(x < y for x, y in zip(classes, classes[1:])), (g, n)


def test_class_count_matches_the_independent_count_at_the_ceiling():
    # the four corners of g = 400, a cell of many cone orders, and (99, 19), the first
    # cell past the default class cap: no class is listed, so only the counts compare
    for (g, n), count in {(400, 3): 9_045, (400, 15): 7_992_576_330_344,
                          (400, 45): 37_477_637_925_500, (400, 801): 131,
                          (300, 105): 7_086_624, (99, 19): 10_171_980}.items():
        assert sum(class_count(g, n).values()) == independent_count(g, n) == count, (g, n)


def _tag_checks(g, n):
    counts = class_count(g, n)
    all_n = sum(counts.get(tag, 0) for tag in ("PRIMARY", "MARGALIT_SCHLEIMER", "CUBE_OF_T4"))
    assert (counts.get("DE_ROOT", 0), all_n) == independent_tags(g, n), (g, n)


def test_tags_match_their_definitions():
    # DE_ROOT and the all-n tags of class_count against the independent count restricted
    # by their definitions, not by the shape rule: every cell with g <= 40, and the
    # ceiling cells above
    for g in range(41):
        for n in range(3, 2 * g + 2, 2):
            _tag_checks(g, n)
    for g, n in ((400, 3), (400, 15), (400, 45), (400, 801), (300, 105), (99, 19)):
        _tag_checks(g, n)


def test_pair_table_matches_the_shape_by_shape_count():
    # the table's series against the listing's per-shape count, summed over the shapes
    # that the listing walks for each cell
    rows = {(row.genus, row.degree): row.class_count for row in pair_table(60, 121)}
    for g in range(61):
        for n in range(3, 2 * g + 2, 2):
            assert rows.pop((g, n), 0) == shape_count(g, n, len(twist_pairs(n))), (g, n)
    assert not rows


_FULL_TABLE = """\
import json, resource
resource.setrlimit(resource.RLIMIT_AS, (256 * 2**20, 256 * 2**20))
from dehnroots.special_roots import pair_table
print(json.dumps([row[:3] for row in pair_table(400, 801, class_cap=10**30)]))
"""


@pytest.fixture(scope="module")
def full_table():
    """[(g, n, classes)] of pair_table(400, 801) with the cap lifted, from a child whose
    address space is limited to 256 MB."""
    package_root = Path(enumeration.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", _FULL_TABLE], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": str(package_root)})
    assert proc.returncode == 0, proc.stderr[-2000:]
    return [tuple(row) for row in json.loads(proc.stdout)]


def test_the_full_pair_table_fits_in_256_mb(full_table):
    assert len(full_table) == 15_958
    assert sum(classes for _, _, classes in full_table) == 47_249_824_957_211_708
    assert max(full_table, key=lambda row: row[2])[:2] == (392, 29)


def test_the_full_pair_table_matches_the_independent_count_on_a_sample(full_table):
    for g, n, classes in random.Random(33).sample(full_table, 30):
        assert classes == independent_count(g, n), (g, n)


def test_has_root_matches_the_residue_search():
    # the lcm rule shares no code with the count behind pair_table's rows
    rows = {(row.genus, row.degree) for row in pair_table(36, 73)}
    for g in range(37):
        for n in range(1, 74, 2):
            assert has_root(g, n) == ((g, n) in rows), (g, n)


def test_abstract_bound_is_sharp_exactly_at_primes():
    # every g >= b = (n-2)(n-1)/2 has a degree-n root; b - 1 has none iff n is prime,
    # and for prime n the genera without a root are exactly T(n)
    for n in range(3, 142, 2):
        b = (n - 2) * (n - 1) // 2
        g_max = min(GENUS_SET_MAX_GENUS, b + 2 * n)
        got = set(genus_set(n, g_max))
        assert set(range(b, g_max + 1)) <= got, n
        prime = all(n % d for d in range(3, n, 2))
        assert (b - 1 not in got) == prime, n
        if prime:
            assert got == set(range(1, g_max + 1)) - set(t_set(n)), n


def test_abstract_bound_is_sharp_past_the_genus_set_ceiling():
    # the invariants above for odd 141 < n <= 401, where b + 2n is past genus_set's
    # ceiling: read the lcm-rule bitset directly, bit g at index g of the string
    for n in range(143, 402, 2):
        b = (n - 2) * (n - 1) // 2
        length = b + 2 * n + 1
        bits = format(_root_genera(n, length - 1), "b").zfill(length)[::-1]
        assert len(bits) == length and bits[b:] == "1" * (2 * n + 1), n
        prime = all(n % d for d in range(3, n, 2))
        assert (bits[b - 1] == "0") == prime, n
        if prime:
            expected = bytearray(b"1") * length
            for t in t_set(n):
                expected[t] = ord("0")
            assert bits == expected.decode(), n


def _lcm_state_genera(n, g_max):
    """The lcm rule with one bitset per lcm of the cone orders taken so far: the
    divisors of n in turn, each taken zero or more times (the divisor 1 as one more
    unit of g0, weight n), the genera kept are those of lcm n."""
    mask = (1 << (g_max + 1)) - 1
    by_lcm = {1: 1}
    for d in divisors(n):
        weight = n if d == 1 else (n - n // d) // 2
        grown = dict(by_lcm)
        for reached, bits in by_lcm.items():
            more, shift = (bits << weight) & mask, weight  # one or more d
            while shift <= g_max:
                more |= (more << shift) & mask
                shift *= 2
            grown[lcm(reached, d)] = grown.get(lcm(reached, d), 0) | more
        by_lcm = grown
    return by_lcm[n]


def test_cover_rule_matches_the_lcm_state_knapsack():
    # _root_genera seeds one knapsack with the cover weights of n; the oracle tracks
    # the lcm of every multiset, so the two share no step past the divisors
    for n in range(3, 2002, 2):
        assert _root_genera(n, 4000) == _lcm_state_genera(n, 4000), n
    for n in (1155, 1365, 3465, 9555):  # three and four prime powers, at the ceiling
        assert _root_genera(n, 10**4) == _lcm_state_genera(n, 10**4), n


def test_a_repeated_root_degrees_reads_its_caches():
    # root_degrees(10**4) runs the lcm rule for the 4,929 odd n <= 10**4 past the
    # abstract's bound; _covers and _divisors each keep all of them, so a second call
    # misses none, and with _covers cleared a third reads every _divisors entry again
    enumeration._covers.cache_clear()
    enumeration._divisors.cache_clear()
    expected = root_degrees(10**4)
    covers, divs = enumeration._covers.cache_info(), enumeration._divisors.cache_info()
    assert covers.misses == divs.misses == 4929 and covers.hits == divs.hits == 0
    assert root_degrees(10**4) == expected
    assert enumeration._covers.cache_info()[:2] == (4929, 4929)  # (hits, misses)
    enumeration._covers.cache_clear()
    assert root_degrees(10**4) == expected
    assert enumeration._divisors.cache_info()[:2] == (4929, 4929)


def test_genus_set_contains_triangular_complement():
    for n in range(3, 16, 2):
        g_max = n * (n - 3) // 2 + 5
        excluded = set(t_set(n))
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


def test_primary_datasets_is_the_all_n_filter_of_datasets():
    for g in range(1, 31):
        for n in range(-1, 2 * g + 5):
            expected = [ds for ds in datasets(g, n) if all(o == n for _, o in ds.cones)]
            assert primary_datasets(g, n) == expected, (g, n)
    # only the all-n shapes are counted, capped and built: 102 of the cell's 196,736 classes
    start = perf_counter()
    assert len(primary_datasets(80, 15, class_cap=102)) == 102
    assert perf_counter() - start < 0.5
    with pytest.raises(ClassCapExceeded, match="^more than 101 classes of genus 80, degree 15$"):
        primary_datasets(80, 15, class_cap=101)


def test_stabilization_is_monotone():
    for n in range(3, 16, 2):
        for g in range(1, 21):
            target = datasets(g + n, n)
            for ds in datasets(g, n):
                assert stabilize(ds) in target
