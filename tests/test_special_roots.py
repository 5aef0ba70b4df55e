import pickle
import random
import tracemalloc
from collections import Counter
from math import gcd, lcm

import pytest

from dehnroots import special_roots
from dehnroots.dataset import DataSet, RangeExceeded, format_dataset, parse_dataset, validate
from dehnroots.enumeration import datasets, has_root, root_degrees
from dehnroots.numtheory import divisors
from dehnroots.special_roots import (
    DE_ROOTS_MAX_GENUS,
    MS_ROOTS_MAX_GENUS,
    T_SET_MAX_DEGREE,
    PairRow,
    RootTag,
    class_count,
    classify,
    de_construct,
    de_root_genera,
    de_roots,
    ms_count,
    ms_roots,
    pair_table,
    t_set,
)


def test_t_set_examples():
    assert t_set(5) == (0, 1, 3, 5)
    assert t_set(9) == (0, 1, 2, 3, 5, 6, 7, 9, 10, 11, 14, 15, 18, 19, 23, 27)
    assert t_set(3) == (0,)


def test_t_set_size_and_maximum():
    for n in range(3, 202, 2):
        ts = t_set(n)
        n0 = (n - 1) // 2
        assert len(ts) == n0 * n0
        assert max(ts) == n * (n - 3) // 2
        assert ts == tuple(sorted(set(ts)))


def test_t_set_matches_its_set_builder_definition():
    # T(n) = {g0 + m*n0 : 0 <= g0 < n0, 0 <= m <= 2*g0}, built as a set and sorted
    for n in (*range(3, 302, 2), 2001):
        n0 = (n - 1) // 2
        expected = sorted({g0 + m * n0 for g0 in range(n0) for m in range(2 * g0 + 1)})
        assert t_set(n) == tuple(expected), n


def test_t_set_ceiling():
    assert T_SET_MAX_DEGREE == 2001
    assert len(t_set(2001)) == 10**6
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
    # de_root_genera goes through coprime_divisor_pairs, not the genus equation
    # that de_roots solves; the three large genera cross-check the two at scale
    for g in (*range(1, 200), 10**4, 99_999, 10**5):
        for n in de_roots(g):
            assert g in de_root_genera(n)
        # and conversely within the window
        lo, hi = g + 1, (6 * (g + 2) - 1) // 5
        expected = [
            n for n in range(lo | 1, hi + 1, 2) if n % 2 and g in de_root_genera(n)
        ]
        assert de_roots(g) == expected


def test_de_roots_are_the_de_root_cells_of_the_count():
    # de_roots(g) is the count restricted to g0 = 0 and two cones: the odd n whose
    # class_count(g, n) has a DE_ROOT entry.  For g <= 120 every odd n <= 2g is
    # checked, which also tests the window g+1 <= n <= 6(g + 3/2)/5; past that
    # only the window g+1 <= n < 6(g+2)/5
    for g in range(1, 401):
        window = range(g + 1 | 1, (6 * (g + 2) - 1) // 5 + 1, 2)
        degrees = range(3, 2 * g + 1, 2) if g <= 120 else window
        tagged = [n for n in degrees if RootTag.DE_ROOT in class_count(g, n)]
        assert de_roots(g) == tagged, g


def test_root_degrees_above_g_are_the_classification():
    # every degree n > g of a root is 2g+1 or a (d,e)-root degree; de_root_genera reads
    # the coprime divisor pairs of n, not the genus equation de_roots solves
    for g in (*range(1, 301), 1000, 4321):
        for n in root_degrees(g):
            assert n <= g or n == 2 * g + 1 or g in de_root_genera(n), (g, n)


def _de_roots_by_trial_division(g):
    # de_roots before the window sieve: each m = 2g + d1 factored on its own
    degrees = set()
    d1 = 1
    while d1 * (d1 - 1) <= g:
        m = 2 * g + d1
        for q in divisors(m):
            d2 = m // q
            if d2 < d1:
                break
            k, r = divmod(q + 1, 2 * d1)
            if not r and k % 2 and (d1, k) != (1, 1) and gcd(d1, d2) == 1:
                degrees.add(k * d1 * d2)
        d1 += 2
    return sorted(degrees)


def test_de_roots_sieve_matches_trial_division():
    rng = random.Random(20)
    # the window edges: g = d1(d1 - 1) for odd d1 puts 2g + d1 in the window exactly
    edges = [d1 * (d1 - 1) for d1 in range(3, 1000, 2)]
    assert edges[:3] == [6, 20, 42] and edges[-1] == 997_002
    genera = [*range(1, 400), *(rng.randrange(10**5, 10**6 + 1) for _ in range(100)),
              *edges[::10], *(g + 1 for g in edges[::50]), edges[-1], DE_ROOTS_MAX_GENUS]
    # the sieve takes the odd d1 <= isqrt(g // share) | 1 and the progression the rest, so
    # the last sieved d1 steps from 2j - 1 to 2j + 1 at g = share * (2j)^2: both sides of
    # the steps up to g = 2*10**4, and ten steps past it
    share = special_roots._SIEVE_SHARE
    steps = [share * (2 * j) ** 2 for j in range(1, 16)]
    assert steps[4] == 20_000 and steps[-1] == 180_000
    genera += [g + side for g in steps for side in (-2, -1, 0, 1) if g <= 20_000 or side == 0]
    for g in genera:
        assert de_roots(g) == _de_roots_by_trial_division(g), g


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
    assert classify(parse_dataset("(21,0,(2,2);(17,21))")) == RootTag.MARGALIT_SCHLEIMER
    assert classify(parse_dataset("(3,0,(2,2);(1,3),(2,3),(2,3))")) == RootTag.CUBE_OF_T4
    assert classify(parse_dataset("(15,0,(2,2);(1,3),(2,5))")) == RootTag.DE_ROOT


def test_classify_precedence():
    # degree 3 at genus 1 is both maximal and primary: maximal wins
    assert classify(parse_dataset("(3,0,(2,2);(2,3))")) == RootTag.MARGALIT_SCHLEIMER
    # primary with two cones is also a (d,e)-root: DE_ROOT wins
    assert classify(parse_dataset("(3,0,(2,2);(1,3),(1,3))")) == RootTag.DE_ROOT
    # primary with more cones, not maximal
    assert classify(parse_dataset("(3,0,(2,2);(1,3),(1,3),(1,3),(2,3))")) == RootTag.PRIMARY
    # stabilized set keeps order-n cones but positive quotient genus
    assert classify(parse_dataset("(3,1,(2,2);(2,3))")) == RootTag.PRIMARY
    # mixed orders, three cones, not primary, not a pair
    assert classify(parse_dataset("(9,0,(5,8);(1,3),(1,3),(1,9))")) == RootTag.OTHER


def test_maximal_tag_is_read_off_the_shape():
    # classify tags MARGALIT_SCHLEIMER by g0 = 0 and one cone of order n, without the
    # genus; that is n = 2g+1 on every class listed, and on any cone shape of odd degree
    for g in range(1, 21):
        for n in range(3, 2 * g + 2, 2):
            for ds in datasets(g, n):
                assert (classify(ds) == RootTag.MARGALIT_SCHLEIMER) == (n == 2 * g + 1), ds
    for n in range(3, 46, 2):
        orders = [d for d in range(2, n + 1) if n % d == 0]
        shapes = [()] + [(d,) for d in orders] + [(d, e) for d in orders for e in orders]
        for g0 in (0, 1):
            for shape in shapes:
                ds = DataSet(n, g0, 2, 2, tuple((1, d) for d in shape))
                assert (classify(ds) == RootTag.MARGALIT_SCHLEIMER) == (n == 2 * ds.genus + 1)


def test_pair_table_matches_class_count_cell_by_cell():
    # class_count and the table share one counter (_degree_cells), so this checks only the
    # rests each call selects and the sums per residue mod n: one genus against a whole
    # column.  The per-tag counts meet an independent check in test_enumeration's
    # listing test.  (36, 73) reaches past 2*g_max + 1
    for g_max, n_max in ((60, 61), (36, 73)):
        rows = {(row.genus, row.degree): row for row in pair_table(g_max, n_max)}
        for g in range(g_max + 1):
            for n in range(3, n_max + 1, 2):
                counts = class_count(g, n)
                row = rows.pop((g, n), None)
                if not counts:
                    assert row is None, (g, n)
                    continue
                assert dict(row.tags) == counts, (g, n)
                assert row == PairRow(g, n, sum(counts.values()), tuple(counts.items())), (g, n)
        assert not rows


def test_pair_table_tags_the_cube_root():
    assert PairRow(3, 3, 1, (("CUBE_OF_T4", 1),)) in pair_table(3, 3)
    assert class_count(3, 3) == {RootTag.CUBE_OF_T4: 1}


def test_a_pair_row_is_the_tuple_of_its_fields():
    row = pair_table(3, 3)[-1]
    assert repr(row) == ("PairRow(genus=3, degree=3, class_count=1, "
                         "tags=((<RootTag.CUBE_OF_T4: 'CUBE_OF_T4'>, 1),))")
    genus, degree, classes, ((tag, k),) = row
    assert (genus, degree, classes, tag, k) == (3, 3, 1, RootTag.CUBE_OF_T4, 1)
    assert row == (3, 3, 1, (("CUBE_OF_T4", 1),)) and hash(row) == hash((3, 3, 1, ((tag, 1),)))
    again = pickle.loads(pickle.dumps(row))
    assert again == row and type(again) is PairRow and again.tags[0][0] is RootTag.CUBE_OF_T4
    with pytest.raises(AttributeError):
        row.genus = 4


def test_pair_table_memory_follows_its_cells():
    # 742 rows for 16,723,612 classes: each row holds one (tag, classes) pair per tag, so
    # the table's peak does not follow the class count (one tag per class is about 128 MB)
    tracemalloc.start()
    try:
        rows = pair_table(80, 33)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 742 and sum(row.class_count for row in rows) == 16_723_612
    assert peak < 8 * 2**20, peak


def test_pair_table_lists_each_rest_once(monkeypatch):
    # the table walks degree by degree: one cone-order walk over every rest a cell reads,
    # one count pass over all of its shapes and at most one twist-pair solve per degree
    walks, counts, solves = Counter(), Counter(), Counter()
    order_runs, shape_counts, solve = (special_roots._order_runs, special_roots._shape_counts,
                                       special_roots.twist_pairs)

    def walked(n, rests):
        walks[n] += 1
        # only rising rests r <= 48
        assert list(rests) == sorted(set(rests)) and rests[-1] <= 48
        return order_runs(n, rests)

    def counted(n, shapes, pairs):
        counts[n] += 1
        return shape_counts(n, shapes, pairs)

    def solved(n, power=1):
        solves[n] += 1
        return solve(n, power)

    monkeypatch.setattr(special_roots, "_order_runs", walked)
    monkeypatch.setattr(special_roots, "_shape_counts", counted)
    monkeypatch.setattr(special_roots, "twist_pairs", solved)
    pair_table(48, 33)
    degrees = dict.fromkeys(range(3, 34, 2), 1)
    assert walks == degrees and counts == degrees
    assert set(solves.values()) == {1} and set(solves) <= set(degrees)


def test_class_count_walks_only_its_own_rests(monkeypatch):
    # one cell reads the rests g, g - n, ..., g mod n and no others: (400, 15) has 3,825
    # shapes over its 27 rests, where every rest <= 400 would list 54,490
    walks, passes = [], []
    order_runs, shape_counts = special_roots._order_runs, special_roots._shape_counts

    def walked(n, rests):
        walks.append((n, list(rests)))
        return order_runs(n, rests)

    def counted(n, shapes, pairs):
        passes.append(len(shapes))
        return shape_counts(n, shapes, pairs)

    monkeypatch.setattr(special_roots, "_order_runs", walked)
    monkeypatch.setattr(special_roots, "_shape_counts", counted)
    class_count(400, 15)
    assert walks == [(15, [400 - 15 * g0 for g0 in reversed(range(27))])]
    assert passes == [3825]


def test_large_degree_classification():
    # every class of degree >= genus is maximal, a (d,e)-root, or the
    # single degree-3 class at genus 3
    for g in range(1, 31):
        for n in range(max(3, g), 2 * g + 2, 2):
            for ds in datasets(g, n):
                tag = classify(ds)
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


def test_class_count_examples_and_ceiling():
    assert class_count(3, 3) == {RootTag.CUBE_OF_T4: 1}
    assert class_count(7, 9) == {RootTag.DE_ROOT: 4}
    assert class_count(2, 3) == {RootTag.DE_ROOT: 1}
    assert class_count(13, 9) == {RootTag.OTHER: 8, RootTag.PRIMARY: 2}
    assert class_count(10, 4) == {} and class_count(0, 3) == {} and class_count(401, 805) == {}
    with pytest.raises(RangeExceeded, match="^class_count is supported up to g = 400, got 401$"):
        class_count(401, 3)


def test_class_count_of_large_degree_is_ms_de_or_the_cube():
    # every class of degree n >= g is maximal, a (d,e)-root or the cube root at genus 3,
    # and 6(g+2)/5 <= n <= 2g holds none
    allowed = {RootTag.MARGALIT_SCHLEIMER, RootTag.DE_ROOT, RootTag.CUBE_OF_T4}
    for g in range(1, 301):
        for n in range(max(3, g | 1), 2 * g + 2, 2):
            counts = class_count(g, n)
            assert set(counts) <= allowed and all(counts.values()), (g, n, counts)
            if 5 * n >= 6 * (g + 2) and n <= 2 * g:
                assert counts == {}, (g, n)


def test_class_count_at_maximal_degree_is_ms_count():
    for g in range(1, 201):
        assert class_count(g, 2 * g + 1) == {RootTag.MARGALIT_SCHLEIMER: ms_count(2 * g + 1)}, g
