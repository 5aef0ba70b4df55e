import pickle
import random
import tracemalloc
from math import gcd, lcm

import pytest

from dehnroots import enumeration, special_roots
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
from oracle import shape_count


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


def test_de_roots_matches_trial_division():
    rng = random.Random(20)
    # the edges of the d1 range: g = d1(d1 - 1) makes the odd d1 the last one tried
    edges = [d1 * (d1 - 1) for d1 in range(3, 1000, 2)]
    assert edges[:3] == [6, 20, 42] and edges[-1] == 997_002
    genera = [*range(1, 400), *(rng.randrange(10**5, 10**6 + 1) for _ in range(100)),
              *edges[::10], *(g + 1 for g in edges[::50]), edges[-1], DE_ROOTS_MAX_GENUS]
    # a factor of m = 2g + d1 at isqrt(m) exactly: m = r^2 or r(r + 2) for odd r, with r
    # or r + 2 a quotient 2*d1 - 1 (mod 4*d1)
    roots = [(d1, r) for d1 in (1, 3, 5, 7) for base in (2 * d1 - 3, 2 * d1 - 1)
             for r in range(base + 4 * d1, 1414, 264 * d1)]
    genera += [(m - d1) // 2 for d1, r in roots for m in (r * r, r * (r + 2))]
    # genera sharing a factor with every d1 in 3, 5, 7, 15, 21 and 35, which are skipped
    genera += [105 * j for j in (*range(1, 40), *range(1000, 9524, 852))]
    assert max(genera) == DE_ROOTS_MAX_GENUS
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
    # class_count and the table share one counter (_degree_column), so this checks only the
    # series truncated at one genus against a whole column, the sums per residue mod n, the
    # table's reading of the columns by genus and class_count's lcm-rule shortcut for a cell
    # without a root.  The per-tag counts meet independent checks in test_enumeration.
    # (36, 73) reaches past 2*g_max + 1
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


def test_the_cap_lifted_table_holds_a_few_hundred_bytes_per_row():
    # 4,813 rows of pair_table(200, 401), its caches filled by a first call: the columns
    # hold a total and a tuple of (tag, classes) pairs per cell, 1.7 MB at the peak, where
    # a dict per cell took 3.7 MB
    pair_table(200, 401, class_cap=10**30)
    tracemalloc.start()
    try:
        rows = pair_table(200, 401, class_cap=10**30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 4_813 and peak < 600 * len(rows), peak / len(rows)


def test_the_class_cap_stops_the_table_at_the_first_cell_past_it():
    # for caps across the cell counts, the first cell in (g, n) order whose cap-lifted count
    # passes the cap fails the table, and a cap at the largest cell lets every row through
    rows = pair_table(48, 33, class_cap=10**30)
    counts = sorted({row.class_count for row in rows})
    for cap in [0] + counts[::20] + [counts[-1] - 1, counts[-1]]:
        first = next((row for row in rows if row.class_count > cap), None)
        if first is None:
            assert pair_table(48, 33, class_cap=cap) == rows
            continue
        with pytest.raises(enumeration.ClassCapExceeded) as caught:
            pair_table(48, 33, class_cap=cap)
        assert str(caught.value) == "more than %d classes of genus %d, degree %d" % (
            cap, first.genus, first.degree)
    with pytest.raises(enumeration.ClassCapExceeded,
                       match="^more than 1000 classes of genus 30, degree 7$"):
        pair_table(48, 33, class_cap=1000)


def _refuse_pairs_and_shapes(monkeypatch):
    """Make the twist-pair solver and the listing's shape code fail the query if they run.
    ``special_roots`` imports none of the shape code, so it runs only through
    ``enumeration``."""
    def refused(*args):
        raise AssertionError("a twist pair was solved or a shape walked: %r" % (args[:1],))

    for module in (enumeration, special_roots):
        monkeypatch.setattr(module, "twist_pairs", refused)
    for name in ("_order_runs", "_shape_counts", "_shape"):
        assert not hasattr(special_roots, name), name
        monkeypatch.setattr(enumeration, name, refused)


def test_pair_table_solves_no_pair_and_walks_no_shape(monkeypatch):
    # the table counts each degree's column from one series pass over every rest its cells
    # read, with the number of twist pairs and not the pairs
    _refuse_pairs_and_shapes(monkeypatch)
    assert sum(row.class_count for row in pair_table(48, 33)) == 338_628


def test_class_count_solves_no_pair_and_walks_no_shape(monkeypatch):
    # (400, 15) has 3,825 shapes over its 27 rests g - g0*n, none of them walked
    _refuse_pairs_and_shapes(monkeypatch)
    assert sum(class_count(400, 15).values()) == 7_992_576_330_344


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


def test_the_cap_lifted_table_holds_the_large_degree_classification():
    # the paper's n >= g classification over the whole genus range: each odd n > g with
    # g <= 400 (40,400 cells, populated or not) holds the per-shape count of its one rest g,
    # all MARGALIT_SCHLEIMER at n = 2g+1 and all DE_ROOT below; no cell with n <= g holds
    # either tag, and only (3, 3) holds CUBE_OF_T4
    rows = {(row.genus, row.degree): dict(row.tags)
            for row in pair_table(400, 801, class_cap=10**30)}
    for g in range(401):
        for n in range(max(3, (g + 1) | 1), 2 * g + 2, 2):
            count = shape_count(g, n, ms_count(n))
            tag = RootTag.MARGALIT_SCHLEIMER if n == 2 * g + 1 else RootTag.DE_ROOT
            assert rows.pop((g, n), {}) == ({tag: count} if count else {}), (g, n)
    assert rows.pop((3, 3)) == {RootTag.CUBE_OF_T4: 1}
    assert all(set(tags) <= {RootTag.OTHER, RootTag.PRIMARY} for tags in rows.values())


def test_class_count_at_maximal_degree_is_ms_count():
    for g in range(1, 201):
        assert class_count(g, 2 * g + 1) == {RootTag.MARGALIT_SCHLEIMER: ms_count(2 * g + 1)}, g
