import random
from math import gcd

import pytest

from dehnroots.dataset import (
    DataSet,
    FractionalDataSet,
    ParseError,
    RangeExceeded,
    format_dataset,
    parse_dataset,
    stabilize,
    validate,
)
from dehnroots.enumeration import datasets, twist_pairs


def test_validate_golden_examples():
    assert validate(parse_dataset("(21, 0, (2,2); (17,21))")).valid
    assert validate(parse_dataset("(9, 0, (2,2); (2,9),(1,3))")).valid
    report = validate(DataSet(4, 0, 1, 1, ((1, 2),)))
    assert not report.valid
    assert report.conditions() == {"III"}


def test_validate_reports_every_violation():
    # degree 10 is even, b is not a unit, one cone order does not divide 10,
    # and the residue sum misses zero
    report = validate(DataSet(10, 0, 3, 5, ((1, 4), (1, 2))))
    assert report.conditions() == {"I", "II", "III", "IV"}


def test_even_degree_always_reports_iii():
    # even with (III) numerically satisfied by non-units, the report carries III
    report = validate(DataSet(4, 0, 2, 2, ((1, 2),)))
    assert "III" in report.conditions()
    for n in range(2, 21, 2):
        for a in range(n):
            for b in range(n):
                assert "III" in validate(DataSet(n, 0, a, b, ((1, n),))).conditions()


def test_no_even_degree_twist_pair_exists():
    # conditions (II) + (III) force odd degree: no unit pair works mod even n
    for n in range(2, 51, 2):
        units = [u for u in range(n) if gcd(u, n) == 1]
        assert not [
            (a, b) for a in units for b in units if (a + b - a * b) % n == 0
        ]


def test_no_valid_dataset_without_cones():
    # (III) + (IV) force at least one cone: no unit pair satisfies both
    for n in range(3, 51, 2):
        units = [u for u in range(n) if gcd(u, n) == 1]
        for a in units:
            for b in units:
                if (a + b - a * b) % n == 0 and (a + b) % n == 0:
                    pytest.fail("unit pair (%d, %d) mod %d" % (a, b, n))
    report = validate(DataSet(9, 0, 4, 5, ()))
    assert "IV" in report.conditions()


def test_genus_examples():
    assert parse_dataset("(9, 0, (2,2); (2,9),(1,3))").genus == 7
    assert parse_dataset("(3, 0, (2,2); (2,3))").genus == 1
    assert parse_dataset("(21, 0, (2,2); (17,21))").genus == 10


def test_constructor_canonicalizes():
    raw = DataSet(21, 0, 2, 2, ((-4, 21),))
    assert raw == parse_dataset("(21, 0, (2,2); (17,21))")
    assert DataSet(5, 0, 4, 3, ((3, 5),)) == DataSet(5, 0, 3, 4, ((3, 5),))
    already = parse_dataset("(9, 0, (2,2); (1,3),(2,9))")
    # rebuilding from the stored fields is a fixed point
    for ds in (already, raw):
        assert DataSet(ds.degree, ds.quotient_genus, ds.a, ds.b, ds.cones) == ds


def test_canonicalize_preserves_class_data():
    for ds in datasets(7, 9) + datasets(3, 3) + datasets(10, 21):
        # the same class with a, b swapped, residues shifted, cones reversed
        cones = tuple((c - order, order) for c, order in reversed(ds.cones))
        canon = DataSet(ds.degree, ds.quotient_genus, ds.b + ds.degree, ds.a, cones)
        assert canon == ds
        assert validate(canon).valid
        assert canon.genus == ds.genus
        assert canon.degree == ds.degree


def test_equivalent():
    assert parse_dataset("(21,0,(2,2);(-4,21))") == parse_dataset("(21,0,(2,2);(17,21))")
    assert parse_dataset("(5,0,(3,4);(3,5))") == parse_dataset("(5,0,(4,3);(3,5))")
    assert parse_dataset("(21,0,(2,2);(17,21))") != parse_dataset("(21,0,(5,17);(20,21))")


def test_stabilize():
    cube = parse_dataset("(3, 0, (2,2); (2,3))")
    up = stabilize(cube)
    assert up.quotient_genus == 1 and up.genus == 4
    five = stabilize(parse_dataset("(5, 0, (2,2); (1,5))"))
    assert five.genus == 7
    nine = stabilize(DataSet(9, 1, 2, 2, ((2, 9), (1, 3))))
    assert nine.quotient_genus == 2 and nine.genus == 25


def test_genus_positive_and_stabilize_shift():
    for g, n in [(1, 3), (2, 5), (7, 9), (10, 21), (11, 15)]:
        for ds in datasets(g, n):
            assert ds.genus >= 1
            assert stabilize(ds).genus == ds.genus + ds.degree


def test_genus_ignores_residues():
    # the genus only reads g0 and the cone orders
    for g, n in [(7, 9), (3, 3), (11, 15)]:
        for ds in datasets(g, n):
            for a, b in twist_pairs(n):
                mutated = DataSet(n, ds.quotient_genus, a, b, ds.cones)
                assert mutated.genus == ds.genus
            orders = [order for _, order in ds.cones]
            alt = [
                next(c for c in range(1, order) if gcd(c, order) == 1)
                for order in orders
            ]
            mutated = DataSet(n, ds.quotient_genus, ds.a, ds.b, tuple(zip(alt, orders)))
            assert mutated.genus == ds.genus


def test_a_plus_b_is_a_unit_on_enumerated_sets():
    for g, n in [(2, 5), (7, 9), (10, 21), (11, 15)]:
        for ds in datasets(g, n):
            assert gcd(ds.a + ds.b, n) == 1


def test_range_errors():
    with pytest.raises(RangeExceeded):
        DataSet(1, 0, 1, 1, ((1, 2),))
    with pytest.raises(RangeExceeded):
        DataSet(9, -1, 2, 2, ((2, 9),))
    with pytest.raises(RangeExceeded):
        DataSet(9, 0, 2, 2, ((2, 1),))
    with pytest.raises(RangeExceeded):
        DataSet(10**13, 0, 1, 1, ((1, 2),))
    with pytest.raises(RangeExceeded):
        FractionalDataSet(9, 0, 2, 2, ((2, 9),), power=0)


def test_text_round_trip():
    texts = [
        "(21, 0, (2,2); (17,21))",
        "(9, 0, (2,2); (1,3), (2,9))",
        "(3, 0, (2,2); (1,3), (2,3), (2,3))",
    ]
    for text in texts:
        assert format_dataset(parse_dataset(text)) == text


def test_parser_flexible_whitespace():
    spaced = parse_dataset("( 21, 0, ( 2, 2 );( 17, 21 ))")
    assert spaced == parse_dataset("(21,0,(2,2);(17,21))")
    assert spaced == parse_dataset("  (21 , 0 , (2 , 2) ;  (17 , 21) )  ")


def test_parser_rejects_integers_past_the_string_limit():
    with pytest.raises(ParseError):
        parse_dataset("(%s, 0, (2,2); (17,21))" % ("9" * 5000))


def test_parser_rejects_garbage():
    for text in [
        "",
        "(21, 0, (2,2))",
        "(21, 0, (2,2); )",
        "(21, 0, (2,2); (17,21)) extra",
        "(21; 0, (2,2); (17,21))",
        "(a, 0, (2,2); (17,21))",
    ]:
        with pytest.raises(ParseError):
            parse_dataset(text)


def test_random_round_trip_via_enumeration():
    rng = random.Random(5)
    pool = datasets(7, 9) + datasets(10, 21) + datasets(11, 15) + datasets(6, 3)
    for ds in rng.sample(pool, min(10, len(pool))):
        assert parse_dataset(format_dataset(ds)) == ds
