import gc
import pickle
import random
import tracemalloc
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
from dehnroots.fractional import fractional_datasets
from dehnroots.special_roots import ms_roots


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
    with pytest.raises(ValueError, match="do not sum to an integer genus"):
        DataSet(6, 0, 1, 1, ((1, 2),)).genus  # one cone of order 2 in degree 6 adds 3/2


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
    with pytest.raises(RangeExceeded, match="^degree must be an integer, got 2.5$"):
        DataSet(2.5, 0, 1, 1, ((1, 3),))


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
        "(,",
        "(21, 0, (2,2); (17,21)))",
        "(21, 0, (2,2); (17,21)) extra",
        "(21; 0, (2,2); (17,21))",
        "(a, 0, (2,2); (17,21))",
        "(21, 0, (2,2); (17,21),)",  # a trailing comma in the cone list
        "(21, 0, (2,2);; (17,21))",
        "(21, 0, (2,2), (17,21))",  # "," in place of ";"
        "(21, 0, (2,2); (17,21)",  # unclosed
        "((21, 0, (2,2); (17,21))",  # a doubled opener
        "(21, 0, (2,2); (17,21)) (17,21)",  # tokens after a complete form
    ]:
        with pytest.raises(ParseError):
            parse_dataset(text)


def test_parser_messages():
    # a structural error names the form; stray text and tokens past the form are quoted,
    # by their first 40 characters if longer; integers are ASCII digits only (\d would
    # also take the ARABIC-INDIC DIGIT NINE and the FULLWIDTH DIGIT NINE)
    nines, letters = "9" * 5000, "x" * 5000
    cases = {
        "(\u0669, 0, (2,2); (2,9),(1,3))": "unexpected '\u0669' in data set text",
        "(9, 0, (2,2); (2,\uff19),(1,3))": "unexpected '\uff19' in data set text",
        "(21, 0, (2,2); (17,21)) " + nines: "unexpected trailing '%s'..." % nines[:40],
        "(21, 0, (2,2); (17,21)) " + letters: "unexpected trailing '%s'..." % letters[:40],
        "(21, 0, (2,2); %s (17,21))" % letters: "unexpected '%s'... in data set text"
        % letters[:40],
        "(9, 0, (2,2); (2,9) (1,3))": "expected the form (n, g0, (a,b); (c1,n1), ...)",
        "(21, 0, (2,2); (17,21)) (17,21)": "unexpected trailing '('",
        "(21, 0, (2,2); (17,21)) extra": "unexpected trailing 'extra'",
        "(21, 0, (2,2); x (17,21))": "unexpected 'x' in data set text",
        "(%s, 0, (2,2); (17,21))" % ("9" * 5000): "integer of 5000 digits is too long",
    }
    for text, message in cases.items():
        with pytest.raises(ParseError) as caught:
            parse_dataset(text)
        assert str(caught.value) == message


def test_parser_accepts_an_empty_cone_list():
    # format_dataset writes a cone-free candidate as "; )", so parsing must take it back;
    # validate then rejects it under condition IV
    ds = parse_dataset("(21, 0, (2,2); )")
    assert ds.cones == () and format_dataset(ds) == "(21, 0, (2,2); )"
    assert validate(ds).conditions() == {"IV"}


def test_random_round_trip_via_enumeration():
    rng = random.Random(5)
    pool = datasets(7, 9) + datasets(10, 21) + datasets(11, 15) + datasets(6, 3)
    for ds in rng.sample(pool, min(10, len(pool))):
        assert parse_dataset(format_dataset(ds)) == ds


def test_unchecked_listing_matches_the_checked_constructor():
    # datasets and ms_roots build their classes through dataset._canonical, unchecked
    listings = [datasets(g, n) for g in range(1, 31) for n in range(3, 2 * g + 2, 2)]
    listings += [ms_roots(g) for g in range(1, 301)]
    for listed in listings:
        checked = [DataSet(ds.degree, ds.quotient_genus, ds.a, ds.b, ds.cones) for ds in listed]
        assert checked == listed
        assert all(type(ds) is DataSet for ds in listed)
        assert [hash(ds) for ds in listed] == [hash(ds) for ds in checked]
        assert [repr(ds) for ds in listed] == [repr(ds) for ds in checked]
        assert sorted(reversed(listed)) == listed
        for ds in listed:
            stable = stabilize(ds)
            assert validate(stable).valid and stable.genus == ds.genus + ds.degree


def test_record_behaviour_is_pinned():
    # repr, hash, equality, order, pickling, immutability and stabilize, as the record
    # behaved when it was a frozen dataclass
    first, second, third = datasets(10, 21)
    assert repr(first) == "DataSet(degree=21, quotient_genus=0, a=2, b=2, cones=((17, 21),))"
    assert repr(DataSet(21, 0, 20, 5, ((-1, 21),))) == (
        "DataSet(degree=21, quotient_genus=0, a=5, b=20, cones=((20, 21),))")
    candidate = fractional_datasets(12, 10, 4)[0]
    assert repr(candidate) == ("FractionalDataSet(degree=10, quotient_genus=0, a=1, b=7, "
                               "cones=((1, 2), (1, 2), (1, 2), (7, 10)), power=4)")
    assert repr(FractionalDataSet(9, 0, 2, 2, ((2, 9),), power=3)) == (
        "FractionalDataSet(degree=9, quotient_genus=0, a=2, b=2, cones=((2, 9),), power=3)")
    assert hash(first) == hash((21, 0, 2, 2, ((17, 21),)))
    assert hash(candidate) == hash((10, 0, 1, 7, ((1, 2), (1, 2), (1, 2), (7, 10)), 4))
    assert first == DataSet(21, 0, 2, 2, ((17, 21),)) and first != second
    assert first < second < third and sorted([third, first, second]) == [first, second, third]
    assert DataSet(9, 0, 2, 2, ((2, 9),)) != FractionalDataSet(9, 0, 2, 2, ((2, 9),))
    for ds in (first, candidate):
        again = pickle.loads(pickle.dumps(ds))
        assert again == ds and type(again) is type(ds) and repr(again) == repr(ds)
        for name in ("a", "degree", "cones", "extra"):
            with pytest.raises(AttributeError):
                setattr(ds, name, 1)
    up = stabilize(candidate)
    assert type(up) is FractionalDataSet and up.power == 4 and up.quotient_genus == 1
    assert repr(up) == ("FractionalDataSet(degree=10, quotient_genus=1, a=1, b=7, "
                        "cones=((1, 2), (1, 2), (1, 2), (7, 10)), power=4)")


def test_a_data_set_is_the_tuple_of_its_fields():
    ds = DataSet(21, 0, 2, 2, ((-4, 21),))
    n, g0, a, b, cones = ds
    assert (n, g0, a, b, cones) == (ds.degree, ds.quotient_genus, ds.a, ds.b, ds.cones)
    assert len(ds) == 5 and ds == (21, 0, 2, 2, ((17, 21),)) and isinstance(ds, tuple)
    candidate = FractionalDataSet(9, 0, 2, 2, ((2, 9),), power=3)
    assert len(candidate) == 6 and candidate == (9, 0, 2, 2, ((2, 9),), 3)
    assert isinstance(candidate, DataSet) and candidate[5] == candidate.power == 3


def test_a_listed_class_holds_little_memory():
    # the bytes still held per class of datasets(36), its list included; a class is one
    # 5-tuple and its cone tuple (the frozen dataclass record held about 320 B)
    datasets(36)  # the shared unit and divisor tables are built here, not counted below
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        listed = datasets(36)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(listed) == 15788
    assert held / len(listed) < 240


def test_replace_and_make_go_through_the_checks():
    # namedtuple's own _make is an unchecked tuple.__new__, and _replace calls it
    ds = DataSet(21, 0, 2, 2, ((17, 21),))
    candidate = FractionalDataSet(9, 0, 2, 2, ((2, 9),), power=3)
    with pytest.raises(RangeExceeded, match="^degree must lie in"):
        ds._replace(degree=1)
    with pytest.raises(RangeExceeded, match="^power must lie in"):
        candidate._replace(power=0)
    with pytest.raises(RangeExceeded, match="^cone order must lie in"):
        DataSet._make((21, 0, 2, 2, ((1, 1),)))
    with pytest.raises(RangeExceeded, match="^quotient genus must lie in"):
        FractionalDataSet._make((9, -1, 2, 2, ((2, 9),), 3))
    # and they reduce: a replaced residue comes back canonical
    assert repr(ds._replace(a=-2, cones=((-4, 21), (1, 3)))) == (
        "DataSet(degree=21, quotient_genus=0, a=2, b=19, cones=((1, 3), (17, 21)))")
    again = candidate._replace(quotient_genus=2)
    assert type(again) is FractionalDataSet and again == (9, 2, 2, 2, ((2, 9),), 3)
    assert DataSet._make(ds) == ds and type(FractionalDataSet._make(candidate)) is FractionalDataSet


def test_validation_records_are_tuples():
    report = validate(DataSet(4, 0, 1, 1, ((1, 2),)))
    assert repr(report) == ("ValidationReport(valid=False, violations=(Violation("
                            "condition='III', detail='a + b != a*b mod n'),))")
    valid, (violation,) = report
    condition, detail = violation
    assert (valid, condition, detail) == (False, "III", "a + b != a*b mod n")
    assert report == (False, (("III", "a + b != a*b mod n"),)) and report.conditions() == {"III"}
    assert repr(validate(parse_dataset("(21, 0, (2,2); (17,21))"))) == (
        "ValidationReport(valid=True, violations=())")
    for record in (report, violation):
        again = pickle.loads(pickle.dumps(record))
        assert again == record and type(again) is type(record) and repr(again) == repr(record)
        with pytest.raises(AttributeError):
            record.extra = 1
