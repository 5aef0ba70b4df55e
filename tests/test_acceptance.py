"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every check is exact except the wall-clock budgets, which are the
stated limits.
"""

import hashlib
import random
import time
from math import gcd, lcm

from dehnroots.cli import main
from dehnroots.dataset import format_dataset, validate
from dehnroots.enumeration import (
    datasets,
    genus_set,
    has_root,
    oracle_datasets,
)
from dehnroots.fractional import fractional_datasets
from dehnroots.numtheory import bezout_avoiding_primes, primes_up_to
from dehnroots.special_roots import (
    RootTag,
    classify,
    de_construct,
    de_roots,
    ms_count,
    ms_roots,
    t_set,
)
from dehnroots.dataset import FractionalDataSet


def _report(number, text):
    print("criterion %02d PASS - %s" % (number, text))


def test_criterion_01_maximal_roots_of_genus_10(capsys):
    start = time.perf_counter()
    code = main(["roots", "--genus", "10", "--degree", "21"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert out == (
        "(21, 0, (2,2); (17,21))\n"
        "(21, 0, (5,17); (20,21))\n"
        "(21, 0, (11,20); (11,21))\n"
    )
    assert elapsed < 1.0
    with capsys.disabled():
        _report(1, "roots --genus 10 --degree 21 prints the three classes exactly")


def test_criterion_02_maximal_root_count_2001():
    start = time.perf_counter()
    assert ms_count(2001) == 284
    assert len(ms_roots(1000)) == 284
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(2, "ms_count(2001) == 284 == len(ms_roots(1000)) in %.2fs" % elapsed)


def test_criterion_03_gap_transcripts(capsys):
    expected = {
        ("de-root-genera", "54573"): "[ 45476, 45477, 54571, 54572 ]\n",
        ("de-roots", "54572"): "[ 54573, 54575, 54587, 54769, 65487 ]\n",
        ("de-roots", "54573"): "[  ]\n",
    }
    for argv, wanted in expected.items():
        start = time.perf_counter()
        code = main(list(argv))
        elapsed = time.perf_counter() - start
        assert code == 0
        assert capsys.readouterr().out == wanted
        assert elapsed < 1.0
    with capsys.disabled():
        _report(3, "de-roots / de-root-genera transcripts byte-exact")


def test_criterion_04_triangular_sets():
    assert t_set(9) == (0, 1, 2, 3, 5, 6, 7, 9, 10, 11, 14, 15, 18, 19, 23, 27)
    for n in range(3, 202, 2):
        ts = t_set(n)
        n0 = (n - 1) // 2
        assert len(ts) == n0 * n0
        assert max(ts) == n * (n - 3) // 2
    _report(4, "T(9) table matches; |T(n)| and max T(n) laws hold for odd n <= 201")


def test_criterion_05_prime_genus_set_law():
    for n in (3, 5, 7, 11, 13):
        g_max = n * (n - 3) // 2 + 20
        excluded = set(t_set(n))
        assert genus_set(n, g_max) == [g for g in range(g_max + 1) if g not in excluded]
        assert not has_root((n - 2) * (n - 1) // 2 - 1, n)
    _report(5, "for prime n the genus set is exactly the complement of T(n)")


def test_criterion_06_oracle_equivalence():
    start = time.perf_counter()
    pairs = 0
    for n in range(3, 16, 2):
        for g in range(0, 11):
            expected = oracle_datasets(g, n)
            assert datasets(g, n) == expected, (g, n)
            assert has_root(g, n) == bool(expected), (g, n)
            pairs += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(6, "search matches brute-force oracle on %d (g, n) pairs in %.1fs" % (pairs, elapsed))


def test_criterion_07_degree_bounds():
    classes = 0
    for g in range(0, 31):
        for n in range(2, 2 * g + 8):
            found = datasets(g, n)
            if found:
                assert n % 2 == 1 and 3 <= n <= 2 * g + 1, (g, n)
                classes += len(found)
    _report(7, "all %d classes with g <= 30 have odd degree in [3, 2g+1]" % classes)


def test_criterion_08_large_degree_classification():
    allowed = {RootTag.MARGALIT_SCHLEIMER, RootTag.DE_ROOT, RootTag.CUBE_OF_T4}
    for g in range(1, 31):
        for n in range(max(3, g), 2 * g + 2, 2):
            for ds in datasets(g, n):
                assert classify(ds) in allowed, format_dataset(ds)
    for g in range(0, 49):
        assert has_root(g, g) == (g == 3)
    _report(8, "degree >= genus classes are maximal, (d,e), or the genus-3 cube root")


def test_criterion_09_pair_table_regions(tmp_path, capsys):
    out_path = tmp_path / "figure1.csv"
    start = time.perf_counter()
    code = main(
        ["figure1", "--max-genus", "48", "--max-degree", "33", "--output", str(out_path)]
    )
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert code == 0
    assert elapsed < 120.0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "g,n,classes,tags"
    rows = []
    for line in lines[1:]:
        g, n, count, tags = line.split(",")
        rows.append((int(g), int(n), int(count), tags.split("+")))
    # empty band between the (d,e) region and the maximal line
    for g, n, _, _ in rows:
        assert not (5 * n >= 6 * (g + 2) and n <= 2 * g), (g, n)
    # maximal-root rows sit exactly on n = 2g+1
    for g, n, _, tags in rows:
        if "MARGALIT_SCHLEIMER" in tags:
            assert n == 2 * g + 1, (g, n)
        if n == 2 * g + 1:
            assert set(tags) == {"MARGALIT_SCHLEIMER"}, (g, n)
    keys = {(g, n) for g, n, _, _ in rows}
    assert (11, 15) in keys
    assert (1, 3) in keys and (3, 3) in keys
    assert [k for k in keys if k[0] == k[1]] == [(3, 3)]
    digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
    assert digest == "3dcd1be58b38d6eb4c29c5b567f571705d4d44ae79f7269f2f1ef448082557db"
    with capsys.disabled():
        _report(9, "pair table on [0,48]x[0,33] matches all regional laws (%.1fs)" % elapsed)


def test_criterion_10_de_root_construction_laws():
    for d in range(3, 46, 2):
        for e in range(3, 46, 2):
            ds = de_construct(d, e)
            assert validate(ds).valid
            n, g = ds.degree, ds.genus
            assert n == lcm(d, e)
            assert g == n - (d + e) // (2 * gcd(d, e))
            assert g + 1 <= n and 5 * n < 6 * (g + 2)
            assert (n == g + 1) == (d == e)
    _report(10, "de_construct satisfies laws (a)-(d) for all odd 3 <= d, e <= 45")


def test_criterion_11_prime_avoiding_bezout():
    rng = random.Random(20260808)
    small_primes = primes_up_to(60)
    for _ in range(10**3):
        while True:
            d1 = rng.randint(1, 10**4)
            d2 = rng.randint(1, 10**4)
            if gcd(d1, d2) == 1:
                break
        avoid = set(rng.sample(small_primes, rng.randint(0, 5)))
        if 2 in avoid and d1 % 2 == 1 and d2 % 2 == 1:
            avoid.discard(2)
        w = bezout_avoiding_primes(d1, d2, avoid)
        assert w.c1 * d1 + w.c2 * d2 == 1
        for q in avoid:
            assert w.c1 % q != 0 and w.c2 % q != 0
    _report(11, "1000 random prime-avoiding Bezout witnesses verified")


def test_criterion_12_fractional_golden():
    quarter = FractionalDataSet(4, 0, 1, 1, ((1, 2),), power=2)
    assert validate(quarter).valid and quarter.genus == 1
    cube = FractionalDataSet(3, 0, 1, 1, ((2, 3), (2, 3)), power=2)
    assert validate(cube).valid and cube.genus == 2
    assert fractional_datasets(1, 4, 1) == []
    _report(12, "power-2 candidates validate; no power-1 degree-4 candidate at genus 1")


def test_criterion_13_de_roots_at_genus_one_million():
    start = time.perf_counter()
    degrees = de_roots(10**6)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    assert degrees == sorted(degrees)
    for n in degrees:
        assert n % 2 == 1 and 10**6 + 1 <= n and 5 * n < 6 * (10**6 + 2)
    assert 10**6 + 1 in degrees  # odd genus+1 always has the (d,d)-root with d = g+1
    _report(13, "de_roots(10**6) -> %d degrees in %.1fs" % (len(degrees), elapsed))
