"""A committed mutation table: each row, keyed by its test id, names a function, an exact
snippet of its source, a replacement, and an independent check.  The check must pass on
the code as it is and fail on the mutant, compiled in the function's module and set in
its place, in every module that imported it by name, so each row shows that some check
outside the function sees that defect."""

import contextlib
import inspect
import io
import json
import tempfile
from argparse import Namespace
from collections import Counter, defaultdict
from math import gcd

import pytest

from dehnroots import cli, dataset, enumeration, fractional, numtheory, special_roots
from oracle import figure1_csv, independent_count, independent_tags, oracle_datasets, shape_count


def _covers_check():
    # the lcm rule's genera against the genera whose listing is not empty
    for n in (3, 5, 9, 15):
        assert enumeration.genus_set(n, 20) == [
            g for g in range(21) if enumeration.datasets(g, n)], n


def _run_transform_check():
    # the Fourier count against the listing, in cells with runs of several cones
    for g, n in ((10, 3), (20, 9), (30, 15)):
        assert sum(special_roots.class_count(g, n).values()) == len(enumeration.datasets(g, n))


def _tags_check():
    # DE_ROOT and the all-n tags of class_count against the independent count restricted by
    # the tags' definitions
    for g in range(1, 21):
        for n in range(3, 2 * g + 2, 2):
            counts = special_roots.class_count(g, n)
            all_n = sum(counts.get(tag, 0) for tag in ("PRIMARY", "MARGALIT_SCHLEIMER",
                                                        "CUBE_OF_T4"))
            assert (counts.get("DE_ROOT", 0), all_n) == independent_tags(g, n), (g, n)


def _classify_check():
    # classify over every listed class against class_count, tag by tag: _tags_check lumps
    # CUBE_OF_T4 with PRIMARY, and reads no class
    for g in range(13):
        for n in range(3, 2 * g + 2, 2):
            classes = enumeration.datasets(g, n)
            assert Counter(map(special_roots.classify, classes)) == special_roots.class_count(
                g, n), (g, n)


def _fractional_count_check():
    # the power-l class-cap count against the length of the listing, in every cell of the
    # fractional range
    for g in range(1, fractional.MAX_GENUS + 1):
        for n in range(2, fractional.MAX_DEGREE + 1):
            for power in range(1, 7):
                count = shape_count(g, n, len(enumeration.twist_pairs(n, power)), power)
                assert count == len(fractional.fractional_datasets(g, n, power)), (g, n, power)


def _has_root_bound_check():
    # exactly at the abstract's bound, 2g = (n-2)(n-1), past the genus ceiling
    try:
        found = enumeration.has_root(10011, 143)
    except numtheory.RangeExceeded as exc:
        found = exc
    assert found is True, found


def _table_check():
    # every cell of the pair table against the independent count
    rows = {(row.genus, row.degree): row.class_count for row in special_roots.pair_table(24, 49)}
    for g in range(25):
        for n in range(3, 2 * g + 2, 2):
            assert rows.get((g, n), 0) == independent_count(g, n), (g, n)


def _cap_order_check():
    # each class cap stops the table at the first cell, in (g, n) order, whose cap-lifted
    # count passes it, and the largest cell's count lets every row through
    rows = special_roots.pair_table(48, 33, class_cap=10**30)
    largest = max(row.class_count for row in rows)
    for cap in (0, 1, 1000, largest // 2, largest - 1, largest):
        first = next((row for row in rows if row.class_count > cap), None)
        try:
            found = special_roots.pair_table(48, 33, class_cap=cap)
        except enumeration.ClassCapExceeded as exc:
            found = str(exc)
        assert found == (rows if first is None else "more than %d classes of genus %d, "
                         "degree %d" % (cap, first.genus, first.degree)), cap


def _de_roots_check():
    # degrees for a genus against genera for a degree: every (d,e)-root degree of a
    # genus g < 200 is at most 6(g + 3/2)/5 < 401
    degrees = defaultdict(list)
    for n in range(3, 402, 2):
        for g in special_roots.de_root_genera(n):
            degrees[g].append(n)
    for g in range(1, 200):
        assert special_roots.de_roots(g) == degrees[g], g


class _Writes(io.StringIO):
    def write(self, text):
        self.writes = getattr(self, "writes", 0) + 1
        return super().write(text)


def _print_classes_check():
    # a JSON listing written in chunks cut by class count and by size is still json.dumps
    # of its documents; a write cut by size holds more than the budget, so there are some,
    # and at most len(text) // budget, besides one per chunk of classes
    budget, classes, out = 500, enumeration.datasets(10), _Writes()
    chunks = len(range(0, len(classes), 16))
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out):
        patch.setattr(cli, "_CLASSES_PER_WRITE", 16)
        patch.setattr(cli, "_CHARS_PER_WRITE", budget)
        cli._print_classes(classes, Namespace(format="json", genus=10))
    text = out.getvalue()
    assert text == json.dumps([cli._tagged_json(ds) for ds in classes], indent=2) + "\n"
    assert chunks < out.writes <= len(text) // budget + chunks, out.writes


def _one_cone_check():
    # the one-format ms-roots lines against format_dataset, in one chunk and in several
    for g in (1, 2, 10, 100, 1000):
        classes, out = special_roots.ms_roots(g), io.StringIO()
        with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out):
            patch.setattr(cli, "_CLASSES_PER_WRITE", 16)
            cli._print_classes(classes, Namespace(format="text", genus=g))
        assert out.getvalue() == "".join(dataset.format_dataset(ds) + "\n" for ds in classes), g


def _main_listing_check():
    # text listings through main, whose printer is looked up when it runs, against
    # format_dataset: ms-roots, and every degree of a genus in chunks of one class, so a
    # chunk opens at every degree; an exception out of main counts as a wrong exit code
    queries = [(["ms-roots", "--genus", str(g)], special_roots.ms_roots(g)) for g in (1, 10, 100)]
    queries += [(["roots", "--genus", str(g)], enumeration.datasets(g)) for g in range(1, 9)]
    for argv, classes in queries:
        out = io.StringIO()
        with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out):
            patch.setattr(cli, "_CLASSES_PER_WRITE", 1)
            try:
                code = cli.main(argv)
            except Exception as exc:
                code = repr(exc)
        assert code == 0, (argv, code)
        assert out.getvalue() == "".join(dataset.format_dataset(ds) + "\n" for ds in classes), argv


def _show_check():
    # a refused DEHN_ROOTS_CLASS_CAP of 100,000 characters, through main, in under 1 KB
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stderr(err):
        patch.setenv(enumeration.CAP_ENV_VAR, "x" * 100_000)
        assert cli.main(["roots", "--genus", "3"]) == 2
    assert len(err.getvalue()) < 1024


def _write_csv_check():
    # figure1 with runs 3 tags wide against the table spelled out tag by tag; its runs are
    # below, at and past the width
    rows = special_roots.pair_table(17, 9)
    with tempfile.TemporaryDirectory() as scratch, pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_RUN_WIDTH", 3)
        path = "%s/pairs.csv" % scratch
        assert cli._write_csv(rows, Namespace(output=path)) == 0
        with open(path, "rb") as handle:
            assert handle.read() == figure1_csv(rows)


def _twist_pairs_check():
    # the sieved pairs against a scan of all unit pairs, and their count against ms_count
    for power in (1, 2, 3, 4):
        for n in range(2, 40):
            units = [u for u in range(n) if gcd(u, n) == 1]
            assert enumeration.twist_pairs(n, power) == [
                (a, b) for i, a in enumerate(units) for b in units[i:]
                if (a + b - power * a * b) % n == 0], (n, power)
    for n in range(3, 400, 2):
        assert len(enumeration.twist_pairs(n)) == special_roots.ms_count(n), n


def _read_int_check():
    # through main, an integer past the interpreter's digit limit, of either sign and with
    # spaces around it, is named by its digit count, and one with a trailing letter is not
    huge = "9" * 5000
    for text, end in ((huge, "integer of 5000 digits is too long\n"),
                      ("-" + huge, "integer of 5000 digits is too long\n"),
                      (" +%s " % huge, "integer of 5000 digits is too long\n"),
                      (huge + "x", "invalid int value: '%s'...\n" % huge[:40])):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert cli.main(["roots", "--genus", text]) == 2
        assert err.getvalue().endswith("argument --genus: " + end), err.getvalue()[-200:]


def _search_check():
    # every block the residue search yields holds classes
    for g in range(1, 13):
        for n in range(3, 2 * g + 2, 2):
            assert all(block[4] for block in enumeration._cell(g, n, None))


def _solve_check():
    # the residue search against the brute-force oracle
    for n in range(3, 16, 2):
        for g in range(0, 9):
            assert enumeration.datasets(g, n) == oracle_datasets(g, n), (g, n)


MUTANTS = {  # test id: (module, function, snippet, replacement, check)
    "_covers": (enumeration, "_covers", "_divisors(n)[1:]", "_divisors(n)[2:]", _covers_check),
    "_root_genera": (enumeration, "_root_genera", "bits = covers & mask",
                     "bits = (covers | 2) & mask", _covers_check),
    "_run_transform": (enumeration, "_run_transform", "sums[j % len(c)] += row[e]",
                       "sums[(j + 1) % len(c)] += row[e]", _run_transform_check),
    "_pair_weights_shared_gcd": (enumeration, "_pair_weights",  # gcd(l, n) read as 1
                                 "gcd(n // e, power)", "gcd(n // e, 1)", _fractional_count_check),
    "_degree_cells_pair_count": (special_roots, "_degree_column", "ms_count(n)",
                                 "ms_count(n) + 1", _table_check),
    "has_root_bound": (enumeration, "has_root", "2 * g >= (n - 2) * (n - 1)",
                       "2 * g > (n - 2) * (n - 1)", _has_root_bound_check),
    "_rest_series_primary": (enumeration, "_rest_series",  # read after the last factor
                             "primary[::lone] = [a // n for a in all_n]",
                             "primary = [t // n for t in total]", _tags_check),
    "_degree_cells_late_period": (special_roots, "_degree_column",  # g0 >= 1 sums from g0 = 2
                                  "range(n, len(counts))", "range(2 * n, len(counts))",
                                  _table_check),
    "_degree_cells_low_cells": (special_roots, "_degree_column",  # cell g = n tagged as g < n
                                "if g < n:", "if g <= n:", _tags_check),
    "_degree_cells_maximal": (special_roots, "_degree_column", "n == 2 * g + 1",
                              "n == 2 * g - 1", _tags_check),
    "_degree_cells_cube": (special_roots, "_degree_column", "g == n == 3", "g == n == 5",
                           _classify_check),
    "pair_table_cap": (special_roots, "pair_table", "n, total[g], class_cap",
                       "n, total[g] - 1, class_cap", _cap_order_check),
    "classify_cube": (special_roots, "classify", "n == cones == 3", "cones == 3",
                      _classify_check),
    "de_roots": (special_roots, "de_roots", "if gcd(g, d1) > 1:", "if False:", _de_roots_check),
    "_print_classes": (cli, "_print_classes", "if start == chunks[-1]:", "if start == chunks[0]:",
                       _print_classes_check),
    "_print_classes_flush": (cli, "_print_classes", "parts, size = [], 0", "parts = []",
                             _print_classes_check),
    "_print_classes_shape_key": (cli, "_print_classes", "(g0 == 0, len(cones), cones[0][1] == n)",
                                 "(g0 == 0, cones[0][1] == n)", _print_classes_check),
    "_print_classes_one_cone": (cli, "_print_classes", "% (n, g0, a, b, c, d)",
                                "% (n, g0, a, b, d, c)", _one_cone_check),
    "_print_classes_via_main": (cli, "_print_classes", "% (n, g0, a, b, c, d)",
                                "% (n, g0, a, b, d, c)", _main_listing_check),
    "_print_classes_line_form": (cli, "_print_classes", "chunk[0][0] == 2 * args.genus + 1",
                                 "chunk[0][0] == 2 * args.genus - 1", _main_listing_check),
    "_write_csv": (cli, "_write_csv", "k - (i == 0)", "k", _write_csv_check),
    "_show_cut": (numtheory, "_show", "len(value) > _QUOTE_LIMIT", "False", _show_check),
    "_read_int": (dataset, "_read_int", "len(digits[1])", "len(text)", _read_int_check),
    "_read_int_whole": (dataset, "_read_int", "_DECIMAL.fullmatch(text)",
                        "_DECIMAL.match(text)", _read_int_check),
    "_search": (enumeration, "_search", "if found:", "if True:", _search_check),
    "_search_g0": (enumeration, "_search", "enumerate(cell)", "enumerate(cell, 1)",
                   _solve_check),
    "_cell_rest_order": (enumeration, "_cell",  # the rests rising, so g0 counts down
                         "range(g, -1, -n)", "range(g % n, g + 1, n)", _solve_check),
    "_solve": (enumeration, "_shape", "tails[total % order]", "tails[(total + 1) % order]",
               _solve_check),
    "_solve_shared_tails": (enumeration, "_shape",  # a need's list takes the next's tails
                            "tails[gap // step] = []",
                            "tails[gap // step] = tails[(gap // step + 1) % order] = []",
                            _solve_check),
    "_shape_wanted_needs": (enumeration, "_shape",  # the needs of the head residue 0 alone
                            "(target - residue) % n for", "target % n for", _solve_check),
    "twist_pairs": (enumeration, "twist_pairs", "pow(power * a - 1, -1, n)",
                    "pow(power * a - 1, 1, n)", _twist_pairs_check),
}


MODULES = (cli, dataset, enumeration, fractional, numtheory, special_roots)


def _clear_caches():
    # a mutant must not read what the code computed, nor leave its own results behind
    for module in MODULES:
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


@pytest.mark.parametrize("module, name, snippet, replacement, check", MUTANTS.values(),
                         ids=list(MUTANTS))
def test_mutant_fails_its_check(monkeypatch, module, name, snippet, replacement, check):
    original = getattr(module, name)
    source = inspect.getsource(original)
    assert source.count(snippet) == 1, "%s.%s no longer holds %r" % (
        module.__name__, name, snippet)
    check()
    mutant = {}
    exec(compile(source.replace(snippet, replacement), module.__file__, "exec"),
         vars(module), mutant)
    _clear_caches()
    try:
        with monkeypatch.context() as patch:
            for holder in MODULES:  # special_roots, say, imports _rest_series by name
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        patch.setattr(holder, attr, mutant[name])
            with pytest.raises(AssertionError):
                check()
    finally:
        _clear_caches()
