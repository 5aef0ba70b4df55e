import argparse
import ast
import gc
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from time import perf_counter

import pytest

from dehnroots import cli, enumeration, special_roots
from dehnroots.cli import main
from dehnroots.dataset import RangeExceeded, format_dataset, parse_dataset
from dehnroots.enumeration import ClassCapExceeded, datasets
from dehnroots.special_roots import PairRow, pair_table
from oracle import figure1_csv


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_roots_golden_text(capsys):
    code, out, _ = run_cli(capsys, "roots", "--genus", "10", "--degree", "21")
    assert code == 0
    assert out == (
        "(21, 0, (2,2); (17,21))\n"
        "(21, 0, (5,17); (20,21))\n"
        "(21, 0, (11,20); (11,21))\n"
    )


def test_roots_empty_genus_zero(capsys):
    code, out, _ = run_cli(capsys, "roots", "--genus", "0")
    assert code == 0 and out == ""


def test_roots_without_degree_scans_all(capsys):
    code, out, _ = run_cli(capsys, "roots", "--genus", "2")
    assert code == 0
    assert out.splitlines() == [
        "(3, 0, (2,2); (1,3), (1,3))",
        "(5, 0, (2,2); (1,5))",
        "(5, 0, (3,4); (3,5))",
    ]


def test_roots_json_schema(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    import importlib.resources as resources

    schema = json.loads(
        resources.files("dehnroots").joinpath("schemas/roots.schema.json").read_text()
    )
    for argv in (
        ["roots", "--genus", "10", "--degree", "21", "--format", "json"],
        ["roots", "--genus", "7", "--degree", "9", "--format", "json"],
        ["ms-roots", "--genus", "10", "--format", "json"],
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        docs = json.loads(out)
        jsonschema.validate(docs, schema)
        assert all(doc["tag"] for doc in docs)


def test_indented_is_json_dumps(capsys):
    # every multi-line JSON printer writes the bytes json.dumps(doc, indent=2) would
    argvs = [["roots", "--genus", str(g), "--format", "json"] for g in range(13)]
    argvs += [
        ["ms-roots", "--genus", "10", "--format", "json"],
        ["fractional", "--genus", "1", "--degree", "4", "--power", "2", "--format", "json"],
        ["fractional", "--genus", "2", "--degree", "5", "--power", "2", "--format", "json"],
        ["validate", "(9, 0, (2,2); (2,9),(1,3))", "--format", "json"],
        ["validate", "(4, 0, (1,1); (1,2))", "--format", "json"],
        ["de-construct", "--d", "7", "--e", "9", "--format", "json"],
    ]
    docs = []
    for argv in argvs:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        docs.append(json.loads(out))
        assert out == json.dumps(docs[-1], indent=2) + "\n"
    assert {doc["power_shares_factor"] for doc in docs[14] + docs[15]} == {True, False}
    assert [doc["valid"] for doc in docs[16:18]] == [True, False]


def test_class_listings_are_json_dumps_and_format_dataset(capsys):
    # roots and ms-roots write each class from template parts made once per block of one
    # (n, g0, a, b), and in JSON a tag made once per cone-order shape; the JSON must be the
    # bytes json.dumps(docs, indent=2) gives for the documents tagged class by class, the
    # text format_dataset's lines
    cases = [
        (["roots", "--genus", "3", "--degree", "3"], datasets(3, 3)),  # the cube of T4
        (["roots", "--genus", "12", "--degree", "5"], datasets(12, 5)),  # g0 = 0 and 2
        (["roots", "--genus", "15", "--degree", "9"], datasets(15, 9)),  # multi-cone runs
        (["roots", "--genus", "0"], []),
        (["ms-roots", "--genus", "0"], special_roots.ms_roots(0)),
        (["ms-roots", "--genus", "10"], special_roots.ms_roots(10)),
        (["roots", "--genus", "36", "--degree", "73"], datasets(36, 73)),  # the one-cone lines
        *((["roots", "--genus", str(g)], datasets(g)) for g in range(1, 21)),  # every degree
        (["roots", "--genus", "36"], [ds for n in range(3, 74, 2) for ds in datasets(36, n)]),
    ]
    for argv, classes in cases:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out == "".join(format_dataset(ds) + "\n" for ds in classes)
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        docs = [cli._tagged_json(ds) for ds in classes]
        assert code == 0 and out == json.dumps(docs, indent=2) + "\n"
    tags = {doc["tag"] for doc in docs}
    assert {"CUBE_OF_T4"} == {str(special_roots.classify(ds)) for ds in cases[0][1]} - {"PRIMARY"}
    assert {ds.quotient_genus for ds in cases[1][1]} == {0, 2}
    assert any(len(ds.cones) > len({order for _, order in ds.cones}) > 1 for ds in cases[2][1])
    assert len(docs) == 15788 and tags == {"PRIMARY", "MARGALIT_SCHLEIMER", "DE_ROOT", "OTHER"}
    # genus 16 has blocks whose classes go OTHER, PRIMARY, OTHER, PRIMARY, so the tags of
    # one block follow its classes' shapes, not the block; a DE_ROOT block has no other tag,
    # as two cones weigh less than n and three or more at least n
    runs = [[tag for tag, _ in groupby(map(special_roots.classify, block))]
            for _, block in groupby(datasets(16), itemgetter(0, 1, 2, 3))]
    assert ["OTHER", "PRIMARY", "OTHER", "PRIMARY"] in runs


def test_json_listing_classifies_once_per_shape(capsys, monkeypatch):
    # a tag depends on g0 = 0, the cone count and whether all cones have order n, so a
    # JSON listing classifies the first class of each such shape and no other
    calls = []
    classify = special_roots.classify
    monkeypatch.setattr(special_roots, "classify", lambda ds: calls.append(ds) or classify(ds))
    assert run_cli(capsys, "roots", "--genus", "36", "--format", "json")[0] == 0
    shapes = {(ds.quotient_genus == 0, len(ds.cones), ds.cones[0][1] == ds.degree)
              for ds in datasets(36)}
    assert len(calls) == len(shapes) == len(set(calls))


def test_round_trip_of_printed_datasets(capsys):
    for argv in (
        ["roots", "--genus", "7", "--degree", "9"],
        ["roots", "--genus", "11", "--degree", "15"],
        ["ms-roots", "--genus", "4"],
        ["de-construct", "--d", "7", "--e", "9"],
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        for line in out.splitlines():
            ds = parse_dataset(line)
            assert format_dataset(ds) == line


def test_fractional_rows_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "fractional", "--genus", "1", "--degree", "4", "--power", "2"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines
    for line in lines:
        text, power, caveat = line.split("\t")
        assert parse_dataset(text)
        assert power == "power=2"
        assert caveat == "gcd_caveat=yes"  # gcd(2, 4) = 2


def test_fractional_cone_free_candidate_round_trips(capsys):
    # genus 2, degree 2, power 2 has a candidate with no cone pair: it prints as "; )", and
    # validate reads it back and reports it under (III) and the cone-pair rule of (IV)
    code, out, _ = run_cli(capsys, "fractional", "--genus", "2", "--degree", "2", "--power", "2")
    assert code == 0
    text = out.splitlines()[-1].split("\t")[0]
    assert text == "(2, 1, (1,1); )"
    code, out, err = run_cli(capsys, "validate", text)
    assert (code, err) == (0, "")
    assert out == "invalid; III: a + b != a*b mod n; IV: at least one cone pair is required\n"


def test_gap_transcripts(capsys):
    code, out, _ = run_cli(capsys, "de-root-genera", "54573")
    assert code == 0 and out == "[ 45476, 45477, 54571, 54572 ]\n"
    code, out, _ = run_cli(capsys, "de-roots", "54572")
    assert code == 0 and out == "[ 54573, 54575, 54587, 54769, 65487 ]\n"
    code, out, _ = run_cli(capsys, "de-roots", "54573")
    assert code == 0 and out == "[  ]\n"


def test_int_list_commands(capsys):
    code, out, _ = run_cli(capsys, "t-set", "--degree", "9")
    assert code == 0
    assert out == "[ 0, 1, 2, 3, 5, 6, 7, 9, 10, 11, 14, 15, 18, 19, 23, 27 ]\n"
    code, out, _ = run_cli(capsys, "genus-set", "--degree", "5", "--max-genus", "8")
    assert out == "[ 2, 4, 6, 7, 8 ]\n"
    code, out, _ = run_cli(capsys, "root-set", "--genus", "2")
    assert out == "[ 3, 5 ]\n"
    code, out, _ = run_cli(capsys, "root-set", "--genus", "2", "--format", "json")
    assert json.loads(out) == [3, 5]


def test_ms_count(capsys):
    code, out, _ = run_cli(capsys, "ms-count", "--degree", "2001")
    assert code == 0 and out == "284\n"


def test_validate_command(capsys):
    code, out, _ = run_cli(capsys, "validate", "(9, 0, (2,2); (2,9),(1,3))")
    assert code == 0 and out == "valid; genus 7; degree 9\n"
    code, out, _ = run_cli(capsys, "validate", "(4, 0, (1,1); (1,2))")
    assert code == 0
    assert out.startswith("invalid; III:")
    code, out, _ = run_cli(capsys, "validate", "(9, 0, (2,2); (2,9),(1,3))", "--format", "json")
    doc = json.loads(out)
    assert doc == {"valid": True, "violations": [], "genus": 7, "degree": 9}


def test_bezout_avoid_command(capsys):
    code, out, _ = run_cli(
        capsys, "bezout-avoid", "--d1", "5", "--d2", "3", "--primes", "3,5", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["c1"] * 5 + doc["c2"] * 3 == 1
    for q in (3, 5):
        assert doc["c1"] % q != 0 and doc["c2"] % q != 0


def test_figure1_csv(tmp_path, capsys):
    out_path = tmp_path / "pairs.csv"
    code, _, _ = run_cli(
        capsys, "figure1", "--max-genus", "12", "--max-degree", "9", "--output", str(out_path)
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "g,n,classes,tags"
    assert "1,3,1,MARGALIT_SCHLEIMER" in lines
    assert "3,3,1,CUBE_OF_T4" in lines
    rows = [line.split(",") for line in lines[1:]]
    keys = [(int(r[0]), int(r[1])) for r in rows]
    assert keys == sorted(keys)
    assert all(int(r[2]) >= 1 for r in rows)
    raw = out_path.read_bytes()
    assert b"\r" not in raw


def test_figure1_slices_tag_runs_at_the_run_width(tmp_path, capsys, monkeypatch):
    # runs 3 tags wide: the first tag's runs, one short as the head spells its first tag,
    # reach one below and at the width, and the later tags' runs one below and one past it
    rows = pair_table(17, 9)
    assert {2, 3} <= {row.tags[0][1] - 1 for row in rows}
    assert {2, 4} <= {k for row in rows for _, k in row.tags[1:]}
    monkeypatch.setattr(cli, "_RUN_WIDTH", 3)
    path = tmp_path / "pairs.csv"
    code, _, _ = run_cli(
        capsys, "figure1", "--max-genus", "17", "--max-degree", "9", "--output", str(path)
    )
    assert code == 0
    assert path.read_bytes() == figure1_csv(rows)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_figure1_write_error_at_the_final_flush_exits_4(capsys):
    # the table fits the write buffer, so the device refuses it only as the file closes
    code, out, err = run_cli(
        capsys, "figure1", "--max-genus", "8", "--max-degree", "9", "--output", "/dev/full"
    )
    assert (code, out) == (4, "")
    assert err == "cannot write /dev/full: [Errno 28] No space left on device\n"


def test_figure1_genus_zero_header_only(tmp_path, capsys):
    out_path = tmp_path / "empty.csv"
    code, _, _ = run_cli(
        capsys, "figure1", "--max-genus", "0", "--max-degree", "33", "--output", str(out_path)
    )
    assert code == 0
    assert out_path.read_text() == "g,n,classes,tags\n"


def test_pair_table_counts():
    from dehnroots.enumeration import datasets

    rows = pair_table(8, 9)
    for row in rows:
        classes = datasets(row.genus, row.degree)
        assert row.class_count == len(classes)
        assert sum(k for _, k in row.tags) == row.class_count
        # the table counts tags per cone-order shape; classify tags the built classes
        assert dict(row.tags) == Counter(special_roots.classify(ds) for ds in classes)
        assert [tag for tag, _ in row.tags] == sorted(tag for tag, _ in row.tags)
    assert PairRow(1, 3, 1, (("MARGALIT_SCHLEIMER", 1),)) in rows


def test_pair_table_stable_region_is_full():
    # beyond g = (n-2)(n-1)/2 - 1, every odd degree occurs
    keys = {(row.genus, row.degree) for row in pair_table(30, 21)}
    for n in range(3, 22, 2):
        for g in range((n - 2) * (n - 1) // 2, 31):
            assert (g, n) in keys, (g, n)


def test_pair_table_genus_ceiling():
    # the table lists the cells of datasets, so it stops at the same g <= 400, before any search
    start = perf_counter()
    with pytest.raises(RangeExceeded, match="^pair_table is supported up to g = 400, got 401$"):
        pair_table(401, 3)
    assert pair_table(400, 2) == []
    assert perf_counter() - start < 1.0


def test_figure1_writes_tag_runs_in_bounded_memory(tmp_path, capsys):
    # 16,723,612 classes, every cell under the cap; its longest row is 12.3 MB.  The table
    # is counted per cell and each tag run written in bounded chunks, so neither the table
    # nor any string follows the class count
    path = tmp_path / "pairs.csv"
    argv = ["figure1", "--max-genus", "80", "--max-degree", "33", "--output", str(path)]
    start = perf_counter()
    assert main(argv) == 0
    assert perf_counter() - start < 3.0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr() == ("", "")
    assert peak < 16 * 2**20, peak
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    assert digest.hexdigest() == "b815a3be11af0ca6ed0cfb7321af9891d654b30e58d22f48debd7a165f042d52"


class _KeptWrites:
    """A stdout that keeps each written string as it is: from Python 3.12 on an
    ``io.StringIO`` copies what it is given, so its peak would measure the sink."""

    def __init__(self):
        self.parts = []

    def write(self, text):
        self.parts.append(text)
        return len(text)


def test_json_listing_is_not_copied_again(monkeypatch):
    # the 15,788 classes of genus 36 print as 6,359,210 characters; the documents and
    # their one join hold about twice that, and a second full copy of the join would
    # take the peak to about 3.4 times the output
    classes, args = datasets(36), argparse.Namespace(format="json", genus=36)
    for _ in range(2):  # the first pass fills the per-process tables it reads
        out = _KeptWrites()
        monkeypatch.setattr(sys, "stdout", out)
        tracemalloc.start()
        try:
            cli._print_classes(classes, args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    text = "".join(out.parts)
    assert len(text) == 6_359_210 and peak < 2.6 * len(text), peak / len(text)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "e478c2e2023484fad90c512743e836d2e9e245da3b5e59574956ff5737dcddf2")
    monkeypatch.setattr(sys, "stdout", io.StringIO())
    cli._print_classes([], args)
    assert sys.stdout.getvalue() == "[]\n"


class _CountedWrites(io.StringIO):
    def write(self, text):
        self.writes = getattr(self, "writes", 0) + 1
        return super().write(text)


def test_listings_are_written_in_bounded_chunks(monkeypatch):
    # in chunks of 1,000 classes the genus-36 listings and the 2,633 classes of
    # ms_roots(3000) take one write per chunk and print the same bytes; the JSON peak is
    # then the StringIO's own copy of the output and about one chunk, against twice the
    # output for one join
    monkeypatch.setattr(cli, "_CLASSES_PER_WRITE", 1000)
    cases = (
        (datasets(36), "json", 16, 1.3,
         "e478c2e2023484fad90c512743e836d2e9e245da3b5e59574956ff5737dcddf2"),
        (datasets(36), "text", 16, None,
         "6cefac4b7162801c14817262bee4bb35551eb596845739f5fc1ed344f3071c7d"),
        (special_roots.ms_roots(3000), "text", 3, None,
         "2484d8e5156df8ddeabe1b4c8dbfbae2aff9183606a1fa12b955ffe3d7cb86d3"))
    for classes, fmt, writes, ratio, digest in cases:
        args = argparse.Namespace(format=fmt, genus=classes[0].genus)
        for _ in range(2):  # the first pass fills the per-process tables it reads
            out = _CountedWrites()
            monkeypatch.setattr(sys, "stdout", out)
            tracemalloc.start()
            try:
                cli._print_classes(classes, args)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        text = out.getvalue()
        assert out.writes == writes, (fmt, out.writes)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, fmt
        assert ratio is None or peak < ratio * len(text), peak / len(text)


def test_a_chunk_opening_at_degree_2g_plus_1_writes_the_same_lines(monkeypatch):
    # a listing rises in degree to 2g+1, so a chunk that opens at the first class of that
    # degree holds Margalit-Schleimer classes alone and writes one-format lines, after a
    # chunk of classes of several cones; the bytes are format_dataset's all the same
    for g in (10, 36):
        classes = datasets(g)
        first = next(i for i, ds in enumerate(classes) if ds.degree == 2 * g + 1)
        assert 2 * first > len(classes) > first and len(classes[0].cones) > 1
        monkeypatch.setattr(cli, "_CLASSES_PER_WRITE", first)
        out = _CountedWrites()
        monkeypatch.setattr(sys, "stdout", out)
        cli._print_classes(classes, argparse.Namespace(format="text", genus=g))
        assert out.writes == 2, g
        assert out.getvalue() == "".join(format_dataset(ds) + "\n" for ds in classes), g


def test_listings_are_cut_by_size_as_well(monkeypatch):
    # at a budget of 5,000 characters of cones the genus-20 listings, one chunk of classes,
    # take several writes and print the same bytes; a write cut by size holds more than
    # the budget, so there are at most len(text) // budget of them before the last
    budget, classes = 5000, datasets(20)
    monkeypatch.setattr(cli, "_CHARS_PER_WRITE", budget)
    for fmt, text in (
            ("text", "".join(format_dataset(ds) + "\n" for ds in classes)),
            ("json", json.dumps([cli._tagged_json(ds) for ds in classes], indent=2) + "\n")):
        out = _KeptWrites()
        monkeypatch.setattr(sys, "stdout", out)
        cli._print_classes(classes, argparse.Namespace(format=fmt, genus=20))
        assert "".join(out.parts) == text, fmt
        assert 1 < len(out.parts) <= len(text) // budget + 1, (fmt, len(out.parts))


def test_figure1_past_the_class_cap_writes_nothing(tmp_path, capsys, monkeypatch):
    # every cell is counted and checked in (g, n) order before the output is opened;
    # (99, 19) is the first cell past the default cap of 10**7
    monkeypatch.delenv("DEHN_ROOTS_CLASS_CAP", raising=False)
    path = tmp_path / "pairs.csv"
    argv = ("figure1", "--max-genus", "400", "--max-degree", "801", "--output", str(path))
    assert run_cli(capsys, *argv) == (
        3, "", "class cap exceeded: more than 10000000 classes of genus 99, degree 19\n")
    assert not path.exists()


def test_roots_counts_every_degree_before_listing_one(capsys, monkeypatch):
    # degrees 3 and 5 of genus 200 pass a cap of 500,000 with 399k classes between them;
    # degree 7 does not, so the query stops before the residue search prepares a shape
    # or builds any class
    def unreached(*args):
        raise AssertionError("a class was built before every degree was counted")

    monkeypatch.setenv("DEHN_ROOTS_CLASS_CAP", "500000")
    monkeypatch.setattr(enumeration, "_shape", unreached)
    assert run_cli(capsys, "roots", "--genus", "200") == (
        3, "", "class cap exceeded: more than 500000 classes of genus 200, degree 7\n")
    with pytest.raises(ClassCapExceeded, match="of genus 200, degree 7$"):
        datasets(200, class_cap=500_000)


def test_exit_codes(monkeypatch):
    # usage errors
    assert main(["roots"]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["roots", "--genus", "x"]) == 2
    assert main(["validate", "(not a data set"]) == 2
    assert main(["de-construct", "--d", "4", "--e", "5"]) == 2
    assert main(["bezout-avoid", "--d1", "3", "--d2", "6"]) == 2
    assert main(["fractional", "--genus", "1", "--degree", "99", "--power", "2"]) == 2
    assert main(["t-set", "--degree", "4"]) == 2
    assert main(["ms-count", "--degree", "4"]) == 2
    assert main(["de-root-genera", "10000000000001"]) == 2
    assert main(["validate", "(%s, 0, (2,2); (17,21))" % ("9" * 5000)]) == 2
    assert main(["bezout-avoid", "--d1", "3", "--d2", "5", "--primes", "x"]) == 2
    monkeypatch.setenv("DEHN_ROOTS_CLASS_CAP", "abc")
    assert main(["roots", "--genus", "2"]) == 2
    monkeypatch.delenv("DEHN_ROOTS_CLASS_CAP")
    # I/O failure
    assert (
        main(
            [
                "figure1",
                "--max-genus",
                "1",
                "--max-degree",
                "3",
                "--output",
                "/nonexistent-dir/out.csv",
            ]
        )
        == 4
    )


def _raising_query(genus):
    raise ValueError("internal failure")


# (argv, DEHN_ROOTS_CLASS_CAP or None, exit code or the exception main raises): one per way
# out of main
_EXITS = {
    "ok": (["ms-count", "--degree", "21"], None, 0),
    "argparse": (["roots", "--genus", "x"], None, 2),
    "range": (["roots", "--genus", "401"], None, 2),
    "cap": (["roots", "--genus", "10"], "10", 3),
    "late-write": (["figure1", "--max-genus", "8", "--max-degree", "9", "--output", "/dev/full"],
                   None, 4),
    "raised": (["de-roots", "5"], None, ValueError),
}


@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("exit_name", list(_EXITS))
def test_main_leaves_the_collector_as_it_found_it(capsys, monkeypatch, exit_name, collecting):
    # main pauses the cyclic collector for the query and the printer only, and on every
    # way out enables it again if, and only if, it was enabled on the way in
    argv, cap, outcome = _EXITS[exit_name]
    if exit_name == "late-write" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    if cap is not None:
        monkeypatch.setenv("DEHN_ROOTS_CLASS_CAP", cap)
    if outcome is ValueError:
        monkeypatch.setattr(special_roots, "de_roots", _raising_query)
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        if outcome is ValueError:
            with pytest.raises(ValueError, match="internal failure"):
                main(argv)
        else:
            assert main(argv) == outcome
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()


def test_a_command_leaves_nothing_for_the_collector(capsys, monkeypatch, tmp_path):
    # the premise of pausing the collector: with the parser built (its first build leaves
    # cyclic objects), a query and its printer leave no cycle behind, on the cap exit too,
    # so a collection while they run would free nothing
    argvs = {
        "roots": ["roots", "--genus", "12", "--format", "json"],
        "de-roots": ["de-roots", "54572"],
        "de-root-genera": ["de-root-genera", "45"],
        "figure1": ["figure1", "--max-genus", "12", "--max-degree", "15",
                    "--output", str(tmp_path / "pairs.csv")],
        "t-set": ["t-set", "--degree", "9"],
        "genus-set": ["genus-set", "--degree", "15", "--max-genus", "60"],
        "root-set": ["root-set", "--genus", "60"],
        "ms-roots": ["ms-roots", "--genus", "40"],
        "ms-count": ["ms-count", "--degree", "21"],
        "de-construct": ["de-construct", "--d", "3", "--e", "5"],
        "fractional": ["fractional", "--genus", "6", "--degree", "10", "--power", "3"],
        "bezout-avoid": ["bezout-avoid", "--d1", "3", "--d2", "5", "--primes", "7"],
        "validate": ["validate", "(7, 0, (1,3); (1,7), (2,7), (3,7))"],
    }
    assert list(argvs) == [row[0] for row in cli.COMMANDS]
    cli._parser()
    was = gc.isenabled()
    gc.collect()
    try:
        for name, argv in argvs.items():
            gc.disable()
            assert main(argv) == 0, name
            assert gc.collect() == 0, name
        monkeypatch.setenv("DEHN_ROOTS_CLASS_CAP", "10")
        gc.disable()
        assert main(["roots", "--genus", "10"]) == 3
        assert gc.collect() == 0
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()


_UNDER_256_MB = """\
import resource, runpy, sys
resource.setrlimit(resource.RLIMIT_AS, (256 * 2**20, 256 * 2**20))
sys.argv[0] = "dehn-roots"
runpy.run_module("dehnroots.cli", run_name="__main__")
"""


def _under_256_mb(argv, stdout=subprocess.PIPE):
    """The command line ``argv`` run in a fresh process whose address space, and its
    alone, is limited to 256 MB."""
    package_root = Path(cli.__file__).resolve().parents[1]
    return subprocess.run([sys.executable, "-c", _UNDER_256_MB, *argv], stdout=stdout,
                          stderr=subprocess.PIPE, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(package_root)})


def test_a_listing_past_the_benchmark_range_runs_in_a_fresh_process_under_256_mb():
    # 196,736 classes of genus 80, degree 15, in a child whose address space is limited to
    # 256 MB: the listing's bytes as they were before the collector was paused
    proc = _under_256_mb(["roots", "--genus", "80", "--degree", "15"])
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert hashlib.sha256(proc.stdout).hexdigest() == (
        "ed74176028343736fc7863ee2b4a09464389dc78d09cd57daf52f36762b84227")


# Each command once at a documented ceiling, as the README states it, and its exit code:
# figure1 stops at the class cap
AT_A_CEILING = {
    "ms-roots": (0, ["ms-roots", "--genus", "100000"]),
    "ms-roots-json": (0, ["ms-roots", "--genus", "100000", "--format", "json"]),
    "t-set": (0, ["t-set", "--degree", "2001"]),
    "de-roots": (0, ["de-roots", "1000000"]),
    "genus-set": (0, ["genus-set", "--degree", "3", "--max-genus", "10000"]),
    "root-set": (0, ["root-set", "--genus", "10000"]),
    "roots": (0, ["roots", "--genus", "400", "--degree", "801"]),
    "roots-400-3-json": (0, ["roots", "--genus", "400", "--degree", "3", "--format", "json"]),
    "ms-count": (0, ["ms-count", "--degree", "999999999999"]),
    "de-root-genera": (0, ["de-root-genera", "999999999999"]),
    "figure1": (3, ["figure1", "--max-genus", "400", "--max-degree", "801"]),
}
# A listing whose classes the search holds all at once, which ends in a MemoryError until
# listings stream from the search
PAST_256_MB = pytest.mark.xfail(strict=True, reason="ROADMAP item 3: listings do not stream")
AT_A_CEILING_PAST_256_MB = {
    "roots-100-15-json": (0, ["roots", "--genus", "100", "--degree", "15", "--format", "json"]),
}


@pytest.mark.parametrize("code, argv", list(AT_A_CEILING.values()) + [
    pytest.param(*case, marks=PAST_256_MB) for case in AT_A_CEILING_PAST_256_MB.values()],
    ids=list(AT_A_CEILING) + list(AT_A_CEILING_PAST_256_MB))
def test_a_command_at_its_ceiling_exits_with_a_documented_code_under_256_mb(tmp_path, code,
                                                                           argv):
    if argv[0] == "figure1":
        argv = argv + ["--output", str(tmp_path / "pairs.csv")]
    proc = _under_256_mb(argv, stdout=subprocess.DEVNULL)
    assert proc.returncode == code and b"Traceback" not in proc.stderr, (
        proc.returncode, proc.stderr[-2000:])


def test_failed_stdout_write_exits_4(capsys, monkeypatch):
    class Broken:
        def write(self, text):
            raise OSError(28, "No space left on device")

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", Broken())
    assert main(["t-set", "--degree", "9"]) == 4
    assert capsys.readouterr().err == "I/O error: [Errno 28] No space left on device\n"


def test_documented_ceilings_exit_promptly(capsys):
    for argv in (
        ["t-set", "--degree", "200001"],
        ["de-roots", "1000000000000"],
        ["bezout-avoid", "--d1", "3", "--d2", "5", "--primes", "1000000000000000003"],
        # a witness for this d2 would be too long to print
        ["bezout-avoid", "--d1", "2", "--d2", str(10**4299 + 1), "--primes", "3,5,7,11,13,17,19"],
        ["ms-roots", "--genus", "100001"],
        ["roots", "--genus", "401"],
        ["roots", "--genus", "401", "--degree", "3"],
        ["roots", "--genus", "1000000000000"],  # the ceiling comes before the degree range
        ["genus-set", "--degree", "3", "--max-genus", "10001"],
        ["root-set", "--genus", "10001"],
        ["figure1", "--max-genus", "401", "--max-degree", "3",
         "--output", "/nonexistent-dir/out.csv"],
    ):
        start = perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith("error: ")
        assert perf_counter() - start < 1.0, argv
    assert run_cli(capsys, "bezout-avoid", "--d1", "3", "--d2", "1000000000000") == (
        0,
        "c1 = -333333333333, c2 = 1\n",
        "",
    )
    start = perf_counter()
    assert run_cli(capsys, "roots", "--genus", "5", "--degree", "20000001") == (0, "", "")
    code, out, _ = run_cli(capsys, "genus-set", "--degree", "20000001", "--max-genus", "2")
    assert (code, out) == (0, "[  ]\n")
    code, out, _ = run_cli(capsys, "genus-set", "--degree", "4", "--max-genus", "1000000000000")
    assert (code, out) == (0, "[  ]\n")
    assert perf_counter() - start < 1.0


def test_cached_parser_acts_as_a_fresh_one(capsys, monkeypatch):
    # main reuses one parser per process; an argparse error must leave nothing behind
    sequence = (["roots", "--genus", "x"], ["roots", "--genus", "2"], ["no-such-command"],
                ["ms-count", "--degree", "21"], ["--help"], ["fractional", "--genus", "1"])
    cached = [run_cli(capsys, *argv) for argv in sequence]
    assert cli._parser() is cli._parser()
    assert [code for code, _, _ in cached] == [2, 0, 2, 0, 0, 2]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert [run_cli(capsys, *argv) for argv in sequence] == cached


def test_primes_option_is_parsed_by_argparse(capsys):
    code, _, err = run_cli(capsys, "bezout-avoid", "--d1", "3", "--d2", "5", "--primes", "7,x")
    assert code == 2
    assert "argument --primes: expected comma-separated integers, got '7,x'" in err


def test_internal_value_error_is_not_a_usage_error(monkeypatch):
    # only the library's own error types become exit 2; a bare ValueError is a bug
    def broken(genus):
        raise ValueError("internal failure")

    monkeypatch.setattr(special_roots, "de_roots", broken)
    with pytest.raises(ValueError, match="internal failure"):
        main(["de-roots", "5"])


def test_bench_hooks_resolve():
    # the bench tracer wraps these names as module attributes; the bench
    # set-up timing calls cli.build_parser
    tracer = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    tree = ast.parse(tracer.read_text())
    boundaries = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and node.targets[0].id == "BOUNDARIES"
    )
    names = [(row.elts[0].value, row.elts[1].value) for row in boundaries.elts]
    assert len(names) >= 20
    for module, name in names:
        assert callable(getattr(importlib.import_module("dehnroots." + module), name))
    assert callable(cli.build_parser) and cli.build_parser().prog == "dehn-roots"


def test_bench_smoke_passes():
    # the benchmark's own smoke test drives the CLI and the tracer hooks; a change
    # under src/ that breaks a workload's answer check or a hook fails it
    repo = Path(__file__).resolve().parent.parent
    package_root = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(repo / "bench" / "smoke.py")],
        cwd=repo,
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(package_root)},
    )
    assert proc.returncode == 0, proc.stderr


def test_traced_listing_queries_pass(monkeypatch):
    # the bench tracer swaps the names DataSet and FractionalDataSet for wrapper functions,
    # so a record class must not reach the other through its module name; these queries
    # build both records under the wrappers, fractional --genus 12 --degree 10 --power 4
    # ten candidates of them
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    worker = importlib.import_module("worker")
    tracer, workloads = importlib.import_module("tracer"), importlib.import_module("workloads")
    queries = [workloads.fractional_query(12, 10, 4), workloads.roots_query(12, fmt="json"),
               workloads.ms_roots_query(40)]
    result = worker.measure(queries, 0, tracer.Tracer())
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] == 2 * len(queries)  # one plain pass, one traced
    assert result["layers"]["fractional.fractional_datasets.candidates"][0] == 10
    assert result["layers"]["dataset.FractionalDataSet.calls"][0] == 10


def test_class_cap_env(monkeypatch, capsys):
    monkeypatch.setenv("DEHN_ROOTS_CLASS_CAP", "1")
    code, _, err = run_cli(capsys, "roots", "--genus", "10", "--degree", "21")
    assert code == 3
    assert "cap" in err
    monkeypatch.setenv("DEHN_ROOTS_CLASS_CAP", "100")
    code, out, _ = run_cli(capsys, "roots", "--genus", "10", "--degree", "21")
    assert code == 0 and len(out.splitlines()) == 3


def test_console_entry_point_subprocess():
    # the child imports the same package as this test, installed or not
    package_root = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "dehnroots.cli", "de-roots", "54572"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(package_root)},
    )
    assert proc.returncode == 0
    assert proc.stdout == "[ 54573, 54575, 54587, 54769, 65487 ]\n"
