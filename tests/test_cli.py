import argparse
import ast
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
        (datasets(36), "json", True, 16, 1.3,
         "e478c2e2023484fad90c512743e836d2e9e245da3b5e59574956ff5737dcddf2"),
        (datasets(36), "text", True, 16, None,
         "6cefac4b7162801c14817262bee4bb35551eb596845739f5fc1ed344f3071c7d"),
        (special_roots.ms_roots(3000), "text", False, 3, None,
         "2484d8e5156df8ddeabe1b4c8dbfbae2aff9183606a1fa12b955ffe3d7cb86d3"))
    for classes, fmt, blocks, writes, ratio, digest in cases:
        args = argparse.Namespace(format=fmt, genus=classes[0].genus)
        for _ in range(2):  # the first pass fills the per-process tables it reads
            out = _CountedWrites()
            monkeypatch.setattr(sys, "stdout", out)
            tracemalloc.start()
            try:
                cli._print_classes(classes, args, blocks)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        text = out.getvalue()
        assert out.writes == writes, (fmt, out.writes)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, fmt
        assert ratio is None or peak < ratio * len(text), peak / len(text)


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
    monkeypatch.setattr(enumeration, "_solve", unreached)
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
