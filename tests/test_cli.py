import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

from dehnroots import cli, special_roots
from dehnroots.cli import main
from dehnroots.dataset import format_dataset, parse_dataset
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
        assert row.class_count == len(datasets(row.genus, row.degree))
        assert len(row.tags) == row.class_count
    assert PairRow(1, 3, 1, ("MARGALIT_SCHLEIMER",)) in rows


def test_pair_table_stable_region_is_full():
    # beyond g = (n-2)(n-1)/2 - 1, every odd degree occurs
    keys = {(row.genus, row.degree) for row in pair_table(30, 21)}
    for n in range(3, 22, 2):
        for g in range((n - 2) * (n - 1) // 2, 31):
            assert (g, n) in keys, (g, n)


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


def test_documented_ceilings_exit_promptly(capsys):
    for argv in (
        ["t-set", "--degree", "200001"],
        ["de-roots", "1000000000000"],
        ["bezout-avoid", "--d1", "3", "--d2", "5", "--primes", "1000000000000000003"],
        # a witness for this d2 would be too long to print
        ["bezout-avoid", "--d1", "2", "--d2", str(10**4299 + 1), "--primes", "3,5,7,11,13,17,19"],
        ["ms-roots", "--genus", "100001"],
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
    assert perf_counter() - start < 1.0


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
