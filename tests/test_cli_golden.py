"""Golden transcript of the ``dehn-roots`` command line.

Each case is (argv, environment overrides, exit code, stdout, stderr).  A
text of the form ``sha256:<hex>`` stands for any text with that digest;
it is used for multi-line JSON and long help or usage texts.  The cases
cover every subcommand in both output formats, the empty answers, the
usage errors with their stderr, the class cap and an unwritable
``figure1`` output; ``FIGURE1`` holds the digests of five CSV exports.
Help and usage texts are rendered at a fixed terminal width of 80.
"""

import hashlib

import pytest

from dehnroots.cli import main

CASES = [
    (
        ['roots', '--genus', '10', '--degree', '21'],
        None,
        0,
        '(21, 0, (2,2); (17,21))\n(21, 0, (5,17); (20,21))\n(21, 0, (11,20); (11,21))\n',
        '',
    ),
    (
        ['roots', '--genus', '10', '--degree', '21', '--format', 'json'],
        None,
        0,
        'sha256:513221192dd2adb3b0c156cc2c832101068d1fe2315694434ffbd1f5d6621fe8',
        '',
    ),
    (
        ['roots', '--genus', '2'],
        None,
        0,
        '(3, 0, (2,2); (1,3), (1,3))\n(5, 0, (2,2); (1,5))\n(5, 0, (3,4); (3,5))\n',
        '',
    ),
    (
        ['roots', '--genus', '2', '--format', 'json'],
        None,
        0,
        'sha256:873acc412ec5f2bbbdea07c697abefcebe2d5b01b452463d1b22105aa0c9cf2d',
        '',
    ),
    (
        ['roots', '--genus', '0'],
        None,
        0,
        '',
        '',
    ),
    (
        ['roots', '--genus', '0', '--format', 'json'],
        None,
        0,
        '[]\n',
        '',
    ),
    (
        ['roots', '--genus', '6'],
        None,
        0,
        'sha256:d63409c0a256fe7de161e13c89cdc4205e3f4d87e495cd8562687486be9853a2',
        '',
    ),
    (
        ['roots', '--genus', '6', '--format', 'json'],
        None,
        0,
        'sha256:dfe1f77986d2241054e733e3b27264e6073289951f6aeaab3b4f57f741a3bffe',
        '',
    ),
    (
        ['roots', '--genus', '12'],
        None,
        0,
        'sha256:70372f6b4ab88adda9bb22971fec2a5475e9ab1fac700d2c49046ea1cb2b3b25',
        '',
    ),
    (
        ['roots', '--genus', '5', '--degree', '13'],
        None,
        0,
        '',
        '',
    ),
    (
        ['roots', '--genus', '5', '--degree', '13', '--format', 'json'],
        None,
        0,
        '[]\n',
        '',
    ),
    (
        ['de-roots', '54572'],
        None,
        0,
        '[ 54573, 54575, 54587, 54769, 65487 ]\n',
        '',
    ),
    (
        ['de-roots', '54572', '--format', 'json'],
        None,
        0,
        '[54573, 54575, 54587, 54769, 65487]\n',
        '',
    ),
    (
        ['de-roots', '54573'],
        None,
        0,
        '[  ]\n',
        '',
    ),
    (
        ['de-roots', '54573', '--format', 'json'],
        None,
        0,
        '[]\n',
        '',
    ),
    (
        ['de-roots', '0'],
        None,
        0,
        '[  ]\n',
        '',
    ),
    (
        ['de-root-genera', '54573'],
        None,
        0,
        '[ 45476, 45477, 54571, 54572 ]\n',
        '',
    ),
    (
        ['de-root-genera', '54573', '--format', 'json'],
        None,
        0,
        '[45476, 45477, 54571, 54572]\n',
        '',
    ),
    (
        ['de-root-genera', '4'],
        None,
        0,
        '[  ]\n',
        '',
    ),
    (
        ['t-set', '--degree', '9'],
        None,
        0,
        '[ 0, 1, 2, 3, 5, 6, 7, 9, 10, 11, 14, 15, 18, 19, 23, 27 ]\n',
        '',
    ),
    (
        ['t-set', '--degree', '9', '--format', 'json'],
        None,
        0,
        '[0, 1, 2, 3, 5, 6, 7, 9, 10, 11, 14, 15, 18, 19, 23, 27]\n',
        '',
    ),
    (
        ['t-set', '--degree', '3'],
        None,
        0,
        '[ 0 ]\n',
        '',
    ),
    (
        ['t-set', '--degree', '3', '--format', 'json'],
        None,
        0,
        '[0]\n',
        '',
    ),
    (
        ['genus-set', '--degree', '5', '--max-genus', '8'],
        None,
        0,
        '[ 2, 4, 6, 7, 8 ]\n',
        '',
    ),
    (
        ['genus-set', '--degree', '5', '--max-genus', '8', '--format', 'json'],
        None,
        0,
        '[2, 4, 6, 7, 8]\n',
        '',
    ),
    (
        ['root-set', '--genus', '2'],
        None,
        0,
        '[ 3, 5 ]\n',
        '',
    ),
    (
        ['root-set', '--genus', '2', '--format', 'json'],
        None,
        0,
        '[3, 5]\n',
        '',
    ),
    (
        ['root-set', '--genus', '0'],
        None,
        0,
        '[  ]\n',
        '',
    ),
    (
        ['ms-roots', '--genus', '10'],
        None,
        0,
        '(21, 0, (2,2); (17,21))\n(21, 0, (5,17); (20,21))\n(21, 0, (11,20); (11,21))\n',
        '',
    ),
    (
        ['ms-roots', '--genus', '10', '--format', 'json'],
        None,
        0,
        'sha256:513221192dd2adb3b0c156cc2c832101068d1fe2315694434ffbd1f5d6621fe8',
        '',
    ),
    (
        ['ms-roots', '--genus', '0'],
        None,
        0,
        '',
        '',
    ),
    (
        ['ms-roots', '--genus', '0', '--format', 'json'],
        None,
        0,
        '[]\n',
        '',
    ),
    (
        ['ms-count', '--degree', '2001'],
        None,
        0,
        '284\n',
        '',
    ),
    (
        ['ms-count', '--degree', '2001', '--format', 'json'],
        None,
        0,
        '284\n',
        '',
    ),
    (
        ['ms-count', '--degree', '3'],
        None,
        0,
        '1\n',
        '',
    ),
    (
        ['de-construct', '--d', '7', '--e', '9'],
        None,
        0,
        '(63, 0, (2,2); (5,7), (2,9))\n',
        '',
    ),
    (
        ['de-construct', '--d', '7', '--e', '9', '--format', 'json'],
        None,
        0,
        'sha256:516fec1d001922c59871e32efc1eda667fb461422f9c9a14bef84e738fc6e282',
        '',
    ),
    (
        ['de-construct', '--d', '3', '--e', '3'],
        None,
        0,
        '(3, 0, (2,2); (1,3), (1,3))\n',
        '',
    ),
    (
        ['fractional', '--genus', '1', '--degree', '4', '--power', '2'],
        None,
        0,
        '(4, 0, (1,1); (1,2))\tpower=2\tgcd_caveat=yes\n(4, 0, (3,3); (1,2))\tpower=2\tgcd_caveat=yes\n',
        '',
    ),
    (
        ['fractional', '--genus', '1', '--degree', '4', '--power', '2', '--format', 'json'],
        None,
        0,
        'sha256:32390aba9bb505129477e6be8ce785b6820b4bcd038c29eb6bc5b0392f97405d',
        '',
    ),
    (
        ['fractional', '--genus', '2', '--degree', '5', '--power', '1'],
        None,
        0,
        '(5, 0, (2,2); (1,5))\tpower=1\tgcd_caveat=no\n(5, 0, (3,4); (3,5))\tpower=1\tgcd_caveat=no\n',
        '',
    ),
    (
        ['fractional', '--genus', '2', '--degree', '5', '--power', '1', '--format', 'json'],
        None,
        0,
        'sha256:44b441b5dcff987440f3093c98f8bc6ee22b9132b94dd7061bdbd71021591a65',
        '',
    ),
    (
        ['bezout-avoid', '--d1', '5', '--d2', '3', '--primes', '3,5'],
        None,
        0,
        'c1 = -1, c2 = 2\n',
        '',
    ),
    (
        ['bezout-avoid', '--d1', '5', '--d2', '3', '--primes', '3,5', '--format', 'json'],
        None,
        0,
        '{"c1": -1, "c2": 2, "d1": 5, "d2": 3}\n',
        '',
    ),
    (
        ['bezout-avoid', '--d1', '3', '--d2', '5'],
        None,
        0,
        'c1 = 2, c2 = -1\n',
        '',
    ),
    (
        ['bezout-avoid', '--d1', '3', '--d2', '5', '--format', 'json'],
        None,
        0,
        '{"c1": 2, "c2": -1, "d1": 3, "d2": 5}\n',
        '',
    ),
    (
        ['bezout-avoid', '--d1', '8', '--d2', '15', '--primes', ' 7, ,11,2'],
        None,
        0,
        'c1 = -1153, c2 = 615\n',
        '',
    ),
    (
        ['validate', '(9, 0, (2,2); (2,9),(1,3))'],
        None,
        0,
        'valid; genus 7; degree 9\n',
        '',
    ),
    (
        ['validate', '(9, 0, (2,2); (2,9),(1,3))', '--format', 'json'],
        None,
        0,
        'sha256:85d508a11ccd50bdc620c3c56dd5ffd80b7fcdc8870aa83a5fd4e7f4a4ea0aa1',
        '',
    ),
    (
        ['validate', '(4, 0, (1,1); (1,2))'],
        None,
        0,
        'invalid; III: a + b != a*b mod n\n',
        '',
    ),
    (
        ['validate', '(4, 0, (1,1); (1,2))', '--format', 'json'],
        None,
        0,
        'sha256:02fab9370c9dc90b711d7d33144d4e6f4b3ec0c6d1191bd5bdd7fd5a3360ed24',
        '',
    ),
    (
        ['validate', '( 21, 0, ( 2, 2 );( 17, 21 ))'],
        None,
        0,
        'valid; genus 10; degree 21\n',
        '',
    ),
    (
        ['de-construct', '--d', '4', '--e', '5'],
        None,
        2,
        '',
        'error: d must be odd and >= 3, got 4\n',
    ),
    (
        ['validate', '(not a data set'],
        None,
        2,
        '',
        "error: unexpected trailing 'not a data set'\n",
    ),
    (
        ['validate', '(\u0669, 0, (2,2); (2,9),(1,3))'],
        None,
        2,
        '',
        "error: unexpected '\u0669' in data set text\n",
    ),
    (
        ['validate', '(9, 0, (2,2); (2,9),(1,1))'],
        None,
        2,
        '',
        'error: cone order must lie in [2, 1000000000000], got 1\n',
    ),
    (
        ['bezout-avoid', '--d1', '3', '--d2', '6'],
        None,
        2,
        '',
        'error: gcd(3, 6) != 1\n',
    ),
    (
        ['fractional', '--genus', '1', '--degree', '99', '--power', '2'],
        None,
        2,
        '',
        'error: fractional enumeration is limited to 1 <= g <= 12, 2 <= n <= 30\n',
    ),
    (
        ['fractional', '--genus', '1', '--degree', '4', '--power', '0'],
        None,
        2,
        '',
        'error: power must be >= 1, got 0\n',
    ),
    (
        ['roots'],
        None,
        2,
        '',
        'usage: dehn-roots roots [-h] --genus GENUS [--degree DEGREE]\n                        [--format {text,json}]\ndehn-roots roots: error: the following arguments are required: --genus\n',
    ),
    (
        ['no-such-command'],
        None,
        2,
        '',
        'sha256:7e25960c7d52338d7013958086bad67af2d9c7970db455c5ea3746d97a0218ea',
    ),
    (
        ['roots', '--genus', 'x'],
        None,
        2,
        '',
        "usage: dehn-roots roots [-h] --genus GENUS [--degree DEGREE]\n                        [--format {text,json}]\ndehn-roots roots: error: argument --genus: invalid int value: 'x'\n",
    ),
    (
        ['t-set', '--degree', '9', '--format', 'xml'],
        None,
        2,
        '',
        "usage: dehn-roots t-set [-h] --degree DEGREE [--format {text,json}]\ndehn-roots t-set: error: argument --format: invalid choice: 'xml' (choose from 'text', 'json')\n",
    ),
    (
        ['--help'],
        None,
        0,
        'sha256:b7c344107223d204fab7e973c77e8f3a109e2eec870797a783e3bd13dea27460',
        '',
    ),
    (
        ['roots', '--help'],
        None,
        0,
        'sha256:915b2ef743f8b8988d63c11d81f7d979c778fd6720457c8415f68f81176f9362',
        '',
    ),
    (
        ['figure1', '--help'],
        None,
        0,
        'sha256:c2f984871e29d54a961ad258eda3f891aad4dba98be08437c0cb5d5de4d5efa5',
        '',
    ),
    (
        ['roots', '--genus', '10', '--degree', '21'],
        {'DEHN_ROOTS_CLASS_CAP': '1'},
        3,
        '',
        'class cap exceeded: more than 1 classes of genus 10, degree 21\n',
    ),
    (
        ['roots', '--genus', '10', '--degree', '21'],
        {'DEHN_ROOTS_CLASS_CAP': '3'},
        0,
        '(21, 0, (2,2); (17,21))\n(21, 0, (5,17); (20,21))\n(21, 0, (11,20); (11,21))\n',
        '',
    ),
    # the cap bounds each (genus, degree): 69 classes of genus 10 pass a cap of 25
    (
        ['roots', '--genus', '10'],
        {'DEHN_ROOTS_CLASS_CAP': '24'},
        3,
        '',
        'class cap exceeded: more than 24 classes of genus 10, degree 11\n',
    ),
    (
        ['roots', '--genus', '10'],
        {'DEHN_ROOTS_CLASS_CAP': '25'},
        0,
        'sha256:59d348cebd9ca0f12c2622416c6e1cd4a486c40bd2b44757b0bb121f85118619',
        '',
    ),
    # figure1 stops at the first cell past the cap, before it opens its output
    (
        ['figure1', '--max-genus', '10', '--max-degree', '21', '--output', '/nonexistent-dir/out.csv'],
        {'DEHN_ROOTS_CLASS_CAP': '1'},
        3,
        '',
        'class cap exceeded: more than 1 classes of genus 2, degree 5\n',
    ),
    (
        ['figure1', '--max-genus', '10', '--max-degree', '21', '--output', '/nonexistent-dir/out.csv'],
        {'DEHN_ROOTS_CLASS_CAP': '24'},
        3,
        '',
        'class cap exceeded: more than 24 classes of genus 10, degree 11\n',
    ),
    (
        ['figure1', '--max-genus', '1', '--max-degree', '3', '--output', '/nonexistent-dir/out.csv'],
        None,
        4,
        '',
        "cannot write /nonexistent-dir/out.csv: [Errno 2] No such file or directory: '/nonexistent-dir/out.csv'\n",
    ),
    # the genus ceilings stop a query before any search, and figure1 before its output
    (
        ['figure1', '--max-genus', '401', '--max-degree', '3', '--output', '/nonexistent-dir/out.csv'],
        None,
        2,
        '',
        'error: pair_table is supported up to g = 400, got 401\n',
    ),
    (
        ['root-set', '--genus', '10001'],
        None,
        2,
        '',
        'error: root_degrees is supported up to g = 10000, got 10001\n',
    ),
    # the cap is checked on the count, so a cell of 7.99e12 classes stops at once
    (
        ['roots', '--genus', '400', '--degree', '15'],
        None,
        3,
        '',
        'class cap exceeded: more than 10000000 classes of genus 400, degree 15\n',
    ),
    # fractional obeys the same per-(genus, degree) cap: this cell has 54 candidates
    (
        ['fractional', '--genus', '12', '--degree', '7', '--power', '4'],
        {'DEHN_ROOTS_CLASS_CAP': '53'},
        3,
        '',
        'class cap exceeded: more than 53 classes of genus 12, degree 7\n',
    ),
    (
        ['fractional', '--genus', '12', '--degree', '7', '--power', '4'],
        {'DEHN_ROOTS_CLASS_CAP': '54'},
        0,
        'sha256:e57e8110baa15eff22238421290311157da438a9a42dc0a18231eae224f93298',
        '',
    ),
    # the power ceiling holds where no candidate is built
    (
        ['fractional', '--genus', '1', '--degree', '2', '--power', '10000000000001'],
        None,
        2,
        '',
        'error: power must lie in [1, 1000000000000], got 10000000000001\n',
    ),
    # figure1 checks its cells in (g, n) order: (5, 11) fails before (7, 3), the first
    # cell past the cap in degree order
    (
        ['figure1', '--max-genus', '10', '--max-degree', '21', '--output', '/nonexistent-dir/out.csv'],
        {'DEHN_ROOTS_CLASS_CAP': '4'},
        3,
        '',
        'class cap exceeded: more than 4 classes of genus 5, degree 11\n',
    ),
]

FIGURE1 = [
    (0, 33, '2194f84f9e99a26c9cabd686125d1c3ee3ad43b761cbb7759cb9b1e11601da66'),
    (12, 9, '124197ebb235cd7c66c5de1f222e13621441697f85b4dd7cd3449d23b43612b9'),
    (20, 15, 'b1da1391ebc146122de0a8df2e2598eef68e9576b2a16432b876d88787d51a4b'),
    (48, 33, '3dcd1be58b38d6eb4c29c5b567f571705d4d44ae79f7269f2f1ef448082557db'),
    (36, 73, 'c622939157758cc0ce77eeaf31ba7c2a73c8719e4a46d2034e84d0fa5788ace3'),
]


def _matches(expected, actual):
    if expected.startswith("sha256:"):
        return hashlib.sha256(actual.encode()).hexdigest() == expected[len("sha256:") :]
    return actual == expected


@pytest.mark.parametrize("argv, env, code, out, err", CASES, ids=[" ".join(c[0]) for c in CASES])
def test_transcript(argv, env, code, out, err, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("DEHN_ROOTS_CLASS_CAP", raising=False)
    for name, value in (env or {}).items():
        monkeypatch.setenv(name, value)
    assert main(list(argv)) == code
    captured = capsys.readouterr()
    assert _matches(out, captured.out), captured.out
    assert _matches(err, captured.err), captured.err


@pytest.mark.parametrize("max_genus, max_degree, digest", FIGURE1)
def test_figure1_csv_digest(max_genus, max_degree, digest, tmp_path, capsys):
    path = tmp_path / "pairs.csv"
    argv = ["figure1", "--max-genus", str(max_genus), "--max-degree", str(max_degree)]
    assert main(argv + ["--output", str(path)]) == 0
    assert capsys.readouterr() == ("", "")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
