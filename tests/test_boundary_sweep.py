"""The boundary sweep: every integer argument of every command, read from ``cli.COMMANDS``,
at its extreme values, run through ``main`` in process with the other integer arguments
held at 3, and every pair of integer arguments of a command at 3, 10**6 - 1, its ceiling
and one past it.  Each run must end in a documented exit code (0, 2, 3 or 4) without a
traceback.  A command added to the table is swept without being named here.  Values at a
ceiling that do real work stay with their own tests (``test_cli.py``).  The library's
counters and existence entry points are swept by pairs of arguments at and past their
ceilings, each call returning or refusing with a documented exception.  A value too long
to quote whole, a 5,000-digit integer or a 100,000-character string, reaches every error
message that quotes what it was given, which must still come out short."""

import argparse
import signal
from itertools import combinations, product
from time import perf_counter

import pytest

from dehnroots import cli, dataset, enumeration, fractional, numtheory, special_roots
from dehnroots.enumeration import ClassCapExceeded
from dehnroots.numtheory import ModuliNotCoprime, NotAUnit, PreconditionViolated, RangeExceeded

# The ceiling the README documents for an argument; past it the library refuses the value.
CEILINGS = {
    ("roots", "--genus"): enumeration.DATASETS_MAX_GENUS,
    ("de-roots", "genus"): special_roots.DE_ROOTS_MAX_GENUS,
    ("de-root-genera", "degree"): numtheory.FACTOR_LIMIT,
    ("figure1", "--max-genus"): enumeration.DATASETS_MAX_GENUS,
    ("t-set", "--degree"): special_roots.T_SET_MAX_DEGREE,
    ("genus-set", "--max-genus"): enumeration.GENUS_SET_MAX_GENUS,
    ("root-set", "--genus"): enumeration.GENUS_SET_MAX_GENUS,
    ("ms-roots", "--genus"): special_roots.MS_ROOTS_MAX_GENUS,
    ("ms-count", "--degree"): numtheory.FACTOR_LIMIT,
    ("fractional", "--genus"): fractional.MAX_GENUS,
    ("fractional", "--degree"): fractional.MAX_DEGREE,
    ("fractional", "--power"): dataset.VALUE_LIMIT,
    ("de-construct", "--d"): numtheory.FACTOR_LIMIT,  # lcm(d, e) <= 10**12, on the arguments
    ("de-construct", "--e"): numtheory.FACTOR_LIMIT,
    ("bezout-avoid", "--d1"): numtheory.FACTOR_LIMIT,
    ("bezout-avoid", "--d2"): numtheory.FACTOR_LIMIT,
}
# 5,000 digits stop in argparse from Python 3.11 on, which reads at most 4,300; 4,299
# digits reach the library there too
EXTREMES = tuple(sign + "9" * digits for digits in (5000, 4299) for sign in ("", "-")) + (
    "0", "1", "2", "3", str(10**12 + 1))
SMALL = "3"
BUDGET_S = 10.0  # for the whole sweep
RUN_LIMIT_S = 2.0  # for one run, which fails past it rather than hang the suite


def _int_arguments(arguments):
    return [flag for flag, keywords in arguments if keywords.get("type") is cli._integer]


SWEPT = [(name, arguments) for name, _, arguments, _, _ in cli.COMMANDS
         if _int_arguments(arguments)]


def _argv(name, arguments, values, tmp_path):
    """The command line with ``values[flag]`` for the integer arguments it names, 3 for
    the other integers, and the other required arguments filled in."""
    argv = [name]
    for flag, keywords in arguments:
        if keywords.get("type") is cli._integer:
            text = values.get(flag, SMALL)
        elif keywords.get("required"):
            text = str(tmp_path / "out")  # figure1's --output
        else:
            continue
        argv += [flag, text] if flag.startswith("--") else [text]
    return argv


class _Overran(BaseException):
    """A run past ``RUN_LIMIT_S``: not an ``Exception``, so ``main`` cannot catch it."""


def _overran(signum, frame):
    raise _Overran


@pytest.fixture
def alarm():
    """``_Overran`` raised on SIGALRM for the test, the previous handler restored after."""
    previous = signal.signal(signal.SIGALRM, _overran)
    yield
    signal.signal(signal.SIGALRM, previous)


def _limited(call):
    """call(), or OVERRAN if it runs past RUN_LIMIT_S; an exception out of call() passes."""
    signal.setitimer(signal.ITIMER_REAL, RUN_LIMIT_S)
    try:
        return call()
    except _Overran:  # fails in the caller, away from the handler's frame
        return OVERRAN
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


OVERRAN = "past %s s" % RUN_LIMIT_S


def test_extreme_integers_exit_with_a_documented_code(alarm, capsys, tmp_path):
    start = perf_counter()
    for name, arguments in SWEPT:
        for swept in _int_arguments(arguments):
            ceiling = CEILINGS.get((name, swept))
            past = () if ceiling is None else (str(ceiling + 1),)
            for value in EXTREMES + past:
                argv = _argv(name, arguments, {swept: value}, tmp_path)
                shown = " ".join(arg if len(arg) < 20 else arg[:8] + "..." for arg in argv)
                code = _limited(lambda: cli.main(argv))  # an exception past main fails here
                assert code in (0, 2, 3, 4), (shown, code)
                assert "Traceback" not in capsys.readouterr().err, shown
                assert code == 2 or value not in past, shown  # past a ceiling: refused
    assert perf_counter() - start < BUDGET_S


# Pairs at and past the library's ceilings: genus 400 for the counters, whose degree 801
# is 2g+1 there; genus 10**4 for existence, with degree 2g+1 = 20,001; lcm(d, e) <= 10**12
# for de_construct, where lcm(10**6 - 1, 10**6 + 1) = 10**12 - 1 and lcm(10**6 + 1,
# 10**6 + 3) is past it.
COUNT_GENERA = (-1, 0, 3, enumeration.DATASETS_MAX_GENUS, enumeration.DATASETS_MAX_GENUS + 1)
COUNT_DEGREES = (-1, 2, 3, 799, 801, 803, 10**6 - 1)
EXISTENCE_GENERA = (-1, 0, 3, enumeration.GENUS_SET_MAX_GENUS,
                    enumeration.GENUS_SET_MAX_GENUS + 1)
EXISTENCE_DEGREES = COUNT_DEGREES + (2 * enumeration.GENUS_SET_MAX_GENUS + 1,
                                     2 * enumeration.GENUS_SET_MAX_GENUS + 3)
CONE_ORDERS = (-1, 2, 3, 10**6 - 1, 10**6 + 1, 10**6 + 3, numtheory.FACTOR_LIMIT - 1,
               numtheory.FACTOR_LIMIT + 1)
# Values too long to quote whole: 5,000 digits, past the interpreter's 4,300-digit limit on
# decimal conversion, and 100,000 characters
HUGE = 10**5000 - 1
LONG = "x" * 100_000
MESSAGE_LIMIT = 200  # characters, for the name and message of any refusal
# (function, arguments): the refusal of a huge value, as its name and the start of its
# message
HUGE_REFUSALS = {
    (enumeration.cone_multisets, (-HUGE, 3)):
        "RangeExceeded: degree must be odd and >= 3, got -<16610-bit integer>",
    (enumeration.cone_multisets, (HUGE + 1, 3)):
        "RangeExceeded: degree must be odd and >= 3, got <16610-bit integer>",
    (numtheory.bezout_avoiding_primes, (3, 5, frozenset([-HUGE]))):
        "PreconditionViolated: -<16610-bit integer> is not prime",
    (numtheory.bezout_avoiding_primes, (3, 5, frozenset([HUGE]))):
        "PreconditionViolated: avoided prime <16610-bit integer> exceeds",
    (dataset.DataSet, (LONG, 0, 1, 1, ())): "RangeExceeded: degree must be an integer, got 'xxx",
    (dataset.DataSet, (-HUGE, 0, 1, 1, ())): "RangeExceeded: degree must lie in [2, ",
    (dataset.DataSet, (3, HUGE, 1, 1, ())): "RangeExceeded: quotient genus must lie in [0, ",
}
LIBRARY_CALLS = (
    [(special_roots.class_count, args) for args in product(COUNT_GENERA, COUNT_DEGREES)]
    + [(special_roots.pair_table, args) for args in product(COUNT_GENERA, COUNT_DEGREES)]
    + [(enumeration.has_root, args) for args in product(EXISTENCE_GENERA, EXISTENCE_DEGREES)]
    + [(enumeration.genus_set, (n, g)) for g, n in product(EXISTENCE_GENERA, EXISTENCE_DEGREES)]
    + [(special_roots.de_construct, args) for args in product(CONE_ORDERS, CONE_ORDERS)]
    + list(HUGE_REFUSALS))


def _outcome(function, args):
    """"returned", or the documented exception that ``function`` refused with: its name,
    then ": " and its message."""
    try:
        function(*args)
    except (RangeExceeded, ClassCapExceeded, PreconditionViolated) as exc:
        return "%s: %s" % (type(exc).__name__, exc)
    return "returned"


def _refusal(outcome):
    return outcome.partition(":")[0]


def test_library_pairs_return_or_refuse_in_time(alarm):
    # any other exception fails the test; pair_table(400, 801), the slowest call, stops at
    # the class cap
    outcomes = {}
    for function, args in LIBRARY_CALLS:
        outcome = _limited(lambda: _outcome(function, args))
        assert outcome != OVERRAN, (function.__name__, args)
        assert len(outcome) < MESSAGE_LIMIT, outcome[:MESSAGE_LIMIT]
        outcomes[function.__name__, args] = outcome
    at_ceiling = [("class_count", (400, 801)), ("has_root", (10**4, 20001)),
                  ("genus_set", (20001, 10**4)), ("de_construct", (10**6 - 1, 10**6 + 1))]
    past_ceiling = [("pair_table", (401, 3)), ("class_count", (401, 803)),
                    ("has_root", (10**4 + 1, 801)), ("genus_set", (3, 10**4 + 1)),
                    ("de_construct", (10**6 + 1, 10**6 + 3))]
    assert {outcomes[call] for call in at_ceiling} == {"returned"}
    assert {_refusal(outcomes[call]) for call in past_ceiling} == {"RangeExceeded"}
    assert _refusal(outcomes["pair_table", (400, 801)]) == "ClassCapExceeded"
    for (function, args), refusal in HUGE_REFUSALS.items():
        outcome = outcomes[function.__name__, args]
        assert outcome.startswith(refusal), outcome


# The refusals of a huge value that the library sweep cannot make, as the exception is not
# one of its three or the value comes from the environment: (function, arguments,
# DEHN_ROOTS_CLASS_CAP or None, exception, the start of its message)
QUOTED_HUGE = {
    "mod_inverse_floor": (numtheory.mod_inverse, (3, -HUGE), None, ValueError,
                          "modulus must be >= 2, got -<16610-bit integer>"),
    "mod_inverse_unit": (numtheory.mod_inverse, (3, HUGE), None, NotAUnit,
                         "3 is not a unit mod <16610-bit integer> (gcd = 3)"),
    "crt_floor": (numtheory.crt, ([(0, -HUGE)],), None, ValueError,
                  "moduli must be >= 1, got -<16610-bit integer>"),
    "crt_coprime": (numtheory.crt, ([(0, 3), (0, HUGE)],), None, ModuliNotCoprime,
                    "modulus <16610-bit integer> is not coprime"),
    "BezoutWitness": (numtheory.BezoutWitness, (HUGE, 0, 1, 0), None, ValueError,
                      "not a Bezout identity: <BezoutWitness holding"),
    "BezoutWitness_negative": (numtheory.BezoutWitness, (-HUGE, 0, 1, 0), None, ValueError,
                               "not a Bezout identity: <BezoutWitness holding"),
    "class_cap_long": (enumeration.class_cap_from_env, (), LONG, RangeExceeded,
                       "DEHN_ROOTS_CLASS_CAP must be a positive integer, got 'xxx"),
    # an integer past the interpreter's 4,300-digit limit is named by its length, as
    # parse_dataset names it, not refused as malformed
    "class_cap_huge": (enumeration.class_cap_from_env, (), "9" * 5000, RangeExceeded,
                       "DEHN_ROOTS_CLASS_CAP of 5000 digits is too long"),
    "class_cap_negative": (enumeration.class_cap_from_env, (), "-" + "9" * 5000, RangeExceeded,
                           "DEHN_ROOTS_CLASS_CAP of 5000 digits is too long"),
    "primes_long": (cli._primes, (LONG,), None, argparse.ArgumentTypeError,
                    "expected comma-separated integers, got 'xxx"),
    "primes_huge": (cli._primes, ("9" * 5000,), None, argparse.ArgumentTypeError,
                    "integer of 5000 digits is too long"),
    "primes_negative": (cli._primes, ("-" + "9" * 5000,), None, argparse.ArgumentTypeError,
                        "integer of 5000 digits is too long"),
    "integer_long": (cli._integer, (LONG,), None, argparse.ArgumentTypeError,
                     "invalid int value: 'xxx"),
    "integer_huge": (cli._integer, ("9" * 5000,), None, argparse.ArgumentTypeError,
                     "integer of 5000 digits is too long"),
    "integer_negative": (cli._integer, ("-" + "9" * 5000,), None, argparse.ArgumentTypeError,
                         "integer of 5000 digits is too long"),
}


@pytest.mark.parametrize("function, args, cap, exception, start", QUOTED_HUGE.values(),
                         ids=list(QUOTED_HUGE))
def test_a_huge_value_is_refused_in_a_short_message(monkeypatch, function, args, cap,
                                                    exception, start):
    if cap is not None:
        monkeypatch.setenv(enumeration.CAP_ENV_VAR, cap)
    with pytest.raises(exception) as refused:
        function(*args)
    assert type(refused.value) is exception
    message = str(refused.value)
    assert message.startswith(start) and len(message) < MESSAGE_LIMIT, message[:MESSAGE_LIMIT]


# (argv, DEHN_ROOTS_CLASS_CAP or None, the end of stderr)
HUGE_ON_THE_COMMAND_LINE = {
    "class_cap": (["roots", "--genus", "3"], LONG,
                  "error: DEHN_ROOTS_CLASS_CAP must be a positive integer, got '%s'...\n"
                  % LONG[:40]),
    "class_cap_huge": (["roots", "--genus", "3"], "9" * 5000,
                       "error: DEHN_ROOTS_CLASS_CAP of 5000 digits is too long\n"),
    "primes": (["bezout-avoid", "--d1", "3", "--d2", "5", "--primes", "9" * 5000], None,
               "error: argument --primes: integer of 5000 digits is too long\n"),
    "genus": (["roots", "--genus", "9" * 5000], None,
              "error: argument --genus: integer of 5000 digits is too long\n"),
    "degree_negative": (["roots", "--genus", "3", "--degree", "-" + "9" * 5000], None,
                        "error: argument --degree: integer of 5000 digits is too long\n"),
    "positional": (["de-roots", "9" * 5000], None,
                   "error: argument genus: integer of 5000 digits is too long\n"),
    "format": (["roots", "--genus", "3", "--format", LONG], None,
               "error: argument --format: invalid choice: '%s'... (choose from 'text', 'json')\n"
               % LONG[:40]),
}


@pytest.mark.parametrize("argv, cap, end", HUGE_ON_THE_COMMAND_LINE.values(),
                         ids=list(HUGE_ON_THE_COMMAND_LINE))
def test_a_huge_value_on_the_command_line_exits_2_in_under_1_kb(monkeypatch, capsys, argv,
                                                                 cap, end):
    if cap is not None:
        monkeypatch.setenv(enumeration.CAP_ENV_VAR, cap)
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.encode()) < 1024, err[:1024]
    assert err.endswith(end), err[-200:]


def test_every_ceiling_names_a_swept_argument():
    # a renamed command or flag must not leave its ceiling unswept, and the sweep must find
    # every integer argument, so that a change of the parser's integer type cannot empty it
    swept = {(name, flag) for name, arguments in SWEPT for flag in _int_arguments(arguments)}
    assert set(CEILINGS) <= swept and len(swept) == 19


# The CLI pairs: for each command with two or more integer arguments, every pair of them
# drawn from 3, 10**6 - 1 and, where the README documents one, the argument's ceiling and
# one past it, odd for de-construct's orders: 10**12 - 1 at its lcm ceiling, 10**12 + 1 past
# it.  The other integers stay at 3.  Left out, as it does real work at a ceiling: ``roots
# --genus 400 --degree 3``, 9,045 classes, which test_enumeration lists against the
# independent count and test_cli runs in JSON under 256 MB.
ODD_ARGUMENTS = {("de-construct", "--d"), ("de-construct", "--e")}
PAIRS_LEFT_OUT = {("roots", "--genus", "400", "--degree", "3")}
# Past the genus ceiling, a degree above 2g+1 still answers at once with the empty list, by
# the theorem that no root has it (``datasets``, ``genus_set``): exit 0, not 2
EMPTY_PAST_A_CEILING = {("roots", "--genus", "401", "--degree", "999999"): "",
                        ("genus-set", "--degree", "999999", "--max-genus", "10001"): "[  ]\n"}
PAIRS_BUDGET_S = 5.0  # with BUDGET_S, within the 15 s of both sweeps


def _pair_values(name, flag):
    """(values, past): the values the pair sweep draws for an argument, as text, and the
    one of them past its ceiling, if it has one."""
    values, ceiling = [SMALL, str(10**6 - 1)], CEILINGS.get((name, flag))
    if ceiling is None:
        return values, None
    at, past = ceiling, ceiling + 1
    if (name, flag) in ODD_ARGUMENTS:
        at, past = at - (at % 2 == 0), past + (past % 2 == 0)
    return values + [str(at), str(past)], str(past)


def _pair_runs(tmp_path):
    """{argv: past a ceiling?} over every command's pairs, each command line once."""
    runs = {}
    for name, arguments in SWEPT:
        for first, second in combinations(_int_arguments(arguments), 2):
            (firsts, past_first), (seconds, past_second) = (
                _pair_values(name, first), _pair_values(name, second))
            for x, y in product(firsts, seconds):
                argv = tuple(_argv(name, arguments, {first: x, second: y}, tmp_path))
                runs[argv] = runs.get(argv, False) or x == past_first or y == past_second
    return runs


def test_pairs_of_extreme_integers_exit_with_a_documented_code(alarm, capsys, tmp_path):
    start = perf_counter()
    runs = _pair_runs(tmp_path)
    assert {argv[0] for argv in runs} == {"roots", "figure1", "genus-set", "de-construct",
                                          "fractional", "bezout-avoid"}
    assert PAIRS_LEFT_OUT | set(EMPTY_PAST_A_CEILING) <= set(runs)
    codes = set()
    for argv, past in runs.items():
        if argv in PAIRS_LEFT_OUT:
            continue
        code = _limited(lambda: cli.main(list(argv)))  # an exception past main fails here
        out, err = capsys.readouterr()
        assert code in (0, 2, 3, 4) and "Traceback" not in err, (argv, code)
        if argv in EMPTY_PAST_A_CEILING:
            assert (code, out) == (0, EMPTY_PAST_A_CEILING[argv]), argv
        elif past:  # past a ceiling: refused
            assert code == 2, (argv, code)
        codes.add(code)
    assert codes == {0, 2, 3}, codes  # figure1 past the class cap exits 3
    assert perf_counter() - start < PAIRS_BUDGET_S
