"""The boundary sweep: every integer argument of every command, read from ``cli.COMMANDS``,
at its extreme values, run through ``main`` in process with the other integer arguments
held at 3.  Each run must end in a documented exit code (0, 2, 3 or 4) without a
traceback.  A command added to the table is swept without being named here.  Values at a
ceiling that do real work stay with their own tests (``test_cli.py``).  The library's
counters and existence entry points are swept by pairs of arguments at and past their
ceilings, each call returning or refusing with a documented exception."""

import signal
from itertools import product
from time import perf_counter

import pytest

from dehnroots import cli, dataset, enumeration, fractional, numtheory, special_roots
from dehnroots.enumeration import ClassCapExceeded
from dehnroots.numtheory import PreconditionViolated, RangeExceeded

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
    return [flag for flag, keywords in arguments if keywords.get("type") is int]


SWEPT = [(name, arguments) for name, _, arguments, _, _ in cli.COMMANDS
         if _int_arguments(arguments)]


def _argv(name, arguments, swept, value, tmp_path):
    """The command line with ``value`` for the argument ``swept``, 3 for the other
    integers, and the other required arguments filled in."""
    argv = [name]
    for flag, keywords in arguments:
        if keywords.get("type") is int:
            text = value if flag == swept else SMALL
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
                argv = _argv(name, arguments, swept, value, tmp_path)
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
LIBRARY_CALLS = (
    [(special_roots.class_count, args) for args in product(COUNT_GENERA, COUNT_DEGREES)]
    + [(special_roots.pair_table, args) for args in product(COUNT_GENERA, COUNT_DEGREES)]
    + [(enumeration.has_root, args) for args in product(EXISTENCE_GENERA, EXISTENCE_DEGREES)]
    + [(enumeration.genus_set, (n, g)) for g, n in product(EXISTENCE_GENERA, EXISTENCE_DEGREES)]
    + [(special_roots.de_construct, args) for args in product(CONE_ORDERS, CONE_ORDERS)])


def _outcome(function, args):
    """"returned", or the name of the documented exception that ``function`` refused with."""
    try:
        function(*args)
    except (RangeExceeded, ClassCapExceeded, PreconditionViolated) as exc:
        return type(exc).__name__
    return "returned"


def test_library_pairs_return_or_refuse_in_time(alarm):
    # any other exception fails the test; pair_table(400, 801), the slowest call, stops at
    # the class cap
    outcomes = {}
    for function, args in LIBRARY_CALLS:
        outcome = _limited(lambda: _outcome(function, args))
        assert outcome != OVERRAN, (function.__name__, args)
        outcomes[function.__name__, args] = outcome
    at_ceiling = [("class_count", (400, 801)), ("has_root", (10**4, 20001)),
                  ("genus_set", (20001, 10**4)), ("de_construct", (10**6 - 1, 10**6 + 1))]
    past_ceiling = [("pair_table", (401, 3)), ("class_count", (401, 803)),
                    ("has_root", (10**4 + 1, 801)), ("genus_set", (3, 10**4 + 1)),
                    ("de_construct", (10**6 + 1, 10**6 + 3))]
    assert {outcomes[call] for call in at_ceiling} == {"returned"}
    assert {outcomes[call] for call in past_ceiling} == {"RangeExceeded"}
    assert outcomes["pair_table", (400, 801)] == "ClassCapExceeded"


def test_every_ceiling_names_a_swept_argument():
    # a renamed command or flag must not leave its ceiling unswept
    swept = {(name, flag) for name, arguments in SWEPT for flag in _int_arguments(arguments)}
    assert set(CEILINGS) <= swept
