"""The boundary sweep: every integer argument of every command, read from ``cli.COMMANDS``,
at its extreme values, run through ``main`` in process with the other integer arguments
held at 3.  Each run must end in a documented exit code (0, 2, 3 or 4) without a
traceback.  A command added to the table is swept without being named here.  Values at a
ceiling that do real work stay with their own tests (``test_cli.py``)."""

import signal
from time import perf_counter

from dehnroots import cli, dataset, enumeration, fractional, numtheory, special_roots

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


def test_extreme_integers_exit_with_a_documented_code(capsys, tmp_path):
    start, previous = perf_counter(), signal.signal(signal.SIGALRM, _overran)
    try:
        for name, arguments in SWEPT:
            for swept in _int_arguments(arguments):
                ceiling = CEILINGS.get((name, swept))
                past = () if ceiling is None else (str(ceiling + 1),)
                for value in EXTREMES + past:
                    argv = _argv(name, arguments, swept, value, tmp_path)
                    shown = " ".join(arg if len(arg) < 20 else arg[:8] + "..." for arg in argv)
                    signal.setitimer(signal.ITIMER_REAL, RUN_LIMIT_S)
                    try:  # an exception past main is a traceback, and fails here
                        code = cli.main(argv)
                    except _Overran:  # fails below, away from the handler's frame
                        code = "past %s s" % RUN_LIMIT_S
                    finally:
                        signal.setitimer(signal.ITIMER_REAL, 0)
                    assert code in (0, 2, 3, 4), (shown, code)
                    assert "Traceback" not in capsys.readouterr().err, shown
                    assert code == 2 or value not in past, shown  # past a ceiling: refused
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert perf_counter() - start < BUDGET_S


def test_every_ceiling_names_a_swept_argument():
    # a renamed command or flag must not leave its ceiling unswept
    swept = {(name, flag) for name, arguments in SWEPT for flag in _int_arguments(arguments)}
    assert set(CEILINGS) <= swept
