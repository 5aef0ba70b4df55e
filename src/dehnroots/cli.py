"""Command-line interface, driven by one table.

Each row of ``COMMANDS`` is a subcommand: name, help text, arguments (name
or flag and ``add_argument`` keywords), the library query run on the parsed
arguments, and the name of the printer for the query's output shape.
``build_parser`` adds one subparser per row, and ``main`` parses with one
such parser built once per process, then runs the query and the printer with
the cyclic collector paused: a listing builds millions of acyclic tuples, which
a collection only re-traverses and never frees.  ``main`` enables it again on
every way out, exit code or exception, if it was enabled when ``main`` began.
Queries call the library through module attributes looked up at call time
(``special_roots.de_roots``), and ``main`` looks the printer up by its name
in this module, so a wrapper set on either sees every call.
``roots`` is ``enumeration.datasets`` itself: without ``--degree`` it lists
every odd degree up to 2g+1, and counts each against the class cap before
it builds a class, so a cap failure leaves stdout empty.

Integer lists print in the classic GAP transcript shape (``[ 45476, 45477 ]``,
empty ``[  ]``), cut from the list's one ``repr``, which is also its JSON, and
class lists one data set per line; ``--format json``
switches every query except ``figure1``, which writes the pair table as CSV:
bytes through a 1 MiB buffer, one raw write per MiB, each run of one tag as
slices of 2^12 copies of it, so its memory does not follow the classes.
Class listings (``roots``, ``ms-roots``) write the bytes ``json.dumps(docs,
indent=2)`` or ``format_dataset`` gives, one join of template parts and one
write per 16,384 classes, or sooner once their cones pass 2^24 characters, so
their memory does not grow with the listing.  A
chunk goes a block of classes with one (n, g0, a, b) at a time: each block's
head is formatted once, each cone pair's form once per listing, and each JSON
tag once per cone-order shape (``classify`` on its first class); a text block
is one join of its classes' cones.  The line form is read off the degree: a
listing rises in degree, and every class of degree 2g+1 has one cone, no two
alike, so a text chunk that opens at 2g+1 (all of ``ms-roots``) writes each
line as one format of six integers.  The other multi-line JSON (``de-construct``,
``fractional``, ``validate``) comes from ``json.dumps(value, indent=2)`` itself.
Exit codes: 0 success, 2 usage problems (argparse errors and the library's
ParseError, RangeExceeded and PreconditionViolated), 3 class cap exceeded,
4 output I/O failure.  DEHN_ROOTS_CLASS_CAP overrides the enumeration cap.
"""

import argparse
import gc
import json
import sys
from functools import cache
from itertools import groupby
from operator import itemgetter

from . import enumeration, fractional, numtheory, special_roots
from .dataset import (_CONE_TEXT_FORM, _TEXT_FORM, ParseError, RangeExceeded, _read_int,
                      format_dataset, parse_dataset, validate)
from .enumeration import ClassCapExceeded, class_cap_from_env
from .numtheory import PreconditionViolated, _show

__all__ = ["COMMANDS", "build_parser", "main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_IO = 4


def _dataset_json(ds, **extra):
    cones = [[c, order] for c, order in ds.cones]
    return dict(degree=ds.degree, g0=ds.quotient_genus, a=ds.a, b=ds.b, cones=cones,
                genus=ds.genus, **extra)


def _tagged_json(ds):
    return _dataset_json(ds, tag=str(special_roots.classify(ds)))


def _print_int_list(values, args):
    text = repr(list(values))
    print(text if args.format == "json" else "[ " + text[1:-1] + " ]")


# json.dumps(docs, indent=2) of one class document inside the top-level list, cut around
# its cones: the head, with the comma before every document but the first, and the close;
# and of one cone pair inside its "cones".  A listed class has a cone (condition IV),
# and its tag, a plain identifier, needs no escape.
_CLASS_HEAD = (',\n  {\n    "degree": %d,\n    "g0": %d,\n    "a": %d,\n    "b": %d,'
               '\n    "cones": [')
_CLASS_CLOSE = '\n    ],\n    "genus": %d,\n    "tag": "%s"\n  }'
_CONE_JSON = "\n      [\n        %d,\n        %d\n      ]"
_TEXT_HEAD, _TEXT_END = (_TEXT_FORM + "\n").split("%s")  # the text line cut around its cones
_ONE_CONE_TEXT = _TEXT_HEAD + _CONE_TEXT_FORM + _TEXT_END  # the line of a class with one cone


class _Forms(dict):
    """pair -> ``form % pair``, made once per distinct pair of a listing."""

    def __init__(self, form):
        self.form = form

    def __missing__(self, pair):
        self[pair] = text = self.form % pair
        return text


# About 2^16 parts, 6-10 MB of JSON: a genus-36 listing (15,788 classes) is still one
# write, which a StringIO keeps without a copy, and a larger one holds a chunk at a time.
_CLASSES_PER_WRITE = 1 << 14
# A chunk is also cut once its cones pass 2^24 characters: the 9,045 classes of genus 400,
# degree 3 hold up to 400 cones each, 93 MB of JSON, which 16,384 classes would keep whole.
_CHARS_PER_WRITE = 1 << 24


def _print_classes(classes, args):
    """``json.dumps(docs, indent=2)`` or ``format_dataset`` lines of the ``DataSet``s, one
    join of parts and one write per ``_CLASSES_PER_WRITE`` classes, and sooner once the
    cones gathered since the last write pass ``_CHARS_PER_WRITE`` characters, so neither
    the text nor its encoded copy grows with the listing.  Per block of one (n, g0, a, b)
    in a chunk: its head, once, then per class the cones and the close; a text block is one
    join of its classes' cone texts, each between the close and the head.  A JSON close
    holds the tag, classified once per shape (g0 = 0, cone count, all of order n, as the
    first is, the shape ``special_roots.classify`` reads); in a genus-3 listing the shape of
    three cones of order n is the cube root's alone, as 3(n-1)/2 = 3 forces n = 3.  A listing
    rises to degree 2g+1, whose classes (n, 0, (a,b); (-a-b, n)) are the Margalit-Schleimer
    roots, so a text chunk that opens at that degree holds one cone per class, no two alike:
    there a line is one format of its six integers, without a cone table."""
    cone = _Forms(_CONE_JSON if args.format == "json" else _CONE_TEXT_FORM).__getitem__
    closes, write, chunks = {}, sys.stdout.write, range(0, len(classes), _CLASSES_PER_WRITE)
    if args.format == "json" and not chunks:
        write("[]\n")
    parts, size, opening = [], 0, "[" if args.format == "json" else ""

    def flush():
        """Write the parts gathered since the last write; the JSON list opens in place of
        the first comma of the first write."""
        nonlocal parts, size, opening
        if opening:
            parts[0], opening = opening + parts[0][1:], ""
        write("".join(parts))
        parts, size = [], 0

    for start in chunks:
        chunk = classes[start:start + _CLASSES_PER_WRITE]
        if args.format == "json":  # every class listed has the asked genus
            for (n, g0, a, b), block in groupby(chunk, itemgetter(0, 1, 2, 3)):
                head = _CLASS_HEAD % (n, g0, a, b)
                for ds in block:
                    cones = ds[4]
                    shape = (g0 == 0, len(cones), cones[0][1] == n)
                    if shape not in closes:
                        closes[shape] = _CLASS_CLOSE % (args.genus, special_roots.classify(ds))
                    text = ",".join(map(cone, cones))
                    parts += head, text, closes[shape]
                    size += len(text)
                    if size > _CHARS_PER_WRITE:
                        flush()
            if start == chunks[-1]:
                parts.append("\n]\n")
        elif chunk[0][0] == 2 * args.genus + 1:
            parts = [_ONE_CONE_TEXT % (n, g0, a, b, c, d)
                     for n, g0, a, b, ((c, d),) in chunk]
        else:
            for prefix, block in groupby(chunk, itemgetter(0, 1, 2, 3)):
                head = _TEXT_HEAD % prefix
                text = (_TEXT_END + head).join([", ".join(map(cone, ds[4])) for ds in block])
                parts += head, text, _TEXT_END
                size += len(text)
                if size > _CHARS_PER_WRITE:
                    flush()
        if parts:
            flush()


def _print_count(count, args):
    print(count)  # an integer reads the same as text and as JSON


def _print_dataset(ds, args):
    print(json.dumps(_tagged_json(ds), indent=2) if args.format == "json" else format_dataset(ds))


def _print_candidates(candidates, args):
    if args.format == "json":  # candidates are not classified: no tag
        docs = [_dataset_json(ds, power=ds.power, power_shares_factor=ds.power_shares_factor)
                for ds in candidates]
        print(json.dumps(docs, indent=2))
    else:
        for ds in candidates:
            caveat = "yes" if ds.power_shares_factor else "no"
            print("%s\tpower=%d\tgcd_caveat=%s" % (format_dataset(ds), ds.power, caveat))


def _print_witness(w, args):
    doc = {"c1": w.c1, "c2": w.c2, "d1": w.d1, "d2": w.d2}
    print(json.dumps(doc) if args.format == "json" else "c1 = %d, c2 = %d" % (w.c1, w.c2))


def _print_report(checked, args):
    ds, report = checked
    if args.format == "json":
        violations = [{"condition": v.condition, "detail": v.detail} for v in report.violations]
        doc = {"valid": report.valid, "violations": violations}
        if report.valid:
            doc.update(genus=ds.genus, degree=ds.degree)
        print(json.dumps(doc, indent=2))
    elif report.valid:
        print("valid; genus %d; degree %d" % (ds.genus, ds.degree))
    else:
        details = "; ".join("%s: %s" % (v.condition, v.detail) for v in report.violations)
        print("invalid; " + details)


# One raw write per MiB of CSV: the 2.56 MB of figure1 48x33 go out in 3
_CSV_BUFFER = 1 << 20
_RUN_WIDTH = 1 << 12  # the most tags one write holds; the copies of all five take 213 KB


def _write_csv(rows, args):
    """The pair table as CSV, one tag per class, written as bytes through a buffer of
    ``_CSV_BUFFER`` bytes.  Every tag is ASCII, so the bytes are those of the text.
    Per call, each tag gets one memoryview of ``_RUN_WIDTH`` copies of ``b"+TAG"``; a
    row's (tag, classes) runs go out as slices of it, so no bytes object grows with a
    cell's class count.  A write error that surfaces only at the final flush, as the file
    closes, is raised inside the ``try`` too, and exits 4."""
    runs = {tag: memoryview(("+" + tag).encode() * _RUN_WIDTH) for tag in special_roots.RootTag}
    try:
        with open(args.output, "wb", buffering=_CSV_BUFFER) as handle:
            write = handle.write
            write(b"g,n,classes,tags\n")
            for row in rows:  # the first tag, then "+TAG" for every further class
                write(b"%d,%d,%d,%s" % (row.genus, row.degree, row.class_count,
                                        row.tags[0][0].encode()))
                for i, (tag, k) in enumerate(row.tags):
                    run, width = runs[tag], len(tag) + 1
                    for left in range(k - (i == 0), 0, -_RUN_WIDTH):
                        write(run[:min(left, _RUN_WIDTH) * width])
                write(b"\n")
    except OSError as exc:
        print("cannot write %s: %s" % (args.output, exc), file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _primes(text):
    malformed = "expected comma-separated integers, got %s" % _show(text)
    return {_read_int(chunk, argparse.ArgumentTypeError, malformed)
            for chunk in text.split(",") if chunk.strip()}


def _integer(text):
    """The parser's integer type: a refusal quotes the text through ``_show``."""
    return _read_int(text, argparse.ArgumentTypeError, "invalid int value: %s" % _show(text))


def _int(name):
    """An integer positional, or a required integer flag."""
    return name, {"type": _integer} | ({"required": True} if name.startswith("--") else {})


_FORMAT = ("--format", {"choices": ("text", "json"), "default": "text"})

# (name, help, arguments, query, printer): the printer is named, and main looks it up when it
# runs; it returns an exit code or None for 0
COMMANDS = (
    ("roots", "root classes for a genus (and optional degree)",
     (_int("--genus"), ("--degree", {"type": _integer, "default": None}), _FORMAT),
     lambda a: enumeration.datasets(a.genus, a.degree, class_cap_from_env()), "_print_classes"),
    ("de-roots", "degrees of (d,e)-roots for a genus", (_int("genus"), _FORMAT),
     lambda a: special_roots.de_roots(a.genus), "_print_int_list"),
    ("de-root-genera", "genera with a (d,e)-root of this degree", (_int("degree"), _FORMAT),
     lambda a: special_roots.de_root_genera(a.degree), "_print_int_list"),
    ("figure1", "export the populated (g, n) table as CSV",
     (_int("--max-genus"), _int("--max-degree"), ("--output", {"required": True})),
     lambda a: special_roots.pair_table(a.max_genus, a.max_degree, class_cap_from_env()),
     "_write_csv"),
    ("t-set", "genera excluded from primary-root existence", (_int("--degree"), _FORMAT),
     lambda a: special_roots.t_set(a.degree), "_print_int_list"),
    ("genus-set", "genera with a root of the given degree",
     (_int("--degree"), _int("--max-genus"), _FORMAT),
     lambda a: enumeration.genus_set(a.degree, a.max_genus), "_print_int_list"),
    ("root-set", "degrees of roots for a genus", (_int("--genus"), _FORMAT),
     lambda a: enumeration.root_degrees(a.genus), "_print_int_list"),
    ("ms-roots", "maximal-degree root classes for a genus", (_int("--genus"), _FORMAT),
     lambda a: special_roots.ms_roots(a.genus), "_print_classes"),
    ("ms-count", "count maximal-degree roots of a degree", (_int("--degree"), _FORMAT),
     lambda a: special_roots.ms_count(a.degree), "_print_count"),
    ("de-construct", "build a (d,e)-root data set", (_int("--d"), _int("--e"), _FORMAT),
     lambda a: special_roots.de_construct(a.d, a.e), "_print_dataset"),
    ("fractional", "candidates for roots of twist powers",
     (_int("--genus"), _int("--degree"), _int("--power"), _FORMAT),
     lambda a: fractional.fractional_datasets(a.genus, a.degree, a.power, class_cap_from_env()),
     "_print_candidates"),
    ("bezout-avoid", "Bezout coefficients avoiding primes",
     (_int("--d1"), _int("--d2"), ("--primes", {"type": _primes, "default": ""}), _FORMAT),
     lambda a: numtheory.bezout_avoiding_primes(a.d1, a.d2, a.primes), "_print_witness"),
    ("validate", "validate a data set in text form", (("dataset", {}), _FORMAT),
     lambda a: (ds := parse_dataset(a.dataset), validate(ds)), "_print_report"),
)


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` whose invalid-choice message quotes the choices on every
    Python, as 3.11 does (3.13 lists them bare); its subparsers are of this class too."""

    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            raise argparse.ArgumentError(action, "invalid choice: %s (choose from %s)" % (
                _show(value), ", ".join(map(repr, action.choices))))


def build_parser():
    """One subparser per ``COMMANDS`` row.  The top-level usage is the program's own, as
    Python 3.11 wraps it (3.13 keeps the "..." on the line of the command names)."""
    parser = _Parser(
        prog="dehn-roots",
        usage="%(prog)s [-h]\n{0}{{{1}}}\n{0}...".format(
            " " * len("usage: dehn-roots "), ",".join(row[0] for row in COMMANDS)),
        description="Roots of Dehn twists about nonseparating curves: "
        "enumerate and classify root classes by genus and degree.",
    )
    # the subcommands' prog, which argparse would otherwise cut from the usage above
    sub = parser.add_subparsers(dest="command", required=True, prog=parser.prog)
    for name, summary, arguments, query, printer in COMMANDS:
        p = sub.add_parser(name, help=summary)
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
        p.set_defaults(query=query, printer=printer)
    return parser


@cache
def _parser():
    """The parser ``main`` uses, built on the first call; parsing leaves no state in it."""
    return build_parser()


def main(argv=None):
    """Parse ``argv``, run its query and printer, and return the exit code.  The cyclic
    collector is paused for the query and the printer, which leave no cycle behind, so a
    collection would free nothing and only re-traverse every class built so far; the
    ``finally`` enables it again if it was enabled on the way in."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    collecting = gc.isenabled()
    gc.disable()
    try:
        return globals()[args.printer](args.query(args), args) or EXIT_OK
    except ClassCapExceeded as exc:
        print("class cap exceeded: %s" % exc, file=sys.stderr)
        return EXIT_CAP
    except (ParseError, RangeExceeded, PreconditionViolated) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print("I/O error: %s" % exc, file=sys.stderr)
        return EXIT_IO
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
