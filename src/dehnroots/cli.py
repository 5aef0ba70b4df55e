"""Command-line interface, driven by one table.

Each row of ``COMMANDS`` is a subcommand: name, help text, arguments (name
or flag and ``add_argument`` keywords), the library query run on the parsed
arguments, and the printer for the query's output shape.  ``build_parser``
adds one subparser per row, and ``main`` parses with one such parser built
once per process, then runs the query and the printer.
Queries call the library through module attributes looked up at call time
(``special_roots.de_roots``), so a wrapper set on one sees every call.
``roots`` is ``enumeration.datasets`` itself: without ``--degree`` it lists
every odd degree up to 2g+1, and counts each against the class cap before
it builds a class, so a cap failure leaves stdout empty.

Integer lists print in the classic GAP transcript shape (``[ 45476, 45477 ]``,
empty ``[  ]``), cut from the list's one ``repr``, which is also its JSON, and
class lists one data set per line; ``--format json``
switches every query except ``figure1``, which writes the pair table as CSV.
Class listings (``roots``, ``ms-roots``) write the bytes ``json.dumps(docs,
indent=2)`` or ``format_dataset`` gives, one join of template parts and one
write per 16,384 classes, so their memory does not grow with the listing.  A
chunk goes a block of classes with one (n, g0, a, b) at a time: each block's
head is formatted once, each cone pair's form once per listing, and each JSON
tag once per cone-order shape (``classify`` on its first class; on every class
in cell (3, 3), of the cube root).  The other multi-line JSON (``de-construct``,
``fractional``, ``validate``) comes from ``json.dumps(value, indent=2)`` itself.
Exit codes: 0 success, 2 usage problems (argparse errors and the library's
ParseError, RangeExceeded and PreconditionViolated), 3 class cap exceeded,
4 output I/O failure.  DEHN_ROOTS_CLASS_CAP overrides the enumeration cap.
"""

import argparse
import json
import sys
from functools import cache, partial
from itertools import groupby
from operator import itemgetter

from . import enumeration, fractional, numtheory, special_roots
from .dataset import (_CONE_TEXT_FORM, _TEXT_FORM, ParseError, RangeExceeded, format_dataset,
                      parse_dataset, validate)
from .enumeration import ClassCapExceeded, class_cap_from_env
from .numtheory import PreconditionViolated

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
_TEXT_LINE = _TEXT_FORM + "\n"
_TEXT_HEAD, _TEXT_END = _TEXT_LINE.split("%s")  # the text line cut around its cones


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


def _print_classes(classes, args, blocks=True):
    """``json.dumps(docs, indent=2)`` or ``format_dataset`` lines of the ``DataSet``s, one
    join of parts and one write per ``_CLASSES_PER_WRITE`` classes, so neither the text
    nor its encoded copy grows with the listing.  Per block of one (n, g0, a, b) in a
    chunk: its head, once, then per class the cones and the close.  A JSON close holds
    the tag, classified once per shape (g0 = 0, cone count, all of order n, as the first
    is; ``special_roots._shape_tag``), but per class in cell (3, 3), of the cube root.
    ``ms-roots`` has one class per block: there (no ``blocks``) a text line is one
    format, which costs less than grouping."""
    cone = _Forms(_CONE_JSON if args.format == "json" else _CONE_TEXT_FORM).__getitem__
    closes, write, chunks = {}, sys.stdout.write, range(0, len(classes), _CLASSES_PER_WRITE)
    if args.format == "json" and not chunks:
        write("[]\n")
    for start in chunks:
        chunk = classes[start:start + _CLASSES_PER_WRITE]
        if args.format == "json":  # every class listed has the asked genus
            parts = []
            for (n, g0, a, b), block in groupby(chunk, itemgetter(0, 1, 2, 3)):
                head = _CLASS_HEAD % (n, g0, a, b)
                for ds in block:
                    cones = ds[4]
                    shape = ds if n == 3 == args.genus else (g0 == 0, len(cones), cones[0][1] == n)
                    if shape not in closes:
                        closes[shape] = _CLASS_CLOSE % (args.genus, special_roots.classify(ds))
                    parts += head, ",".join(map(cone, cones)), closes[shape]
            if start == chunks[0]:
                parts[0] = "[" + parts[0][1:]  # the list opens in place of the first comma
            if start == chunks[-1]:
                parts.append("\n]\n")
        elif blocks:
            parts = [part for prefix, block in groupby(chunk, itemgetter(0, 1, 2, 3))
                     for head in (_TEXT_HEAD % prefix,)
                     for ds in block for part in (head, ", ".join(map(cone, ds[4])), _TEXT_END)]
        else:
            parts = [_TEXT_LINE % (n, g0, a, b, ", ".join(map(cone, cones)))
                     for n, g0, a, b, cones in chunk]
        write("".join(parts))


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


_CSV_CHUNK = 1 << 16


def _write_csv(rows, args):
    """The pair table as CSV, one tag per class: each row's (tag, classes) pairs go out
    in writes of at most ``_CSV_CHUNK`` tags, so no string grows with a cell's class count."""
    try:
        with open(args.output, "w", newline="") as handle:
            write = handle.write
            write("g,n,classes,tags\n")
            for row in rows:  # the first tag, then "+tag" for every further class
                write("%d,%d,%d,%s" % (row.genus, row.degree, row.class_count, row.tags[0][0]))
                for i, (tag, k) in enumerate(row.tags):
                    more = "+" + tag
                    for left in range(k - (i == 0), 0, -_CSV_CHUNK):
                        write(more * min(left, _CSV_CHUNK))
                write("\n")
    except OSError as exc:
        print("cannot write %s: %s" % (args.output, exc), file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _validated(text):
    ds = parse_dataset(text)
    return ds, validate(ds)


def _primes(text):
    try:
        return {int(chunk) for chunk in text.split(",") if chunk.strip()}
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated integers, got %r" % text)


def _int(name):
    """An integer positional, or a required integer flag."""
    return name, {"type": int, "required": True} if name.startswith("--") else {"type": int}


_FORMAT = ("--format", {"choices": ("text", "json"), "default": "text"})

# (name, help, arguments, query, printer); a printer returns an exit code or None for 0
COMMANDS = (
    ("roots", "root classes for a genus (and optional degree)",
     (_int("--genus"), ("--degree", {"type": int, "default": None}), _FORMAT),
     lambda a: enumeration.datasets(a.genus, a.degree, class_cap_from_env()), _print_classes),
    ("de-roots", "degrees of (d,e)-roots for a genus", (_int("genus"), _FORMAT),
     lambda a: special_roots.de_roots(a.genus), _print_int_list),
    ("de-root-genera", "genera with a (d,e)-root of this degree", (_int("degree"), _FORMAT),
     lambda a: special_roots.de_root_genera(a.degree), _print_int_list),
    ("figure1", "export the populated (g, n) table as CSV",
     (_int("--max-genus"), _int("--max-degree"), ("--output", {"required": True})),
     lambda a: special_roots.pair_table(a.max_genus, a.max_degree, class_cap_from_env()),
     _write_csv),
    ("t-set", "genera excluded from primary-root existence", (_int("--degree"), _FORMAT),
     lambda a: special_roots.t_set(a.degree), _print_int_list),
    ("genus-set", "genera with a root of the given degree",
     (_int("--degree"), _int("--max-genus"), _FORMAT),
     lambda a: enumeration.genus_set(a.degree, a.max_genus), _print_int_list),
    ("root-set", "degrees of roots for a genus", (_int("--genus"), _FORMAT),
     lambda a: enumeration.root_degrees(a.genus), _print_int_list),
    ("ms-roots", "maximal-degree root classes for a genus", (_int("--genus"), _FORMAT),
     lambda a: special_roots.ms_roots(a.genus), partial(_print_classes, blocks=False)),
    ("ms-count", "count maximal-degree roots of a degree", (_int("--degree"), _FORMAT),
     lambda a: special_roots.ms_count(a.degree), _print_count),
    ("de-construct", "build a (d,e)-root data set", (_int("--d"), _int("--e"), _FORMAT),
     lambda a: special_roots.de_construct(a.d, a.e), _print_dataset),
    ("fractional", "candidates for roots of twist powers",
     (_int("--genus"), _int("--degree"), _int("--power"), _FORMAT),
     lambda a: fractional.fractional_datasets(a.genus, a.degree, a.power, class_cap_from_env()),
     _print_candidates),
    ("bezout-avoid", "Bezout coefficients avoiding primes",
     (_int("--d1"), _int("--d2"), ("--primes", {"type": _primes, "default": ""}), _FORMAT),
     lambda a: numtheory.bezout_avoiding_primes(a.d1, a.d2, a.primes), _print_witness),
    ("validate", "validate a data set in text form", (("dataset", {}), _FORMAT),
     lambda a: _validated(a.dataset), _print_report),
)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dehn-roots",
        description="Roots of Dehn twists about nonseparating curves: "
        "enumerate and classify root classes by genus and degree.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
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
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.printer(args.query(args), args) or EXIT_OK
    except ClassCapExceeded as exc:
        print("class cap exceeded: %s" % exc, file=sys.stderr)
        return EXIT_CAP
    except (ParseError, RangeExceeded, PreconditionViolated) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print("I/O error: %s" % exc, file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
