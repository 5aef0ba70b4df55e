"""The data-set record for roots of Dehn twists, with validation and text I/O.

A data set is a tuple (n, g0, (a,b); (c1,n1), ..., (cm,nm)) of integers
subject to four conditions:

  (I)    each cone order n_i divides the degree n,
  (II)   a, b are units mod n and each c_i is a unit mod n_i,
  (III)  a + b = a*b (mod n),
  (IV)   a + b + sum_i (n/n_i)*c_i = 0 (mod n).

Such tuples classify, up to conjugacy, the degree-n roots of the Dehn
twist about a nonseparating curve in the closed orientable surface of
genus g+1, where the genus of the data set is

    g = g0*n + (1/2) * sum_i (n/n_i)*(n_i - 1).

Two data sets are the same root class if they differ by swapping a and b,
changing residues mod their moduli, or reordering the cone pairs.  The
``DataSet`` constructor reduces every residue and sorts the cone pairs,
so equal canonical forms compare equal and structural equality is class
equivalence.  Every record here is a ``namedtuple``: it unpacks and equals the
plain tuple of its fields, so a ``DataSet`` is literally (n, g0, a, b, cones).
``_replace``, ``_make`` and unpickling rebuild a data set through its checks;
``tuple.__new__`` (``_canonical``) is the one path that skips them.

Conditions (II) and (III) force n odd, and (III) with (IV) force at least
one cone pair; ``validate`` reports these as violations of III and IV.
Replacing (III) by a + b = l*a*b (mod n) for an integer power l >= 1
yields candidate data sets for roots of the l-th power of the twist
(``FractionalDataSet``); even degrees become possible once l is even.

The text form ``(n, g0, (a,b); (c1,n1), ...)`` is printed by ``format_dataset``
and read by ``parse_dataset`` in three steps: ``_TOKEN`` splits the text into
integers of ASCII digits and the punctuation ``(),;`` (anything else but
whitespace is an error, which quotes at most 40 characters of it), the one
pattern ``_FORM`` matches the token kinds with every integer read as ``i``,
and the integers then fill the ``DataSet`` constructor, which checks their
ranges.  The grammar is regular, so no parser state is kept.
"""

import re
from collections import namedtuple
from functools import partial

from .numtheory import RangeExceeded, _checked_make, _show, gcd

__all__ = [
    "DataSet",
    "FractionalDataSet",
    "ValidationReport",
    "Violation",
    "ParseError",
    "validate",
    "stabilize",
    "format_dataset",
    "parse_dataset",
]

# Documented ceiling on degrees and stored integers; matches the factoring range.
VALUE_LIMIT = 10**12


class ParseError(ValueError):
    """The text form of a data set could not be parsed."""


def _check_range(name, value, low):
    if not isinstance(value, int) or isinstance(value, bool):
        raise RangeExceeded("%s must be an integer, got %r" % (name, value))
    if value < low or value > VALUE_LIMIT:
        raise RangeExceeded(
            "%s must lie in [%d, %d], got %s" % (name, low, VALUE_LIMIT, _show(value))
        )


def _checked(degree, quotient_genus, a, b, cones):
    """The five fields of a data set, range-checked and in canonical form."""
    _check_range("degree", degree, 2)
    _check_range("quotient genus", quotient_genus, 0)
    _check_range("a", a, -VALUE_LIMIT)
    _check_range("b", b, -VALUE_LIMIT)
    a, b = a % degree, b % degree
    if a > b:
        a, b = b, a
    pairs = []
    for pair in cones:
        try:
            c, order = pair
        except (TypeError, ValueError):
            raise RangeExceeded("cone pairs must be (residue, order), got %s" % _show(pair))
        _check_range("cone order", order, 2)
        _check_range("cone residue", c, -VALUE_LIMIT)
        pairs.append((c % order, order))
    pairs.sort(key=lambda p: (p[1], p[0]))
    return degree, quotient_genus, a, b, tuple(pairs)


class DataSet(namedtuple("DataSet", "degree quotient_genus a b cones")):
    """A data-set tuple (degree, quotient_genus, a, b, cones) in canonical form.

    ``degree`` is n >= 2 and ``quotient_genus`` is g0 >= 0; the twist pair ``a`` <= ``b``
    is reduced mod n; ``cones`` holds the cone pairs (c_i, n_i), each c_i reduced mod its
    order n_i >= 2, sorted by (n_i, c_i).  Construction enforces only ranges; the
    arithmetic conditions are ``validate``'s job, so invalid candidates can be built
    and inspected.

    A data set is an immutable tuple of its five fields, read by name or by
    unpacking: ``len`` is 5, it hashes, compares and sorts as the plain tuple
    of its fields, and equals that tuple.  ``_replace``, ``_make``, pickling
    and copying all rebuild through the checks.  ``tuple.__new__`` is the one
    path that skips the range checks and the reduction (``_canonical``); only
    the listings of ``enumeration`` (``datasets``, ``primary_datasets``) and
    ``special_roots.ms_roots`` may take it, with tuples they build in
    canonical form.
    """

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, degree, quotient_genus, a, b, cones):
        return tuple.__new__(cls, _checked(degree, quotient_genus, a, b, cones))

    @property
    def genus(self):
        """Genus g = g0*n + (1/2) sum (n/n_i)(n_i - 1); an exact integer."""
        n = self.degree
        twice = sum((n // order) * (order - 1) for _, order in self.cones)
        if twice % 2:
            raise ValueError("cone weights of %s do not sum to an integer genus" % (self,))
        return self.quotient_genus * n + twice // 2

    def __str__(self):
        return format_dataset(self)


# The DataSet of a tuple (degree, g0, a, b, cones) already in canonical form (in range,
# a <= b reduced mod degree, cones reduced and sorted), unchecked: the class is bound
# here, so a wrapper set later on the name ``DataSet`` is not called, and the cone
# pairs are kept as given, so shared pairs stay shared
_canonical = partial(tuple.__new__, DataSet)


class FractionalDataSet(namedtuple("FractionalDataSet", DataSet._fields + ("power",)), DataSet):
    """A data-set candidate for a root of the power-l twist (condition III
    becomes a + b = l*a*b mod n): the 6-tuple of a data set's fields and
    ``power``, the power l >= 1 of the twist.  For power 1 this is an ordinary data set."""

    __slots__ = ()
    _make = _checked_make  # the namedtuple base precedes DataSet, and its _make with it

    def __new__(cls, degree, quotient_genus, a, b, cones, power=1):
        fields = _checked(degree, quotient_genus, a, b, cones)
        _check_range("power", power, 1)
        return tuple.__new__(cls, fields + (power,))

    @property
    def power_shares_factor(self):
        """True when gcd(power, degree) > 1: the candidate may describe a
        power of a root of a smaller twist power rather than a new root."""
        return gcd(self.power, self.degree) > 1


Violation = namedtuple("Violation", "condition detail")
Violation.__doc__ = """A violated ``condition`` ("I", "II", "III" or "IV") and its ``detail``."""


class ValidationReport(namedtuple("ValidationReport", "valid violations")):
    """Whether a data set is ``valid``, and the tuple of its ``violations``."""

    __slots__ = ()

    def conditions(self):
        """The set of violated condition labels."""
        return {v.condition for v in self.violations}


def validate(ds):
    """Check conditions (I)-(IV), reporting every violation, not just the first.

    Accepts a DataSet or FractionalDataSet; for the latter condition (III)
    is checked in its power-l form.  Candidates of even degree always
    report III when the power is odd, since units then force a + b even
    but (power)*a*b odd.
    """
    power = getattr(ds, "power", 1)
    n = ds.degree
    violations = []

    for _, order in ds.cones:
        if n % order:
            violations.append(Violation("I", "cone order %d does not divide %d" % (order, n)))

    if gcd(ds.a, n) != 1:
        violations.append(Violation("II", "a = %d is not a unit mod %d" % (ds.a, n)))
    if gcd(ds.b, n) != 1:
        violations.append(Violation("II", "b = %d is not a unit mod %d" % (ds.b, n)))
    for c, order in ds.cones:
        if gcd(c, order) != 1:
            violations.append(Violation("II", "residue %d is not a unit mod %d" % (c, order)))

    if (ds.a + ds.b - power * ds.a * ds.b) % n:
        detail = "a + b != a*b mod n" if power == 1 else "a + b != %d*a*b mod n" % power
        violations.append(Violation("III", detail))
    elif n % 2 == 0 and power % 2 == 1:
        # Units mod an even n are odd, so a + b is even while a*b (times an
        # odd power) is odd; the congruence can only hold vacuously for
        # non-units, which condition II already rejects.
        violations.append(Violation("III", "degree must be odd"))

    total = ds.a + ds.b + sum((n // order) * c for c, order in ds.cones)
    if total % n:
        violations.append(Violation("IV", "a + b + sum (n/n_i)c_i = %d != 0 mod n" % (total % n,)))
    elif not ds.cones and power == 1:
        violations.append(Violation("IV", "at least one cone pair is required"))

    return ValidationReport(not violations, tuple(violations))


def stabilize(ds):
    """The same data set with quotient genus g0 + 1.

    Its genus grows by the degree: a degree-n root for the twist on genus
    g+1 yields one on genus g+n+1.
    """
    return ds._replace(quotient_genus=ds.quotient_genus + 1)


# The text form: degree, quotient genus, a, b, then the cone pairs joined by ", ";
# the class listings of cli fill the same two templates
_TEXT_FORM = "(%d, %d, (%d,%d); %s)"
_CONE_TEXT_FORM = "(%d,%d)"


def format_dataset(ds):
    """Canonical text form, e.g. ``(21, 0, (2,2); (17,21))``."""
    cones = ", ".join([_CONE_TEXT_FORM % pair for pair in ds.cones])
    return _TEXT_FORM % (ds.degree, ds.quotient_genus, ds.a, ds.b, cones)


_TOKEN = re.compile(r"-?[0-9]+|[(),;]")  # ASCII digits only: \d takes any Unicode digit
# The text form over its tokens, each integer read as "i"; the cone list may be empty
_FORM = re.compile(r"\(i,i,\(i,i\);(\(i,i\)(,\(i,i\))*)?\)")
_QUOTE_LIMIT = 40


def _quoted(text):
    """repr(text) for an error message, cut to its first _QUOTE_LIMIT characters and
    "...", so the message stays bounded however long the stray text is."""
    return repr(text) if len(text) <= _QUOTE_LIMIT else repr(text[:_QUOTE_LIMIT]) + "..."


def parse_dataset(text):
    """Parse the canonical text form, tolerating arbitrary whitespace.

    Accepts e.g. ``( 21, 0, ( 2, 2 );( 17, 21 ))`` and returns the
    canonical DataSet.  Raises ParseError on malformed input and
    RangeExceeded on out-of-range integers.
    """
    tokens = []
    pos = 0
    for match in _TOKEN.finditer(text):
        if stray := text[pos : match.start()].strip():
            raise ParseError("unexpected %s in data set text" % _quoted(stray))
        tokens.append(match.group())
        pos = match.end()
    if stray := text[pos:].strip():
        raise ParseError("unexpected trailing %s" % _quoted(stray))
    form = _FORM.match("".join([t if t in "(),;" else "i" for t in tokens]))
    if not form:
        raise ParseError("expected the form (n, g0, (a,b); (c1,n1), ...)")
    values = []
    try:
        for token in tokens[: form.end()]:
            if token not in "(),;":
                values.append(int(token))
    except ValueError:  # longer than the interpreter's integer-string limit
        raise ParseError("integer of %d digits is too long" % len(token)) from None
    if form.end() < len(tokens):
        raise ParseError("unexpected trailing %s" % _quoted(tokens[form.end()]))
    degree, quotient_genus, a, b, *rest = values
    return DataSet(degree, quotient_genus, a, b, tuple(zip(rest[::2], rest[1::2])))
