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
equivalence.

Conditions (II) and (III) force n odd, and (III) with (IV) force at least
one cone pair; ``validate`` reports these as violations of III and IV.
Replacing (III) by a + b = l*a*b (mod n) for an integer power l >= 1
yields candidate data sets for roots of the l-th power of the twist
(``FractionalDataSet``); even degrees become possible once l is even.
"""

import re
from dataclasses import dataclass, replace

from .numtheory import RangeExceeded, gcd

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
            "%s must lie in [%d, %d], got %d" % (name, low, VALUE_LIMIT, value)
        )


@dataclass(frozen=True, order=True)
class DataSet:
    """A data-set tuple in canonical form.

    Residues a, b are stored reduced mod ``degree`` with a <= b; each cone
    residue is reduced mod its order and the cone pairs (residue, order)
    are sorted by (order, residue).  Construction enforces only ranges
    (degree >= 2, orders >= 2, quotient_genus >= 0); the arithmetic
    conditions are ``validate``'s job, so invalid candidates can be built
    and inspected.
    """

    degree: int
    quotient_genus: int
    a: int
    b: int
    cones: tuple

    def __post_init__(self):
        _check_range("degree", self.degree, 2)
        _check_range("quotient genus", self.quotient_genus, 0)
        _check_range("a", self.a, -VALUE_LIMIT)
        _check_range("b", self.b, -VALUE_LIMIT)
        n = self.degree
        a, b = self.a % n, self.b % n
        if a > b:
            a, b = b, a
        cones = []
        for pair in self.cones:
            try:
                c, order = pair
            except (TypeError, ValueError):
                raise RangeExceeded("cone pairs must be (residue, order), got %r" % (pair,))
            _check_range("cone order", order, 2)
            _check_range("cone residue", c, -VALUE_LIMIT)
            cones.append((c % order, order))
        cones.sort(key=lambda p: (p[1], p[0]))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "cones", tuple(cones))

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


@dataclass(frozen=True, order=True)
class FractionalDataSet(DataSet):
    """A data-set candidate for a root of the power-l twist (condition III
    becomes a + b = l*a*b mod n).  For power 1 this is an ordinary data set."""

    power: int = 1

    def __post_init__(self):
        super().__post_init__()
        _check_range("power", self.power, 1)

    @property
    def power_shares_factor(self):
        """True when gcd(power, degree) > 1: the candidate may describe a
        power of a root of a smaller twist power rather than a new root."""
        return gcd(self.power, self.degree) > 1


@dataclass(frozen=True)
class Violation:
    condition: str  # one of "I", "II", "III", "IV"
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    violations: tuple

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
    return replace(ds, quotient_genus=ds.quotient_genus + 1)


def format_dataset(ds):
    """Canonical text form, e.g. ``(21, 0, (2,2); (17,21))``."""
    cones = ", ".join("(%d,%d)" % pair for pair in ds.cones)
    return "(%d, %d, (%d,%d); %s)" % (ds.degree, ds.quotient_genus, ds.a, ds.b, cones)


_TOKEN = re.compile(r"-?\d+|[(),;]")


def parse_dataset(text):
    """Parse the canonical text form, tolerating arbitrary whitespace.

    Accepts e.g. ``( 21, 0, ( 2, 2 );( 17, 21 ))`` and returns the
    canonical DataSet.  Raises ParseError on malformed input and
    RangeExceeded on out-of-range integers.
    """
    tokens = []
    pos = 0
    for match in _TOKEN.finditer(text):
        if text[pos : match.start()].strip():
            raise ParseError("unexpected %r in data set text" % text[pos : match.start()].strip())
        tokens.append(match.group())
        pos = match.end()
    if text[pos:].strip():
        raise ParseError("unexpected trailing %r" % text[pos:].strip())
    tokens.reverse()  # consume via pop()

    def expect(symbol):
        if not tokens or tokens[-1] != symbol:
            found = tokens[-1] if tokens else "end of input"
            raise ParseError("expected %r, found %r" % (symbol, found))
        tokens.pop()

    def integer():
        if not tokens or tokens[-1] in "(),;":
            raise ParseError("expected an integer")
        token = tokens.pop()
        try:
            return int(token)
        except ValueError:  # longer than the interpreter's integer-string limit
            raise ParseError("integer of %d digits is too long" % len(token)) from None

    def pair():
        expect("(")
        first = integer()
        expect(",")
        second = integer()
        expect(")")
        return first, second

    expect("(")
    degree = integer()
    expect(",")
    quotient_genus = integer()
    expect(",")
    a, b = pair()
    expect(";")
    cones = [pair()]
    while tokens and tokens[-1] == ",":
        tokens.pop()
        cones.append(pair())
    expect(")")
    if tokens:
        raise ParseError("unexpected trailing %r" % tokens[-1])
    return DataSet(degree, quotient_genus, a, b, tuple(cones))
