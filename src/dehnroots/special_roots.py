"""Named families of twist roots and the large-degree classification.

For odd n, write n0 = (n-1)/2.  The triangular set

    T(n) = union over 0 <= g0 < n0 of { g0 + m*n0 : 0 <= m <= 2*g0 }

collects the genera for which no primary root (all cone orders equal to
n) exists; it has n0^2 members with maximum n(n-3)/2.  For prime n the
primary roots are the only roots, so T(n) is exactly the set of genera
with no degree-n root at all.

Margalit-Schleimer roots, of the maximal degree n = 2g+1, are the classes
(n, 0, (a,b); (-a-b, n)), one per twist pair; they are counted by
(U(n)+1)/2 where U(n) = prod p^(k-1) (p-2) over the prime powers of n
counts the x with x and 1-x both units.

A (d,e)-root (d, e odd, >= 3) has quotient genus 0 and exactly two cones,
of orders d and e; its degree is lcm(d, e) and its genus is
n - (d+e)/(2 gcd(d,e)).  For a given degree n these genera are read off
the coprime divisor pairs (d1, d2) of n.  Conversely, with n = k*d1*d2,
the genus equation reads 2g + d1 = d2(2k*d1 - 1), so the (d,e)-root
degrees of a genus g come from the divisors q = 2k*d1 - 1 of the numbers
2g + d1 for the about sqrt(g)/2 odd d1 with d1(d1-1) <= g; they all lie in
g+1 <= n <= 6(g + 3/2)/5.  Of q and d2 one is at most sqrt(2g + d1), and
each lies in one residue class mod 4*d1, so ``de_roots`` tests two
progressions per d1 up to that root and factors no number.

Every root of degree n >= g is a Margalit-Schleimer root, a (d,e)-root,
or the unique degree-3 root at genus 3 (the cube root of the twist on
the genus-4 surface).  ``classify`` reads each tag, the cube root's too,
off the class's shape.

One counter, ``_degree_column``, serves one cell (``class_count``) and the
whole table behind the paper's pair plot (``pair_table``, ``figure1``): one
series pass per degree counts every rest g - g0*n up to the largest wanted
genus, walking no shape and solving no twist pair, and that classification
tags each cell whole.  A column is two lists indexed by genus, the class
totals and each cell's (tag, classes) pairs in tag order, so a cell costs
no dict.  Every populated cell of the table is checked against the class cap
before a row is returned.  The table's memory follows its cells, not its
classes; ``figure1`` writes each pair in bounded chunks.  Neither runs the
residue search.
"""

import enum
from collections import namedtuple
from itertools import chain
from math import isqrt, lcm

from .dataset import DataSet, _canonical
from .enumeration import (DATASETS_MAX_GENUS, _check_class_cap, _degree_occurs, _rest_series,
                          has_root, twist_pairs)
from .numtheory import (
    FACTOR_LIMIT,
    _check_ceiling,
    _check_odd_degree,
    bezout_avoiding_primes,
    coprime_divisor_pairs,
    factorize,
    gcd,
)

__all__ = [
    "PairRow",
    "RootTag",
    "t_set",
    "ms_roots",
    "ms_count",
    "de_root_genera",
    "de_roots",
    "de_construct",
    "classify",
    "class_count",
    "pair_table",
]

# Documented ceilings: T(2001) has 10**6 members; de_roots supports g <= 10**6
# (de_roots(10**6) tests 2,309 candidates over 400 values of d1); ms_roots(10**5)
# lists 32,764 classes.
T_SET_MAX_DEGREE = 2001
DE_ROOTS_MAX_GENUS = 10**6
MS_ROOTS_MAX_GENUS = 10**5


class RootTag(str, enum.Enum):
    PRIMARY = "PRIMARY"
    MARGALIT_SCHLEIMER = "MARGALIT_SCHLEIMER"
    DE_ROOT = "DE_ROOT"
    CUBE_OF_T4 = "CUBE_OF_T4"
    OTHER = "OTHER"

    __str__ = str.__str__  # str(tag), "%s" and f-strings give the value


def t_set(n):
    """The triangular set T(n) of genera with no primary degree-n root, sorted: for each
    m < 2*n0 - 1 the members g0 + m*n0 with m <= 2*g0 are the disjoint rising range
    [m*n0 + (m+1)//2, (m+1)*n0), so they are joined in order, without a set or a sort."""
    _check_odd_degree(n)
    _check_ceiling(n, T_SET_MAX_DEGREE, "T(n) is supported up to n")
    n0 = (n - 1) // 2
    return tuple(chain.from_iterable(range(m * n0 + (m + 1) // 2, (m + 1) * n0)
                                     for m in range(2 * n0 - 1)))


def ms_roots(g):
    """All classes of maximal degree 2g+1 for the twist on genus g+1, sorted."""
    if g < 1:
        return []
    _check_ceiling(g, MS_ROOTS_MAX_GENUS, "ms_roots is supported up to g")
    n = 2 * g + 1
    return [_canonical((n, 0, a, b, ((-(a + b) % n, n),))) for a, b in twist_pairs(n)]


def ms_count(n):
    """Number of maximal-degree root classes, (U(n)+1)/2, without enumerating.

    U(n) = prod p^(k-1)(p-2) counts the x mod n with x and 1-x both units;
    pairing x with 1-x (one fixed point, x = 2^-1) halves it.
    """
    _check_odd_degree(n)
    u = 1
    for p, k in factorize(n):
        u *= p ** (k - 1) * (p - 2)
    return (u + 1) // 2


def de_root_genera(n):
    """The genera g for which degree n occurs as a (d,e)-root, sorted.

    Each unordered coprime divisor pair (d1, d2) of n gives the root with
    cone orders d = n/d2, e = n/d1 and genus n - (d1+d2)/2; the pair
    (1, n) is dropped because it would mean a cone of order 1.
    """
    if n < 3 or n % 2 == 0:
        return []
    genera = {
        n - (d1 + d2) // 2
        for d1, d2 in coprime_divisor_pairs(n)
        if d2 != n
    }
    return sorted(genera)


def de_roots(g):
    """All degrees n of (d,e)-roots for the twist on genus g+1, sorted.

    A (d,e)-root of degree n comes from coprime divisors d1 <= d2 of n,
    other than (1, n), and has genus g = n - (d1+d2)/2.  As d1*d2 divides
    n, write n = k*d1*d2 (k odd, since n is); then

        2g + d1 = d2 * (2k*d1 - 1).

    So each odd d1 gives its solutions from the factorings m = 2g + d1 = q*d2
    with q = 2k*d1 - 1, k odd, i.e. q = 2*d1 - 1 (mod 4*d1), d2 >= d1,
    gcd(d1, d2) = 1 and (d1, k) != (1, 1); the degree is (q+1)/2 * d2.  As
    q >= 2*d1 - 1, m >= d1(2*d1 - 1), i.e. d1(d1-1) <= g: about sqrt(g)/2
    values of d1.  A solution has q = -1 (mod d1), so gcd(d1, m) =
    gcd(d1, g) = 1; conversely, if gcd(d1, g) = 1 every divisor of m is prime
    to d1, so no candidate needs a gcd.  With r = isqrt(m) >= d1, q <= r or
    d2 <= r.  The q <= r step by 4*d1 from 2*d1 - 1, and give d2 = m/q >= r;
    q > 1 leaves out (d1, k) = (1, 1).  As (2*d1 - 1)^2 = 1 (mod 4*d1), q is
    its own inverse, so the d2 <= r are the d2 >= d1 with d2 = m*(2*d1 - 1)
    (mod 4*d1), and give q = m/d2 >= r > 1.  Each side tests about r/(4*d1).

    Every solution lies in g+1 <= n <= 6(g + 3/2)/5.  The lower end holds
    as d1 + d2 >= 2.  The upper end, 5n <= 6g + 9, reads
    3(d1+d2) <= n + 9.  If d1 = 1 then k >= 3, so n >= 3*d2 and
    3(1+d2) <= n + 3.  Otherwise 3 <= d1 < d2 are coprime with
    d1*d2 <= n, and d1*d2 + 9 - 3(d1+d2) = (d1-3)(d2-3) >= 0.
    """
    if g < 1:
        return []
    _check_ceiling(g, DE_ROOTS_MAX_GENUS, "de_roots is supported up to g")
    degrees = set()
    for d1 in range(1, (isqrt(4 * g + 1) + 1) // 2 + 1, 2):  # the odd d1 with d1(d1-1) <= g
        if gcd(g, d1) > 1:
            continue
        m, step = 2 * g + d1, 4 * d1
        r = isqrt(m)
        for q in range(2 * d1 - 1, r + 1, step):
            if m % q == 0 and q > 1:
                degrees.add((q + 1) // 2 * (m // q))
        for d2 in range(d1 + (m * (2 * d1 - 1) - d1) % step, r + 1, step):
            if m % d2 == 0:
                degrees.add((m // d2 + 1) // 2 * d2)
    return sorted(degrees)


def de_construct(d, e):
    """A valid (d,e)-root data set for odd d, e >= 3.

    Degree n = lcm(d, e), a = b = 2, and condition (IV) reads
    4 + (n/d)c1 + (n/e)c2 = 0 mod n.  From coefficients l1(n/d) + l2(n/e) = 1
    with l1 coprime to d and l2 coprime to e (prime-avoiding Bezout over the
    odd primes of d and of e), c1 = -4*l1 mod d and c2 = -4*l2 mod e satisfy
    (IV) and stay units.  The witness choice fixes which class of (d,e)-root
    comes back; any choice is a valid root.  lcm(d, e) must be <= 10**12.
    """
    _check_odd_degree(d, "d")
    _check_odd_degree(e, "e")
    n = lcm(d, e)
    _check_ceiling(n, FACTOR_LIMIT, "de_construct is supported up to lcm(d, e)")
    avoid = {p for m in (d, e) for p, _ in factorize(m)}
    witness = bezout_avoiding_primes(n // d, n // e, avoid)
    return DataSet(n, 0, 2, 2, ((-4 * witness.c1 % d, d), (-4 * witness.c2 % e, e)))


def classify(ds):
    """The RootTag of a valid data set, read off its shape: its quotient genus g0, its
    cone count and whether all its cones have order n.  MARGALIT_SCHLEIMER > DE_ROOT >
    PRIMARY > OTHER.  The genus is not needed: n = 2g+1 exactly when g0 = 0 and there is
    one cone, of order n, as g0 >= 1 gives g >= n, a cone of order n_i adds
    (n - n/n_i)/2 <= (n-1)/2 to g, and two or more add >= 2n/3.  The cube root is the only
    valid class of degree 3 with g0 = 0 and three cones: n = 3 has the one twist pair
    (2, 2), and of the unit residues only {1, 2, 2} meet (IV)."""
    n, g0, cones = ds.degree, ds.quotient_genus, len(ds.cones)
    primary = not cones or ds.cones[0][1] == n == ds.cones[-1][1]
    if g0 == 0:
        if cones == 2:
            return RootTag.DE_ROOT
        if cones == 1 and primary:
            return RootTag.MARGALIT_SCHLEIMER
        if n == cones == 3:
            return RootTag.CUBE_OF_T4
    return RootTag.PRIMARY if primary else RootTag.OTHER


PairRow = namedtuple("PairRow", "genus degree class_count tags")
PairRow.__doc__ = """One populated cell of the (genus, degree) table behind the pair plot:
its ``class_count`` and ``tags``, the nonzero (RootTag, classes) pairs in tag order."""


def class_count(g, n):
    """{RootTag: number of classes} of genus g <= 400 and degree n, nonzero entries
    only, counted by the series of ``_degree_column`` and tagged by the n >= g
    classification, without building a class.  A cell without a root (the lcm rule,
    ``has_root``) is empty at once."""
    if not _degree_occurs(g, n):
        return {}
    _check_ceiling(g, DATASETS_MAX_GENUS, "class_count is supported up to g")
    return dict(_degree_column(n, g)[1][g]) if has_root(g, n) else {}


def _degree_column(n, top):
    """(total, tags), lists indexed by genus g <= top: the classes of the cell (g, n), and
    its nonzero (tag, classes) pairs in tag order, () for an empty cell.  The one tag
    counter, behind ``class_count`` and ``pair_table``.

    Cell g holds the shapes of rest g - g0*n for each g0 >= 0, each counting the same for
    every g0, so one series pass (``_rest_series``) counts every rest up to top by the
    number of twist pairs, and each count is summed in place over the rests g, g - n, ...
    The paper's n >= g classification tags each cell whole.  A cell g < n has g0 = 0 and at
    most two cones, each weighing at least n/3, and one cone of order d < n has no class,
    as n/d would divide a + b = ab, a unit: so it is all MARGALIT_SCHLEIMER if n = 2g+1,
    all DE_ROOT otherwise.  In a cell g >= n, two cones at g0 = 0 weigh at most n - 1 < g,
    so each class is PRIMARY or OTHER, by whether its cones all have order n; but cell
    (3, 3) holds the cube root alone."""
    primary, total = _rest_series(n, ms_count(n), top)
    for counts in primary, total:
        for g in range(n, len(counts)):  # counts[g] sums the rests g, g - n, g - 2n, ...
            counts[g] += counts[g - n]
    tags = [()] * len(total)
    for g, (all_n, every) in enumerate(zip(primary, total)):
        if not every:
            continue
        if g < n:
            tags[g] = ((RootTag.MARGALIT_SCHLEIMER if n == 2 * g + 1 else RootTag.DE_ROOT, every),)
        elif g == n == 3:
            tags[g] = ((RootTag.CUBE_OF_T4, all_n),)
        else:  # in tag order, each only if nonzero
            tags[g] = (((RootTag.OTHER, every - all_n),) if every > all_n else ()) + (
                ((RootTag.PRIMARY, all_n),) if all_n else ())
    return total, tags


def pair_table(g_max, n_max, class_cap=None):
    """``PairRow``s (g, n, #classes, ((tag, classes), ...)) for every pair with a root,
    g <= g_max <= 400, n <= n_max, with the nonzero counts of ``class_count(g, n)`` in
    tag order.  The table is counted one column per degree (``_degree_column``); then its
    populated cells are read in (g, n) order and checked against the class cap, so the
    first cell past it fails, before any row is returned.  Memory follows the cells, not
    the classes."""
    _check_ceiling(g_max, DATASETS_MAX_GENUS, "pair_table is supported up to g")
    columns = [(n, *_degree_column(n, g_max)) for n in range(3, min(n_max, 2 * g_max + 1) + 1, 2)]
    rows = []
    for g in range(g_max + 1):
        for n, total, tags in columns:  # a degree past 2g+1 has no class of genus g
            if total[g]:
                _check_class_cap(g, n, total[g], class_cap)
                rows.append(PairRow(g, n, total[g], tags[g]))
    return rows
