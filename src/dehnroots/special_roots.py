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
g+1 <= n <= 6(g + 3/2)/5.  ``de_roots`` factors the 2g + d1 of the odd
d1 <= sqrt(g/200) in one window sieve and walks their divisors; each larger
d1 has about g/(2*d1^2) candidate q, a progression tested one by one.  One
factored number costs about 100 tests, so the two costs meet at that bound.

Every root of degree n >= g is a Margalit-Schleimer root, a (d,e)-root,
or the unique degree-3 root at genus 3 (the cube root of the twist on
the genus-4 surface).  A tag depends only on the cone-order shape of a
class (``_shape_tag``), except for that cube root, so classes are counted
per tag from ``enumeration._shape_counts`` without listing any.

One counter, ``_degree_cells``, serves one cell (``class_count``) and the
whole table behind the paper's pair plot (``pair_table``, ``figure1``): a
shape of rest r = g - g0*n counts the same classes for every g0, and its
tag only depends on whether g0 = 0, so a degree lists the shapes of the
rests its wanted cells read in one walk, counts them in one pass and sums
them per residue of r mod n.
Every cell of the table is checked against the class cap before a row is
returned.  A row holds its tags as (tag, classes) pairs in tag order, so
the table's memory follows its cells, not its classes; ``figure1`` writes
each pair in bounded chunks.  Neither runs the residue search.
"""

import enum
from collections import namedtuple
from itertools import chain
from math import isqrt, lcm

from .dataset import DataSet, _canonical
from .enumeration import (DATASETS_MAX_GENUS, _check_class_cap, _degree_occurs, _order_runs,
                          _shape_counts, twist_pairs)
from .numtheory import (
    RangeExceeded,
    _check_ceiling,
    _divisors_of,
    _show,
    bezout_avoiding_primes,
    coprime_divisor_pairs,
    factorize,
    gcd,
    primes_up_to,
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
# (de_roots(10**6) sieves 36 numbers and tests 3,258 candidates); ms_roots(10**5)
# lists 32,764 classes.
T_SET_MAX_DEGREE = 2001
DE_ROOTS_MAX_GENUS = 10**6
MS_ROOTS_MAX_GENUS = 10**5
_SIEVE_SHARE = 200  # de_roots sieves the odd d1 <= sqrt(g / 200), and tests the rest


class RootTag(str, enum.Enum):
    PRIMARY = "PRIMARY"
    MARGALIT_SCHLEIMER = "MARGALIT_SCHLEIMER"
    DE_ROOT = "DE_ROOT"
    CUBE_OF_T4 = "CUBE_OF_T4"
    OTHER = "OTHER"

    __str__ = str.__str__  # str(tag), "%s" and f-strings give the value


def _check_odd_degree(n, name="degree"):
    if n < 3 or n % 2 == 0:
        raise RangeExceeded("%s must be odd and >= 3, got %s" % (name, _show(n)))


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

    So each odd d1 gives its solutions from the divisors q = 2k*d1 - 1 of
    m = 2g + d1 with q = -1 (mod 2*d1), d2 = m/q >= d1, gcd(d1, d2) = 1 and
    (d1, k) != (1, 1); the degree is k*d1*d2 = (q+1)/2 * m/q.  From d2 >= d1
    and q >= 2*d1 - 1, m >= d1(2*d1 - 1), i.e. d1(d1-1) <= g: about sqrt(g)/2
    values of d1, in two regimes.  The m of the odd d1 <= sqrt(g/200), d1 = 1
    always among them, are consecutive odd numbers from 2g+1, so one sieve
    factors them all (each odd prime p <= sqrt(max m) divides every p-th m from
    the first m it divides, and what is left of an m above 1 is a prime), and
    their divisors are walked in rising order.  Each larger d1 tests its
    candidates q = 2k*d1 - 1, k odd, up to q = m/d1 directly: about
    m/(4*d1^2) of them, 4*d1 apart.  Factoring one m and walking its divisors
    costs about as much as 100 tests, so the two costs meet near
    d1 = sqrt(g/200) (``_SIEVE_SHARE``); fewer than 3.5*sqrt(g) are tested.

    Every solution lies in g+1 <= n <= 6(g + 3/2)/5.  The lower end holds
    as d1 + d2 >= 2.  The upper end, 5n <= 6g + 9, reads
    3(d1+d2) <= n + 9.  If d1 = 1 then k >= 3, so n >= 3*d2 and
    3(1+d2) <= n + 3.  Otherwise 3 <= d1 < d2 are coprime with
    d1*d2 <= n, and d1*d2 + 9 - 3(d1+d2) = (d1-3)(d2-3) >= 0.
    """
    if g < 1:
        return []
    _check_ceiling(g, DE_ROOTS_MAX_GENUS, "de_roots is supported up to g")
    top = (isqrt(4 * g + 1) + 1) // 2  # the largest d1 with d1(d1-1) <= g
    split = isqrt(g // _SIEVE_SHARE) | 1  # the last sieved d1: odd, and 1 for small g
    window = range(2 * g + 1, 2 * g + split + 1, 2)
    rests, factors = list(window), [[] for _ in window]
    for p in primes_up_to(isqrt(window[-1]))[1:]:
        # window[i] = window[0] + 2i = 0 (mod p), as (p + 1)/2 is the inverse of 2 mod p
        for i in range(-window[0] * (p + 1) // 2 % p, len(window), p):
            e = 0
            while rests[i] % p == 0:
                rests[i] //= p
                e += 1
            factors[i].append((p, e))
    degrees = set()
    for m, rest, pairs in zip(window, rests, factors):
        d1 = m - 2 * g
        for q in _divisors_of(pairs + [(rest, 1)] if rest > 1 else pairs):
            d2 = m // q
            if d2 < d1:
                break
            k, r = divmod(q + 1, 2 * d1)
            if not r and k % 2 and (d1, k) != (1, 1) and gcd(d1, d2) == 1:
                degrees.add(k * d1 * d2)
    larger = range(split + 2, top + 1, 2)
    degrees |= {(q + 1) // 2 * (m // q)
                for d1, m in zip(larger, range(2 * g + larger.start, 2 * g + top + 1, 2))
                for q in range(2 * d1 - 1, m // d1 + 1, 4 * d1)
                if not m % q and gcd(d1, m // q) == 1}
    return sorted(degrees)


def de_construct(d, e):
    """A valid (d,e)-root data set for odd d, e >= 3.

    Degree n = lcm(d, e), a = b = 2, and condition (IV) reads
    4 + (n/d)c1 + (n/e)c2 = 0 mod n.  From coefficients l1(n/d) + l2(n/e) = 1
    with l1 coprime to d and l2 coprime to e (prime-avoiding Bezout over the
    odd primes of d*e), c1 = -4*l1 and c2 = -4*l2 satisfy (IV) and stay
    units.  The witness choice fixes which class of (d,e)-root comes back;
    any choice is a valid root.
    """
    _check_odd_degree(d, "d")
    _check_odd_degree(e, "e")
    n = lcm(d, e)
    avoid = {p for p, _ in factorize(d * e)}
    witness = bezout_avoiding_primes(n // d, n // e, avoid)
    return DataSet(n, 0, 2, 2, ((-4 * witness.c1, d), (-4 * witness.c2, e)))


_CUBE_OF_T4 = (3, 0, 2, 2, ((1, 3), (2, 3), (2, 3)))
_TAGS = sorted(RootTag)  # the order a row holds its tags in


def _shape_tag(g0, cones, primary):
    """The tag of every class of quotient genus g0 with ``cones`` cones, all of order n
    exactly when ``primary``, but the cube root: MARGALIT_SCHLEIMER > DE_ROOT > PRIMARY >
    OTHER.  The genus is not needed: n = 2g+1 exactly when g0 = 0 and there is one cone, of
    order n, as g0 >= 1 gives g >= n, a cone of order n_i adds (n - n/n_i)/2 <= (n-1)/2 to
    g, and two or more add >= 2n/3."""
    if g0 == 0 and cones == 2:
        return RootTag.DE_ROOT
    if g0 == 0 and cones == 1 and primary:
        return RootTag.MARGALIT_SCHLEIMER
    return RootTag.PRIMARY if primary else RootTag.OTHER


def classify(ds):
    """The RootTag of a valid data set: its shape's tag, or CUBE_OF_T4 for the cube root,
    the one class whose tag reads its residues (its shape is PRIMARY)."""
    n, g0, cones = ds.degree, ds.quotient_genus, ds.cones
    tag = _shape_tag(g0, len(cones), not cones or cones[0][1] == n == cones[-1][1])
    if tag is RootTag.PRIMARY and (n, g0, ds.a, ds.b, cones) == _CUBE_OF_T4:
        return RootTag.CUBE_OF_T4
    return tag


PairRow = namedtuple("PairRow", "genus degree class_count tags")
PairRow.__doc__ = """One populated cell of the (genus, degree) table behind the pair plot:
its ``class_count`` and ``tags``, the nonzero (RootTag, classes) pairs in tag order."""


def class_count(g, n):
    """{RootTag: number of classes} of genus g <= 400 and degree n, nonzero entries
    only, counted per cone-order shape without building a class."""
    if not _degree_occurs(g, n):
        return {}
    _check_ceiling(g, DATASETS_MAX_GENUS, "class_count is supported up to g")
    return _degree_cells(n, [g])[g]


def _degree_cells(n, genera):
    """{g: {tag: classes}} of the cells (g, n) for the rising ``genera``, nonzero entries
    in tag order: the one tag counter, behind one cell (``class_count``) and behind a
    whole column of the table (``pair_table``).

    Cell g holds the shapes of rest g - g0*n for each g0 >= 0, so the rests read are g,
    g - n, ... down to g mod n.  One walk lists the shapes of all of them, and one count
    pass counts them, so the twist pairs and V(e) are computed once per degree, and not
    at all without a shape.  A shape's count does not depend on g0, and its tag only on
    whether g0 = 0: per tag, the shapes of rest r add to ``zero[r]`` as g0 = 0 and to
    ``more[r + n]`` as g0 >= 1.  Summing ``more`` along each wanted residue mod n, up to
    its largest wanted genus, then leaves in ``more[g]`` the g0 >= 1 classes of cell g,
    from rests g - n, g - 2n and so on."""
    last = {g % n: g for g in genera}  # residue -> its largest wanted genus
    rests = sorted(r for s, g in last.items() for r in range(s, g + 1, n))
    shapes = _order_runs(n, rests)
    size = rests[-1] + 1
    zero = {tag: [0] * size for tag in _TAGS}
    more = {tag: [0] * (size + n) for tag in _TAGS}
    if shapes:
        for (r, runs), count in zip(shapes, _shape_counts(n, shapes, twist_pairs(n))):
            # the runs rise to n, so all cones have order n exactly when the first run does
            cones, primary = sum(k for _, k in runs), not runs or runs[0][0] == n
            zero[_shape_tag(0, cones, primary)][r] += count
            more[_shape_tag(1, cones, primary)][r + n] += count
    for sums in more.values():
        for r in rests:  # rising, and r - n is a rest when r >= n (sums[r] is 0 below n)
            sums[r + n] += sums[r]
    if n == 3 and 3 in genera:  # in cell (3, 3) one PRIMARY class is the cube root
        zero[RootTag.PRIMARY][3] -= 1
        zero[RootTag.CUBE_OF_T4][3] += 1
    return {g: {tag: k for tag in _TAGS if (k := zero[tag][g] + more[tag][g])} for g in genera}


def pair_table(g_max, n_max, class_cap=None):
    """``PairRow``s (g, n, #classes, ((tag, classes), ...)) for every pair with a root,
    g <= g_max <= 400, n <= n_max, with the nonzero counts of ``class_count(g, n)`` in
    tag order.  The table is counted degree by degree (``_degree_cells``); then every
    cell is checked against the class cap in (g, n) order, so the first cell past it
    fails, before any row is returned.  Memory follows the cells, not the classes."""
    _check_ceiling(g_max, DATASETS_MAX_GENUS, "pair_table is supported up to g")
    columns = {n: _degree_cells(n, range((n - 1) // 2, g_max + 1))
               for n in range(3, min(n_max, 2 * g_max + 1) + 1, 2)}
    rows = []
    for g in range(g_max + 1):
        for n in range(3, min(n_max, 2 * g + 1) + 1, 2):
            cell = columns[n][g]
            total = sum(cell.values())
            _check_class_cap(g, n, total, class_cap)
            if total:
                rows.append(PairRow(g, n, total, tuple(cell.items())))
    return rows
