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
the coprime divisor pairs of n, and conversely the (d,e)-root degrees of
a genus g all lie in g+1 <= n < 6(g+2)/5, which makes them computable up
to genus 10**6 by factoring a window of candidates.

Every root of degree n >= g is a Margalit-Schleimer root, a (d,e)-root,
or the unique degree-3 root at genus 3 (the cube root of the twist on
the genus-4 surface).  ``pair_table`` tags every class of a (genus,
degree) range this way; it is the table behind the paper's pair plot.
"""

import enum
from dataclasses import dataclass
from math import isqrt, lcm

from .dataset import DataSet
from .enumeration import datasets, twist_pairs
from .numtheory import (
    RangeExceeded,
    _divisors_from,
    bezout_avoiding_primes,
    coprime_divisor_pairs,
    factorize,
    gcd,
    primes_up_to,
)

__all__ = [
    "PairRow",
    "RootTag",
    "RootClass",
    "TriangularSet",
    "t_set",
    "ms_roots",
    "ms_count",
    "de_root_genera",
    "de_roots",
    "de_construct",
    "classify",
    "pair_table",
]

# Documented ceilings: T(2001) has 10**6 members; de_roots supports g <= 10**6;
# ms_roots(10**5) lists 32,764 classes in well under a second.
T_SET_MAX_DEGREE = 2001
DE_ROOTS_MAX_GENUS = 10**6
MS_ROOTS_MAX_GENUS = 10**5


class RootTag(str, enum.Enum):
    PRIMARY = "PRIMARY"
    MARGALIT_SCHLEIMER = "MARGALIT_SCHLEIMER"
    DE_ROOT = "DE_ROOT"
    CUBE_OF_T4 = "CUBE_OF_T4"
    OTHER = "OTHER"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class RootClass:
    """A canonical data set with its classification tag.

    ``de_params`` carries the cone orders (d, e) when the tag is DE_ROOT.
    """

    dataset: DataSet
    tag: RootTag
    de_params: tuple = None


@dataclass(frozen=True)
class TriangularSet:
    n: int
    members: tuple


def _check_odd_degree(n, name="degree"):
    if n < 3 or n % 2 == 0:
        raise RangeExceeded("%s must be odd and >= 3, got %r" % (name, n))


def t_set(n):
    """The triangular set T(n) of genera with no primary degree-n root."""
    _check_odd_degree(n)
    if n > T_SET_MAX_DEGREE:
        raise RangeExceeded("T(n) is supported up to n = %d, got %d" % (T_SET_MAX_DEGREE, n))
    n0 = (n - 1) // 2
    members = {g0 + m * n0 for g0 in range(n0) for m in range(2 * g0 + 1)}
    return TriangularSet(n, tuple(sorted(members)))


def ms_roots(g):
    """All classes of maximal degree 2g+1 for the twist on genus g+1, sorted."""
    if g < 1:
        return []
    if g > MS_ROOTS_MAX_GENUS:
        raise RangeExceeded("ms_roots is supported up to g = %d, got %d" % (MS_ROOTS_MAX_GENUS, g))
    n = 2 * g + 1
    return [DataSet(n, 0, a, b, ((-(a + b), n),)) for a, b in twist_pairs(n)]


def ms_count(n):
    """Number of maximal-degree root classes, (U(n)+1)/2, without enumerating.

    U(n) = prod p^(k-1)(p-2) counts the x mod n with x and 1-x both units;
    pairing x with 1-x (one fixed point, x = 2^-1) halves it.
    """
    _check_odd_degree(n)
    u = 1
    for p, k in factorize(n).factors:
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


def _de_genus_hit(n, divs, g):
    """Does genus g arise from a coprime divisor pair of n (given its divisors)?"""
    s = 2 * (n - g)
    if s < 2:
        return False
    for d1 in divs:
        if 2 * d1 > s:
            break
        d2 = s - d1
        if n % d2 == 0 and gcd(d1, d2) == 1 and not (d1 == 1 and d2 == n):
            return True
    return False


def de_roots(g):
    """All degrees n of (d,e)-roots for the twist on genus g+1, sorted.

    Candidates are the odd n with g+1 <= n < 6(g+2)/5 (exact integer
    comparison).  The whole window is factored with one segmented sieve;
    per-candidate trial division would be an order of magnitude slower at
    the supported ceiling of g = 10**6.
    """
    if g < 1:
        return []
    if g > DE_ROOTS_MAX_GENUS:
        raise RangeExceeded("de_roots is supported up to g = %d, got %d" % (DE_ROOTS_MAX_GENUS, g))
    lo = g + 1
    hi = (6 * (g + 2) - 1) // 5  # largest n with 5n < 6(g+2)
    if hi < lo:
        return []
    out = []
    for n, factors in _factored_odd_range(lo, hi):
        if _de_genus_hit(n, _divisors_from(factors), g):
            out.append(n)
    return out


def _factored_odd_range(lo, hi):
    """Yield (n, prime factorization) for every odd n in [lo, hi].

    Segmented sieve: strip each prime <= sqrt(hi) out of the whole block,
    then whatever remains of each entry is a prime cofactor.
    """
    lo = max(lo, 2)
    first = lo if lo % 2 else lo + 1
    values = list(range(first, hi + 1, 2))
    if not values:
        return
    remainders = values[:]
    factors = [[] for _ in values]
    for p in primes_up_to(isqrt(hi)):
        if p == 2:
            continue
        start = first + ((p - first % p) % p)
        if start % 2 == 0:
            start += p
        for idx in range((start - first) // 2, len(values), p):
            rem = remainders[idx]
            e = 0
            while rem % p == 0:
                rem //= p
                e += 1
            remainders[idx] = rem
            factors[idx].append((p, e))
    for idx, n in enumerate(values):
        if remainders[idx] > 1:
            factors[idx].append((remainders[idx], 1))
        yield n, factors[idx]


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
    avoid = {p for p, _ in factorize(d * e).factors}
    witness = bezout_avoiding_primes(n // d, n // e, avoid)
    return DataSet(n, 0, 2, 2, ((-4 * witness.c1, d), (-4 * witness.c2, e)))


_CUBE_OF_T4 = DataSet(3, 0, 2, 2, ((1, 3), (2, 3), (2, 3)))


def classify(ds):
    """Classify a valid data set, tags in precedence order
    MARGALIT_SCHLEIMER > CUBE_OF_T4 > DE_ROOT > PRIMARY > OTHER."""
    if ds.degree == 2 * ds.genus + 1:
        return RootClass(ds, RootTag.MARGALIT_SCHLEIMER)
    if ds == _CUBE_OF_T4:
        return RootClass(ds, RootTag.CUBE_OF_T4)
    if ds.quotient_genus == 0 and len(ds.cones) == 2:
        orders = (ds.cones[0][1], ds.cones[1][1])
        return RootClass(ds, RootTag.DE_ROOT, orders)
    if all(order == ds.degree for _, order in ds.cones):
        return RootClass(ds, RootTag.PRIMARY)
    return RootClass(ds, RootTag.OTHER)


@dataclass(frozen=True)
class PairRow:
    """One populated cell of the (genus, degree) table behind the pair plot."""

    genus: int
    degree: int
    class_count: int
    tags: tuple  # one tag per class, sorted


def pair_table(g_max, n_max, class_cap=None):
    """Rows (g, n, #classes, tags) for every pair with a root, g <= g_max, n <= n_max."""
    rows = []
    for g in range(g_max + 1):
        for n in range(3, min(n_max, 2 * g + 1) + 1, 2):
            classes = datasets(g, n, class_cap)
            if classes:
                tags = sorted(str(classify(ds).tag) for ds in classes)
                rows.append(PairRow(g, n, len(classes), tuple(tags)))
    return rows
