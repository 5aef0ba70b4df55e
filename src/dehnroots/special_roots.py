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
the genus-4 surface).  A tag depends only on the cone-order shape of a
class, except for that cube root, so ``class_count`` counts the classes
of one (genus, degree) per tag from ``enumeration._shape_counts`` without
listing any.  ``pair_table``, the table behind the paper's pair plot,
reads those counts, checks each cell against the class cap and only then
spells out its tag multiset; it never runs the residue search.
"""

import enum
from collections import Counter
from dataclasses import dataclass
from math import isqrt, lcm

from .dataset import DataSet
from .enumeration import (DATASETS_MAX_GENUS, _check_class_cap, _degree_occurs, _shape_counts,
                          twist_pairs)
from .numtheory import (
    RangeExceeded,
    _check_ceiling,
    _divisors_from,
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


def _check_odd_degree(n, name="degree"):
    if n < 3 or n % 2 == 0:
        raise RangeExceeded("%s must be odd and >= 3, got %s" % (name, _show(n)))


def t_set(n):
    """The triangular set T(n) of genera with no primary degree-n root, sorted."""
    _check_odd_degree(n)
    _check_ceiling(n, T_SET_MAX_DEGREE, "T(n) is supported up to n")
    n0 = (n - 1) // 2
    return tuple(sorted({g0 + m * n0 for g0 in range(n0) for m in range(2 * g0 + 1)}))


def ms_roots(g):
    """All classes of maximal degree 2g+1 for the twist on genus g+1, sorted."""
    if g < 1:
        return []
    _check_ceiling(g, MS_ROOTS_MAX_GENUS, "ms_roots is supported up to g")
    n = 2 * g + 1
    return [DataSet(n, 0, a, b, ((-(a + b), n),)) for a, b in twist_pairs(n)]


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
    _check_ceiling(g, DE_ROOTS_MAX_GENUS, "de_roots is supported up to g")
    hi = (6 * (g + 2) - 1) // 5  # largest n with 5n < 6(g+2); at least g+1
    out = []
    for n, factors in _factored_odd_range(g + 1, hi):
        if _de_genus_hit(n, _divisors_from(factors), g):
            out.append(n)
    return out


def _factored_odd_range(lo, hi):
    """Yield (n, prime factorization) for every odd n in [lo, hi], lo >= 2.

    Segmented sieve: strip each prime <= sqrt(hi) out of the whole block,
    then whatever remains of each entry is a prime cofactor.
    """
    first = lo if lo % 2 else lo + 1
    values = list(range(first, hi + 1, 2))
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
    avoid = {p for p, _ in factorize(d * e)}
    witness = bezout_avoiding_primes(n // d, n // e, avoid)
    return DataSet(n, 0, 2, 2, ((-4 * witness.c1, d), (-4 * witness.c2, e)))


_CUBE_OF_T4 = (3, 0, 2, 2, ((1, 3), (2, 3), (2, 3)))


def _tag(n, g, g0, a, b, cones):
    """The tag of the canonical class (n, g0, (a,b); cones) of genus g, by precedence
    MARGALIT_SCHLEIMER > CUBE_OF_T4 > DE_ROOT > PRIMARY > OTHER."""
    if n == 2 * g + 1:
        return RootTag.MARGALIT_SCHLEIMER
    if (n, g0, a, b, cones) == _CUBE_OF_T4:
        return RootTag.CUBE_OF_T4
    if g0 == 0 and len(cones) == 2:
        return RootTag.DE_ROOT
    if all(order == n for _, order in cones):
        return RootTag.PRIMARY
    return RootTag.OTHER


def classify(ds):
    """The RootTag of a valid data set."""
    return _tag(ds.degree, ds.genus, ds.quotient_genus, ds.a, ds.b, ds.cones)


@dataclass(frozen=True)
class PairRow:
    """One populated cell of the (genus, degree) table behind the pair plot."""

    genus: int
    degree: int
    class_count: int
    tags: tuple  # one tag per class, sorted


def class_count(g, n):
    """{RootTag: number of classes} of genus g <= 400 and degree n, nonzero entries
    only, counted per cone-order shape without building a class."""
    if not _degree_occurs(g, n):
        return {}
    _check_ceiling(g, DATASETS_MAX_GENUS, "class_count is supported up to g")
    counts = Counter()
    for g0, orders, count in _shape_counts(g, n):
        counts[_tag(n, g, g0, 0, 0, tuple((0, order) for order in orders))] += count
    if (g, n) == (3, 3):  # the one cell whose tags read the residues: one class is the cube
        counts[RootTag.PRIMARY] -= 1
        counts[RootTag.CUBE_OF_T4] += 1
    return {tag: count for tag, count in counts.items() if count}


def pair_table(g_max, n_max, class_cap=None):
    """Rows (g, n, #classes, tags) for every pair with a root, g <= g_max <= 400, n <= n_max;
    each cell's count is checked against the class cap before its tags are spelled out."""
    _check_ceiling(g_max, DATASETS_MAX_GENUS, "pair_table is supported up to g")
    rows = []
    for g in range(g_max + 1):
        for n in range(3, min(n_max, 2 * g + 1) + 1, 2):
            counts = class_count(g, n)
            total = sum(counts.values())
            _check_class_cap(g, n, total, class_cap)
            if total:
                tags = tuple(tag.value for tag in sorted(counts) for _ in range(counts[tag]))
                rows.append(PairRow(g, n, total, tags))
    return rows
