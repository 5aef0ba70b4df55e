"""Exhaustive enumeration of root classes for a given genus and degree.

``datasets(g, n)`` lists every canonical data set of genus g and degree n,
i.e. every conjugacy class of degree-n roots of the twist on the genus
g+1 surface.  One search core, shared with ``has_root`` and the
fractional candidates, runs over

  * the quotient genus g0 with g0*n <= g,
  * multisets of cone orders (divisors of n exceeding 1) whose weights
    (n/n_i)(n_i - 1)/2 sum to g - g0*n,
  * the twist pairs: units a <= b with a + b = l*a*b mod n (l = 1 for
    ordinary roots), solved as b = a*(l*a - 1)^-1 by ``twist_pairs``,
  * cone residues, generated nondecreasing within runs of equal order so
    each class appears exactly once.

Residue assignment is pruned on suffix gcds: positions i.. contribute a
multiple of gcd(n, n/n_i, ...), so a partial sum not divisible by that
gcd can never reach 0 mod n.  Both searches keep explicit stacks, so the
number of cones is not bounded by the recursion limit.

``oracle_datasets`` answers the same question by brute force over raw
residue tuples; it is deliberately naive, range-guarded, and kept as an
independent cross-check of the search above.
"""

import os
from itertools import product

from .dataset import DataSet, RangeExceeded, validate
from .numtheory import divisors, gcd, mod_inverse

__all__ = [
    "ClassCapExceeded",
    "OracleRangeExceeded",
    "cone_weight",
    "cone_multisets",
    "twist_pairs",
    "datasets",
    "oracle_datasets",
    "root_degrees",
    "has_root",
    "genus_set",
    "primary_datasets",
]

DEFAULT_CLASS_CAP = 10**7
CAP_ENV_VAR = "DEHN_ROOTS_CLASS_CAP"

# Hard bounds for the brute-force oracle; beyond them it is exponential noise.
ORACLE_MAX_DEGREE = 15
ORACLE_MAX_GENUS = 12


class ClassCapExceeded(RuntimeError):
    """The enumeration produced more classes than the configured cap."""


class OracleRangeExceeded(ValueError):
    """The brute-force oracle was asked for more than its guarded range."""


def class_cap_from_env():
    """The class cap configured via DEHN_ROOTS_CLASS_CAP, or the default."""
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_CLASS_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise RangeExceeded("%s must be a positive integer, got %r" % (CAP_ENV_VAR, raw))
    return cap


def cone_weight(n, order):
    """Genus contribution (n/order)(order - 1)/2 of one cone of the given order."""
    twice = (n // order) * (order - 1)
    if twice % 2:
        raise ValueError("order %d has non-integral weight in degree %d" % (order, n))
    return twice // 2


def _order_multisets(n, twice_target):
    """Multisets of divisors > 1 of n whose doubled weights sum to twice_target.

    Doubled weights keep everything integral for even n (the fractional
    candidates need that); each multiset comes out sorted ascending and
    the list is in lexicographic order.
    """
    divs = [d for d in divisors(n) if d > 1]
    # (n/d)(d - 1) = n - n/d grows with d, so the first weight that does
    # not fit ends the scan at that depth
    weights = [(n // d) * (d - 1) for d in divs]
    out = []
    picked = []  # indices into divs
    remaining = twice_target
    j = 0
    while True:
        if remaining == 0:
            out.append(tuple([divs[i] for i in picked]))
        elif j < len(divs) and weights[j] <= remaining:
            picked.append(j)
            remaining -= weights[j]
            continue
        if not picked:
            return out
        j = picked.pop()
        remaining += weights[j]
        j += 1


def cone_multisets(n, target):
    """All multisets of cone orders for degree n with weights summing to target.

    target = 0 yields the single empty multiset.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("degree must be odd and >= 3, got %r" % (n,))
    if target < 0:
        return []
    return _order_multisets(n, 2 * target)


def twist_pairs(n, power=1):
    """Unordered unit pairs (a, b), a <= b, with a + b = power*a*b mod n.

    The condition reads b*(power*a - 1) = a, so it has a unit solution b
    exactly when power*a - 1 is a unit, and then b = a*(power*a - 1)^-1.
    One inverse per unit a, keeping a <= b.  An even n with an odd power
    has no pairs: units are odd, so a + b is even while power*a*b is odd.
    """
    if n < 2 or power < 1:
        raise ValueError("need degree >= 2 and power >= 1, got %r, %r" % (n, power))
    pairs = []
    for a in range(1, n):
        if gcd(a, n) == 1 and gcd(power * a - 1, n) == 1:
            b = a * mod_inverse(power * a - 1, n) % n
            if a <= b:
                pairs.append((a, b))
    return pairs


def _cone_assignments(n, orders, target, unit_cones):
    """Yield the cone tuples ((c_1, n_1), ..., (c_m, n_m)) for the sorted
    cone orders with sum (n/n_i)*c_i = target mod n, residues nondecreasing
    within runs of equal order; ``unit_cones[order]`` lists the unit cones.

    Position i tries ``choices[i][pos[i]]`` with ``need[i]`` still owed;
    positions i.. contribute a multiple of suffix[i].
    """
    m = len(orders)
    steps = [n // order for order in orders]
    suffix = [n] * (m + 1)
    for i in range(m - 1, -1, -1):
        suffix[i] = gcd(suffix[i + 1], steps[i])
    need = [target % n] + [0] * m
    if need[0] % suffix[0]:
        return
    choices = [unit_cones[order] for order in orders]
    acc = [None] * m
    pos = [0] * (m + 1)
    i = 0
    while i >= 0:
        if i == m:
            yield tuple(acc)
            i -= 1
            continue
        j = pos[i]
        if j == len(choices[i]):
            i -= 1
            continue
        pos[i] = j + 1
        cone = choices[i][j]
        rest = (need[i] - steps[i] * cone[0]) % n
        if rest % suffix[i + 1] == 0:
            acc[i] = cone
            i += 1
            need[i] = rest
            pos[i] = j if i < m and orders[i] == orders[i - 1] else 0


def _search(g, n, pairs):
    """Yield canonical (g0, a, b, cones), one per data set of genus g and
    degree n with (a, b) in ``pairs``.  The empty cone multiset is kept: for
    power 1 it fails (IV), as a + b = a*b is a unit, but higher powers allow it.
    """
    if not pairs:
        return
    unit_cones = {d: [(c, d) for c in range(1, d) if gcd(c, d) == 1] for d in divisors(n)}
    for g0 in range(g // n + 1):
        for orders in _order_multisets(n, 2 * (g - g0 * n)):
            for a, b in pairs:
                for cones in _cone_assignments(n, orders, -(a + b), unit_cones):
                    yield g0, a, b, cones


def datasets(g, n, class_cap=None):
    """All root classes of genus g and degree n, canonical and sorted.

    Nonpositive genus and even, tiny or above 2g+1 degree give an empty
    list at once (those cases are theorems, not errors).  Raises
    ClassCapExceeded, returning nothing, once more than ``class_cap``
    classes appear (default 10**7).
    """
    cap = DEFAULT_CLASS_CAP if class_cap is None else class_cap
    if n % 2 == 0 or not 3 <= n <= 2 * g + 1:
        return []
    found = []
    for g0, a, b, cones in _search(g, n, twist_pairs(n)):
        found.append(DataSet(n, g0, a, b, cones))
        if len(found) > cap:
            raise ClassCapExceeded(
                "more than %d classes of genus %d, degree %d" % (cap, g, n)
            )
    found.sort()
    return found


def oracle_datasets(g, n):
    """Brute-force cross-check of ``datasets``: try every raw residue tuple.

    Enumerates every quotient genus, every ordered tuple of cone orders
    matching the genus, and every tuple of raw residues; keeps what
    ``validate`` accepts, canonicalizes, deduplicates.  Guarded to
    n <= 15, g <= 12.
    """
    if n > ORACLE_MAX_DEGREE or g > ORACLE_MAX_GENUS:
        raise OracleRangeExceeded(
            "oracle accepts n <= %d and g <= %d" % (ORACLE_MAX_DEGREE, ORACLE_MAX_GENUS)
        )
    if g < 1 or n < 3 or n % 2 == 0:
        return []
    divs = [d for d in divisors(n) if d > 1]
    out = set()
    for g0 in range(g // n + 1):
        remaining2 = 2 * (g - g0 * n)
        shapes = [()] if remaining2 == 0 else []
        frontier = [()]
        while frontier:
            shape = frontier.pop()
            for d in divs:
                extended = shape + (d,)
                weight2 = sum((n // x) * (x - 1) for x in extended)
                if weight2 == remaining2:
                    shapes.append(extended)
                elif weight2 < remaining2:
                    frontier.append(extended)
        units = [u for u in range(n) if gcd(u, n) == 1]
        for shape in shapes:
            for a in units:
                for b in units:
                    for residues in product(*(range(d) for d in shape)):
                        # quick unit screen before paying for construction;
                        # validate() re-checks everything on survivors
                        if any(gcd(c, d) != 1 for c, d in zip(residues, shape)):
                            continue
                        candidate = DataSet(n, g0, a, b, tuple(zip(residues, shape)))
                        if validate(candidate).valid and candidate.genus == g:
                            out.add(candidate)
    return sorted(out)


def has_root(g, n):
    """True when the genus-(g+1) twist has a degree-n root (first witness wins)."""
    if n % 2 == 0 or not 3 <= n <= 2 * g + 1:
        return False
    return next(_search(g, n, twist_pairs(n)), None) is not None


def root_degrees(g):
    """All degrees of roots of the twist on the genus-(g+1) surface.

    Only odd n in [3, 2g+1] can occur, so only those are scanned.
    """
    if g < 1:
        return []
    return [n for n in range(3, 2 * g + 2, 2) if has_root(g, n)]


def genus_set(n, g_max):
    """All g <= g_max for which the genus-(g+1) twist has a degree-n root."""
    return [g for g in range(g_max + 1) if has_root(g, n)]


def primary_datasets(g, n, class_cap=None):
    """The classes of genus g, degree n in which every cone has order n."""
    return [
        ds
        for ds in datasets(g, n, class_cap)
        if all(order == n for _, order in ds.cones)
    ]
