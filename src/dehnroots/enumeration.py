"""Exhaustive enumeration and counting of root classes for a genus and degree.

``datasets(g, n)`` lists every canonical data set of genus g and degree n,
i.e. every conjugacy class of degree-n roots of the twist on the genus
g+1 surface, and ``datasets(g)`` those of every odd degree 3..2g+1.  A
class is a quotient genus g0, a multiset of cone orders, a twist pair and
cone residues satisfying (I)-(IV); the pieces run over

  * the quotient genus g0 with g0*n <= g,
  * multisets of cone orders (divisors of n exceeding 1) whose weights
    (n/n_i)(n_i - 1)/2 sum to g - g0*n,
  * the twist pairs: units a <= b with a + b = l*a*b mod n (l = 1 for
    ordinary roots), solved as b = a*(l*a - 1)^-1 by ``twist_pairs``, one
    inverse per pair after a sieve by the primes of n,
  * cone residues, one multiset of units per run of equal cone order, so
    each class appears exactly once.

``_order_runs`` walks the first two once per cell: the caller names the rests
g - g0*n it reads and gets one (rest, runs) per cone-order multiset, with the
runs of equal order.  ``_shape_counts`` counts each shape's classes without
building one, for the class cap and for ``special_roots.class_count`` and the
pair table ``figure1`` writes (``pair_table``, one row of tag counts per
cell).  ``_cell`` is the one counted cell behind every listing: it walks a
cell's shapes, solves its twist pairs and checks its total against the cap,
before ``_search`` lists a class of ``datasets`` (every degree first, for a
whole genus), ``primary_datasets`` or the fractional candidates, so a cell
past the cap fails at once and in bounded memory.  The residue search then
prepares each shape once (``_shape``): the multisets of every run but the
last with their residue sums, and the unit sums of the last run's multisets
short of one unit.  Per twist pair only ``_solve`` runs, one divisibility
check per head and one pass over the tails per need, and ``_search`` yields the
classes in canonical order, without a sort of the whole cell, in blocks of one
(n, g0, a, b) that the listings flatten.  Each order's units (``_units``) and
each degree's divisors (``_divisors``) are tabled once.

Existence (``has_root``, ``genus_set``) is decided by the lcm rule in
``_root_genera``, without twist pairs, counts or the search: cone orders have lcm
n exactly when they hold a cover of n's prime powers, so one knapsack over the
divisors, seeded with the cover weights, gives every genus; ``_covers`` keeps both,
the seed and the item weights, per degree.  ``root_degrees`` runs it only for
degrees n <= g past the abstract's bound and reads those above g from the paper's
large-degree classification: 2g+1 and ``special_roots.de_roots``.

``oracle_datasets`` answers the same question by brute force over raw
residue tuples; it is deliberately naive, range-guarded, and kept as an
independent cross-check of the search above.
"""

import os
from collections import Counter
from functools import cache, lru_cache
from itertools import combinations_with_replacement, groupby, product, repeat
from operator import itemgetter

from .dataset import DataSet, RangeExceeded, _canonical, validate
from .numtheory import _check_ceiling, _show, divisors, factorize, gcd, mod_inverse

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

# Documented ceilings: datasets(400, 3) lists 9,045 classes in 35 MB; genus_set(n, 10**4)
# runs one knapsack on bitsets of 10**4 + 1 bits, and root_degrees(10**4) runs 4,929.
# twist_pairs stops at the degree 2g+1 of ms_roots's ceiling g = 10**5.  cone_multisets
# stops at target 10**4 (callers inside reach 400): its walk's bitsets are 2*target wide.
DATASETS_MAX_GENUS = 400
CONE_MULTISETS_MAX_TARGET = 10**4
GENUS_SET_MAX_GENUS = 10**4
TWIST_PAIRS_MAX_DEGREE = 2 * 10**5 + 1

# _divisors and _covers keep 5,001 degrees, more than the 4,929 that root_degrees(10**4)
# reads, so a repeated call hits; full with every odd n <= 10**4, both hold 6.8 MB.
_DEGREES_KEPT = GENUS_SET_MAX_GENUS // 2 + 1

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
    """Genus contribution (n/order)(order - 1)/2 of a cone whose order divides n >= 2."""
    if n < 2:
        raise RangeExceeded("degree must be >= 2, got %s" % _show(n))
    if order < 2 or n % order:
        raise RangeExceeded("cone order must be a divisor >= 2 of %s, got %s"
                            % (_show(n), _show(order)))
    twice = (n // order) * (order - 1)
    if twice % 2:
        raise ValueError("order %d has non-integral weight in degree %d" % (order, n))
    return twice // 2


@lru_cache(maxsize=_DEGREES_KEPT)
def _divisors(n):
    """divisors(n) as a tuple, kept for the last 5,001 degrees: the walk, the counts and
    the lcm rule read them, and factoring again costs more than a small cell's walk."""
    return tuple(divisors(n))


def _order_runs(n, rests):
    """[(rest, runs)] for the rising ``rests``: each multiset of divisors > 1 of n whose cone
    weights sum to a rest, as runs ((order, count), ...) with rising order, lexicographic
    per rest.  The walk reads doubled weights n - n/d, integral for even n too.  A node is a
    run prefix; its children take a later divisor, rising, with its count, highest first,
    and are kept only if the divisors after theirs reach a wanted weight (``need``)."""
    wanted = sum(1 << 2 * r for r in rests)
    top = wanted.bit_length() - 1
    # n - n/d grows with d, so the divisors that fit under top are a prefix
    divs = [(d, n - n // d) for d in _divisors(n) if 1 < d and n - n // d <= top]
    # need[j]: the partial weights from which divisors j, j+1, ... reach a wanted weight
    need = [wanted] * (len(divs) + 1)
    for j in reversed(range(len(divs))):
        bits, shift = need[j + 1], divs[j][1]
        while shift <= top:  # closed under taking divisor j once more: doubling shifts
            bits |= bits >> shift
            shift *= 2
        need[j] = bits
    found = {}
    stack = [(0, 0, ())]  # (weight so far, first divisor still free, runs)
    while stack:
        total, first, runs = stack.pop()
        if wanted >> total & 1:
            found.setdefault(total, []).append(runs)
        for j in reversed(range(first, len(divs))):  # pushed in reverse, popped in order
            order, weight = divs[j]
            after = need[j + 1]
            for count in range(1, (top - total) // weight + 1):
                if after >> (total + count * weight) & 1:
                    stack.append((total + count * weight, j + 1, runs + ((order, count),)))
    return [(r, runs) for r in rests for runs in found.get(2 * r, [])]


def cone_multisets(n, target):
    """All multisets of cone orders for degree n with weights summing to target, each
    ascending, in lexicographic order: () alone for target 0, none for a negative one.
    The target must not exceed CONE_MULTISETS_MAX_TARGET."""
    if n < 3 or n % 2 == 0:
        raise ValueError("degree must be odd and >= 3, got %r" % (n,))
    _check_ceiling(target, CONE_MULTISETS_MAX_TARGET, "cone_multisets is supported up to target")
    if target < 0:
        return []
    return [sum(((order,) * count for order, count in runs), ())
            for _, runs in _order_runs(n, [target])]


def twist_pairs(n, power=1):
    """Unordered unit pairs (a, b), a <= b, with a + b = power*a*b mod n, rising in a.

    The condition reads b*(power*a - 1) = a, so it has a unit solution b
    exactly when a and power*a - 1 are units, and then b = a*(power*a - 1)^-1.
    A sieve strikes the other a, two slices per prime p of n: a = 0 and, if p
    does not divide power, power*a = 1 mod p (an even n with an odd power keeps
    none).  On the rest a -> b is an involution, as power*b - 1 = (power*a - 1)^-1,
    so each pair costs one inverse: the least unstruck a gives b, struck as met.
    The list grows with n, so n must not exceed TWIST_PAIRS_MAX_DEGREE.
    """
    if n < 2 or power < 1:
        raise ValueError("need degree >= 2 and power >= 1, got %s, %s" % (_show(n), _show(power)))
    _check_ceiling(n, TWIST_PAIRS_MAX_DEGREE, "twist_pairs is supported up to n")
    left = bytearray([1]) * n
    for p, _ in factorize(n):
        left[::p] = bytes(len(range(0, n, p)))
        if power % p:
            start = mod_inverse(power, p)
            left[start::p] = bytes(len(range(start, n, p)))
    pairs = []
    a = left.find(1)
    while a >= 0:
        b = a * mod_inverse(power * a - 1, n) % n
        left[b] = 0
        pairs.append((a, b))
        a = left.find(1, a + 1)
    return pairs


@lru_cache(maxsize=1 << 10)
def _units(d):
    """(units, pairs) of Z/d: its rising units and {c: (c, d)}, the cone pairs all classes
    share.  Kept for the last 1,024 orders; the 401 orders of odd n <= 801 retain 15.3 MB."""
    pairs = {c: (c, d) for c in range(1, d) if gcd(c, d) == 1}
    return tuple(pairs), pairs


def _shape(n, runs):
    """What one cone-order shape's residue search shares across its twist pairs:
    (heads, order, count, totals, lows) for the runs [(order, count), ...], or None for
    no cones.  The heads are every multiset of every run but the last, as (residue mod n,
    cone tuple) with residue sum (n/n_i)*c_i, in lexicographic order.  The tails are the
    count - 1 multisets of the last run's units, in lexicographic order, kept only as
    their unit sums (``totals``) and lowest allowed last units (``lows``)."""
    if not runs:
        return None
    heads = [(0, ())]
    for order, count in runs[:-1]:
        step, (units, cones) = n // order, _units(order)
        run = list(zip(map(sum, combinations_with_replacement(units, count)),
                       combinations_with_replacement(tuple(cones.values()), count)))
        heads = [((r + step * s) % n, head + cs) for r, head in heads for s, cs in run]
    order, count = runs[-1]
    units = _units(order)[0]
    totals = list(map(sum, combinations_with_replacement(units, count - 1)))
    lows = (list(map(itemgetter(-1), combinations_with_replacement(units, count - 1)))
            if count > 1 else [1])
    return heads, order, count, totals, lows


def _solve(n, shape, target):
    """The cone tuples ((c_1, n_1), ...) of a ``_shape`` with sum (n/n_i)*c_i = target
    mod n, in lexicographic order.  A head passes only if the last run's step n/order
    divides its remainder, leaving the last run a need.  One pass over the last run's
    multisets short of one unit solves a need's tails, each with its last unit if that is
    a unit not below the multiset's last; the heads of one need share them."""
    if shape is None:  # no cones: (IV) reads a + b = 0
        return [()] if target % n == 0 else []
    heads, order, count, totals, lows = shape
    step, cones = n // order, _units(order)[1]
    pairs = tuple(cones.values())
    found, solved = [], {}  # need -> its tails
    for residue, head in heads:
        need, off = divmod((target - residue) % n, step)
        if off:
            continue
        if need not in solved:
            solved[need] = [combo + (cones[last],) for combo, total, low in zip(
                combinations_with_replacement(pairs, count - 1), totals, lows)
                if (last := (need - total) % order) >= low and last in cones]
        if tails := solved[need]:
            found += [head + tail for tail in tails]
    return found


def _cell(g, n, class_cap, power=1, primary=False):
    """The cell (g, n, shapes, power-l twist pairs) ``_search`` lists, once its classes are
    counted within the class cap: the shapes of its rests g - g0*n, only the all-n ones if
    ``primary``; the pairs are solved once, and not without a shape."""
    shapes = _order_runs(n, range(g % n, g + 1, n))
    if primary:
        shapes = [(r, runs) for r, runs in shapes if all(order == n for order, _ in runs)]
    pairs = twist_pairs(n, power) if shapes else []
    _check_class_cap(g, n, sum(_shape_counts(n, shapes, pairs)) if pairs else 0, class_cap)
    return g, n, shapes, pairs


def _search(g, n, shapes, pairs):
    """Yield the classes of genus g, degree n in canonical order as blocks (n, g0, a, b,
    found), one per (n, g0, a, b) with classes, ``found`` their cone tuples.  ``shapes``
    is [(rest, runs)] with rising rests and g0 = (g - rest)/n, ``pairs`` the rising twist
    pairs.  Each shape is prepared once (``_shape``), a rest at a time, falling so g0
    rises; per pair the shapes of the rest are solved, and sorted together if several.
    The empty cone multiset is kept: for power 1 it fails (IV), as a + b = a*b is a
    unit, but higher powers allow it."""
    for rest, group in groupby(reversed(shapes), key=itemgetter(0)):
        g0, prepared = (g - rest) // n, [_shape(n, runs) for _, runs in group]
        for a, b in pairs:
            found = (_solve(n, prepared[0], -(a + b)) if len(prepared) == 1 else
                     sorted([cones for shape in prepared for cones in _solve(n, shape, -(a + b))]))
            if found:
                yield n, g0, a, b, found


def _listed(cells):
    """The ``DataSet``s of counted ``_cell``s, unchecked (``_canonical``), block by block."""
    return [ds for cell in cells for n, g0, a, b, found in _search(*cell)
            for ds in map(_canonical, zip(repeat(n), repeat(g0), repeat(a), repeat(b), found))]


@cache
def _ramanujan(d, f):
    """Ramanujan's sum c_d(m) for any m with gcd(d, m) = f: the sum of exp(2*pi*i*u*m/d)
    over the units u of Z/d, which is the integer mu(q)*phi(d)/phi(q) for q = d/f."""
    q = d // f
    value = 1
    for p, e in factorize(d):
        if q % (p * p) == 0:
            return 0
        value *= -(p ** (e - 1)) if q % p == 0 else p ** (e - 1) * (p - 1)
    return value


@cache
def _run_rows(order):
    """(rows, periods) behind ``_run_transform(order, k)``: rows[k] = {e: H_k(e)} for the k
    reached so far, and per divisor e of d = order its period (c, sums) of length P = d/e:
    c[t] = c_d(t*e), which depends only on gcd(d, t*e) and so on t mod P, and sums[s] the
    sum of H_j(e) over the rows j reached with j = s mod P."""
    periods = {}
    for e in _divisors(order):
        period = order // e
        periods[e] = ([_ramanujan(order, gcd(order, t * e)) for t in range(period)],
                      [1] + [0] * (period - 1))  # H_0 = 1, in residue 0
    return [dict.fromkeys(periods, 1)], periods


@cache
def _run_transform(order, k):
    """{e: H_k(e)} over the divisors e of d = order, where H_k(e) is the Fourier
    transform, at any t with gcd(t, d) = e, of the size-k multisets of units of Z/d
    counted by residue sum.  By Newton's identity k*H_k = sum_i c_d(i*e)*H_(k-i),
    as the i-th power sum of exp(2*pi*i*t*u/d) over the units u is c_d(t*i).  The
    coefficient has period P = d/e in i, so the sum reads sum_s c(k - s)*sums[s] over
    the P residues s of the earlier rows (``_run_rows``): each new row costs sigma(d)."""
    rows, periods = _run_rows(order)
    for j in range(len(rows), k + 1):
        row = {e: sum(c[(j - s) % len(c)] * total for s, total in enumerate(sums)) // j
               for e, (c, sums) in periods.items()}
        for e, (c, sums) in periods.items():
            sums[j % len(c)] += row[e]
        rows.append(row)
    return rows[k]


def _shape_counts(n, shapes, pairs):
    """Yield, for each (rest, runs) of ``shapes``, the number of classes ``_search``
    lists for that shape with the twist pairs ``pairs`` of degree n, without building one.

    A run of k cones of order d adds (n/d) times a size-k multiset of units of
    Z/d; the runs' sums convolve over Z/n, and a class needs the total to meet
    -(a + b) for a twist pair (a, b).  In the Fourier domain the convolution is
    a product, and every factor depends on t only through e = gcd(t, n), so

        count = (1/n) * sum over e | n of V(e) * prod over runs of H_k(gcd(e, d)),

    with V(e) the sum of c_(n/e)(a + b) over the pairs.  That is tau(n) products
    per shape; callers solve the pairs only for a cell with a shape.  The cost
    follows the number of shapes: (400, 15), the slowest cell inside the g <= 400
    ceiling, takes 0.01-0.02 s over its 3,825 shapes, and all odd n <= 801 at
    g = 400 take 0.07-0.13 s together, cold (2-core VM).
    """
    pair_sums = Counter((a + b) % n for a, b in pairs)
    weights = {e: sum(_ramanujan(n // e, gcd(n // e, s)) * m for s, m in pair_sums.items())
               for e in _divisors(n)}  # e -> V(e)
    for _, runs in shapes:
        transforms = [(order, _run_transform(order, count)) for order, count in runs]
        total = 0
        for e, weight in weights.items():
            for order, transform in transforms:
                weight *= transform[gcd(e, order)]
            total += weight
        yield total // n


def _check_class_cap(g, n, total, class_cap=None):
    """Raise ClassCapExceeded if the total classes of genus g, degree n pass the cap."""
    cap = DEFAULT_CLASS_CAP if class_cap is None else class_cap
    if total > cap:
        raise ClassCapExceeded("more than %d classes of genus %d, degree %d" % (cap, g, n))


def _degree_occurs(g, n):
    """Can a root of genus g have degree n?  Only odd n in [3, 2g+1] can."""
    return n % 2 == 1 and 3 <= n <= 2 * g + 1


@lru_cache(maxsize=_DEGREES_KEPT)
def _covers(n):
    """(covers, weights) for odd n >= 3, kept for the last 5,001 degrees: the bitset of
    the cover weights of n (bit c), and the rising knapsack item weights of the lcm rule,
    one per divisor: (n - n/d)/2 for the cones d > 1, then n for a unit of g0.

    A cover is a set of divisors of n holding, for each p^alpha || n, one divisible by
    p^alpha; its weight is the sum of its cone weights (n - n/d)/2.  Each cover is built
    by taking an order for the least prime power not yet covered, so it has at most one
    order per prime power: ``reach[covered]`` is the bitset of the weights of the partial
    covers of the prime powers in the mask ``covered``, filled in rising masks."""
    powers = [p**e for p, e in factorize(n)]
    orders = [((n - n // d) // 2, sum(1 << i for i, q in enumerate(powers) if d % q == 0))
              for d in _divisors(n)[1:]]
    done = (1 << len(powers)) - 1
    reach = [1] + [0] * done
    for covered in range(done):  # masks only grow, so reach[covered] is final here
        low = ~covered & (covered + 1)  # the least prime power not yet covered
        for weight, hits in orders:
            if hits & low:
                reach[covered | hits] |= reach[covered] << weight
    return reach[done], tuple(weight for weight, _ in orders) + (n,)


def _root_genera(n, g_max):
    """Bitset of the genera g <= g_max (bit g) with a degree-n root, for odd n >= 3.

    The lcm rule: g = g0*n + sum (n/n_i)(n_i - 1)/2, g0 >= 0, for a nonempty
    multiset of divisors n_i > 1 of n with lcm n.  Proof: twist pairs exist for
    every odd n ((2, 2) is one), and a + b = a*b is a unit; by CRT, (IV) is
    solvable mod each p^alpha || n iff some n_i is divisible by p^alpha, as a
    cone with p^v || n_i adds p^(alpha - v) times any unit mod p^v, and for
    odd p one or more units sum to every unit.  So the lcm is n exactly when the
    multiset holds a cover (``_covers``), and the genera are the cover weights plus
    any g0 and any further cones: one unbounded knapsack over divisors(n), seeded
    with the cover weights, the divisor 1 being one more unit of g0 (weight n).
    Each item is closed under repetition by doubling shifts.
    """
    covers, weights = _covers(n)
    mask = (1 << (g_max + 1)) - 1
    bits = covers & mask
    for shift in weights:
        while shift <= g_max:
            bits |= (bits << shift) & mask
            shift *= 2
    return bits


def datasets(g, n=None, class_cap=None):
    """All root classes of genus g and degree n, canonical and sorted; with n None, those
    of every odd degree 3..2g+1 in turn, each degree counted before any class is built.

    Nonpositive genus and even, tiny or above 2g+1 degree give an empty
    list at once (those cases are theorems, not errors).  Otherwise g must
    not exceed DATASETS_MAX_GENUS.  Raises ClassCapExceeded, before any class
    is built, when a cell counts more than ``class_cap`` classes (default 10**7).
    """
    degrees = range(3, 2 * g + 2, 2) if n is None else [n] if _degree_occurs(g, n) else []
    if degrees:  # checked before the range is walked, which a huge g makes endless
        _check_ceiling(g, DATASETS_MAX_GENUS, "datasets is supported up to g")
    return _listed([_cell(g, d, class_cap) for d in degrees])  # all counted before one is listed


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
    """True when the genus-(g+1) twist has a degree-n root, by the lcm rule; at once
    if g >= (n-2)(n-1)/2 (the abstract's bound), else g must be <= 10**4."""
    if not _degree_occurs(g, n):
        return False
    if 2 * g >= (n - 2) * (n - 1):
        return True
    _check_ceiling(g, GENUS_SET_MAX_GENUS, "has_root is supported up to g")
    return bool(_root_genera(n, g) >> g & 1)


def root_degrees(g):
    """The odd degrees n in [3, 2g+1] of roots of the twist on genus g+1 (g <= 10**4).
    Those up to g have a root at once below the abstract's bound, (n-2)(n-1) <= 2g, and
    otherwise when bit g of the lcm rule's ``_root_genera(n, g)`` is set.  Every root of
    degree n > g is a Margalit-Schleimer root, of degree 2g+1, or a (d,e)-root, whose
    degrees ``special_roots.de_roots`` lists, rising and between g and 2g+1."""
    _check_ceiling(g, GENUS_SET_MAX_GENUS, "root_degrees is supported up to g")
    if g < 1:
        return []
    from . import special_roots  # it imports this module; looked up per call, as cli does
    low = [n for n in range(3, g + 1, 2)
           if (n - 2) * (n - 1) <= 2 * g or _root_genera(n, g) >> g & 1]
    return low + special_roots.de_roots(g) + [2 * g + 1]


def genus_set(n, g_max):
    """All g <= g_max for which the genus-(g+1) twist has a degree-n root; [] at once
    if no genus up to g_max has degree n, else g_max must not exceed GENUS_SET_MAX_GENUS."""
    if not _degree_occurs(g_max, n):
        return []
    _check_ceiling(g_max, GENUS_SET_MAX_GENUS, "genus_set is supported up to g")
    bits = format(_root_genera(n, g_max), "b")[::-1]  # bit g at index g, read in one pass
    return [g for g, bit in enumerate(bits) if bit == "1"]


def primary_datasets(g, n, class_cap=None):
    """The classes of ``datasets(g, n)`` whose cones all have order n.  Only the all-n
    shapes, one per g0, are counted against the class cap and listed."""
    if not _degree_occurs(g, n):
        return []
    _check_ceiling(g, DATASETS_MAX_GENUS, "datasets is supported up to g")
    return _listed([_cell(g, n, class_cap, primary=True)])
