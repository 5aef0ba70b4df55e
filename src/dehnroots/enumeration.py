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
    ``pow`` inverse per pair after a sieve by the primes of n,
  * cone residues, one multiset of units per run of equal cone order, so
    each class appears exactly once.

``_order_runs`` walks the first two once per cell: the caller names the rests g - g0*n it
reads and gets one list of cone-order multisets per rest, as runs of equal order.
``_shape_counts`` counts each shape's classes without building one, for the class cap of a
listing, which walks the shapes anyway.  ``_rest_series`` counts the classes of every
shape of each rest at once, as the coefficients of one truncated power series per divisor
of the degree, so ``special_roots.class_count`` and the pair table ``figure1`` writes
(``pair_table``) walk no shape; ``special_roots`` alone decides the tags.  Both counters
read the number of twist pairs and gcd(l, n), which all pairs share (``_pair_weights``),
so neither solves a pair.  ``_cell`` is the one counted cell behind every listing: it
checks the genus ceiling, walks a cell's shapes, solves its twist pairs for the search and
checks its total against the cap before it returns the cell's block stream (``_search``),
which ``datasets`` (every degree counted first, for a whole genus), ``primary_datasets``
and the fractional candidates iterate, so a cell past the cap fails at once and in bounded
memory.  A prepared shape is its own solver (``_shape``): a function of the target
-(a + b) over the multisets of every run but the last with their residue sums, and a table
of the last run's tails per need.  The table is filled in one pass per shape over the last
run's multisets, bucketed by unit sum, and keeps only the needs that the cell's twist-pair
targets meet through a head, so memory holds each tail of the shape once at most and no
need's that no pair reads.  Per twist pair the solver makes one divisibility check and one
lookup per head.  The blocks come in canonical order, without a sort of the whole cell,
one per (n, g0, a, b), and the listings flatten them.  Each order's units (``_units``) and
each degree's divisors (``_divisors``) are tabled once.

Existence (``has_root``, ``genus_set``) is decided by the lcm rule in
``_root_genera``, without twist pairs, counts or the search: cone orders have lcm
n exactly when they hold a cover of n's prime powers, so one knapsack over the
divisors, seeded with the cover weights, gives every genus; ``_covers`` keeps both,
the seed and the item weights, per degree.  ``root_degrees`` runs it only for
degrees n <= g past the abstract's bound and reads those above g from the paper's
large-degree classification: 2g+1 and ``special_roots.de_roots``.
"""

import os
from functools import cache, lru_cache
from itertools import chain, combinations_with_replacement, repeat

from .dataset import RangeExceeded, _canonical, _read_int
from .numtheory import (_check_ceiling, _check_odd_degree, _show, divisors, factorize, gcd,
                        mod_inverse)

__all__ = [
    "ClassCapExceeded",
    "cone_multisets",
    "twist_pairs",
    "datasets",
    "root_degrees",
    "has_root",
    "genus_set",
    "primary_datasets",
]

DEFAULT_CLASS_CAP = 10**7
CAP_ENV_VAR = "DEHN_ROOTS_CLASS_CAP"

# Documented ceilings: datasets(400, 3) lists 9,045 classes; genus_set(n, 10**4)
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


class ClassCapExceeded(RuntimeError):
    """The enumeration produced more classes than the configured cap."""


def class_cap_from_env():
    """The class cap configured via DEHN_ROOTS_CLASS_CAP, or the default."""
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_CLASS_CAP
    malformed = "%s must be a positive integer, got %s" % (CAP_ENV_VAR, _show(raw))
    if (cap := _read_int(raw, RangeExceeded, malformed, CAP_ENV_VAR)) < 1:
        raise RangeExceeded(malformed)
    return cap


@lru_cache(maxsize=_DEGREES_KEPT)
def _divisors(n):
    """divisors(n) as a tuple, kept for the last 5,001 degrees: the walk, the counts and
    the lcm rule read them, and factoring again costs more than a small cell's walk."""
    return tuple(divisors(n))


def _order_runs(n, rests):
    """[[runs, ...] per rest]: for each of ``rests``, in their order, the multisets of
    divisors > 1 of n whose cone weights sum to it, as runs ((order, count), ...) of rising
    order, lexicographic.  The walk reads doubled weights n - n/d, integral for even n too.
    A node is a run prefix; its children take a later divisor, rising, with its count,
    highest first, kept only if the divisors after theirs reach a wanted weight (``need``)."""
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
    return [found.get(2 * r, []) for r in rests]


def cone_multisets(n, target):
    """All multisets of cone orders for degree n with weights summing to target, each
    ascending, in lexicographic order: () alone for target 0, none for a negative one.
    The target must not exceed CONE_MULTISETS_MAX_TARGET."""
    _check_odd_degree(n)
    _check_ceiling(target, CONE_MULTISETS_MAX_TARGET, "cone_multisets is supported up to target")
    if target < 0:
        return []
    return [sum(((order,) * count for order, count in runs), ())
            for runs in _order_runs(n, [target])[0]]


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
        b = a * pow(power * a - 1, -1, n) % n  # a unit: the sieve struck the rest
        left[b] = 0
        pairs.append((a, b))
        a = left.find(1, a + 1)
    return pairs


@cache
def _units(d):
    """(units, cones) of Z/d: its rising units and their cone pairs (c, d), which all classes
    share.  Kept for every order: an order divides a listed degree n <= 801 (2g+1 at the
    genus ceiling) or a fractional degree n <= 30, so no order exceeds 801."""
    units = tuple(c for c in range(1, d) if gcd(c, d) == 1)
    return units, tuple((c, d) for c in units)


def _multisets(order, count):
    """(unit sum, cone tuple) of every size-``count`` multiset of units of Z/order, rising."""
    units, cones = _units(order)
    return zip(map(sum, combinations_with_replacement(units, count)),
               combinations_with_replacement(cones, count))


def _shape(n, runs, targets):
    """The solver of one cone-order shape, prepared once for the ``targets`` -(a + b) mod n
    of its twist pairs: target -> the cone tuples ((c_1, n_1), ...) of the runs [(order,
    count), ...] with sum (n/n_i)*c_i = target mod n, in lexicographic order.  The heads
    are every multiset of every run but the last, as (residue mod n, cone tuple); one
    passes only if the last run's step n/order divides its remainder, leaving the last run
    a need mod order.  One pass over the last run's multisets fills ``tails``, need ->
    those with that unit sum mod order, for the needs the targets meet through a head
    only, so memory holds each tail of the shape once at most; solving is a lookup."""
    if not runs:  # no cones: (IV) reads a + b = 0
        return lambda target: [()] if target % n == 0 else []
    heads = [(0, ())]
    for order, count in runs[:-1]:
        step, run = n // order, list(_multisets(order, count))
        heads = [((r + step * s) % n, head + cs) for r, head in heads for s, cs in run]
    order, count = runs[-1]
    step = n // order
    residues = {residue for residue, _ in heads}
    tails = [None] * order  # None for a need that no target meets
    for gap in {(target - residue) % n for target in targets for residue in residues}:
        if gap % step == 0:
            tails[gap // step] = []
    for total, tail in _multisets(order, count):
        if (kept := tails[total % order]) is not None:
            kept.append(tail)

    def solve(target):
        found = []
        for residue, head in heads:
            need, off = divmod((target - residue) % n, step)
            if not off and (kept := tails[need]):
                found += [head + tail for tail in kept]
        return found
    return solve


def _cell(g, n, class_cap, power=1, primary=False):
    """The blocks ``_search`` yields for the cell (g, n), g <= 400, with the power-l twist
    pairs, once its classes are counted within the class cap, before any shape is prepared:
    cell[g0] holds the shapes of the rest g - g0*n, only the all-n ones if ``primary``; the
    pairs are solved once, for the search, and not without a shape; the count reads how many."""
    _check_ceiling(g, DATASETS_MAX_GENUS, "datasets is supported up to g")
    cell = _order_runs(n, range(g, -1, -n))
    if primary:
        cell = [[runs for runs in rest if all(d == n for d, _ in runs)] for rest in cell]
    pairs = twist_pairs(n, power) if any(cell) else []
    _check_class_cap(g, n, sum(_shape_counts(n, cell, len(pairs), power)), class_cap)
    return _search(n, cell, pairs)


def _search(n, cell, pairs):
    """Yield the classes of a cell of degree n in canonical order as blocks (n, g0, a, b,
    found), one per (n, g0, a, b) with classes, ``found`` their cone tuples.  ``cell[g0]``
    holds the shapes of quotient genus g0, ``pairs`` the rising twist pairs.  A g0 at a
    time, each shape's solver is prepared once (``_shape``) for the pairs' targets, and per
    pair they run, their cones sorted together if several.  The empty cone multiset is kept:
    for power 1 it fails (IV), as a + b = a*b is a unit, but higher powers allow it."""
    targets = {-(a + b) % n for a, b in pairs}
    for g0, shapes in enumerate(cell):
        solvers = [_shape(n, runs, targets) for runs in shapes]
        for a, b in pairs if solvers else ():
            found = (solvers[0](-(a + b)) if len(solvers) == 1 else
                     sorted([cones for solve in solvers for cones in solve(-(a + b))]))
            if found:
                yield n, g0, a, b, found
        del solvers  # so the next g0's tails reuse this g0's memory


def _listed(cells):
    """The ``DataSet``s of the blocks of counted ``_cell``s, unchecked (``_canonical``)."""
    return [ds for cell in cells for n, g0, a, b, found in cell
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


def _pair_weights(n, count, power):
    """{e: V(e)} over the divisors e of n with V(e) != 0, where V(e), the weight of e in a
    Fourier count, sums c_(n/e)(a + b) over the ``count`` power-l twist pairs of degree n.
    c_(n/e)(s) depends on s only through gcd(n, s), which is gcd(l, n) for every pair, as
    (III) reads a + b = l*a*b mod n with a*b a unit: V(e) = count * c_(n/e)(l)."""
    weights = {e: count * _ramanujan(n // e, gcd(n // e, power)) for e in _divisors(n)}
    return {e: weight for e, weight in weights.items() if weight}


def _rest_series(n, count, top):
    """(primary, total): the classes of degree n with ``count`` twist pairs, summed over
    the cone-order shapes of each rest r <= top, walking no shape and solving no pair.
    primary[r] counts those whose cones all have order n, total[r] all of them.

    Summed over every shape of rest r, the counts of ``_shape_counts`` read

        (1/n) * sum over e | n of V(e) * [x^r] prod over d | n, d > 1, of
        sum over k of H_k(gcd(e, d)) * x^(k*w_d),    w_d = (n - n/d)/2,

    as a shape takes k_d cones of order d, and H_0 = 1.  The product runs with order
    n first, so the partial product after that factor is the all-n series.  Truncated
    past x^top, a factor costs about top^2/w_d additions per e.  n must be odd, for
    w_d to be whole."""
    orders = [(d, (n - n // d) // 2) for d in reversed(_divisors(n)[1:])]  # n first
    lone = orders[0][1]  # the weight of a cone of order n
    all_n, total = [0] * (top // lone + 1), [0] * (top + 1)
    for e, weight in _pair_weights(n, count, 1).items():
        # V(e) times the order-n factor: the all-n series, nonzero at multiples of lone
        runs = [weight * _run_transform(n, k)[e] for k in range(top // lone + 1)]
        all_n = [a + x for a, x in zip(all_n, runs)]
        series = [0] * (top + 1)
        series[::lone] = runs
        for d, step in orders[1:]:
            grown, f = series[:], gcd(e, d)
            for shift in range(step, top + 1, step):
                if h := _run_transform(d, shift // step)[f]:
                    grown[shift:] = [x + h * y for x, y in zip(grown[shift:], series)]
            series = grown
        total = [t + x for t, x in zip(total, series)]
    primary = [0] * (top + 1)
    primary[::lone] = [a // n for a in all_n]
    return primary, [t // n for t in total]


def _shape_counts(n, cell, count, power):
    """Yield, for each shape of ``cell``, in order, the number of classes ``_search``
    lists for that shape with ``count`` power-l twist pairs of degree n, building none.

    A run of k cones of order d adds (n/d) times a size-k multiset of units of
    Z/d; the runs' sums convolve over Z/n, and a class needs the total to meet
    -(a + b) for a twist pair (a, b).  In the Fourier domain the convolution is
    a product, and every factor depends on t only through e = gcd(t, n), so

        classes = (1/n) * sum over e | n of V(e) * prod over runs of H_k(gcd(e, d)),

    with V(e) the sum of c_(n/e)(a + b) over the pairs (``_pair_weights``).  That is
    tau(n) products per shape.  The cost follows the number of shapes: (400, 15), the
    slowest cell inside the g <= 400 ceiling, has 3,825.
    """
    weights = _pair_weights(n, count, power)
    for runs in chain.from_iterable(cell):
        transforms = [(order, _run_transform(order, k)) for order, k in runs]
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
    return _listed([_cell(g, d, class_cap) for d in degrees])  # all counted before one is listed


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
    Those up to g are the ones ``has_root`` accepts.  Every root of degree n > g is a
    Margalit-Schleimer root, of degree 2g+1, or a (d,e)-root, whose degrees
    ``special_roots.de_roots`` lists, rising and between g and 2g+1."""
    _check_ceiling(g, GENUS_SET_MAX_GENUS, "root_degrees is supported up to g")
    if g < 1:
        return []
    from . import special_roots  # it imports this module; looked up per call, as cli does
    low = [n for n in range(3, g + 1, 2) if has_root(g, n)]
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
    return _listed([_cell(g, n, class_cap, primary=True)])
