"""Independent computations for the tests: a brute-force oracle and a count.

``oracle_datasets`` tries every raw residue tuple and keeps what ``validate``
accepts.  It shares no code with the residue search it checks, and is
exponential, so it is guarded to a small range.  ``independent_count`` counts
the classes of a cell shape by shape, by residue sums over Z/n, without the
Fourier transform, and reaches the genus ceiling; ``independent_tags`` reads
DE_ROOT and the all-n tags off it by their definitions.  ``figure1_csv`` spells
the pair table's CSV out tag by tag, without runs.  ``shape_count`` is not
independent: it is the listing's own per-shape count, the one the class cap
reads, summed over a cell, which the pair table and the listings are checked
against.
"""

from itertools import product
from math import gcd

from dehnroots import enumeration
from dehnroots.dataset import DataSet, validate
from dehnroots.numtheory import divisors

# Hard bounds for the brute-force oracle; beyond them it is exponential noise.
ORACLE_MAX_DEGREE = 15
ORACLE_MAX_GENUS = 12


def oracle_datasets(g, n):
    """Brute-force cross-check of ``datasets``: try every raw residue tuple.

    Enumerates every quotient genus, every ordered tuple of cone orders
    matching the genus, and every tuple of raw residues; keeps what
    ``validate`` accepts, canonicalizes, deduplicates.  Guarded to
    n <= 15, g <= 12: past that it raises ValueError.
    """
    if n > ORACLE_MAX_DEGREE or g > ORACLE_MAX_GENUS:
        raise ValueError(
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


def _units(d):
    return [u for u in range(1, d) if gcd(u, d) == 1]


def _order_counts(divs, twice):
    """Each list [(order, count), ...], one count per (order, doubled weight) in
    divs, whose doubled weights sum to twice."""
    if not divs:
        if twice == 0:
            yield []
        return
    (order, weight), rest = divs[0], divs[1:]
    for count in range(twice // weight + 1):
        for tail in _order_counts(rest, twice - count * weight):
            yield [(order, count)] + tail


def _multisets_by_sum(d, k):
    """How many size-k multisets of units of Z/d have each residue sum mod d."""
    table = [[1] + [0] * (d - 1)] + [[0] * d for _ in range(k)]  # table[size][sum]
    for u in _units(d):
        for size in range(1, k + 1):  # ascending sizes, so u may repeat
            for r in range(d):
                table[size][(r + u) % d] += table[size - 1][r]
    return table[k]


def independent_count(g, n, g0s=None, cones=None, orders=None, power=1):
    """The number of classes of genus g and degree n, counted by residue sums; where
    given, only those with a quotient genus in ``g0s``, ``cones`` cones and every cone
    order in ``orders``.  With a ``power`` l, the twist pairs are those of
    a + b = l*a*b mod n: the candidates of the power-l twist, of any degree n >= 2."""
    wanted = [0] * n  # twist pairs a <= b by -(a + b) mod n, from a brute-force scan
    for a in _units(n):
        for b in _units(n):
            if a <= b and (a + b - power * a * b) % n == 0:
                wanted[-(a + b) % n] += 1
    divs = [(d, n - n // d) for d in range(2, n + 1)
            if n % d == 0 and (orders is None or d in orders)]
    total = 0
    for g0 in range(g // n + 1) if g0s is None else [g0 for g0 in g0s if g0 * n <= g]:
        for runs in _order_counts(divs, 2 * (g - g0 * n)):
            if cones is not None and sum(k for _, k in runs) != cones:
                continue
            sums = [1] + [0] * (n - 1)  # cone assignments by sum (n/n_i)*c_i mod n
            for d, k in runs:
                grown = [0] * n
                for s, ways in enumerate(_multisets_by_sum(d, k)):
                    for r in range(n):
                        grown[(r + n // d * s) % n] += sums[r] * ways
                sums = grown
            total += sum(w * c for w, c in zip(wanted, sums))
    return total


def independent_tags(g, n):
    """(DE_ROOT, PRIMARY + MARGALIT_SCHLEIMER + CUBE_OF_T4) of the cell (g, n) from the
    definitions of the tags, by ``independent_count``: the classes of g0 = 0 and two
    cones, and those whose cones all have order n, but the two-cone ones of g0 = 0."""
    two = independent_count(g, n, g0s=[0], cones=2)
    return two, (independent_count(g, n, orders=[n])
                 - independent_count(g, n, g0s=[0], cones=2, orders=[n]))


def figure1_csv(rows):
    """The bytes of ``figure1`` for the ``PairRow``s: each tag repeated by its count,
    the whole row's tags joined by "+"."""
    lines = ["g,n,classes,tags\n"]
    for row in rows:
        tags = "+".join(tag for tag, k in row.tags for _ in range(k))
        lines.append("%d,%d,%d,%s\n" % (row.genus, row.degree, row.class_count, tags))
    return "".join(lines).encode()


def shape_count(g, n, pairs, power=1):
    """The classes of the cell (g, n) with ``pairs`` power-l twist pairs, summed shape by
    shape by ``_shape_counts`` over the cell that ``_cell`` walks: the rests g, g - n, ...
    The functions are looked up in ``enumeration`` per call, so a mutant set there counts."""
    cell = enumeration._order_runs(n, range(g, -1, -n))
    return sum(enumeration._shape_counts(n, cell, pairs, power))
